#!/usr/bin/env python3
"""Self-test of the flexnets benchmark at a tiny size.

    python3 perfbench/self_test.py

Builds the perfbench binary like run.py, then checks, for every workload:
  - an untraced run prints exactly the end-to-end metrics of BENCHMARK.json
    with their units, all non-zero, and passes its output checks on the
    pinned default seed and on a held-out seed without pins;
  - a traced run prints every per-layer metric with its unit and writes a
    trace file that parses as Chrome trace-event JSON;
  - a deliberately wrong pin fails the run (exit code 1, correct = false);
  - run.py fails without printing a result in a directory holding only
    BENCHMARK.json and perfbench/.
Exits 0 when every check holds.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
# The untimed workloads (see README.md) must still pass.
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + [
    "packet_serial", "packet_faults", "packet_pdes", "bracket"]
HELD_OUT_SEED = "7"
failures = []


def expect(ok, what):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def drive(binary, workload, seed="1", trace="0", extra=()):
    """Runs the binary at the tiny size; returns (exit code, result, stdout)."""
    args = run.binary_args(["--workload", workload, "--seed", seed,
                            "--seconds", "0.2", "--trace", trace,
                            "--size", "tiny", *extra])
    r = subprocess.run([str(binary)] + args, capture_output=True, text=True,
                       check=False)
    lines = r.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return r.returncode, result, r.stdout


def metrics_match(result, spec_metrics, nonzero):
    got = result["metrics"]
    want = {m["name"]: m["unit"] for m in spec_metrics}
    if set(got) != set(want):
        return f"names differ: missing {set(want) - set(got)}, extra {set(got) - set(want)}"
    for name, m in got.items():
        if m["unit"] != want[name]:
            return f"{name} has unit {m['unit']}, BENCHMARK.json says {want[name]}"
        if not math.isfinite(m["value"]) or (nonzero and m["value"] == 0):
            return f"{name} = {m['value']}"
    return None


def check_trace_file(path):
    doc = json.loads(Path(path).read_text())
    events = doc["traceEvents"]
    assert events and all(e["ph"] == "X" and {"name", "ts", "dur", "pid",
                                              "tid"} <= e.keys()
                          for e in events)
    assert {"host", "metrics", "self_s"} <= doc["otherData"].keys()
    return len(events)


def main():
    binary = run.build()
    traces = run.build_dir() / "traces"
    for w in WORKLOADS:
        for seed in ("1", HELD_OUT_SEED):
            code, result, out = drive(binary, w, seed)
            ok = code == 0 and result is not None and result["correct"] \
                and result["failed"] == 0 and result["attempted"] >= 1
            expect(ok, f"{w} seed {seed}: output checks pass")
            if ok and seed == "1":
                why = metrics_match(result, SPEC["end_to_end"], nonzero=True)
                expect(why is None, f"{w}: end-to-end metrics and units ({why or 'all present'})")
                host = json.loads(out.strip().splitlines()[-2])["host"]
                expect({"nproc", "build_type", "cxx_flags", "compiler", "commit",
                        "seed", "threads"} <= host.keys(), f"{w}: host stamp")
        code, result, _ = drive(binary, w, trace="1")
        ok = code == 0 and result is not None and result["correct"]
        expect(ok, f"{w} traced: output checks pass")
        if ok:
            why = metrics_match(result, SPEC["per_layer"], nonzero=False)
            expect(why is None, f"{w} traced: per-layer metrics and units ({why or 'all present'})")
            trace = traces / f"{w}-seed1.json"
            try:
                n = check_trace_file(trace)
                expect(True, f"{w} traced: {trace.name} is Chrome trace JSON ({n} spans)")
            except (OSError, ValueError, KeyError, AssertionError) as e:
                expect(False, f"{w} traced: {trace.name} is Chrome trace JSON ({e!r})")

    # A deliberately wrong pin must fail the run.
    pins = (run.BENCH_DIR / "pins.txt").read_text().splitlines()
    for target in ("packet tiny 1 events ", "fluid tiny 1 lambda.all_to_all.9 "):
        wrong = [(l.rsplit(" ", 1)[0] + " 12345" if l.startswith(target) else l)
                 for l in pins]
        assert wrong != pins, target
        path = run.build_dir() / "wrong_pins.txt"
        path.write_text("\n".join(wrong) + "\n")
        w = "fluid" if target.startswith("fluid") else "packet_serial"
        code, result, _ = drive(binary, w, extra=("--pins", str(path)))
        expect(code == 1 and result is not None and not result["correct"]
               and result["failed"] >= 1,
               f"{w}: a wrong pin ({target.strip()}) fails the run")

    # Without the library sources run.py must fail and print no result.
    bare = run.build_dir() / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    r = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                        "fluid", "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=bare, capture_output=True, text=True, check=False,
                       env={"PATH": "/usr/bin:/bin"})
    expect(r.returncode != 0 and '"correct"' not in r.stdout,
           "run.py without ../src exits non-zero and prints no result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"\n{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
