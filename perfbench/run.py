#!/usr/bin/env python3
"""Builds and runs the flexnets benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root (any directory works; paths resolve from this
file). The first run configures and builds the library from ../src plus the
perfbench binary into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); later runs only rebuild what changed. Build output
goes to standard error, so the last line of standard output is the
binary's result JSON. Extra flags (--size, --pins, --print-pins, --trace-out)
are passed through to the binary; see perfbench/README.md.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def build_dir() -> Path:
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build() -> Path:
    """Configures (once) and builds the binary; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"run.py: no flexnets sources at {ROOT / 'src'}; "
                 "run from a full checkout")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(out), "--target", "perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return out / "perfbench"


def commit() -> str:
    """The checkout's git commit, or 'unknown' outside a git work tree."""
    if not (ROOT / ".git").exists():
        return "unknown"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True, check=False)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def source_digest() -> str:
    """SHA-256 over the library and benchmark sources, so results from a
    checkout without git history still name the code they measured."""
    h = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR):
        for p in sorted(top.rglob("*")):
            if p.is_file() and p.suffix in {".cpp", ".hpp", ".txt", ".py"}:
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def binary_args(argv):
    """Adds the defaults run.py owns: pins, trace file, host stamp."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--workload", default="")
    p.add_argument("--seed", default="1")
    p.add_argument("--trace", default="0")
    p.add_argument("--pins", default=str(BENCH_DIR / "pins.txt"))
    p.add_argument("--trace-out", default="")
    known, rest = p.parse_known_args(argv)
    args = ["--workload", known.workload, "--seed", known.seed,
            "--trace", known.trace, "--pins", known.pins] + rest
    if known.trace != "0":
        trace_out = known.trace_out
        if not trace_out:
            traces = build_dir() / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            trace_out = str(traces / f"{known.workload}-seed{known.seed}.json")
        args += ["--trace-out", trace_out]
    return args + ["--commit", commit(), "--source-digest", source_digest()]


def main() -> int:
    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2
    return subprocess.run([str(binary)] + binary_args(sys.argv[1:]),
                          check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
