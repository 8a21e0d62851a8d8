#!/usr/bin/env bash
# One offline correctness gate for flexnets:
#   1. tier-1: default configure, build, full ctest
#   2. fault:  the live fault-injection suite (`ctest -L fault`) and the
#      bench_failures_live smoke run (dip + reconvergence + zero
#      post-repair blackholes acceptance checks)
#   2b. gray:  the gray-failure differential suite (`ctest -L gray`) and
#      the bench_gray --digest-check gate — same-seed event-digest
#      bit-equality between the serial engine and PDES at --threads 2
#      and 4 on a jellyfish pure-gray plan and a fat-tree
#      binary+gray cocktail
#   3. lint:   flexnets_analyze fixture self-test + src/ scan — the cross-TU static analyzer
#      enforcing the ported determinism rules, include-graph layering
#      (tools/layering.json), Status discipline, and lock annotations.
#      A violation is proven fatal by seeding a transient layering
#      probe and requiring the analyzer to reject it.
#   4. resilience gate: bench_figures --figure fig2 --journal is SIGKILLed
#      mid-grid and resumed with --resume; the resumed "digest fig2:" line
#      must be bit-identical to an uninterrupted run's
#   4b. chaos gate: the sharded sweep service (src/sweep). bench_figures
#      --figure fig2 --workers 4 with FLEXNETS_CRASH_AT worker crashes must
#      still reproduce the serial digest; then the COORDINATOR is SIGKILLed
#      mid-grid (workers must die with it via PDEATHSIG — no orphans)
#      and --resume over the merged journal must again match bit for bit
#   4c. figure gate: bench_figures runs Fig 6(a), Fig 7(b) and the HYB
#      ablation at --threads 1, --threads 2 and --workers 2; the three
#      stdouts must be byte-identical once the coordinator's "sharded ..."
#      status lines are dropped (every table prints from grid records)
#   5. asan-ubsan preset: rebuild and rerun the full suite under
#      AddressSanitizer + UndefinedBehaviorSanitizer (-Werror on), plus
#      an explicit pass over the corrupt-input corpus (topo files and
#      wire-protocol .frames fuzz corpus)
#   6. tsan preset: build the parallel determinism suites under
#      ThreadSanitizer and run `ctest -L parallel` (thread pool contracts
#      + parallel-vs-serial sweep bit-equality), `ctest -L pdes`
#      (serial-vs-parallel packet-engine digest equality across threads,
#      topologies, and fault plans), and `ctest -L gray` (the same
#      equality on gray plans, where per-link loss counters and the
#      detection machinery are in play); any report is fatal
#   7. audited tier-1 rerun: FLEXNETS_AUDIT=1 enables the runtime
#      invariant audits (event ordering, LP feasibility/conservation,
#      routing-table sanity, repaired-routing liveness, determinism
#      digests)
#   8. perf smoke: bench_micro_flow/bench_micro_sim/bench_sweep --json
#      emit BENCH_MCF.json / BENCH_SIM.json / BENCH_SWEEP.json, bench_gray
#      --json appends the resilience-showdown grid into BENCH_SIM.json,
#      and the schema is validated (required keys present, lambda finite,
#      lambda_upper >= lambda, gray cases carry a zero
#      post_repair_blackholes).
#      Timings are recorded, not gated — absolute ns/op depends on the
#      machine; the committed JSON trajectory is what reviewers eyeball
#      for regressions.
#   9. benchmark self-test: perfbench/self_test.py builds the benchmark
#      (into the ignored .bench_build/) and checks every workload's
#      metrics, output pins and held-out seed, so a change that breaks
#      the benchmark's build or pins fails here rather than only when the
#      benchmark is next run.
#
# clang-tidy is run only if installed; its absence is not a failure
# (the container image ships gcc only — .clang-tidy is still the config
# of record for environments that have it).
#
# Usage: tools/ci.sh [--fast]
#   --fast   skip the asan-ubsan rebuild (the tsan parallel gate and the
#            other steps still run)

set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$REPO_ROOT"

FAST=0
[[ "${1:-}" == "--fast" ]] && FAST=1

JOBS="$(nproc 2>/dev/null || echo 4)"

step() { printf '\n==== %s ====\n' "$*"; }

step "tier-1: configure + build"
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS"

step "tier-1: ctest"
ctest --test-dir build --output-on-failure -j "$JOBS"

step "fault suite: ctest -L fault"
ctest --test-dir build -L fault --output-on-failure -j "$JOBS"

step "live-failure smoke: bench_failures_live"
./build/bench/bench_failures_live

step "gray suite: ctest -L gray"
ctest --test-dir build -L gray --output-on-failure -j "$JOBS"

# Gray-determinism gate: the PDES engine must reproduce the serial event
# digest bit for bit on plans that exercise per-packet loss, degraded
# service rates, flapping, and detection-triggered repairs. bench_gray
# --digest-check runs a jellyfish pure-gray plan and a fat-tree
# binary+gray cocktail serially, then at --threads 2 and 4, and exits
# nonzero on any digest mismatch (or if no gray loss was exercised).
step "gray-determinism gate: bench_gray --digest-check"
./build/bench/bench_gray --digest-check

step "lint: rule self-test + src/ scan"
ANALYZE_BIN="build/tools/analyze/flexnets_analyze"
"$ANALYZE_BIN" --repo-root "$REPO_ROOT" --self-test
"$ANALYZE_BIN" --repo-root "$REPO_ROOT" src/

# The layering contract must have teeth: seed a transient upward include
# (graph/ reaching into core/) and require the analyzer to reject it.
step "analyze: seeded layering violation must be fatal"
PROBE="src/graph/__layering_probe.cpp"
trap 'rm -f "$REPO_ROOT/$PROBE"' EXIT
printf '#include "core/journal.hpp"\n' > "$PROBE"
if "$ANALYZE_BIN" --repo-root "$REPO_ROOT" src/ >/dev/null 2>&1; then
  rm -f "$PROBE"
  echo "analyze gate: seeded layering violation was NOT rejected"
  exit 1
fi
rm -f "$PROBE"
"$ANALYZE_BIN" --repo-root "$REPO_ROOT" src/ >/dev/null
echo "seeded violation rejected; clean tree passes"

# Nested modules must be constrained too: sim/pdes sits below core, so a
# pdes file reaching up into core/ must be fatal.
step "analyze: seeded sim/pdes layering violation must be fatal"
PDES_PROBE="src/sim/pdes/__layering_probe.cpp"
trap 'rm -f "$REPO_ROOT/$PDES_PROBE"' EXIT
printf '#include "core/journal.hpp"\n' > "$PDES_PROBE"
if "$ANALYZE_BIN" --repo-root "$REPO_ROOT" src/ >/dev/null 2>&1; then
  rm -f "$PDES_PROBE"
  echo "analyze gate: seeded sim/pdes layering violation was NOT rejected"
  exit 1
fi
rm -f "$PDES_PROBE"
"$ANALYZE_BIN" --repo-root "$REPO_ROOT" src/ >/dev/null
echo "seeded sim/pdes violation rejected; clean tree passes"

# topo/csr sits BELOW graph (the flat hot path must never reach back into
# the multigraph): a csr file including graph/ must be fatal.
step "analyze: seeded topo/csr layering violation must be fatal"
CSR_PROBE="src/topo/csr/__layering_probe.cpp"
trap 'rm -f "$REPO_ROOT/$CSR_PROBE"' EXIT
printf '#include "graph/graph.hpp"\n' > "$CSR_PROBE"
if "$ANALYZE_BIN" --repo-root "$REPO_ROOT" src/ >/dev/null 2>&1; then
  rm -f "$CSR_PROBE"
  echo "analyze gate: seeded topo/csr layering violation was NOT rejected"
  exit 1
fi
rm -f "$CSR_PROBE"
"$ANALYZE_BIN" --repo-root "$REPO_ROOT" src/ >/dev/null
echo "seeded topo/csr violation rejected; clean tree passes"

# Same teeth for the process-api rule: a raw fork() anywhere outside
# src/sweep/process_supervisor.cpp must be fatal.
step "analyze: seeded process-api violation must be fatal"
PROC_PROBE="src/graph/__process_probe.cpp"
trap 'rm -f "$REPO_ROOT/$PROC_PROBE"' EXIT
printf '#include <unistd.h>\nint probe_pid() { return fork(); }\n' > "$PROC_PROBE"
if "$ANALYZE_BIN" --repo-root "$REPO_ROOT" src/ >/dev/null 2>&1; then
  rm -f "$PROC_PROBE"
  echo "analyze gate: seeded process-api violation was NOT rejected"
  exit 1
fi
rm -f "$PROC_PROBE"
"$ANALYZE_BIN" --repo-root "$REPO_ROOT" src/ >/dev/null
echo "seeded fork() rejected; clean tree passes"

# Optional: under clang the FLEXNETS_* lock annotations expand to real
# thread-safety attributes; verify the annotated TUs under
# -Wthread-safety -Werror. clang's absence is not a failure (the
# container ships gcc only).
if command -v clang++ >/dev/null 2>&1; then
  step "clang -Wthread-safety on annotated TUs"
  TS_FLAGS=(-std=c++20 -fsyntax-only -Isrc -Wthread-safety -Werror)
  # Under libstdc++, std::mutex is not attribute-annotated as a
  # capability; silence only the attribute-noise warning in that case.
  if ! clang++ "${TS_FLAGS[@]}" -x c++ - <<<'#include <mutex>
struct S { std::mutex m; int v __attribute__((guarded_by(m))); };' \
      >/dev/null 2>&1; then
    TS_FLAGS+=(-Wno-thread-safety-attributes)
  fi
  clang++ "${TS_FLAGS[@]}" src/common/thread_pool.cpp src/core/journal.cpp
  echo "thread-safety analysis clean on annotated TUs"
else
  step "clang not installed; skipping -Wthread-safety (annotations are no-ops under gcc)"
fi

# Resilience gate: a journaled sweep SIGKILLed mid-grid, then resumed,
# must reproduce the uninterrupted run's digest bit for bit. The digest
# line is "digest fig2: <16 hex> (...)"; --point-sleep-ms widens each
# point so the kill reliably lands inside the grid.
step "resilience gate: kill the fig2 row mid-grid, resume, compare digests"
RES_DIR="$(mktemp -d)"
trap 'rm -rf "$RES_DIR"' EXIT
FIG2=(./build/bench/bench_figures --figure fig2)
"${FIG2[@]}" --threads 2 > "$RES_DIR/full.out"
REF_DIGEST="$(grep -oE 'digest fig2: [0-9a-f]{16}' "$RES_DIR/full.out" | awk '{print $3}')"
[[ -n "$REF_DIGEST" ]] || { echo "resilience gate: no digest in uninterrupted run"; exit 1; }
"${FIG2[@]}" --threads 2 --journal "$RES_DIR/fig2.jsonl" \
  --point-sleep-ms 250 > "$RES_DIR/killed.out" 2>&1 &
KILL_PID=$!
sleep 2
kill -9 "$KILL_PID" 2>/dev/null || true
wait "$KILL_PID" 2>/dev/null || true
JOURNALED="$(wc -l < "$RES_DIR/fig2.jsonl")"
# The kill must land mid-grid: some points journaled, some still missing
# (the fig2 grid has 28 points).
if [[ "$JOURNALED" -lt 1 || "$JOURNALED" -ge 28 ]]; then
  echo "resilience gate: SIGKILL missed the grid ($JOURNALED/28 points journaled)"
  exit 1
fi
echo "killed mid-grid with $JOURNALED/28 points journaled; resuming"
"${FIG2[@]}" --threads 2 --resume "$RES_DIR/fig2.jsonl" > "$RES_DIR/resumed.out"
RES_DIGEST="$(grep -oE 'digest fig2: [0-9a-f]{16}' "$RES_DIR/resumed.out" | awk '{print $3}')"
if [[ "$REF_DIGEST" != "$RES_DIGEST" ]]; then
  echo "resilience gate: resumed digest $RES_DIGEST != uninterrupted $REF_DIGEST"
  exit 1
fi
echo "resume digest matches uninterrupted run: $REF_DIGEST"

# Chaos gate: the sharded orchestrator under fire. All three runs must
# reproduce the uninterrupted serial digest captured above.
step "chaos gate: sharded sweep with worker crashes + coordinator SIGKILL"
# (a) clean sharded run: digest identical for any worker count.
"${FIG2[@]}" --threads 2 --workers 4 > "$RES_DIR/sharded.out"
SHARDED_DIGEST="$(grep -oE 'digest fig2: [0-9a-f]{16}' "$RES_DIR/sharded.out" | awk '{print $3}')"
if [[ "$REF_DIGEST" != "$SHARDED_DIGEST" ]]; then
  echo "chaos gate: sharded digest $SHARDED_DIGEST != serial $REF_DIGEST"
  exit 1
fi
echo "workers=4 digest matches serial: $SHARDED_DIGEST"
# (b) crash-injected workers: points 3 and 7 SIGKILL their worker on the
# first attempt; the retry on a fresh worker must restore the digest.
FLEXNETS_CRASH_AT=3,7 "${FIG2[@]}" --threads 2 --workers 4 \
  > "$RES_DIR/crashed.out"
CRASH_DIGEST="$(grep -oE 'digest fig2: [0-9a-f]{16}' "$RES_DIR/crashed.out" | awk '{print $3}')"
if [[ "$REF_DIGEST" != "$CRASH_DIGEST" ]]; then
  echo "chaos gate: crash-injected digest $CRASH_DIGEST != serial $REF_DIGEST"
  exit 1
fi
grep -q 'worker deaths' "$RES_DIR/crashed.out" || {
  echo "chaos gate: sharded stats line missing from crash run"; exit 1; }
echo "crash-injected workers recovered; digest matches: $CRASH_DIGEST"
# (c) coordinator SIGKILL mid-grid: workers must die with it (PDEATHSIG,
# no orphans) and --resume over the merged journal must complete the grid.
"${FIG2[@]}" --threads 2 --workers 4 --journal "$RES_DIR/chaos.jsonl" \
  --point-sleep-ms 400 > "$RES_DIR/chaos_killed.out" 2>&1 &
CHAOS_PID=$!
sleep 2
kill -9 "$CHAOS_PID" 2>/dev/null || true
wait "$CHAOS_PID" 2>/dev/null || true
sleep 1
if pgrep -f 'bench_figures.*sweep-worker' >/dev/null 2>&1; then
  echo "chaos gate: orphaned workers survived the coordinator SIGKILL"
  pkill -9 -f 'bench_figures.*sweep-worker' || true
  exit 1
fi
CHAOS_JOURNALED="$(wc -l < "$RES_DIR/chaos.jsonl")"
if [[ "$CHAOS_JOURNALED" -lt 1 || "$CHAOS_JOURNALED" -ge 28 ]]; then
  echo "chaos gate: SIGKILL missed the grid ($CHAOS_JOURNALED/28 points journaled)"
  exit 1
fi
echo "coordinator killed with $CHAOS_JOURNALED/28 points journaled; no orphans; resuming"
"${FIG2[@]}" --threads 2 --workers 4 --resume "$RES_DIR/chaos.jsonl" \
  > "$RES_DIR/chaos_resumed.out"
CHAOS_DIGEST="$(grep -oE 'digest fig2: [0-9a-f]{16}' "$RES_DIR/chaos_resumed.out" | awk '{print $3}')"
if [[ "$REF_DIGEST" != "$CHAOS_DIGEST" ]]; then
  echo "chaos gate: resumed sharded digest $CHAOS_DIGEST != serial $REF_DIGEST"
  exit 1
fi
echo "sharded resume digest matches uninterrupted serial run: $CHAOS_DIGEST"

# Figure gate: the same rows (a fluid figure, a packet figure and a packet
# ablation) computed in-process on one and two threads and sharded across
# two worker subprocesses must print the same tables and digest lines.
step "figure gate: --threads 1 / --threads 2 / --workers 2 print the same tables"
PF=(./build/bench/bench_figures --figure fig6a --figure fig7b --figure ablation_hyb)
"${PF[@]}" --threads 1 > "$RES_DIR/pf_t1.out"
"${PF[@]}" --threads 2 > "$RES_DIR/pf_t2.out"
"${PF[@]}" --workers 2 | grep -v '^sharded ' > "$RES_DIR/pf_w2.out"
[[ "$(grep -c '^digest ' "$RES_DIR/pf_t1.out")" -eq 5 ]] || {
  echo "figure gate: expected five digest lines"; exit 1; }
for run in pf_t2 pf_w2; do
  if ! cmp -s "$RES_DIR/pf_t1.out" "$RES_DIR/$run.out"; then
    echo "figure gate: $run stdout differs from --threads 1"
    diff "$RES_DIR/pf_t1.out" "$RES_DIR/$run.out" | head -20
    exit 1
  fi
done
echo "figures identical at --threads 1/2 and --workers 2"

if command -v clang-tidy >/dev/null 2>&1; then
  step "clang-tidy (config: .clang-tidy)"
  cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  find src -name '*.cpp' -print0 |
    xargs -0 -n 8 -P "$JOBS" clang-tidy -p build --quiet
else
  step "clang-tidy not installed; skipping (config-only)"
fi

if [[ "$FAST" -eq 0 ]]; then
  step "asan-ubsan preset: build + full suite"
  cmake --preset asan-ubsan >/dev/null
  cmake --build --preset asan-ubsan -j "$JOBS"
  ctest --preset asan-ubsan -j "$JOBS" --output-on-failure

  # Explicit pass over the corrupt-input corpus under the sanitizers: every
  # malformed file (topo inputs AND wire-protocol .frames fuzz corpus)
  # must yield a structured kInvalidInput, never a trap.
  step "asan-ubsan: corrupt-input corpus (topo + wire frames)"
  ctest --preset asan-ubsan -R 'CorruptInputs|FramesCorpus' --output-on-failure
fi

# Required gate: the parallel determinism suites must be race-free. Only
# the suites' own targets are built under TSan; `-L parallel` / `-L pdes`
# then skip every other (unbuilt) test registration.
step "tsan preset: parallel determinism suites (sweep + packet PDES + gray)"
cmake --preset tsan >/dev/null
cmake --build --preset tsan -j "$JOBS" --target flexnets_parallel_tests \
  --target flexnets_pdes_tests --target flexnets_gray_tests
ctest --test-dir build-tsan -L parallel --output-on-failure -j "$JOBS"
ctest --test-dir build-tsan -L pdes --output-on-failure -j "$JOBS"
ctest --test-dir build-tsan -L gray --output-on-failure -j "$JOBS"

step "audited rerun: FLEXNETS_AUDIT=1 ctest"
FLEXNETS_AUDIT=1 ctest --test-dir build --output-on-failure -j "$JOBS"

step "perf smoke: micro benches --json (schema check, timings not gated)"
./build/bench/bench_micro_flow --json BENCH_MCF.json
# bench_hyperscale appends its hs_* cases into the same BENCH_MCF.json.
# Gating here: the GK bit-identity cross-check (exit 1 on any lambda bit
# mismatch) and the 2 GB peak-RSS budget for the 100k-switch bracket.
# Timings stay non-gated like every other perf number.
./build/bench/bench_hyperscale --json BENCH_MCF.json --rss-budget-mb 2048
./build/bench/bench_micro_sim --json BENCH_SIM.json
# bench_gray appends the gray_* resilience-showdown cases into the same
# BENCH_SIM.json; its own acceptance check (zero post-repair blackholes
# on every grid cell) makes it exit nonzero on a broken repair.
./build/bench/bench_gray --json BENCH_SIM.json
./build/bench/bench_sweep --json BENCH_SWEEP.json
python3 - <<'PY'
import json
import math
import sys

def require(cond, what):
    if not cond:
        sys.exit(f"perf smoke: {what}")

for path, needs_lambda in (("BENCH_MCF.json", True), ("BENCH_SIM.json", False),
                           ("BENCH_SWEEP.json", False)):
    with open(path) as f:
        doc = json.load(f)
    require(doc.get("schema_version") == 1, f"{path}: bad schema_version")
    require(isinstance(doc.get("bench"), str), f"{path}: missing bench name")
    cases = doc.get("cases")
    require(isinstance(cases, list) and cases, f"{path}: no cases")
    for case in cases:
        require(isinstance(case.get("name"), str), f"{path}: case without name")
        ns = case.get("ns_per_op")
        require(isinstance(ns, (int, float)) and ns > 0 and math.isfinite(ns),
                f"{path}: {case.get('name')}: bad ns_per_op")
    if needs_lambda:
        lambdas = [case["lambda"] for case in cases if "lambda" in case]
        require(lambdas, f"{path}: no case reports lambda")
        require(all(math.isfinite(l) and l > 0 for l in lambdas),
                f"{path}: non-finite lambda")
        # A certified solve reports its LP-duality upper bound; it may
        # never sit below the feasible lambda.
        certified = [c for c in cases if "lambda_upper" in c]
        require(certified, f"{path}: no case reports lambda_upper")
        for case in certified:
            require(math.isfinite(case["lambda_upper"]) and
                    case["lambda_upper"] >= case["lambda"],
                    f"{path}: {case['name']}: lambda_upper < lambda")
    print(f"perf smoke: {path} schema OK ({len(cases)} case(s))")

# Gray showdown cases merged into BENCH_SIM.json: every grid cell must
# report a finite p99 FCT inflation and a zero post-repair blackhole
# count (the graceful-degradation acceptance bar), and all three
# cost-equalized topologies must be present.
with open("BENCH_SIM.json") as f:
    doc = json.load(f)
gray = [c for c in doc["cases"] if c["name"].startswith("gray_")]
require(gray, "BENCH_SIM.json: no gray_* cases (bench_gray --json missing?)")
for case in gray:
    p99 = case.get("fct_infl_p99")
    require(isinstance(p99, (int, float)) and math.isfinite(p99) and p99 > 0,
            f"BENCH_SIM.json: {case['name']}: bad fct_infl_p99")
    require(case.get("post_repair_blackholes") == 0,
            f"BENCH_SIM.json: {case['name']}: post-repair blackholes remain")
for topo in ("fat_tree", "xpander", "jellyfish"):
    require(any(c["name"].startswith(f"gray_{topo}_") for c in gray),
            f"BENCH_SIM.json: no gray cases for {topo}")
print(f"perf smoke: gray showdown cases OK ({len(gray)} cell(s), "
      "zero post-repair blackholes)")

# Hyperscale cases merged into BENCH_MCF.json: the root peak_rss_kb must be
# recorded, the 100k bracket must be present and well-ordered
# (0 <= lower <= upper <= 1), and the bit-identity checks must have passed.
with open("BENCH_MCF.json") as f:
    doc = json.load(f)
rss = doc.get("peak_rss_kb")
require(isinstance(rss, (int, float)) and rss > 0 and math.isfinite(rss),
        "BENCH_MCF.json: missing/invalid root peak_rss_kb")
by_name = {case["name"]: case for case in doc["cases"]}
require("hs_bracket_jf100k" in by_name,
        "BENCH_MCF.json: no hs_bracket_jf100k case")
br = by_name["hs_bracket_jf100k"]
require(0.0 <= br["lower"] <= br["upper"] <= 1.0 + 1e-9,
        "BENCH_MCF.json: hs_bracket_jf100k bracket is not ordered")
require(br.get("peak_rss_kb", 0) > 0,
        "BENCH_MCF.json: hs_bracket_jf100k lacks peak_rss_kb")
for name in ("hs_gk_bitcheck_jf32_a2a", "hs_gk_bitcheck_jf64_perm"):
    require(by_name.get(name, {}).get("bit_identical") == 1,
            f"BENCH_MCF.json: {name} not bit-identical")
require(by_name.get("hs_cap_guard_jf100k", {}).get("cap_refused") == 1,
        "BENCH_MCF.json: commodity cap did not refuse at 100k")
print("perf smoke: hyperscale cases OK (bracket ordered, bit-identity, "
      "cap guard)")
PY

step "benchmark self-test: perfbench/self_test.py"
python3 perfbench/self_test.py

step "ci.sh: all gates passed"
