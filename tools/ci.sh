#!/usr/bin/env bash
# One offline correctness gate for flexnets:
#   1. tier-1: default configure, build, full ctest. Besides the unit and
#      differential suites (fault, gray, pdes, ...) this runs the bench
#      gates (`ctest -L bench`): bench_hyperscale, bench_gray and
#      bench_failures_live exit nonzero when an acceptance check fails
#   2. lint:   flexnets_analyze fixture self-test + src/ scan — the cross-TU static analyzer
#      enforcing the ported determinism rules, include-graph layering
#      (tools/layering.json), Status discipline, and lock annotations.
#      A violation is proven fatal by seeding a transient layering
#      probe and requiring the analyzer to reject it.
#   3. resilience gate: bench_figures --figure fig2 --journal is SIGKILLed
#      mid-grid and resumed with --resume; the resumed "digest fig2:" line
#      must be bit-identical to an uninterrupted run's
#   3b. chaos gate: the sharded sweep service (src/sweep). bench_figures
#      --figure fig2 --workers 4 with FLEXNETS_CRASH_AT worker crashes must
#      still reproduce the serial digest; then the COORDINATOR is SIGKILLed
#      mid-grid (workers must die with it via PDEATHSIG — no orphans)
#      and --resume over the merged journal must again match bit for bit
#   3c. figure gate: bench_figures runs Fig 6(a), Fig 7(b) and the HYB
#      ablation at --threads 1, --threads 2 and --workers 2; the three
#      stdouts must be byte-identical once the coordinator's "sharded ..."
#      status lines are dropped (every table prints from grid records)
#   4. asan-ubsan preset: rebuild and rerun the full suite under
#      AddressSanitizer + UndefinedBehaviorSanitizer (-Werror on), plus
#      an explicit pass over the corrupt-input corpus (topo files and
#      wire-protocol .frames fuzz corpus)
#   5. tsan preset: build the parallel determinism suites under
#      ThreadSanitizer and run `ctest -L parallel` (thread pool contracts
#      + parallel-vs-serial sweep bit-equality), `ctest -L pdes`
#      (serial-vs-parallel packet-engine digest equality across threads,
#      topologies, and fault plans), and `ctest -L gray` (the same
#      equality on gray plans, where per-link loss counters and the
#      detection machinery are in play); any report is fatal
#   6. audited tier-1 rerun: FLEXNETS_AUDIT=1 enables the runtime
#      invariant audits (event ordering, LP feasibility/conservation,
#      routing-table sanity, repaired-routing liveness, determinism
#      digests)
#   7. benchmark self-test: perfbench/self_test.py builds the benchmark
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

step "benchmark self-test: perfbench/self_test.py"
python3 perfbench/self_test.py

step "ci.sh: all gates passed"
