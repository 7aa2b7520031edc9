#!/bin/sh
# Runs the concurrent subsystems under ThreadSanitizer (DESIGN.md §11, tier 2).
#
# The TSan binaries live in a separate build tree configured with
#   cmake -S . -B build-tsan -DEACACHE_TSAN=ON -DEACACHE_WERROR=ON
#   cmake --build build-tsan -j
# Registered in ctest with SKIP_RETURN_CODE 77: when the build-tsan tree (or
# the binaries) are absent this script self-skips instead of failing, so the
# plain tier-1 run stays green on machines that never configured it.
#
# Why a dedicated pass: the sweep engine is the one subsystem where multiple
# threads touch shared state on purpose — the trace cache's once_flag
# publication, the trace-load cost table, the completion board that orders
# sink delivery, log-sink swaps, and the fuzz harness's sharded corpus. The
# Clang annotations (tier 1) prove lock discipline statically; TSan proves
# the happens-before story dynamically, on real interleavings at jobs=8.
set -eu

repo_root=$(cd "$(dirname "$0")/.." && pwd)
tsan_dir=${EACACHE_TSAN_BUILD_DIR:-"$repo_root/build-tsan"}

if [ ! -x "$tsan_dir/tests/test_sim" ] || [ ! -x "$tsan_dir/tests/test_validate" ] ||
   [ ! -x "$tsan_dir/tests/tsan_race_fixture" ] || [ ! -x "$tsan_dir/bench/bench_smoke" ]; then
  echo "tsan_pipeline: no TSan build at $tsan_dir (configure with -DEACACHE_TSAN=ON); skipping"
  exit 77
fi

if ! grep -q '^EACACHE_TSAN:BOOL=ON' "$tsan_dir/CMakeCache.txt" 2>/dev/null; then
  echo "tsan_pipeline: $tsan_dir was not configured with -DEACACHE_TSAN=ON; skipping"
  exit 77
fi

if ! grep -q '^EACACHE_WERROR:BOOL=ON' "$tsan_dir/CMakeCache.txt" 2>/dev/null; then
  echo "tsan_pipeline: note: $tsan_dir lacks EACACHE_WERROR=ON (recommended configure shown above)"
fi

# Negative control first: the deliberate race in tests/analysis/ MUST trip
# the sanitizer (exit 66). A clean exit means TSan is not actually armed in
# this tree — stale cache, stripped flags — and every "pass" below would be
# meaningless, so we fail loudly instead.
echo "tsan_pipeline: negative control (deliberate race must be flagged)..."
set +e
TSAN_OPTIONS="exitcode=66:halt_on_error=1" "$tsan_dir/tests/tsan_race_fixture" >/dev/null 2>&1
race_status=$?
set -e
if [ "$race_status" -ne 66 ]; then
  echo "tsan_pipeline: FAIL — deliberate race exited $race_status (expected 66)."
  echo "tsan_pipeline: ThreadSanitizer is not armed in $tsan_dir; rebuild it."
  exit 1
fi
echo "tsan_pipeline: negative control flagged as expected"

export TSAN_OPTIONS=${TSAN_OPTIONS:-halt_on_error=1:second_deadlock_stack=1}

# Sweep engine + trace cache + observability handoff at a worker count high
# enough to force real contention on the completion board.
EACACHE_JOBS=8 "$tsan_dir/tests/test_sim" \
  --gtest_filter='SweepRunnerTest.*:TraceCacheTest.*:ResolveJobCountTest.*:ObservabilityTest.*' \
  --gtest_brief=1

# Sharded parallel engine: the determinism suite runs the same trace at 1, 2,
# 4 and 8 shard threads and byte-compares the result JSON, so every mailbox
# handoff, every progress publication and horizon read (the atomics a shard
# polls before it runs a window), the yield-then-park wait on the CondVar
# with its parked count, the all-waiting jump under round_mutex_ and every
# merge path run under TSan while the comparison proves the interleavings
# never leak into the result. The quiet-stretch cases (bursts an hour
# apart, one home shard, a 2-request trace) drive the jump and the end of
# a run; the sharded goldens check the same threaded runs against results
# pinned before, not only against each other.
"$tsan_dir/tests/test_sim" \
  --gtest_filter='ShardEngineTest.*:ShardEngineValidationTest.*:PipelineRegression.Sharded*' \
  --gtest_brief=1

# The ProxyNode core both engines execute, driven thread-free by a
# test-local loop: TSan confirms the node itself owns no hidden shared state.
# The lag table those horizons are built from is a pure function, checked
# here beside the node.
"$tsan_dir/tests/test_core" --gtest_filter='ProxyNodeTest.*:ShardLagsTest.*' --gtest_brief=1

# The bench harness drives the same pool through its CLI surface: a plain
# multi-job sweep, then the event-driven pipeline arm with retries+coalescing
# (per-request state machines shared across queue callbacks).
"$tsan_dir/bench/bench_smoke" --jobs 8 --json >/dev/null
"$tsan_dir/bench/bench_smoke" --jobs 8 --pipeline --coalesce --icp-retries 2 --json >/dev/null

# Differential fuzz corpus with sharded execution: 64 cases at jobs=8
# re-proves the corpus verdict is independent of worker count while TSan
# watches the sharding itself. EACACHE_FUZZ_WORKLOAD=1 mixes workload-DSL
# traces (chunk trains, flash spikes, session affinity) into the corpus so
# the streaming generator also runs under the sharded pool.
EACACHE_FUZZ_CASES=64 EACACHE_JOBS=8 EACACHE_FUZZ_WORKLOAD=1 \
  "$tsan_dir/tests/test_validate" --gtest_filter='SimFuzzTest.*' --gtest_brief=1

# Workload-DSL battery (DESIGN.md §15): the cross-thread claims are that
# seeded generation is bit-identical from concurrent threads and that the
# shard engine's result JSON is invariant in the shard count on a DSL trace.
# The bounded-memory fixture is filtered out — its operator new/delete
# replacement is compiled out under sanitizers (TSan owns the allocator).
if [ -x "$tsan_dir/tests/test_workload" ]; then
  echo "tsan_pipeline: workload-DSL battery (concurrent generation + shard invariance)..."
  "$tsan_dir/tests/test_workload" \
    --gtest_filter='-TraceSourceTest.StreamingMemoryBoundedByUniverse' \
    --gtest_brief=1
else
  echo "tsan_pipeline: note: $tsan_dir/tests/test_workload not built; workload leg skipped"
fi

# Daemon mode: 4 proxy worker threads cooperating over the in-memory wire
# while the load generator replays 10k requests open-loop — the share-nothing
# worker design (per-worker registries merged after join) and the mailbox
# CondVar handoffs are exactly what TSan exists to check. The demo binary
# also asserts live-vs-simulated hit-rate parity, so a rate bound failure
# surfaces here too.
#
# The second run arms the full telemetry plane (DESIGN.md §13): the
# StatsPoller thread samples every worker through the kStatsRequest seam
# while requests are in flight, the HTTP endpoint thread serves concurrent
# scrapes, the file exporter renames snapshots, and the flight ring records
# spans — every cross-thread edge the plane added runs under TSan here.
if [ -x "$tsan_dir/examples/daemon_demo" ]; then
  echo "tsan_pipeline: daemon demo (4 worker threads, 10k requests)..."
  "$tsan_dir/examples/daemon_demo" 10000 4 1000000 >/dev/null
  echo "tsan_pipeline: daemon demo + live telemetry plane (poller, exporters, flight ring)..."
  stats_tmp="${TMPDIR:-/tmp}/eacache_tsan_stats.$$.json"
  "$tsan_dir/examples/daemon_demo" 20000 4 200000 \
    --stats-port=0 --stats-out="$stats_tmp" --stats-period-ms=20 \
    --flight-capacity=1024 >/dev/null 2>&1
  rm -f "$stats_tmp"
else
  echo "tsan_pipeline: note: $tsan_dir/examples/daemon_demo not built; daemon leg skipped"
fi

# Live-scrape leg: the StatsExposition suite drives real TCP scrapes against
# the endpoint while poll_once samples the group — the sampler/worker/server
# interleaving under TSan. The DaemonVsSim smoke replays then run flat,
# 2-level and 3-level groups, so parent-chain hops cross worker threads too.
if [ -x "$tsan_dir/tests/test_daemon" ]; then
  echo "tsan_pipeline: live stats scrape (StatsExposition + SampleStats suites)..."
  "$tsan_dir/tests/test_daemon" \
    --gtest_filter='StatsExpositionTest.*:SampleStatsTest.*' --gtest_brief=1
  echo "tsan_pipeline: daemon smoke replays over flat and hierarchical groups..."
  "$tsan_dir/tests/test_daemon" --gtest_filter='DaemonVsSimTest.*' --gtest_brief=1
else
  echo "tsan_pipeline: note: $tsan_dir/tests/test_daemon not built; scrape leg skipped"
fi

echo "tsan_pipeline: all concurrent suites clean under ThreadSanitizer"
