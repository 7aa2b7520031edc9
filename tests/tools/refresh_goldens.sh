#!/usr/bin/env bash
# Regenerate the goldens in tests/golden/ — the pipeline-regression set
# (test_sim: the classic and event-driven drivers plus the sharded_* pins of
# the sharded engine) and the daemon smoke-replay pin (test_daemon) — and
# show what changed before you commit anything.
#
# Usage:
#   tests/tools/refresh_goldens.sh            # uses ./build
#   EACACHE_BUILD_DIR=build-asan tests/tools/refresh_goldens.sh
#
# The goldens are written straight into the source tree (the test binaries
# bake in EACACHE_GOLDEN_DIR), so the git diff below IS the review: an
# empty diff means the refresh was a no-op, anything else deserves a close
# read before `git add tests/golden`.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
build_dir="${EACACHE_BUILD_DIR:-build}"
test_sim="$repo_root/$build_dir/tests/test_sim"
test_daemon="$repo_root/$build_dir/tests/test_daemon"

if [[ ! -x "$test_sim" ]]; then
  echo "error: $test_sim not found or not executable" >&2
  echo "build it first: cmake --build $build_dir --target test_sim" >&2
  exit 1
fi

echo "== regenerating goldens via $test_sim =="
EACACHE_UPDATE_GOLDEN=1 "$test_sim" --gtest_filter='PipelineRegression*' --gtest_brief=1

# Daemon smoke-replay pin: 4 live worker threads must keep reproducing the
# simulator's bytes on the fixed regression workload. The TelemetryGolden
# filter also refreshes the telemetry JSON schema pin
# (tests/golden/telemetry_snapshot.json, DESIGN.md §13).
if [[ -x "$test_daemon" ]]; then
  echo
  echo "== regenerating daemon smoke + telemetry goldens via $test_daemon =="
  EACACHE_UPDATE_GOLDEN=1 "$test_daemon" \
    --gtest_filter='DaemonGolden*:TelemetryGolden*' --gtest_brief=1
else
  echo "warning: $test_daemon not built; skipping tests/golden/daemon_smoke.json" >&2
fi

echo
echo "== resulting diff in tests/golden =="
untracked=$(git -C "$repo_root" ls-files --others --exclude-standard -- tests/golden)
if git -C "$repo_root" diff --quiet -- tests/golden && [[ -z "$untracked" ]]; then
  echo "(no changes — goldens already matched)"
else
  git -C "$repo_root" diff --stat -- tests/golden
  if [[ -n "$untracked" ]]; then
    echo "new goldens (untracked):"
    printf '  %s\n' $untracked
  fi
  echo
  git -C "$repo_root" diff -- tests/golden
  echo
  echo "review the diff above, then: git add tests/golden"
fi
