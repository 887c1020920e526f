#!/usr/bin/env bash
# Chaos harness driver: builds the tree with ASan+UBSan and runs the
# fault-injection test suites (plus, optionally, the whole suite) under
# the sanitizers. Any injected-fault path that corrupts memory or trips
# UB fails loudly here rather than silently in a campaign.
#
# The default run covers all four chaos surfaces, plus the aligner:
#   * chaos_test    — VM / analysis fault injection
#   * netchaos_test — wire faults: refused connects, mid-frame cuts,
#                     short reads/writes, EINTR, duplicate delivery,
#                     retrying clients, crash-during-push recovery
#   * fleet_test    — distributed campaigns: dying workers, stale
#                     leases, a SIGKILLed coordinator resumed from its
#                     journal, byte-identical merged reports
#   * evasion_test  — adversarial corpus: self-modifying unpacker
#                     stubs, stalling loops, vaccine-aware chains, and
#                     the byte-identity of SMC reports across the
#                     snapshot fast path, mutation threads, jobs, and
#                     journal resume
#   * analysis_test — the trace aligner's computed diagonal offsets,
#                     differentially checked against an LCS table
#
# The fleet CLI drill (tools/run_fleet_chaos.sh) layers the same kill
# matrix over the `autovac coordinate` / `detonate-worker` surface;
# --fleet-drill appends it here.
#
# usage: tools/run_chaos.sh [--all] [--net-only] [--fleet-drill] [build-dir]
#   --all          run every test binary, not just the chaos suites
#   --net-only     run only the network chaos suite
#   --fleet-drill  also run the CLI fleet drill after the suites
#   build-dir      sanitizer build directory (default: build-asan)
set -euo pipefail

cd "$(dirname "$0")/.."

run_all=0
net_only=0
fleet_drill=0
build_dir=build-asan
for arg in "$@"; do
  case "$arg" in
    --all) run_all=1 ;;
    --net-only) net_only=1 ;;
    --fleet-drill) fleet_drill=1 ;;
    *) build_dir="$arg" ;;
  esac
done

cmake -B "$build_dir" -S . -DAUTOVAC_SANITIZE=ON
cmake --build "$build_dir" -j"$(nproc)"

export ASAN_OPTIONS=detect_leaks=0:abort_on_error=1
export UBSAN_OPTIONS=print_stacktrace=1:halt_on_error=1

if [[ "$run_all" == 1 ]]; then
  (cd "$build_dir" && ctest --output-on-failure -j"$(nproc)")
elif [[ "$net_only" == 1 ]]; then
  "$build_dir/tests/netchaos_test"
else
  "$build_dir/tests/chaos_test"
  "$build_dir/tests/netchaos_test"
  "$build_dir/tests/fleet_test"
  "$build_dir/tests/evasion_test"
  "$build_dir/tests/analysis_test"
fi
if [[ "$fleet_drill" == 1 ]]; then
  tools/run_fleet_chaos.sh "$build_dir"
fi
echo "chaos run clean."
