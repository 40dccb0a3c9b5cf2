#!/usr/bin/env bash
# Tiered test driver (see README "Testing"):
#
#   tier 1  fast unit/regression tests    build/      ctest -LE slow
#   tier 2  long serving/fault sweeps     build/      ctest -L slow
#   tier 3  tier-1 again under ASan+UBSan build-asan/ ctest -LE slow
#   tier 4  concurrency tests under TSan  build-tsan/ ctest -R <parallel>
#
# Tier selection:
#
#   tests/run_tiers.sh              # tier 1 + tier 3 (the default lane)
#   tests/run_tiers.sh --with-slow  # + tier 2 (long sweeps)
#   tests/run_tiers.sh --with-tsan  # + tier 4 (ThreadSanitizer)
#
# Tier 4 rebuilds with -DDTU_SANITIZE=thread and runs the tests that
# exercise the fleet's lane executor (sim/lane_executor.hh): the lane
# and floor tests, the determinism harness, the fleet/serving suites,
# the golden replays, and the observers that run on the lanes. TSan
# and ASan cannot share a build tree, hence the separate build-tsan/.
set -euo pipefail
cd "$(dirname "$0")/.."

with_slow=0
with_tsan=0
for arg in "$@"; do
    case "$arg" in
        --with-slow) with_slow=1 ;;
        --with-tsan) with_tsan=1 ;;
        *) echo "usage: $0 [--with-slow] [--with-tsan]" >&2; exit 2 ;;
    esac
done

jobs=$(nproc 2>/dev/null || echo 4)

# Suites covering the lane executor, fleet path and the observers on
# the lanes (tier 4).
tsan_filter='^(Determinism|FleetTest|GoldenFleet|GoldenLlm|Frontend|LlmServing|SchedulerTest|ServerTest|ServingReportTest|DegradationTest|RequestQueueTest|LaneExecutor|PlanFloor|EnergyMonitorTest|FlightRecorder|RequestTrace|SloMonitor|Prometheus|PrometheusEnergy|GoldenEnergyReport|GoldenFabric|FleetMetrics|EnergyAttribution|RequestSampling|FabricObservability|FaultHooksTest|ServingObserver)\.'

echo "== tier 1: fast tests =="
cmake -B build -S . >/dev/null
cmake --build build -j"$jobs"
(cd build && ctest --output-on-failure -j"$jobs" -LE slow)

if [ "$with_slow" -eq 1 ]; then
    echo "== tier 2: slow sweeps (-L slow) =="
    (cd build && ctest --output-on-failure -L slow)
fi

echo "== tier 3: sanitizer build (ASan+UBSan) =="
cmake -B build-asan -S . -DDTU_SANITIZE=address,undefined >/dev/null
cmake --build build-asan -j"$jobs"
(cd build-asan && ctest --output-on-failure -j"$jobs" -LE slow)

if [ "$with_tsan" -eq 1 ]; then
    echo "== tier 4: ThreadSanitizer (parallel fleet) =="
    cmake -B build-tsan -S . -DDTU_SANITIZE=thread >/dev/null
    cmake --build build-tsan -j"$jobs"
    (cd build-tsan && ctest --output-on-failure -j"$jobs" -R "$tsan_filter")
fi

echo "== all requested tiers passed =="
