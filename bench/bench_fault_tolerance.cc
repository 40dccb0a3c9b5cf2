/**
 * @file
 * Fault tolerance: fault rate x shedding policy sweep on the serving
 * stack (ResNet50 + BERT-Large, 3:1 by request count).
 *
 * Each cell replays the same near-saturation Poisson trace through
 * the dynamic batcher while the seeded FaultInjector disturbs the
 * chip at one of three levels: none (injector installed with every
 * rate at zero — the transparency baseline), moderate (occasional
 * ECC scrubs, 1% transient DMA faults, short thermal-throttle
 * episodes), and overload (sustained throttling to ~45% of nominal
 * clock plus 5% DMA faults — the chip cannot keep up with offered
 * load). Both degradation policies retry poisoned batches; "shed"
 * additionally bounces arrivals past an admission limit and drops
 * queued requests whose deadline already expired.
 *
 * Reported per cell: goodput (in-deadline completions per second),
 * achieved QPS, availability (completed / submitted), p99 latency,
 * and the drop/retry counters. The headline: under overload faults,
 * deadline-aware shedding sustains strictly more goodput than
 * serving every request late, because batches stop carrying
 * requests that already missed.
 *
 *     bench_fault_tolerance [--json <path>]
 */

#include <cstdio>

#include "bench_common.hh"
#include "serve/arrival.hh"
#include "serve/fleet.hh"
#include "sim/fault.hh"

using namespace dtu;
using namespace dtu::bench;

namespace
{

struct FaultLevel
{
    const char *name;
    FaultConfig config;
};

// All three levels share the seed so the thermal/ECC/DMA schedules
// are comparable across policies within a level.
std::vector<FaultLevel>
faultLevels()
{
    FaultConfig none;
    none.seed = 42;

    FaultConfig moderate;
    moderate.seed = 42;
    moderate.eccCorrectablePerGiB = 50.0;
    moderate.dmaTransientRate = 0.01;
    moderate.thermalMeanIntervalS = 50e-3;
    moderate.thermalMeanDurationS = 2e-3;
    moderate.thermalCapHz = 0.9e9;

    FaultConfig overload;
    overload.seed = 42;
    overload.eccCorrectablePerGiB = 200.0;
    overload.dmaTransientRate = 0.05;
    overload.thermalMeanIntervalS = 5e-3;
    overload.thermalMeanDurationS = 20e-3;
    overload.thermalCapHz = 0.45e9;

    return {{"none", none}, {"moderate", moderate},
            {"overload", overload}};
}

// Same 3:1 ResNet50:BERT-Large mix as bench_serving, offered near
// the fault-free saturation point so throttling tips it over.
std::vector<serve::Request>
mixTrace()
{
    const double qps = 3000.0;
    return serve::finalizeTrace(
        {serve::poissonTrace("resnet50", qps * 0.75, 96, /*seed=*/101,
                             /*deadline=*/secondsToTicks(20e-3)),
         serve::poissonTrace("bert_large", qps * 0.25, 32,
                             /*seed=*/202,
                             /*deadline=*/secondsToTicks(80e-3))});
}

serve::ServingConfig
policyConfig(bool shed)
{
    serve::ServingConfig config;
    config.batching.maxBatch = 8;
    config.batching.maxQueueDelay = secondsToTicks(2e-3);
    config.batching.perModelMaxBatch["bert_large"] = 1;
    config.groupsPerBatch = 1;
    config.degradation.maxBatchRetries = 2;
    if (shed) {
        config.degradation.shedExpired = true;
        config.degradation.requestTimeout = secondsToTicks(120e-3);
        config.degradation.admissionLimit = 64;
    }
    return config;
}

serve::ServingReport
runCell(const std::vector<serve::Request> &trace,
        const FaultConfig &faults, bool shed)
{
    Dtu chip(dtu2Config());
    chip.installFaults(faults);
    ResourceManager rm(chip);
    serve::FleetConfig config;
    config.serving = policyConfig(shed);
    serve::Fleet fleet({{&chip, &rm}}, config);
    return std::move(fleet.serve(trace).perDevice[0].report);
}

} // namespace

int
main(int argc, char **argv)
{
    BenchOutput out(argc, argv, "fault_tolerance");
    printBanner("Fault tolerance: fault rate x shedding policy "
                "(ResNet50 + BERT-Large, 3:1)");

    std::vector<serve::Request> trace = mixTrace();
    ReportTable table({"faults/policy", "goodput_qps", "achieved_qps",
                       "availability", "p99_ms", "dropped", "retries"});

    double none_goodput_overload = 0.0;
    double shed_goodput_overload = 0.0;

    for (const FaultLevel &level : faultLevels()) {
        for (bool shed : {false, true}) {
            serve::ServingReport r = runCell(trace, level.config, shed);
            std::string policy = shed ? "shed" : "none";
            double dropped = static_cast<double>(
                r.shedRequests + r.timedOutRequests +
                r.rejectedRequests + r.failedRequests);
            table.addRow(std::string(level.name) + " " + policy,
                         {r.goodputQps, r.achievedQps, r.availability,
                          r.p99Ms, dropped,
                          static_cast<double>(r.batchRetries)});
            std::string prefix =
                std::string(level.name) + "_" + policy + "_";
            out.metric(prefix + "goodput_qps", r.goodputQps);
            out.metric(prefix + "achieved_qps", r.achievedQps);
            out.metric(prefix + "availability", r.availability);
            out.metric(prefix + "p99_ms", r.p99Ms);
            out.metric(prefix + "dropped", dropped);
            out.metric(prefix + "batch_retries",
                       static_cast<double>(r.batchRetries));
            out.metric(prefix + "faults_injected",
                       static_cast<double>(r.faultsInjected));
            if (std::string(level.name) == "overload") {
                if (shed)
                    shed_goodput_overload = r.goodputQps;
                else
                    none_goodput_overload = r.goodputQps;
            }
        }
    }
    table.print();
    out.table("fault_tolerance", table);

    double gain = none_goodput_overload > 0.0
                      ? shed_goodput_overload / none_goodput_overload
                      : (shed_goodput_overload > 0.0 ? 999.0 : 1.0);
    out.metric("shed_vs_none_goodput_gain_overload", gain);
    std::printf("\n  under overload faults, deadline-aware shedding "
                "sustains %.2fx the goodput of no shedding%s\n",
                gain, gain > 1.0 ? "" : "  ** REGRESSION **");
    return out.finish();
}
