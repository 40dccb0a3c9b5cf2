/**
 * @file
 * The latency floor the serving scheduler reads launch results at
 * (Executor::minLatency, Scheduler's launch floor): it must bound
 * every execution from below, whatever the chip's state, power
 * management, throttling, faults, or the model-parallel fabric
 * overlay that re-times a batch after it computed.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/server.hh"
#include "compiler/lowering.hh"
#include "models/model_zoo.hh"
#include "runtime/executor.hh"
#include "serve/arrival.hh"
#include "sim/fault.hh"
#include "soc/config.hh"

namespace
{

using namespace dtu;
using namespace dtu::serve;

/** No faults, thermal-throttle episodes, or DMA/ECC faults. */
enum class Faults
{
    None,
    Thermal,
    DmaEcc,
};

/** Install @p faults on a chip or an api::Device. */
template <typename Chip>
void
installFaults(Chip &chip, Faults faults, std::uint64_t seed)
{
    FaultConfig f;
    f.seed = seed;
    if (faults == Faults::Thermal) {
        f.thermalMeanIntervalS = 0.5e-3;
        f.thermalMeanDurationS = 2e-3;
        f.thermalCapHz = 0.6e9;
    } else if (faults == Faults::DmaEcc) {
        f.eccCorrectablePerGiB = 60.0;
        f.eccUncorrectablePerGiB = 3.0;
        f.dmaTransientRate = 5e-3;
    } else {
        return;
    }
    chip.installFaults(f);
}

/**
 * Every plan the serving paths execute, run on a fresh chip and then
 * again on the same chip while its first run's traffic is still on
 * the ledgers, with power management on and off, clean and under
 * thermal-throttle and DMA/ECC faults.
 */
void
expectFloorHolds(const ExecutionPlan &plan, const std::string &label,
                 unsigned groups)
{
    std::vector<unsigned> lease;
    for (unsigned g = 0; g < groups; ++g)
        lease.push_back(g);
    for (bool pm : {false, true}) {
        for (Faults faults :
             {Faults::None, Faults::Thermal, Faults::DmaEcc}) {
            Dtu chip(dtu2Config());
            installFaults(chip, faults, 7);
            Executor executor(chip, lease,
                              ExecOptions{.powerManagement = pm});
            const Tick floor = executor.minLatency(plan);
            ASSERT_GT(floor, 0u) << label;
            const std::string where =
                label + (pm ? " pm=on" : " pm=off") + " faults=" +
                std::to_string(static_cast<int>(faults));
            const Tick first_at = 1'000'000;
            const ExecResult fresh = executor.run(plan, first_at);
            EXPECT_GE(fresh.end - first_at, floor) << where << " fresh";
            const Tick second_at = first_at + fresh.latency / 3;
            const ExecResult loaded = executor.run(plan, second_at);
            EXPECT_GE(loaded.end - second_at, floor)
                << where << " preloaded";
        }
    }
}

TEST(PlanFloor, BoundsEveryExecution)
{
    const DtuConfig config = dtu2Config();
    for (const models::ModelInfo &info : models::modelZoo()) {
        for (int batch : {1, 4, 8}) {
            expectFloorHolds(
                compile(models::buildModel(info.name, batch), config,
                        DType::FP16, 1, {}, batch),
                info.name + " b" + std::to_string(batch), 1);
        }
    }
    // Decoder prefill and decode-step plans, also as a two-group lease
    // and as tensor-parallel shards.
    for (int batch : {1, 4, 8}) {
        const std::string b = " b" + std::to_string(batch);
        expectFloorHolds(
            compile(models::buildDecoderPrefill("gpt_small", batch, 128),
                    config, DType::FP16, 1, {}, batch),
            "gpt_small prefill" + b, 1);
        expectFloorHolds(
            compile(models::buildDecoderStep("gpt_small", batch, 192),
                    config, DType::FP16, 2, {}, batch),
            "gpt_small decode x2 groups" + b, 2);
        expectFloorHolds(
            compile(models::buildDecoderStepTP("gpt_small", batch, 192,
                                               2),
                    config, DType::FP16, 1, {}, batch),
            "gpt_small decode tp2" + b, 1);
    }
}

/** Generative traffic over a two-group model-parallel fleet. */
FleetConfig
shardedFleet(PlacementMode mode, bool pm)
{
    FleetConfig config;
    config.devices = 4;
    config.threads = 2;
    config.routing = RoutingPolicy::LeastOutstanding;
    config.fabric.enabled = true;
    config.fabric.topology = fabric::Topology::Ring;
    config.fabric.linkGbps = 32.0;
    config.placement.mode = mode;
    config.placement.degree = 2;
    config.placement.microbatches = 4;
    config.serving.batching.maxBatch = 4;
    config.serving.batching.maxQueueDelay = secondsToTicks(300e-6);
    config.serving.degradation.maxBatchRetries = 1;
    config.serving.exec.powerManagement = pm;
    return config;
}

TEST(PlanFloor, BoundsShardedOverlays)
{
    // The scheduler panics when a launch ends before its floor. A
    // pipeline-parallel overlay re-times a batch to
    // (d + m - 1) * T / (d * m) after launch, before its compute end
    // at m = 4, so a floor that ignored the re-timing fails here.
    for (PlacementMode mode :
         {PlacementMode::TensorParallel, PlacementMode::PipelineParallel}) {
        for (bool pm : {false, true}) {
            for (Faults faults :
                 {Faults::None, Faults::Thermal, Faults::DmaEcc}) {
                FleetServer fleet(shardedFleet(mode, pm));
                for (unsigned i = 0; i < fleet.size(); ++i)
                    installFaults(fleet.device(i), faults, 11 + i);
                const Tick gap = secondsToTicks(1.0 / 3000.0);
                for (unsigned i = 0; i < 24; ++i) {
                    RequestSpec spec;
                    spec.model = "gpt_tiny";
                    spec.arrival = gap * i;
                    spec.gen.promptLen = 16 + 24 * (i % 3);
                    spec.gen.maxNewTokens = 3 + i % 4;
                    fleet.submit(spec);
                }
                fleet.submit(finalizeTrace(
                    {poissonTrace("resnet50", 3000.0, 12, 3)}));
                const FleetReport *report = nullptr;
                EXPECT_NO_THROW(report = &fleet.serveFleet())
                    << placementModeName(mode) << " pm=" << pm
                    << " faults=" << static_cast<int>(faults);
                if (report) {
                    EXPECT_EQ(report->fleet.outcomes.size(), 36u);
                }
            }
        }
    }
}

} // namespace
