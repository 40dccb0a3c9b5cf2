/**
 * @file
 * The multi-chip interconnect fabric and model-parallel placements
 * (fabric/fabric.hh, serve/placement.hh, the fleet/scheduler
 * integration).
 *
 * Pinned guarantees:
 *
 *  - Config validation is fatal and early: non-positive link
 *    bandwidth, zero-device placement degrees, degrees that do not
 *    divide the fleet (or a model's attention heads / layer stack),
 *    and model-parallel placements without the fabric all throw.
 *  - The shared host root complex is a real contended resource: two
 *    simultaneous weight loads take ~2x the serial time (the scalar
 *    weightLoadGbps model let them overlap for free).
 *  - Link completion arithmetic saturates at maxTick, never wraps,
 *    and link ledger pages retire behind the serving watermark.
 *  - A model too big for one device's HBM is a fatal with a sharding
 *    hint, and the same model serves under TP=2 or PP=2 with its
 *    collectives/activation sends visible in the fabric counters,
 *    the Chrome trace, and the dtusim_fabric_* Prometheus families.
 *  - With the fabric off, the fleet JSON is byte-identical to the
 *    pre-fabric golden (tests/golden/fleet_serving.json); with it
 *    on, the TP golden (tests/golden/fabric_serving.json) pins the
 *    run byte-for-byte across thread counts.
 *
 * Goldens regenerate like the serving ones:
 *
 *     DTU_UPDATE_GOLDEN=1 ./build/tests/dtusim_tests \
 *         --gtest_filter='GoldenFabric.*'
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "api/server.hh"
#include "fabric/fabric.hh"
#include "json_test_util.hh"
#include "models/model_zoo.hh"
#include "serve/arrival.hh"
#include "serve/fleet.hh"
#include "sim/logging.hh"

namespace
{

using namespace dtu;
using namespace dtu::serve;
using dtu::test::JValue;
using dtu::test::parseJson;

//
// Config validation.
//

TEST(FabricValidation, RejectsNonPositiveBandwidth)
{
    fabric::FabricConfig zero_link;
    zero_link.enabled = true;
    zero_link.linkGbps = 0.0;
    EXPECT_THROW(zero_link.validate(), FatalError);

    fabric::FabricConfig negative_host;
    negative_host.enabled = true;
    negative_host.hostGbps = -4.0;
    EXPECT_THROW(negative_host.validate(), FatalError);

    EXPECT_THROW(fabric::Link("bad", 0.0), FatalError);
    EXPECT_THROW(fabric::Link("bad", -1.0), FatalError);
}

TEST(FabricValidation, RejectsZeroOrNonDividingDegrees)
{
    PlacementConfig tp;
    tp.mode = PlacementMode::TensorParallel;
    tp.degree = 0;
    EXPECT_THROW(validatePlacement(tp, 4), FatalError);

    tp.degree = 3; // does not divide 4 devices
    EXPECT_THROW(validatePlacement(tp, 4), FatalError);

    PlacementConfig pp;
    pp.mode = PlacementMode::PipelineParallel;
    pp.degree = 2;
    pp.microbatches = 0;
    EXPECT_THROW(validatePlacement(pp, 4), FatalError);

    pp.microbatches = 4;
    EXPECT_NO_THROW(validatePlacement(pp, 4));
}

TEST(FabricValidation, TensorDegreeMustDivideHeads)
{
    const models::DecoderSpec *tiny = models::decoderSpec("gpt_tiny");
    ASSERT_NE(tiny, nullptr);
    // gpt_tiny has 4 attention heads: 2 divides, 3 does not, 0 is
    // never a degree.
    EXPECT_NO_THROW(models::validateTensorShard(*tiny, 2));
    EXPECT_THROW(models::validateTensorShard(*tiny, 3), FatalError);
    EXPECT_THROW(models::validateTensorShard(*tiny, 0), FatalError);
    // 4 layers: 3 stages do not divide the stack.
    EXPECT_NO_THROW(models::validatePipelineStages(*tiny, 2));
    EXPECT_THROW(models::validatePipelineStages(*tiny, 3), FatalError);
    EXPECT_THROW(models::validatePipelineStages(*tiny, 0), FatalError);
}

TEST(FabricValidation, ModelParallelNeedsTheFabric)
{
    FleetConfig config;
    config.devices = 2;
    config.placement.mode = PlacementMode::TensorParallel;
    config.placement.degree = 2;
    // fabric.enabled defaults to false: nothing to run collectives on.
    EXPECT_THROW(FleetServer{config}, FatalError);

    config.fabric.enabled = true;
    EXPECT_NO_THROW(FleetServer{config});
}

//
// The link ledger.
//

TEST(FabricLink, BackToBackTransfersSerialize)
{
    const std::uint64_t bytes = 8ull << 20;
    fabric::Link solo("solo", 16.0);
    const Tick serial = solo.transferAt(0, bytes);
    ASSERT_GT(serial, 0u);

    // Two transfers submitted at the same tick share the ledger: the
    // second lands at ~2x the serial time, not in parallel for free.
    fabric::Link shared("shared", 16.0);
    const Tick first = shared.transferAt(0, bytes);
    const Tick second = shared.transferAt(0, bytes);
    EXPECT_NEAR(static_cast<double>(first),
                static_cast<double>(serial),
                0.02 * static_cast<double>(serial));
    EXPECT_NEAR(static_cast<double>(second),
                2.0 * static_cast<double>(serial),
                0.05 * static_cast<double>(serial));
    EXPECT_GT(shared.totalWaitTicks(), 0u);
}

TEST(FabricLink, CompletionSaturatesNearMaxTick)
{
    fabric::Link link("edge", 1.0);
    // A transfer submitted with almost no headroom must clamp to
    // maxTick instead of wrapping into the past.
    const Tick done = link.transferAt(maxTick - 10, 64ull << 20);
    EXPECT_EQ(done, maxTick);
    // And the accounting survives a second saturated transfer.
    EXPECT_EQ(link.transferAt(maxTick - 10, 64ull << 20), maxTick);
    EXPECT_EQ(link.freeAt(), maxTick);
}

TEST(FabricLink, UtilizationIsBoundedAndMonotonic)
{
    fabric::Link link("util", 8.0);
    EXPECT_DOUBLE_EQ(link.utilizationAt(0), 0.0);
    link.transferAt(0, 1ull << 20);
    const double busy = link.utilizationAt(0);
    EXPECT_GT(busy, 0.0);
    EXPECT_LE(busy, 1.0);
    // Widening the horizon dilutes utilization.
    EXPECT_LT(link.utilizationAt(link.freeAt() * 4), busy);
}

//
// The satellite bugfix: simultaneous placements contend on the
// shared root complex instead of each enjoying full bandwidth.
//

TEST(FabricContention, SimultaneousPlacementsTakeTwiceSerialTime)
{
    auto config = [](unsigned devices) {
        FleetConfig c;
        c.devices = devices;
        c.routing = RoutingPolicy::RoundRobin;
        c.serving.batching.maxBatch = 2;
        c.fabric.enabled = true;
        c.fabric.hostGbps = 8.0;
        return c;
    };

    // Baseline: one device placing resnet50 alone.
    FleetServer solo(config(1));
    solo.submit(finalizeTrace({fixedRateTrace("resnet50", 1e6, 1)}));
    const FleetReport &solo_report = solo.serveFleet();
    ASSERT_EQ(solo_report.perDevice.size(), 1u);
    const Tick alone = solo_report.perDevice[0].weightLoadTicks;
    ASSERT_GT(alone, 0u);

    // Two devices, two arrivals at the same tick: round-robin places
    // the model on both devices simultaneously. Both loads cross the
    // shared root complex, so one of them waits behind the other.
    FleetServer pair(config(2));
    pair.submit(finalizeTrace({fixedRateTrace("resnet50", 1e6, 2)}));
    const FleetReport &pair_report = pair.serveFleet();
    ASSERT_EQ(pair_report.perDevice.size(), 2u);
    const Tick a = pair_report.perDevice[0].weightLoadTicks;
    const Tick b = pair_report.perDevice[1].weightLoadTicks;
    const Tick fast = std::min(a, b), slow = std::max(a, b);
    EXPECT_NEAR(static_cast<double>(fast), static_cast<double>(alone),
                0.02 * static_cast<double>(alone));
    EXPECT_NEAR(static_cast<double>(slow),
                2.0 * static_cast<double>(alone),
                0.05 * static_cast<double>(alone));

    // The wait shows up in the root link's ledger stats.
    ASSERT_TRUE(pair_report.fabric.enabled);
    ASSERT_FALSE(pair_report.fabric.links.empty());
    EXPECT_EQ(pair_report.fabric.links[0].name, "fabric.root");
    EXPECT_GT(pair_report.fabric.links[0].waitMs, 0.0);
    EXPECT_EQ(pair_report.fabric.totals.weightLoads, 2u);
}

//
// HBM capacity and model-parallel serving of a too-big model.
//

RequestSpec
bigModelSpec(Tick arrival)
{
    RequestSpec spec;
    spec.model = "gpt_11b";
    spec.arrival = arrival;
    spec.gen.promptLen = 16;
    spec.gen.maxNewTokens = 4;
    spec.gen.stop = StopPolicy::MaxTokens;
    return spec;
}

FleetConfig
bigModelConfig(PlacementMode mode, fabric::Topology topology)
{
    FleetConfig config;
    config.devices = 2;
    config.serving.batching.maxBatch = 2;
    config.serving.generation.maxDecodeBatch = 2;
    // gpt_11b's KV row is ~360 KB/token even sharded; the default
    // 64 KB page cannot hold a token.
    config.serving.generation.kv.pageBytes = 1ull << 20;
    config.fabric.enabled = true;
    config.fabric.topology = topology;
    config.placement.mode = mode;
    config.placement.degree = 2;
    config.placement.microbatches = 4;
    return config;
}

TEST(FabricBigModel, DoesNotFitOneDevice)
{
    // gpt_11b needs ~23 GB of FP16 weights; the device HBM holds
    // 16 GiB. The placement must die with a sharding hint rather
    // than silently overcommit.
    FleetConfig config;
    config.devices = 1;
    config.fabric.enabled = true;
    FleetServer fleet(config);
    fleet.submit(bigModelSpec(0));
    try {
        fleet.serveFleet();
        FAIL() << "placement of gpt_11b on one device did not throw";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find("tensor-parallel"),
                  std::string::npos)
            << "fatal should suggest sharding: " << err.what();
    }
}

TEST(FabricBigModel, ServesUnderTensorParallel)
{
    FleetServer fleet(bigModelConfig(PlacementMode::TensorParallel,
                                     fabric::Topology::Ring));
    for (unsigned i = 0; i < 3; ++i)
        fleet.submit(bigModelSpec(secondsToTicks(1e-3) * i));
    const FleetReport &report = fleet.serveFleet();

    EXPECT_EQ(report.fleet.requests, 3u);
    EXPECT_EQ(report.fleet.submitted, 3u);
    ASSERT_TRUE(report.fabric.enabled);
    EXPECT_EQ(report.fabric.groupSize, 2u);
    // Two all-reduces per layer per launched batch.
    EXPECT_GT(report.fabric.totals.collectives, 0u);
    EXPECT_GT(report.fabric.totals.collectiveBytes, 0.0);
    EXPECT_EQ(report.fabric.totals.activationSends, 0u);
    // Both shards loaded over the root complex.
    EXPECT_EQ(report.fabric.totals.weightLoads, 2u);
}

TEST(FabricBigModel, ServesUnderPipelineParallel)
{
    FleetServer fleet(bigModelConfig(PlacementMode::PipelineParallel,
                                     fabric::Topology::FullMesh));
    for (unsigned i = 0; i < 3; ++i)
        fleet.submit(bigModelSpec(secondsToTicks(1e-3) * i));
    const FleetReport &report = fleet.serveFleet();

    EXPECT_EQ(report.fleet.requests, 3u);
    ASSERT_TRUE(report.fabric.enabled);
    // Every microbatch crosses the single stage boundary.
    EXPECT_GT(report.fabric.totals.activationSends, 0u);
    EXPECT_GT(report.fabric.totals.activationBytes, 0.0);
    EXPECT_EQ(report.fabric.totals.collectives, 0u);
}

//
// Observability: trace spans, Prometheus families, report JSON.
//

TEST(FabricObservability, CollectivesAppearInExportedTrace)
{
    FleetConfig config = bigModelConfig(PlacementMode::TensorParallel,
                                        fabric::Topology::Ring);
    config.serving.exec.timeline = true;
    FleetServer fleet(config);
    fleet.enableRequestTracing({.sampleRate = 1.0});
    fleet.submit(bigModelSpec(0));
    fleet.serveFleet();

    std::ostringstream os;
    fleet.exportFleetTrace(os);
    const std::string trace = os.str();
    EXPECT_NE(trace.find("allreduce"), std::string::npos)
        << "no all-reduce span in the exported Chrome trace";
    EXPECT_NE(trace.find("all-reduce"), std::string::npos)
        << "no all-reduce category in the exported Chrome trace";
    EXPECT_NE(trace.find("fabric"), std::string::npos)
        << "no fabric track in the exported Chrome trace";
}

TEST(FabricObservability, ActivationSendsAppearInExportedTrace)
{
    FleetConfig config = bigModelConfig(PlacementMode::PipelineParallel,
                                        fabric::Topology::FullMesh);
    config.serving.exec.timeline = true;
    FleetServer fleet(config);
    fleet.enableRequestTracing({.sampleRate = 1.0});
    fleet.submit(bigModelSpec(0));
    fleet.serveFleet();

    std::ostringstream os;
    fleet.exportFleetTrace(os);
    const std::string trace = os.str();
    EXPECT_NE(trace.find(".act s0>s1"), std::string::npos)
        << "no stage-boundary activation span in the trace";
    EXPECT_NE(trace.find("activation"), std::string::npos);
}

TEST(FabricObservability, PrometheusExportsFabricFamilies)
{
    FleetServer fleet(bigModelConfig(PlacementMode::TensorParallel,
                                     fabric::Topology::Ring));
    fleet.submit(bigModelSpec(0));
    fleet.serveFleet();

    std::ostringstream os;
    fleet.writePrometheus(os);
    const std::string prom = os.str();
    for (const char *family :
         {"dtusim_fabric_collectives_total",
          "dtusim_fabric_collective_bytes_total",
          "dtusim_fabric_weight_loads_total",
          "dtusim_fabric_weight_load_bytes_total",
          "dtusim_fabric_link_bytes_total",
          "dtusim_fabric_link_wait_ms",
          "dtusim_fabric_link_utilization"}) {
        EXPECT_NE(prom.find(family), std::string::npos)
            << "missing Prometheus family " << family;
    }
    // Per-link samples carry the link name as a label.
    EXPECT_NE(prom.find("{link=\"fabric.root\"}"), std::string::npos);
    EXPECT_NE(prom.find("{link=\"fabric.g0.ring0\"}"),
              std::string::npos);
}

TEST(FabricObservability, ReportJsonCarriesPlacementAndFabric)
{
    FleetServer fleet(bigModelConfig(PlacementMode::TensorParallel,
                                     fabric::Topology::Ring));
    fleet.submit(bigModelSpec(0));
    std::ostringstream os;
    writeJson(fleet.serveFleet(), os);
    JValue root = parseJson(os.str());

    const JValue *placement = root.find("placement");
    ASSERT_NE(placement, nullptr);
    EXPECT_EQ(placement->str("mode"), "tensor-parallel");
    EXPECT_EQ(placement->num("degree"), 2.0);

    const JValue *fab = root.find("fabric");
    ASSERT_NE(fab, nullptr);
    EXPECT_EQ(fab->str("topology"), "ring");
    EXPECT_GT(fab->num("collectives"), 0.0);
    const JValue *links = fab->find("links");
    ASSERT_NE(links, nullptr);
    ASSERT_FALSE(links->items.empty());
    EXPECT_EQ(links->items[0].str("name"), "fabric.root");
}

TEST(FabricObservability, FabricTrafficShowsUpInEnergyBreakdown)
{
    FleetConfig config;
    config.devices = 1;
    config.fabric.enabled = true;
    FleetServer fleet(config);
    fleet.enableEnergyMonitor({});
    fleet.submit(finalizeTrace({fixedRateTrace("resnet50", 1e6, 1)}));
    const FleetReport &report = fleet.serveFleet();
    ASSERT_EQ(report.perDevice.size(), 1u);
    // The weight load crossed the fabric, so the run's energy has a
    // non-zero fabric component.
    EXPECT_GT(report.perDevice[0].report.energy.fabricJoules, 0.0);
}

//
// Goldens: the fabric-off path is byte-identical to the pre-fabric
// fleet golden, and the TP run is pinned byte-for-byte.
//

std::string
fleetGoldenPath()
{
    return std::string(DTU_TESTS_DIR) + "/golden/fleet_serving.json";
}

std::string
fabricGoldenPath()
{
    return std::string(DTU_TESTS_DIR) + "/golden/fabric_serving.json";
}

/** The exact scenario tests/golden/fleet_serving.json pins. */
FleetConfig
scalarGoldenConfig()
{
    FleetConfig config;
    config.devices = 2;
    config.routing = RoutingPolicy::LeastOutstanding;
    config.serving.batching.maxBatch = 4;
    config.serving.batching.maxQueueDelay = secondsToTicks(200e-6);
    config.weightLoadGbps = 8.0;
    return config;
}

std::string
renderScalarGoldenRun()
{
    FleetServer fleet(scalarGoldenConfig());
    fleet.submit(finalizeTrace(
        {poissonTrace("resnet50", 4000, 24, /*seed=*/11,
                      secondsToTicks(20e-3)),
         poissonTrace("conformer", 4000, 24, /*seed=*/12,
                      secondsToTicks(30e-3))}));
    std::ostringstream os;
    writeJson(fleet.serveFleet(), os, /*per_request=*/true);
    return os.str();
}

/** The fixed-seed TP fleet run tests/golden/fabric_serving.json pins. */
FleetConfig
fabricGoldenConfig(unsigned threads = 1)
{
    FleetConfig config;
    config.devices = 4;
    config.routing = RoutingPolicy::LeastOutstanding;
    config.threads = threads;
    config.serving.batching.maxBatch = 4;
    config.serving.batching.maxQueueDelay = secondsToTicks(200e-6);
    config.serving.generation.maxDecodeBatch = 4;
    config.fabric.enabled = true;
    config.fabric.topology = fabric::Topology::Ring;
    config.fabric.linkGbps = 32.0;
    config.fabric.hostGbps = 64.0;
    config.placement.mode = PlacementMode::TensorParallel;
    config.placement.degree = 2;
    return config;
}

std::string
renderFabricGoldenRun(unsigned threads)
{
    FleetServer fleet(fabricGoldenConfig(threads));
    // One-shot traffic plus ragged gpt_tiny generation: the sharded
    // decoder path and the unsharded CNN path in one run.
    fleet.submit(finalizeTrace({poissonTrace(
        "resnet50", 4000, 16, /*seed=*/17, secondsToTicks(20e-3))}));
    const Tick gap = secondsToTicks(1.0 / 2500.0);
    for (unsigned i = 0; i < 8; ++i) {
        RequestSpec spec;
        spec.model = "gpt_tiny";
        spec.arrival = gap * i + gap / (2 + i % 3);
        spec.gen.promptLen = 16 + 8 * (i % 4);
        spec.gen.maxNewTokens = 4 + i % 5;
        spec.gen.stop =
            i % 2 ? StopPolicy::EosHash : StopPolicy::MaxTokens;
        fleet.submit(spec);
    }
    std::ostringstream os;
    writeJson(fleet.serveFleet(), os, /*per_request=*/true);
    return os.str();
}

TEST(FabricLink, PeerLinkPagesRetireBehindTheServingWatermark)
{
    // Each group's scheduler raises its peer links' watermark as it
    // settles, so the links' ledger pages stay flat as traces grow.
    auto link_pages = [](unsigned requests) {
        FleetServer fleet(fabricGoldenConfig(/*threads=*/2));
        std::vector<Request> trace =
            poissonTrace("gpt_tiny", 2500, requests, /*seed=*/21);
        for (Request &r : trace) {
            r.gen.promptLen = 32;
            r.gen.maxNewTokens = 8;
        }
        fleet.submit(finalizeTrace({std::move(trace)}));
        EXPECT_EQ(fleet.serveFleet().fleet.requests, requests);
        return fleet.fleet().fabricPtr()->ledgerPages();
    };
    const std::size_t short_run = link_pages(16);
    EXPECT_GT(short_run, 0u);
    EXPECT_LE(link_pages(256), 2 * short_run);
}

void
expectMatchesGolden(const std::string &rendered,
                    const std::string &path, const std::string &label)
{
    std::ifstream in(path);
    ASSERT_TRUE(in) << "missing " << path
                    << "; regenerate with DTU_UPDATE_GOLDEN=1";
    std::stringstream golden;
    golden << in.rdbuf();

    std::istringstream a(golden.str()), b(rendered);
    std::string la, lb;
    std::size_t line = 0;
    while (true) {
        ++line;
        bool more_a = static_cast<bool>(std::getline(a, la));
        bool more_b = static_cast<bool>(std::getline(b, lb));
        if (!more_a && !more_b)
            break;
        ASSERT_EQ(lb, la)
            << label << " diverged from " << path << " at line "
            << line
            << "; if intentional, regenerate with DTU_UPDATE_GOLDEN=1";
        ASSERT_EQ(more_a, more_b)
            << label << ": lengths diverge at line " << line;
    }
}

TEST(GoldenFabric, ScalarPathStaysByteIdenticalToFleetGolden)
{
    // The fabric-off, weightLoadGbps serving path must not move by a
    // byte: same config, same seeds, same golden file the request
    // tracing suite pins.
    expectMatchesGolden(renderScalarGoldenRun(), fleetGoldenPath(),
                        "fabric-off fleet run");
}

TEST(GoldenFabric, TensorParallelRunMatchesCheckedInJson)
{
    std::string rendered = renderFabricGoldenRun(/*threads=*/1);

    if (std::getenv("DTU_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(fabricGoldenPath());
        ASSERT_TRUE(out) << "cannot write " << fabricGoldenPath();
        out << rendered;
        GTEST_SKIP() << "regenerated " << fabricGoldenPath();
    }
    expectMatchesGolden(rendered, fabricGoldenPath(), "TP fleet run");
}

TEST(GoldenFabric, ParallelRunMatchesCheckedInJson)
{
    // Ring peer links are group-private, so the TP fleet still runs
    // under the parallel window scheduler — byte-identically.
    for (unsigned threads : {2u, 8u}) {
        expectMatchesGolden(renderFabricGoldenRun(threads),
                            fabricGoldenPath(),
                            "TP fleet run, threads=" +
                                std::to_string(threads));
    }
}

} // namespace
