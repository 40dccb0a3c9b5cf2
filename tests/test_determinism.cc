/**
 * @file
 * The parallel-fleet determinism guarantee (serve/fleet.hh,
 * sim/lane_executor.hh): a fleet served with threads=N produces
 * byte-identical results to threads=1 — same serving/generation JSON
 * (per-request outcome logs included), same per-device StatRegistry
 * dumps — for any thread count, workload shape, seed, fault
 * pressure, and degradation policy.
 *
 * This is the contract that makes the parallel simulator trustworthy:
 * one serial loop makes every scheduling decision, each chip's
 * launches run in submit order on its own lane, and a result is read
 * no earlier than its launch's latency floor, so every chip sees the
 * serial sequence of operations and the loop retires the serial
 * schedule. Each workload below stresses a different coupling path:
 * Poisson and bursty arrivals (routing pressure), per-device fault
 * injection (ECC/DMA perturbations of batch timing), degradation
 * (shedding, timeouts, batch retries), autoregressive generation
 * (KV admission, continuous batching, decode steps), the benchmark's
 * 3:1 ResNet50/BERT-Large mix (long floors next to short ones), and
 * pipeline-parallel groups (floors that re-time before compute ends).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "api/server.hh"
#include "serve/arrival.hh"
#include "serve/fleet.hh"
#include "sim/fault.hh"
#include "sim/logging.hh"

namespace
{

using namespace dtu;
using namespace dtu::serve;

struct Workload
{
    const char *name;
    std::uint64_t seed;
    bool bursty;
    bool faults;
    bool generative;
    /** The benchmark's fleet_mix shape instead of the default mix. */
    bool fleetMix = false;
    /** Pipeline-parallel groups (degree 2, 4 microbatches). */
    bool pipeline = false;
};

FleetConfig
fleetConfig(unsigned threads)
{
    FleetConfig config;
    config.devices = 4;
    config.routing = RoutingPolicy::LeastOutstanding;
    config.threads = threads;
    config.serving.batching.maxBatch = 4;
    config.serving.batching.maxQueueDelay = secondsToTicks(500e-6);
    config.serving.batching.perModelMaxBatch["bert_large"] = 1;
    config.serving.degradation.shedExpired = true;
    config.serving.degradation.requestTimeout = secondsToTicks(30e-3);
    config.serving.degradation.maxBatchRetries = 1;
    config.serving.generation.maxDecodeBatch = 4;
    // Placement weight loads give every device weight-ready events
    // near the start of the run (a window-edge case worth covering).
    config.weightLoadGbps = 8.0;
    return config;
}

std::vector<Request>
oneShotTrace(const Workload &w)
{
    if (w.fleetMix) {
        // 3:1 ResNet50/BERT-Large by count at 4000 QPS per device.
        return finalizeTrace(
            {poissonTrace("resnet50", 12000.0, 48, w.seed,
                          secondsToTicks(20e-3)),
             poissonTrace("bert_large", 4000.0, 16, w.seed + 1,
                          secondsToTicks(80e-3))});
    }
    const double qps = 6000.0;
    const Tick resnet_slo = secondsToTicks(25e-3);
    const Tick bert_slo = secondsToTicks(80e-3);
    if (w.bursty)
        return finalizeTrace(
            {burstyTrace("resnet50", qps * 0.75, 24, w.seed,
                         /*burst=*/6, /*factor=*/4.0, resnet_slo),
             burstyTrace("bert_large", qps * 0.25, 8, w.seed + 1,
                         /*burst=*/4, /*factor=*/4.0, bert_slo)});
    return finalizeTrace(
        {poissonTrace("resnet50", qps * 0.75, 24, w.seed, resnet_slo),
         poissonTrace("bert_large", qps * 0.25, 8, w.seed + 1,
                      bert_slo)});
}

/** Ragged gpt_tiny traffic layered over the one-shot trace. */
std::vector<RequestSpec>
genSpecs(std::uint64_t seed)
{
    std::vector<RequestSpec> specs;
    const Tick gap = secondsToTicks(1.0 / 2500.0);
    for (unsigned i = 0; i < 10; ++i) {
        RequestSpec spec;
        spec.model = "gpt_tiny";
        spec.arrival = gap * i + gap / (2 + (seed + i) % 3);
        spec.gen.promptLen =
            16 + 8 * static_cast<unsigned>((seed + i) % 4);
        spec.gen.maxNewTokens =
            4 + static_cast<unsigned>((seed + 2 * i) % 5);
        spec.gen.stop = (seed + i) % 2 ? StopPolicy::EosHash
                                       : StopPolicy::MaxTokens;
        specs.push_back(spec);
    }
    return specs;
}

/**
 * One full fleet serving run at @p threads: the report JSON with
 * per-request outcome logs, plus every device's final StatRegistry
 * dump in @p stats_out.
 */
FleetConfig
workloadConfig(unsigned threads, const Workload &w)
{
    FleetConfig config = fleetConfig(threads);
    if (w.fleetMix) {
        config.serving.batching.maxBatch = 8;
        config.serving.batching.maxQueueDelay = secondsToTicks(2e-3);
        config.serving.degradation = DegradationPolicy{};
        config.weightLoadGbps = 0.0;
    }
    if (w.pipeline) {
        config.fabric.enabled = true;
        config.fabric.topology = fabric::Topology::Ring;
        config.fabric.linkGbps = 32.0;
        config.placement.mode = PlacementMode::PipelineParallel;
        config.placement.degree = 2;
        config.placement.microbatches = 4;
    }
    return config;
}

std::string
runOnce(unsigned threads, const Workload &w, std::string *stats_out)
{
    FleetServer fleet(workloadConfig(threads, w));
    if (w.faults) {
        for (unsigned i = 0; i < fleet.size(); ++i) {
            FaultConfig f;
            f.seed = w.seed * 97 + i;
            f.eccCorrectablePerGiB = 60.0;
            f.eccUncorrectablePerGiB = 3.0;
            f.dmaTransientRate = 5e-4;
            fleet.device(i).installFaults(f);
        }
    }
    fleet.submit(oneShotTrace(w));
    if (w.generative)
        for (const RequestSpec &spec : genSpecs(w.seed))
            fleet.submit(spec);
    const FleetReport &report = fleet.serveFleet();

    std::ostringstream os;
    writeJson(report, os, /*per_request=*/true);
    if (stats_out) {
        std::ostringstream stats;
        for (unsigned i = 0; i < fleet.size(); ++i)
            fleet.device(i).dumpStatsJson(stats);
        *stats_out = stats.str();
    }
    return os.str();
}

/** Pinpoint the first differing line for a readable failure. */
void
expectSameText(const std::string &base, const std::string &other,
               const std::string &label)
{
    if (base == other)
        return;
    std::istringstream a(base), b(other);
    std::string la, lb;
    std::size_t line = 0;
    while (true) {
        ++line;
        bool more_a = static_cast<bool>(std::getline(a, la));
        bool more_b = static_cast<bool>(std::getline(b, lb));
        if (!more_a && !more_b)
            break;
        ASSERT_EQ(la, lb) << label << ": first divergence at line "
                          << line;
        ASSERT_EQ(more_a, more_b)
            << label << ": lengths diverge at line " << line;
    }
    FAIL() << label << ": texts differ";
}

TEST(Determinism, ByteIdenticalAcrossThreadCounts)
{
    const Workload workloads[] = {
        {"poisson", 11, false, false, false},
        {"bursty", 23, true, false, false},
        {"bursty_faults", 37, true, true, false},
        {"faults_generative", 53, false, true, true},
        {"generative", 71, false, false, true},
        {"fleet_mix", 83, false, false, false, true, false},
        {"pipeline_faults", 97, false, true, true, false, true},
    };
    for (const Workload &w : workloads) {
        std::string base_stats;
        const std::string base = runOnce(1, w, &base_stats);
        ASSERT_FALSE(base.empty());
        // threads=8 on 4 devices exercises the clamp to fleet size.
        for (unsigned threads : {2u, 4u, 8u}) {
            std::string stats;
            const std::string json = runOnce(threads, w, &stats);
            expectSameText(base, json,
                           std::string(w.name) + " report, threads=" +
                               std::to_string(threads));
            expectSameText(base_stats, stats,
                           std::string(w.name) + " stats, threads=" +
                               std::to_string(threads));
        }
    }
}

/** A model-parallel fleet: 4 devices in 2 groups over the fabric. */
FleetConfig
shardedConfig(unsigned threads, PlacementMode mode,
              fabric::Topology topology)
{
    FleetConfig config = fleetConfig(threads);
    config.fabric.enabled = true;
    config.fabric.topology = topology;
    config.fabric.linkGbps = 32.0;
    config.placement.mode = mode;
    config.placement.degree = 2;
    config.placement.microbatches = 4;
    return config;
}

TEST(Determinism, ModelParallelByteIdenticalAcrossThreadCounts)
{
    // Tensor- and pipeline-parallel groups drive their own peer
    // links from their lane tasks; only the shared root complex is
    // fleet-thread territory. Every topology x placement combination
    // that parallelizes must retire the serial schedule exactly.
    const struct
    {
        const char *name;
        PlacementMode mode;
        fabric::Topology topology;
    } combos[] = {
        {"tp_ring", PlacementMode::TensorParallel,
         fabric::Topology::Ring},
        {"tp_mesh", PlacementMode::TensorParallel,
         fabric::Topology::FullMesh},
        {"pp_ring", PlacementMode::PipelineParallel,
         fabric::Topology::Ring},
        {"pp_mesh", PlacementMode::PipelineParallel,
         fabric::Topology::FullMesh},
    };
    for (const auto &combo : combos) {
        for (std::uint64_t seed : {13ull, 41ull}) {
            const Workload w{combo.name, seed, false, false, true};
            auto run = [&](unsigned threads) {
                FleetServer fleet(shardedConfig(threads, combo.mode,
                                                combo.topology));
                fleet.submit(oneShotTrace(w));
                for (const RequestSpec &spec : genSpecs(w.seed))
                    fleet.submit(spec);
                std::ostringstream os;
                writeJson(fleet.serveFleet(), os,
                          /*per_request=*/true);
                return os.str();
            };
            const std::string base = run(1);
            ASSERT_FALSE(base.empty());
            for (unsigned threads : {2u, 4u, 8u}) {
                expectSameText(base, run(threads),
                               std::string(combo.name) + " seed " +
                                   std::to_string(seed) +
                                   ", threads=" +
                                   std::to_string(threads));
            }
        }
    }
}

TEST(Determinism, SharedRootShardingFallsBackToSerial)
{
    // Under SharedRoot, group collectives would cross the shared
    // root link from lane tasks; the fleet must fall back to the
    // serial loop and still match threads=1 byte-for-byte.
    const Workload w{"shared_root", 29, false, false, true};
    auto run = [&](unsigned threads) {
        FleetServer fleet(shardedConfig(
            threads, PlacementMode::TensorParallel,
            fabric::Topology::SharedRoot));
        fleet.submit(oneShotTrace(w));
        for (const RequestSpec &spec : genSpecs(w.seed))
            fleet.submit(spec);
        std::ostringstream os;
        writeJson(fleet.serveFleet(), os, /*per_request=*/true);
        return os.str();
    };
    expectSameText(run(1), run(4), "shared-root fallback");
}

TEST(Determinism, ObserversFallBackToSerialWithIdenticalReports)
{
    // Observers alone serve on lanes (see the artifact test below);
    // the one observer left on the serial loop is a fault listener,
    // which runs inside chip execution and reads fleet-side state as
    // of the faulting launch. The flight recorder's fault trigger is
    // one: threads>1 must fall back (with a warning) and still
    // produce the threads=1 result, dump included.
    const Workload w{"observer", 5, false, true, false};
    auto run = [&](unsigned threads, std::string *dump,
                   std::string *warning) {
        FleetServer fleet(fleetConfig(threads));
        fleet.enableSloMonitor();
        obs::FlightRecorder &rec = fleet.enableFlightRecorder({});
        for (unsigned i = 0; i < fleet.size(); ++i) {
            FaultConfig f;
            f.seed = w.seed * 97 + i;
            f.eccCorrectablePerGiB = 60.0;
            f.dmaTransientRate = 5e-4;
            fleet.device(i).installFaults(f);
        }
        fleet.submit(oneShotTrace(w));
        bool was_enabled = loggingEnabled();
        setLoggingEnabled(true);
        testing::internal::CaptureStderr();
        const FleetReport &report = fleet.serveFleet();
        *warning = testing::internal::GetCapturedStderr();
        setLoggingEnabled(was_enabled);
        *dump = rec.lastDump();
        std::ostringstream os;
        writeJson(report, os, /*per_request=*/true);
        return os.str();
    };
    std::string serial_dump, parallel_dump;
    std::string serial_warning, parallel_warning;
    const std::string serial = run(1, &serial_dump, &serial_warning);
    const std::string parallel = run(4, &parallel_dump, &parallel_warning);
    if (loggingEnabled()) {
        EXPECT_NE(parallel_warning.find("fault listener"),
                  std::string::npos)
            << parallel_warning;
        EXPECT_NE(parallel_warning.find("threads=1"), std::string::npos);
        EXPECT_EQ(serial_warning.find("fault listener"),
                  std::string::npos);
    }
    ASSERT_FALSE(serial_dump.empty());
    expectSameText(serial, parallel, "observer fallback");
    expectSameText(serial_dump, parallel_dump, "observer fallback dump");
}

/** FNV-1a (64-bit) of @p text. */
std::uint64_t
fnv1a(const std::string &text)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

/** Every artifact a fully observed fleet run writes, by name. */
using Artifacts = std::vector<std::pair<std::string, std::string>>;

/**
 * Serve the fleet_mix-shaped trace at @p threads with every observer
 * attached: an SLO monitor whose burn-rate alert fires mid-run, a
 * request tracer at @p sample_rate, an energy monitor with the
 * corpus on, and a flight recorder. With @p faults every chip draws
 * ECC and DMA faults instead, and the flight recorder stays off (its
 * fault trigger would serve at threads=1). @p log receives the
 * warnings.
 */
Artifacts
observedRun(unsigned threads, double sample_rate, bool faults,
            std::string *log)
{
    const Workload w{"fleet_mix", 83, false, false, false, true};
    FleetConfig config = workloadConfig(threads, w);
    // Power management on, so the CPME audit trail has decisions
    // for the energy monitor's chip readings to carry.
    config.serving.exec.powerManagement = true;
    if (faults)
        config.serving.degradation.maxBatchRetries = 2;
    FleetServer fleet(config);
    // fleet_mix's arrivals with deadlines tight enough to burn.
    std::vector<Request> trace = finalizeTrace(
        {poissonTrace("resnet50", 12000.0, 72, w.seed,
                      secondsToTicks(3e-3)),
         poissonTrace("bert_large", 4000.0, 24, w.seed + 1,
                      secondsToTicks(10e-3))});
    obs::SloMonitor &slo =
        fleet.enableSloMonitor({.window = secondsToTicks(1e-3),
                                .sloTarget = 0.999,
                                .burnRateAlert = 2.0});
    obs::RequestTracer &tracer = fleet.enableRequestTracing(
        {.sampleRate = sample_rate, .seed = 7});
    obs::EnergyMonitor &energy =
        fleet.enableEnergyMonitor({.corpus = true});
    const obs::FlightRecorder *rec =
        faults ? nullptr : &fleet.enableFlightRecorder({});
    for (unsigned i = 0; faults && i < fleet.size(); ++i) {
        FaultConfig f;
        f.seed = w.seed * 97 + i;
        f.eccCorrectablePerGiB = 60.0;
        f.eccUncorrectablePerGiB = 3.0;
        f.dmaTransientRate = 5e-4;
        fleet.device(i).installFaults(f);
    }
    fleet.submit(trace);

    const bool was_enabled = loggingEnabled();
    setLoggingEnabled(true);
    testing::internal::CaptureStderr();
    const FleetReport &report = fleet.serveFleet();
    *log = testing::internal::GetCapturedStderr();
    setLoggingEnabled(was_enabled);

    Artifacts out;
    auto add = [&](const char *name, auto write) {
        std::ostringstream os;
        write(os);
        out.emplace_back(name, os.str());
    };
    add("report", [&](std::ostream &os) {
        writeJson(report, os, /*per_request=*/true);
    });
    add("trace", [&](std::ostream &os) { fleet.exportFleetTrace(os); });
    add("energy", [&](std::ostream &os) { energy.writeJson(os); });
    add("corpus", [&](std::ostream &os) { energy.writeCorpusJson(os); });
    add("prometheus", [&](std::ostream &os) { fleet.writePrometheus(os); });
    add("slo_alerts", [&](std::ostream &os) { slo.writeJson(os); });
    add("flight_dump", [&](std::ostream &os) {
        if (rec)
            os << rec->lastDump();
    });
    EXPECT_GT(tracer.sampledSeen(), 0u);
    return out;
}

TEST(Determinism, ObserverArtifactsByteIdenticalAcrossThreadCounts)
{
    // Every observer runs on the lanes: launch records are applied
    // when the fleet thread reads a launch, metric samples read the
    // chips from their lanes, and the flight recorder applies the
    // pending samples before it dumps. Each artifact must equal the
    // threads=1 one, and the threads=1 ones must equal the serial
    // loop's from before observers ran on lanes (pinned digests).
    const struct
    {
        double rate;
        bool faults;
        std::map<std::string, std::uint64_t> digests;
    } cases[] = {
        {0.1,
         false,
         {{"report", 0x1835d51a77764c9eull},
          {"trace", 0x381c1690c72009ull},
          {"energy", 0xfb62c42dda3a2f79ull},
          {"corpus", 0x53b257e9a404d17eull},
          {"prometheus", 0x46aebd69f9f1ab3aull},
          {"slo_alerts", 0x26d4cf5561c3bb4eull},
          {"flight_dump", 0xcccc74fc366a8bdull}}},
        {1.0,
         false,
         {{"report", 0x1835d51a77764c9eull},
          {"trace", 0x5b4ff4cd0e3ecab8ull},
          {"energy", 0xfb62c42dda3a2f79ull},
          {"corpus", 0x53b257e9a404d17eull},
          {"prometheus", 0x46aebd69f9f1ab3aull},
          {"slo_alerts", 0x26d4cf5561c3bb4eull},
          {"flight_dump", 0x9e6fc221761c0592ull}}},
        // Retries count when launches are read: each sample of a
        // chip that can retry reads its launches first.
        {1.0,
         true,
         {{"report", 0x7e5398f0cfc47e74ull},
          {"trace", 0xc04e7e7edcc60138ull},
          {"energy", 0xd9f26940bff3a2f6ull},
          {"corpus", 0xc8bbd3fdffafec7eull},
          {"prometheus", 0xa4c34cf3d0af1e8aull},
          {"slo_alerts", 0xa0326cbeba3cdc56ull},
          {"flight_dump", 0xcbf29ce484222325ull}}},
    };
    for (const auto &c : cases) {
        const std::string label = "p=" + std::to_string(c.rate) +
                                  (c.faults ? " faults" : "");
        std::string log;
        const Artifacts base = observedRun(1, c.rate, c.faults, &log);
        for (const auto &[name, text] : base) {
            EXPECT_EQ(fnv1a(text), c.digests.at(name))
                << label << " " << name << " digest 0x" << std::hex
                << fnv1a(text);
        }
        // The SLO burn dumps mid-run, with samples still pending.
        const std::string &dump = base.back().second;
        if (!c.faults) {
            ASSERT_NE(dump.find("\"reason\": \"slo:slo_burn_rate\""),
                      std::string::npos)
                << dump;
            EXPECT_EQ(dump.find("\"buffered_power_events\": 0,"),
                      std::string::npos);
        }
        for (unsigned threads : {2u, 4u, 8u}) {
            const Artifacts other =
                observedRun(threads, c.rate, c.faults, &log);
            EXPECT_EQ(log.find("serving with threads=1"),
                      std::string::npos)
                << log;
            ASSERT_EQ(other.size(), base.size());
            for (std::size_t i = 0; i < base.size(); ++i) {
                expectSameText(base[i].second, other[i].second,
                               label + " " + base[i].first +
                                   ", threads=" +
                                   std::to_string(threads));
            }
        }
    }
}

} // namespace
