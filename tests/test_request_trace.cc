/**
 * @file
 * Request-lifecycle tracing, the fleet metric time-series, and the
 * SLO flight recorder (obs/request_tracer.hh, obs/fleet_metrics.hh,
 * obs/flight_recorder.hh).
 *
 * The load-bearing guarantees pinned here:
 *
 *  - Head-based sampling is a pure function of (seed, id): whole
 *    traces are kept or skipped, never partial chains.
 *  - With no tracer attached, a fleet serving run is bit-for-bit
 *    identical to the pre-tracing seed (golden file); with a tracer
 *    attached, the report is byte-identical to the untraced run.
 *  - Every sampled request's span chain is complete (enqueue ->
 *    terminal) and flow-linked into its device's chip timeline, and
 *    the merged export keeps the link (same flow id across parts).
 *  - One SLO burn (or injected fault) produces exactly one flight
 *    recorder dump whose JSON round-trips through the shared parser.
 *
 * The golden file regenerates like the serving one:
 *
 *     DTU_UPDATE_GOLDEN=1 ./build/tests/dtusim_tests \
 *         --gtest_filter='GoldenFleet.*'
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "api/server.hh"
#include "json_test_util.hh"
#include "serve/arrival.hh"
#include "serve/fleet.hh"

namespace
{

using namespace dtu;
using dtu::test::JValue;
using dtu::test::parseJson;

std::string
goldenPath()
{
    return std::string(DTU_TESTS_DIR) + "/golden/fleet_serving.json";
}

/** The fixed-seed two-device fleet run the golden file pins. */
serve::FleetConfig
goldenConfig()
{
    serve::FleetConfig config;
    config.devices = 2;
    config.routing = serve::RoutingPolicy::LeastOutstanding;
    config.serving.batching.maxBatch = 4;
    config.serving.batching.maxQueueDelay = secondsToTicks(200e-6);
    config.weightLoadGbps = 8.0;
    return config;
}

std::vector<serve::Request>
goldenTrace()
{
    return serve::finalizeTrace(
        {serve::poissonTrace("resnet50", 4000, 24, /*seed=*/11,
                             secondsToTicks(20e-3)),
         serve::poissonTrace("conformer", 4000, 24, /*seed=*/12,
                             secondsToTicks(30e-3))});
}

/** Serve the golden scenario; optionally with request tracing. */
std::string
renderFleetReport(FleetServer &fleet)
{
    fleet.submit(goldenTrace());
    const serve::FleetReport &report = fleet.serveFleet();
    std::ostringstream os;
    serve::writeJson(report, os, /*per_request=*/true);
    return os.str();
}

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line))
        lines.push_back(line);
    return lines;
}

//
// Sampling.
//

TEST(RequestSampling, ZeroAndOneAreExact)
{
    obs::RequestTracer none({.sampleRate = 0.0});
    obs::RequestTracer all({.sampleRate = 1.0});
    for (std::uint64_t id = 1; id <= 1000; ++id) {
        EXPECT_FALSE(none.sampled(id));
        EXPECT_TRUE(all.sampled(id));
    }
}

TEST(RequestSampling, PureFunctionOfSeedAndId)
{
    obs::RequestTracer a({.sampleRate = 0.3, .seed = 42});
    obs::RequestTracer b({.sampleRate = 0.3, .seed = 42});
    obs::RequestTracer c({.sampleRate = 0.3, .seed = 43});
    bool seed_matters = false;
    for (std::uint64_t id = 1; id <= 2000; ++id) {
        EXPECT_EQ(a.sampled(id), b.sampled(id)) << id;
        seed_matters = seed_matters || a.sampled(id) != c.sampled(id);
    }
    EXPECT_TRUE(seed_matters);
}

TEST(RequestSampling, RateControlsFraction)
{
    obs::RequestTracer tracer({.sampleRate = 0.1, .seed = 7});
    unsigned hits = 0;
    const unsigned n = 20000;
    for (std::uint64_t id = 1; id <= n; ++id)
        hits += tracer.sampled(id) ? 1 : 0;
    double fraction = static_cast<double>(hits) / n;
    EXPECT_NEAR(fraction, 0.1, 0.01);
}

//
// Non-perturbation.
//

TEST(GoldenFleet, UntracedRunMatchesCheckedInJson)
{
    FleetServer fleet(goldenConfig());
    std::string rendered = renderFleetReport(fleet);

    if (std::getenv("DTU_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(goldenPath());
        ASSERT_TRUE(out) << "cannot write " << goldenPath();
        out << rendered;
        GTEST_SKIP() << "regenerated " << goldenPath();
    }

    std::ifstream in(goldenPath());
    ASSERT_TRUE(in) << "missing " << goldenPath()
                    << "; regenerate with DTU_UPDATE_GOLDEN=1";
    std::stringstream golden;
    golden << in.rdbuf();

    std::vector<std::string> want = splitLines(golden.str());
    std::vector<std::string> got = splitLines(rendered);
    std::size_t common = std::min(want.size(), got.size());
    for (std::size_t i = 0; i < common; ++i) {
        ASSERT_EQ(got[i], want[i])
            << "fleet report diverged from golden at line " << i + 1
            << "; if intentional, regenerate with DTU_UPDATE_GOLDEN=1";
    }
    EXPECT_EQ(got.size(), want.size());
}

TEST(GoldenFleet, ParallelRunMatchesCheckedInJson)
{
    // The parallel window scheduler (FleetConfig::threads > 1) must
    // reproduce the checked-in serial golden byte-for-byte; threads
    // beyond the device count clamp to it.
    for (unsigned threads : {2u, 8u}) {
        serve::FleetConfig config = goldenConfig();
        config.threads = threads;
        FleetServer fleet(config);
        std::string rendered = renderFleetReport(fleet);

        std::ifstream in(goldenPath());
        ASSERT_TRUE(in) << "missing " << goldenPath()
                        << "; regenerate with DTU_UPDATE_GOLDEN=1";
        std::stringstream golden;
        golden << in.rdbuf();

        std::vector<std::string> want = splitLines(golden.str());
        std::vector<std::string> got = splitLines(rendered);
        std::size_t common = std::min(want.size(), got.size());
        for (std::size_t i = 0; i < common; ++i) {
            ASSERT_EQ(got[i], want[i])
                << "threads=" << threads
                << " fleet report diverged from golden at line "
                << i + 1;
        }
        EXPECT_EQ(got.size(), want.size());
    }
}

TEST(GoldenFleet, TracedRunIsByteIdenticalToUntraced)
{
    FleetServer bare(goldenConfig());
    std::string untraced = renderFleetReport(bare);

    for (double rate : {0.0, 0.3, 1.0}) {
        FleetServer fleet(goldenConfig());
        fleet.enableRequestTracing({.sampleRate = rate, .seed = 9});
        EXPECT_EQ(renderFleetReport(fleet), untraced)
            << "request tracing at p=" << rate
            << " perturbed the serving run";
    }
}

//
// Span chains and flow links.
//

TEST(RequestTrace, EveryRequestChainCompleteAtFullSampling)
{
    FleetServer fleet(goldenConfig());
    obs::RequestTracer &tracer =
        fleet.enableRequestTracing({.sampleRate = 1.0});
    fleet.submit(goldenTrace());
    const serve::FleetReport &report = fleet.serveFleet();

    EXPECT_EQ(tracer.sampledSeen(), report.fleet.submitted);
    EXPECT_EQ(tracer.finished().size(), report.fleet.submitted);

    for (const obs::RequestRecord &rec : tracer.finished()) {
        const serve::RequestOutcome &o = rec.outcome;
        std::uint64_t id = o.request.id;
        EXPECT_GE(o.device, 0) << "request " << id;
        EXPECT_GE(o.completed, o.request.arrival) << "request " << id;
        EXPECT_STRNE(o.outcomeName(), "") << "request " << id;
        if (o.completedOk()) {
            EXPECT_TRUE(rec.executed) << "request " << id;
            EXPECT_GE(o.dispatched, o.request.arrival)
                << "request " << id;
            EXPECT_LE(o.dispatched, o.completed) << "request " << id;
            EXPECT_GE(o.batchSize, 1u) << "request " << id;
            EXPECT_TRUE(rec.deviceLinked)
                << "request " << id
                << " has no flow link into its chip timeline";
        }
    }
}

TEST(RequestTrace, PartialSamplingKeepsWholeChains)
{
    FleetServer fleet(goldenConfig());
    obs::RequestTracer &tracer =
        fleet.enableRequestTracing({.sampleRate = 0.4, .seed = 5});
    fleet.submit(goldenTrace());
    const serve::FleetReport &report = fleet.serveFleet();

    EXPECT_GT(tracer.sampledSeen(), 0u);
    EXPECT_LT(tracer.sampledSeen(), report.fleet.submitted);
    // Every sampled request still reaches a terminal record: the
    // decision is per-request, never per-hook.
    EXPECT_EQ(tracer.finished().size(), tracer.sampledSeen());
    for (const obs::RequestRecord &rec : tracer.finished()) {
        EXPECT_TRUE(tracer.sampled(rec.outcome.request.id));
        if (rec.outcome.completedOk())
            EXPECT_TRUE(rec.deviceLinked)
                << "request " << rec.outcome.request.id;
    }
}

TEST(RequestTrace, ExportedFlowsLinkRequestLanesToChipSpans)
{
    FleetServer fleet(goldenConfig());
    obs::RequestTracer &tracer =
        fleet.enableRequestTracing({.sampleRate = 0.4, .seed = 5});
    fleet.submit(goldenTrace());
    fleet.serveFleet();

    std::ostringstream os;
    fleet.exportFleetTrace(os);
    JValue root = parseJson(os.str());
    const JValue *events = root.find("traceEvents");
    ASSERT_NE(events, nullptr);

    // pid -> process display name (from the "M" metadata records).
    std::map<double, std::string> processes;
    for (const JValue &e : events->items) {
        if (e.str("ph") == "M" && e.str("name") == "process_name") {
            const JValue *args = e.find("args");
            ASSERT_NE(args, nullptr);
            processes[e.num("pid")] = args->str("name");
        }
    }

    // Collect flow events per flow id (= request id), tagged with
    // whether they landed in a chip part ("devN.runtime" process).
    struct Flow
    {
        bool start = false, step = false, end = false;
        bool chip_step = false;
    };
    std::map<double, Flow> flows;
    for (const JValue &e : events->items) {
        std::string ph = e.str("ph");
        if (ph != "s" && ph != "t" && ph != "f")
            continue;
        Flow &f = flows[e.num("id")];
        auto proc = processes.find(e.num("pid"));
        ASSERT_NE(proc, processes.end());
        if (ph == "s")
            f.start = true;
        if (ph == "t")
            f.step = true;
        if (ph == "f")
            f.end = true;
        if (ph == "t" &&
            proc->second.find(".runtime") != std::string::npos)
            f.chip_step = true;
    }

    ASSERT_FALSE(flows.empty());
    std::size_t linked = 0;
    for (const auto &[id, f] : flows) {
        EXPECT_TRUE(tracer.sampled(static_cast<std::uint64_t>(id)))
            << "flow for unsampled request " << id;
        EXPECT_TRUE(f.start) << "flow " << id << " has no start";
        EXPECT_TRUE(f.end) << "flow " << id << " has no end";
        linked += f.chip_step ? 1 : 0;
    }
    // Completed requests hop through the chip timeline; drops may
    // not, but this load completes plenty.
    EXPECT_GT(linked, 0u);

    // Every completed sampled request has its flow in the export.
    for (const obs::RequestRecord &rec : tracer.finished()) {
        if (!rec.outcome.completedOk())
            continue;
        std::uint64_t id = rec.outcome.request.id;
        auto it = flows.find(static_cast<double>(id));
        ASSERT_NE(it, flows.end()) << "request " << id;
        EXPECT_TRUE(it->second.chip_step)
            << "request " << id
            << " never crossed into a chip timeline";
    }
}

//
// Metric time-series.
//

TEST(FleetMetrics, PeriodicSamplesCoverEveryDevice)
{
    FleetServer fleet(goldenConfig());
    obs::RequestTracer &tracer = fleet.enableRequestTracing(
        {.sampleRate = 0.0, .metricPeriod = secondsToTicks(100e-6)});
    fleet.submit(goldenTrace());
    fleet.serveFleet();

    const obs::FleetMetricSeries &series = tracer.metrics();
    ASSERT_GT(series.samples().size(), 1u);
    Tick prev = 0;
    for (const obs::FleetMetricSample &s : series.samples()) {
        EXPECT_EQ(s.devices.size(), 2u);
        EXPECT_GT(s.at, prev);
        prev = s.at;
        for (std::size_t i = 0; i < s.devices.size(); ++i)
            EXPECT_EQ(s.devices[i].device, i);
    }
    // Terminal counters are cumulative: the last sample accounts for
    // completed work.
    const obs::FleetMetricSample *last = series.latest();
    ASSERT_NE(last, nullptr);
    std::uint64_t completed = 0;
    for (const obs::DeviceMetricSample &d : last->devices)
        completed += d.completed;
    EXPECT_GT(completed, 0u);
}

TEST(FleetMetrics, SeriesJsonRoundTrips)
{
    obs::FleetMetricSeries series;
    obs::FleetMetricSample s;
    s.at = 1000;
    s.devices.push_back({.device = 0,
                         .queueDepth = 3,
                         .inFlightBatches = 1,
                         .outstanding = 4,
                         .completed = 7,
                         .dropped = 2,
                         .retries = 1});
    series.append(s);
    std::ostringstream os;
    series.writeJson(os);
    JValue root = parseJson(os.str());
    ASSERT_EQ(root.items.size(), 1u);
    EXPECT_EQ(root.items[0].num("at_ticks"), 1000.0);
    const JValue *devices = root.items[0].find("devices");
    ASSERT_NE(devices, nullptr);
    ASSERT_EQ(devices->items.size(), 1u);
    EXPECT_EQ(devices->items[0].num("queue_depth"), 3.0);
    EXPECT_EQ(devices->items[0].num("dropped"), 2.0);
}

//
// Flight recorder.
//

/** An overload scenario whose burn rate reliably alerts. */
serve::FleetConfig
overloadConfig()
{
    serve::FleetConfig config = goldenConfig();
    config.serving.degradation.admissionLimit = 4;
    return config;
}

std::vector<serve::Request>
overloadTrace()
{
    return serve::finalizeTrace(
        {serve::poissonTrace("resnet50", 40000, 64, /*seed=*/909,
                             secondsToTicks(2e-3))});
}

TEST(FlightRecorder, SloBurnDumpsExactlyOnce)
{
    FleetServer fleet(overloadConfig());
    fleet.enableRequestTracing({.sampleRate = 1.0});
    obs::FlightRecorder &rec = fleet.enableFlightRecorder({});
    fleet.enableSloMonitor({.window = secondsToTicks(5e-3),
                            .sloTarget = 0.999,
                            .burnRateAlert = 5.0});
    fleet.submit(overloadTrace());
    fleet.serveFleet();

    ASSERT_FALSE(fleet.sloMonitor()->alerts().empty());
    EXPECT_GE(rec.triggerCount(), 1u);
    EXPECT_EQ(rec.dumpCount(), 1u)
        << "the recorder must latch on the first incident";

    JValue dump = parseJson(rec.lastDump());
    EXPECT_EQ(dump.str("reason"), "slo:slo_burn_rate");
    EXPECT_GT(dump.num("at_ticks"), 0.0);
    const JValue *requests = dump.find("requests");
    ASSERT_NE(requests, nullptr);
    EXPECT_FALSE(requests->items.empty());
    for (const JValue &r : requests->items) {
        EXPECT_TRUE(r.has("id"));
        EXPECT_FALSE(r.str("outcome").empty());
    }
    const JValue *metrics = dump.find("metrics");
    ASSERT_NE(metrics, nullptr);
    EXPECT_FALSE(metrics->items.empty());
}

TEST(FlightRecorder, EnableOrderDoesNotMatter)
{
    // Recorder before monitor (the reverse of the test above).
    FleetServer fleet(overloadConfig());
    obs::FlightRecorder &rec = fleet.enableFlightRecorder({});
    fleet.enableSloMonitor({.window = secondsToTicks(5e-3),
                            .sloTarget = 0.999,
                            .burnRateAlert = 5.0});
    fleet.enableRequestTracing({.sampleRate = 1.0});
    fleet.submit(overloadTrace());
    fleet.serveFleet();
    EXPECT_EQ(rec.dumpCount(), 1u);
}

TEST(FlightRecorder, InjectedFaultTriggersDump)
{
    serve::FleetConfig config = goldenConfig();
    FleetServer fleet(config);
    fleet.enableRequestTracing({.sampleRate = 1.0});
    obs::FlightRecorder &rec = fleet.enableFlightRecorder({});
    // Saturate the correctable-ECC rate so the very first batch's
    // HBM traffic draws a fault.
    fleet.device(0).installFaults({.seed = 3,
                                   .eccCorrectablePerGiB = 1e6});
    fleet.submit(goldenTrace());
    fleet.serveFleet();

    EXPECT_GE(rec.triggerCount(), 1u);
    EXPECT_EQ(rec.dumpCount(), 1u);
    JValue dump = parseJson(rec.lastDump());
    EXPECT_EQ(dump.str("reason").rfind("fault:", 0), 0u)
        << dump.str("reason");
}

TEST(FlightRecorder, FaultTriggerDumpIsSerialAtAnyThreadCount)
{
    // A fault listener runs inside chip execution, and the dump it
    // writes shows the fleet-side rings as of the faulting launch:
    // a fleet with one serves at threads=1 whatever it asks for, so
    // the lanes never call trigger() concurrently (run under TSan)
    // and the dump's rings are the serial loop's. With the tracer,
    // the request and metric rings have content to compare.
    auto run = [](unsigned threads, bool traced, std::string *report) {
        serve::FleetConfig config = goldenConfig();
        config.devices = 4;
        config.threads = threads;
        FleetServer fleet(config);
        obs::FlightRecorder &rec = fleet.enableFlightRecorder({});
        if (traced)
            fleet.enableRequestTracing({.sampleRate = 1.0});
        for (unsigned i = 0; i < fleet.size(); ++i)
            fleet.device(i).installFaults(
                {.seed = 3 + i, .eccCorrectablePerGiB = 1e6});
        *report = renderFleetReport(fleet);
        EXPECT_EQ(rec.dumpCount(), 1u);
        return rec.lastDump();
    };
    for (bool traced : {false, true}) {
        std::string serial_report, parallel_report;
        const std::string serial = run(1, traced, &serial_report);
        const std::string parallel = run(4, traced, &parallel_report);
        ASSERT_FALSE(serial.empty());
        EXPECT_EQ(serial, parallel) << "traced " << traced;
        EXPECT_EQ(serial_report, parallel_report) << "traced " << traced;
    }
}

TEST(FlightRecorder, RingsAreBounded)
{
    obs::FlightRecorder rec(
        {.requestCapacity = 8, .metricCapacity = 2});
    for (std::uint64_t i = 0; i < 50; ++i) {
        obs::RequestRecord r;
        r.outcome.request.id = i;
        rec.recordRequest(r);
    }
    for (int i = 0; i < 5; ++i) {
        obs::FleetMetricSample s;
        s.at = 100 * (i + 1);
        rec.recordMetrics(s);
    }
    EXPECT_EQ(rec.bufferedRequests(), 8u);
    EXPECT_EQ(rec.bufferedMetrics(), 2u);

    rec.trigger("test", 1);
    rec.trigger("test-again", 2);
    EXPECT_EQ(rec.triggerCount(), 2u);
    EXPECT_EQ(rec.dumpCount(), 1u);

    // The ring kept the newest entries.
    JValue dump = parseJson(rec.lastDump());
    const JValue *requests = dump.find("requests");
    ASSERT_NE(requests, nullptr);
    ASSERT_EQ(requests->items.size(), 8u);
    EXPECT_EQ(requests->items.front().num("id"), 42.0);
    EXPECT_EQ(requests->items.back().num("id"), 49.0);
}

//
// Merged export bytes.
//

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

TEST(RequestTrace, MergedExportMatchesParent)
{
    // A fixed 4-chip ResNet50/BERT-Large mix with the SLO, request
    // (p=0.1) and energy observers attached. The digest pins the
    // merged Chrome trace byte for byte: it was recorded with the
    // string-per-event trace store, so a change to how the Tracer
    // stores events must leave every exported byte alone, at any
    // thread count.
    constexpr std::uint64_t kDigest = 0x9d60e9e5a286fb27ull;
    for (unsigned threads : {1u, 4u}) {
        serve::FleetConfig config;
        config.devices = 4;
        config.routing = serve::RoutingPolicy::LeastOutstanding;
        config.threads = threads;
        config.serving.batching.maxBatch = 8;
        config.serving.batching.maxQueueDelay = secondsToTicks(2e-3);
        config.serving.batching.perModelMaxBatch["bert_large"] = 1;
        config.serving.groupsPerBatch = 1;
        FleetServer fleet(config);
        fleet.enableSloMonitor({});
        fleet.enableRequestTracing({.sampleRate = 0.1, .seed = 3});
        fleet.enableEnergyMonitor({});
        fleet.submit(serve::finalizeTrace(
            {serve::poissonTrace("resnet50", 12000, 96, /*seed=*/31,
                                 secondsToTicks(20e-3)),
             serve::poissonTrace("bert_large", 4000, 32, /*seed=*/32,
                                 secondsToTicks(80e-3))}));
        fleet.serveFleet();

        std::ostringstream os;
        fleet.exportFleetTrace(os);
        EXPECT_GT(os.str().size(), 100000u) << "threads=" << threads;
        EXPECT_EQ(fnv1a(os.str()), kDigest)
            << "threads=" << threads << " trace digest 0x" << std::hex
            << fnv1a(os.str()) << " over " << std::dec
            << os.str().size() << " bytes";
    }
}

//
// Single-device Server facade.
//

TEST(RequestTrace, SingleDeviceServerTracesAndExports)
{
    Device device;
    Server server(device, goldenConfig().serving);
    obs::RequestTracer &tracer =
        server.enableRequestTracing({.sampleRate = 1.0});
    server.submit(serve::poissonTrace("resnet50", 2000, 12,
                                      /*seed=*/21,
                                      secondsToTicks(20e-3)));
    const serve::ServingReport &report = server.serve();
    EXPECT_EQ(tracer.finished().size(), report.submitted);

    testing::internal::CaptureStdout();
    std::string path = testing::TempDir() + "request_trace.json";
    server.writeFleetTrace(path);
    testing::internal::GetCapturedStdout();
    std::ifstream in(path);
    ASSERT_TRUE(in);
    std::stringstream ss;
    ss << in.rdbuf();
    JValue root = parseJson(ss.str());
    EXPECT_NE(root.find("traceEvents"), nullptr);
}

} // namespace
