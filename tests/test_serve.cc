/**
 * @file
 * Tests for the request-level serving runtime: arrival generators,
 * the per-model request queue, the dynamic-batching scheduler on
 * top of the tenancy path, the SLO report, and the Server facade.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "api/server.hh"
#include "compiler/lowering.hh"
#include "models/model_zoo.hh"
#include "serve/arrival.hh"
#include "serve/scheduler.hh"
#include "serve_test_util.hh"
#include "sim/fault.hh"
#include "sim/logging.hh"

namespace
{

using namespace dtu;
using namespace dtu::serve;
using dtu::test::serveOnChip;

//
// Arrival generators.
//

TEST(Arrival, FixedRateIsEvenlySpaced)
{
    auto trace = fixedRateTrace("resnet50", 1000.0, 5,
                                /*deadline=*/secondsToTicks(10e-3));
    ASSERT_EQ(trace.size(), 5u);
    Tick gap = secondsToTicks(1e-3);
    for (unsigned i = 0; i < 5; ++i) {
        EXPECT_EQ(trace[i].arrival, gap * i);
        EXPECT_EQ(trace[i].deadline,
                  trace[i].arrival + secondsToTicks(10e-3));
    }
}

TEST(Arrival, PoissonIsDeterministicPerSeed)
{
    auto a = poissonTrace("bert_large", 500.0, 32, /*seed=*/42);
    auto b = poissonTrace("bert_large", 500.0, 32, /*seed=*/42);
    auto c = poissonTrace("bert_large", 500.0, 32, /*seed=*/43);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i].arrival, b[i].arrival);
    bool differs = false;
    for (std::size_t i = 0; i < c.size(); ++i)
        differs |= a[i].arrival != c[i].arrival;
    EXPECT_TRUE(differs);
}

TEST(Arrival, BurstyKeepsLongRunRate)
{
    double qps = 2000.0;
    auto trace = burstyTrace("resnet50", qps, 256, /*seed=*/1);
    double measured = offeredQps(trace);
    // The long-run average stays within ~35% of the nominal rate
    // (bursts are paid back by idle gaps).
    EXPECT_GT(measured, qps * 0.65);
    EXPECT_LT(measured, qps * 1.35);
}

TEST(Arrival, FinalizeMergesSortsAndNumbers)
{
    auto merged = finalizeTrace(
        {fixedRateTrace("resnet50", 1000.0, 3),
         fixedRateTrace("bert_large", 1000.0, 3)});
    ASSERT_EQ(merged.size(), 6u);
    for (std::size_t i = 0; i < merged.size(); ++i) {
        EXPECT_EQ(merged[i].id, i + 1);
        if (i > 0) {
            EXPECT_GE(merged[i].arrival, merged[i - 1].arrival);
        }
    }
    // Equal arrivals tie-break alphabetically: bert before resnet.
    EXPECT_EQ(merged[0].model, "bert_large");
    EXPECT_EQ(merged[1].model, "resnet50");
}

//
// Request queue.
//

TEST(RequestQueueTest, FifoPerModel)
{
    RequestQueue queue;
    for (std::uint64_t i = 1; i <= 4; ++i) {
        Request r;
        r.id = i;
        r.model = i % 2 ? "a" : "b";
        r.arrival = i * 10;
        queue.push(r);
    }
    EXPECT_EQ(queue.size(), 4u);
    EXPECT_EQ(queue.sizeFor("a"), 2u);
    EXPECT_EQ(queue.oldestArrival("a"), 10u);
    EXPECT_EQ(queue.models(),
              (std::vector<std::string>{"a", "b"}));
    auto batch = queue.popBatch("a", 8);
    ASSERT_EQ(batch.size(), 2u);
    EXPECT_EQ(batch[0].id, 1u); // FIFO
    EXPECT_EQ(batch[1].id, 3u);
    EXPECT_EQ(queue.size(), 2u);
    EXPECT_TRUE(queue.popBatch("a", 8).empty());
}

//
// Scheduler.
//

ServingConfig
testConfig(unsigned max_batch, Tick max_delay = 0)
{
    ServingConfig config;
    config.batching.maxBatch = max_batch;
    config.batching.maxQueueDelay = max_delay;
    config.groupsPerBatch = 1;
    return config;
}

TEST(SchedulerTest, DrainsEveryRequestExactlyOnce)
{
    Dtu chip(dtu2Config());
    ResourceManager rm(chip);
    auto trace = finalizeTrace(
        {poissonTrace("conformer", 2000.0, 12, /*seed=*/3)});
    ServingReport report =
        serveOnChip(chip, rm, testConfig(4), trace);
    EXPECT_EQ(report.requests, 12u);
    EXPECT_GT(report.batches, 0u);
    EXPECT_GT(report.makespan, 0u);
    EXPECT_GT(report.achievedQps, 0.0);
    EXPECT_GT(report.joulesPerRequest, 0.0);
    EXPECT_GT(report.groupUtilization, 0.0);
    // Every trace id completed exactly once.
    std::vector<std::uint64_t> ids;
    for (const RequestOutcome &r : report.outcomes) {
        ids.push_back(r.request.id);
        EXPECT_GE(r.dispatched, r.request.arrival);
        EXPECT_GT(r.completed, r.dispatched);
    }
    std::sort(ids.begin(), ids.end());
    for (std::size_t i = 0; i < ids.size(); ++i)
        EXPECT_EQ(ids[i], i + 1);
    // All leases returned.
    EXPECT_EQ(rm.activeGroups(), 0u);
    EXPECT_EQ(rm.grants(), report.batches);
    EXPECT_EQ(rm.releases(), report.batches);
}

TEST(SchedulerTest, DynamicBatcherFormsBatches)
{
    // All requests arrive at once: the batcher should pack them to
    // maxBatch instead of running 12 singletons.
    Dtu chip(dtu2Config());
    ResourceManager rm(chip);
    auto trace = finalizeTrace(
        {fixedRateTrace("conformer", 1e9, 12)}); // ~simultaneous
    ServingReport report =
        serveOnChip(chip, rm, testConfig(4), trace);
    EXPECT_EQ(report.requests, 12u);
    EXPECT_GT(report.meanBatchSize, 1.0);
    for (const RequestOutcome &r : report.outcomes)
        EXPECT_LE(r.batchSize, 4u);
}

TEST(SchedulerTest, MaxQueueDelayBoundsWaiting)
{
    // One early request, one much later: with a bounded queue delay
    // the first must dispatch long before the second arrives.
    Dtu chip(dtu2Config());
    ResourceManager rm(chip);
    Tick delay = secondsToTicks(1e-3);
    std::vector<Request> trace(2);
    trace[0].id = 1;
    trace[0].model = "conformer";
    trace[0].arrival = 0;
    trace[1].id = 2;
    trace[1].model = "conformer";
    trace[1].arrival = secondsToTicks(1.0);
    ServingReport report =
        serveOnChip(chip, rm, testConfig(8, delay), trace);
    ASSERT_EQ(report.requests, 2u);
    // outcomes[] is terminal-ordered; request 1 dispatched at its
    // timeout, not at request 2's arrival.
    EXPECT_EQ(report.outcomes[0].request.id, 1u);
    EXPECT_EQ(report.outcomes[0].dispatched, delay);
    EXPECT_EQ(report.outcomes[0].batchSize, 1u);
}

TEST(SchedulerTest, PerModelBatchCapOverridesGlobal)
{
    // bert-style models whose runtime scales linearly with batch can
    // be pinned to small batches while everything else packs to the
    // global cap.
    Dtu chip(dtu2Config());
    ResourceManager rm(chip);
    ServingConfig config = testConfig(8, secondsToTicks(1e-3));
    config.batching.perModelMaxBatch["conformer"] = 2;
    auto trace = finalizeTrace(
        {fixedRateTrace("conformer", 1e9, 8),
         fixedRateTrace("resnet50", 1e9, 8)});
    ServingReport report = serveOnChip(chip, rm, config, trace);
    EXPECT_EQ(report.requests, 16u);
    for (const RequestOutcome &r : report.outcomes) {
        if (r.request.model == "conformer") {
            EXPECT_LE(r.batchSize, 2u);
        } else {
            EXPECT_EQ(r.batchSize, 8u);
        }
    }
}

TEST(SchedulerTest, DeterministicAcrossRuns)
{
    // Same arrival trace + seed => identical makespan, percentiles,
    // and deadline-miss set, run-to-run on fresh chips.
    auto trace = finalizeTrace(
        {burstyTrace("conformer", 4000.0, 24, /*seed=*/7,
                     /*burst_size=*/6, /*burst_factor=*/4.0,
                     /*deadline=*/secondsToTicks(2e-3)),
         poissonTrace("resnet50", 500.0, 6, /*seed=*/11,
                      secondsToTicks(8e-3))});
    auto run = [&trace]() {
        Dtu chip(dtu2Config());
        ResourceManager rm(chip);
        return serveOnChip(chip, rm,
                           testConfig(4, secondsToTicks(1e-3)), trace);
    };
    ServingReport a = run();
    ServingReport b = run();
    EXPECT_EQ(a.requests, 30u);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.batches, b.batches);
    EXPECT_DOUBLE_EQ(a.p50Ms, b.p50Ms);
    EXPECT_DOUBLE_EQ(a.p95Ms, b.p95Ms);
    EXPECT_DOUBLE_EQ(a.p99Ms, b.p99Ms);
    EXPECT_DOUBLE_EQ(a.joules, b.joules);
    EXPECT_EQ(a.deadlineMisses, b.deadlineMisses);
    EXPECT_EQ(a.missedIds, b.missedIds);
    ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
    for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
        EXPECT_EQ(a.outcomes[i].request.id,
                  b.outcomes[i].request.id);
        EXPECT_EQ(a.outcomes[i].completed,
                  b.outcomes[i].completed);
    }
}

TEST(SchedulerTest, DynamicBatchingBeatsFifoUnderLoad)
{
    // At the same (overload) offered rate, dynamic batching must
    // sustain strictly more completions per second than batch-1
    // FIFO: batching amortizes kernel loads and weight streams.
    auto trace = finalizeTrace(
        {fixedRateTrace("conformer", 20000.0, 32)});
    auto run = [&trace](unsigned max_batch) {
        Dtu chip(dtu2Config());
        ResourceManager rm(chip);
        return serveOnChip(
            chip, rm, testConfig(max_batch, secondsToTicks(0.5e-3)),
            trace);
    };
    ServingReport fifo = run(1);
    ServingReport dynamic = run(8);
    EXPECT_EQ(fifo.requests, 32u);
    EXPECT_EQ(dynamic.requests, 32u);
    EXPECT_GT(dynamic.meanBatchSize, 1.0);
    EXPECT_GT(dynamic.achievedQps, fifo.achievedQps);
    EXPECT_LE(dynamic.makespan, fifo.makespan);
}

TEST(SchedulerTest, EmitsRequestSpansIntoTimeline)
{
    Dtu chip(dtu2Config());
    ResourceManager rm(chip);
    ServingConfig config = testConfig(4);
    config.exec.timeline = true;
    auto trace = finalizeTrace(
        {fixedRateTrace("conformer", 5000.0, 4)});
    serveOnChip(chip, rm, config, trace);
    EXPECT_GT(chip.tracer().eventCount(), 0u);
    std::ostringstream os;
    chip.tracer().exportChromeTrace(os);
    std::string doc = os.str();
    // Request and batch spans sit alongside the operator spans.
    EXPECT_NE(doc.find("\"cat\":\"request\""), std::string::npos);
    EXPECT_NE(doc.find("\"cat\":\"serving-batch\""),
              std::string::npos);
    EXPECT_NE(doc.find("conformer #1"), std::string::npos);
}

TEST(ServingReportTest, JsonCarriesSloFields)
{
    Dtu chip(dtu2Config());
    ResourceManager rm(chip);
    auto trace = finalizeTrace(
        {fixedRateTrace("conformer", 5000.0, 4,
                        /*deadline=*/1)}); // everything misses
    ServingReport report =
        serveOnChip(chip, rm, testConfig(2), trace);
    EXPECT_EQ(report.deadlineMisses, 4u);
    EXPECT_DOUBLE_EQ(report.missRate, 1.0);
    EXPECT_DOUBLE_EQ(report.goodputQps, 0.0);
    std::ostringstream os;
    writeJson(report, os);
    std::string doc = os.str();
    for (const char *key :
         {"\"achieved_qps\"", "\"goodput_qps\"", "\"latency_p99_ms\"",
          "\"miss_rate\"", "\"missed_ids\"", "\"queue_wait_mean_ms\"",
          "\"joules_per_request\"", "\"latency_histogram_ms\"",
          "\"requests_detail\""}) {
        EXPECT_NE(doc.find(key), std::string::npos) << key;
    }
}

//
// Server facade.
//

TEST(ServerTest, ServesSubmittedTraffic)
{
    Device device;
    serve::ServingConfig config;
    config.batching.maxBatch = 4;
    config.batching.maxQueueDelay = secondsToTicks(1e-3);
    Server server(device, config);
    server.submit(serve::RequestSpec{.model = "conformer",
                                     .arrival = 0,
                                     .deadline = secondsToTicks(50e-3)});
    server.submit(poissonTrace("conformer", 3000.0, 7, /*seed=*/5));
    EXPECT_EQ(server.pending(), 8u);
    const ServingReport &report = server.serve();
    EXPECT_EQ(server.pending(), 0u);
    EXPECT_EQ(report.requests, 8u);
    EXPECT_EQ(&report, &server.lastReport().fleet);
    // The facade shares the device's lease book-keeper.
    EXPECT_EQ(device.resources().activeGroups(), 0u);
    EXPECT_EQ(device.resources().grants(), report.batches);
}

TEST(ServerTest, CoexistsWithLiveStreams)
{
    // A live stream pins a whole cluster; the server batches into
    // the remaining capacity and every lease still balances.
    Device device;
    std::optional<Stream> stream = device.createStream(3);
    ASSERT_TRUE(stream.has_value());
    Server server(device);
    server.submit(fixedRateTrace("conformer", 2000.0, 6));
    const ServingReport &report = server.serve();
    EXPECT_EQ(report.requests, 6u);
    EXPECT_EQ(device.resources().activeGroups(), 3u); // the stream
}

TEST(ServerTest, StreamsWorkOnAServedDevice)
{
    // A served chip's timeline only moves forward: stream work issued
    // after a serve from cursor 0 waits for the serve's watermark
    // rather than booking into the retired part of the timeline.
    Device device;
    Stream early = *device.createStream(3);
    Server server(device);
    server.submit(poissonTrace("resnet50", 2000.0, 48, /*seed=*/1));
    EXPECT_EQ(server.serve().requests, 48u);
    const Tick watermark = device.chip().eventQueue().ledgerWatermark();
    ASSERT_GT(watermark, 0u);

    ExecutionPlan plan = compile(models::buildResnet50(),
                                 device.properties(), DType::FP16, 3);
    ASSERT_EQ(early.cursor(), 0u);
    DeviceBuffer buffer = device.malloc(1_MiB);
    early.memcpyH2D(buffer, 1_MiB);
    EXPECT_GT(early.cursor(), watermark);
    const Tick copied = early.cursor();
    early.run(plan);
    EXPECT_GT(early.cursor(), copied);
    early.memcpyD2H(buffer, 1_MiB);
    EXPECT_GT(early.synchronize(), copied);

    // A stream leased after the serve also starts at cursor 0.
    Stream late = *device.createStream(3);
    ASSERT_EQ(late.cursor(), 0u);
    const ExecResult &result = late.run(plan);
    EXPECT_GT(result.latency, 0u);
    EXPECT_GT(late.cursor(), watermark);
}

TEST(ServerTest, SecondServeReplaysFromTickZero)
{
    // serve() drains a fresh trace, whose arrivals may restart at tick
    // 0: below the first serve's ledger watermark. The device's
    // ledgers then restart idle instead of waiting for the watermark.
    Device device;
    Server server(device);
    server.submit(poissonTrace("resnet50", 2000.0, 48, /*seed=*/1));
    EXPECT_EQ(server.serve().requests, 48u);
    EXPECT_GT(device.chip().eventQueue().ledgerWatermark(), 0u);
    server.submit(poissonTrace("resnet50", 2000.0, 48, /*seed=*/2));
    const ServingReport &again = server.serve();
    EXPECT_EQ(again.requests, 48u);

    Device fresh;
    Server alone(fresh);
    alone.submit(poissonTrace("resnet50", 2000.0, 48, /*seed=*/2));
    EXPECT_EQ(again.makespan, alone.serve().makespan);
}

TEST(ServerTest, FaultHookDoesNotOutliveServer)
{
    // The flight recorder hooks the borrowed device's fault injector
    // at serve time. The device outlives the server, so destroying
    // the server must take the hook with it: a later fault must not
    // call into the freed recorder, and later fleets on the chip must
    // not see a listener.
    Device device;
    // Saturated correctable ECC: every launch's HBM traffic faults.
    FaultInjector &faults = device.installFaults(
        {.seed = 3, .eccCorrectablePerGiB = 1e6});
    {
        Server server(device);
        server.enableFlightRecorder({});
        server.submit(fixedRateTrace("conformer", 2000.0, 4));
        EXPECT_EQ(server.serve().requests, 4u);
        EXPECT_TRUE(faults.hasListener());
        EXPECT_GE(server.flightRecorder()->triggerCount(), 1u);
    }
    EXPECT_FALSE(faults.hasListener());

    const std::size_t before = faults.log().size();
    Stream stream = *device.createStream(3);
    stream.run(compile(models::buildResnet50(), device.properties(),
                       DType::FP16, 3));
    EXPECT_GT(faults.log().size(), before);
}

TEST(ServerTest, ChipStatsOutliveServer)
{
    // The serve.* degradation counters live in the chip's registry:
    // reading them after a server is gone must not touch its freed
    // scheduler, and the next server on the chip counts into them.
    Device device;
    ServingConfig config = testConfig(2);
    config.degradation.admissionLimit = 1;
    std::uint64_t rejected = 0;
    for (int run = 0; run < 2; ++run) {
        Server server(device, config);
        server.submit(fixedRateTrace("conformer", 1e9, 8));
        rejected += server.serve().rejectedRequests;
    }
    ASSERT_GT(rejected, 0u);
    EXPECT_DOUBLE_EQ(
        device.chip().stats().lookup("serve.rejected_requests"),
        static_cast<double>(rejected));
}

TEST(ServerTest, PrometheusKeepsSingleDeviceFamilies)
{
    Device device;
    Server server(device, testConfig(4, secondsToTicks(1e-3)));
    server.submit(poissonTrace("conformer", 3000.0, 8, /*seed=*/5,
                               secondsToTicks(20e-3)));
    server.serve();
    std::ostringstream os;
    server.writePrometheus(os);
    const std::string text = os.str();

    // The chip registry sits under "dtusim", not a fleet device prefix.
    EXPECT_NE(text.find("\ndtusim_serve_shed_requests "),
              std::string::npos);
    EXPECT_EQ(text.find("dtusim_dev0_"), std::string::npos);
    for (const char *gauge :
         {"dtusim_serve_submitted 8\n", "dtusim_serve_requests 8\n",
          "# TYPE dtusim_serve_achieved_qps gauge",
          "# TYPE dtusim_serve_goodput_qps gauge",
          "# TYPE dtusim_serve_latency_p50_ms gauge",
          "# TYPE dtusim_serve_latency_p99_ms gauge",
          "dtusim_serve_availability 1\n"}) {
        EXPECT_NE(text.find(gauge), std::string::npos) << gauge;
    }
    EXPECT_EQ(text.find("dtusim_fleet_"), std::string::npos);
}

} // namespace
