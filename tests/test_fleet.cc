/**
 * @file
 * Tests for multi-device fleet serving (serve/fleet.hh and the
 * api::FleetServer facade): size-1 equivalence of borrowed- and
 * owned-device construction, routing-policy behaviour and determinism,
 * per-device vs fleet-aggregate accounting, modeled PCIe weight
 * loads, and the fleet JSON / Prometheus exports.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <numeric>
#include <set>
#include <sstream>

#include "api/server.hh"
#include "json_test_util.hh"
#include "serve/arrival.hh"
#include "serve/fleet.hh"
#include "sim/logging.hh"

namespace
{

using namespace dtu;
using namespace dtu::serve;

ServingConfig
fleetServingConfig(unsigned max_batch = 4)
{
    ServingConfig config;
    config.batching.maxBatch = max_batch;
    config.batching.maxQueueDelay = secondsToTicks(200e-6);
    return config;
}

std::vector<Request>
mixedTrace(std::uint64_t seed, unsigned per_model = 24)
{
    return finalizeTrace(
        {poissonTrace("conformer", 4000.0, per_model, seed),
         poissonTrace("resnet50", 4000.0, per_model, seed + 1)});
}

/** Dropped (non-completed) records in the unified outcome log. */
std::size_t
droppedCount(const ServingReport &report)
{
    std::size_t n = 0;
    for (const RequestOutcome &o : report.outcomes)
        n += o.completedOk() ? 0 : 1;
    return n;
}

/** Equality that treats two NaNs ("no data") as the same answer. */
void
expectSameDouble(double x, double y)
{
    if (std::isnan(x) && std::isnan(y))
        return;
    EXPECT_DOUBLE_EQ(x, y);
}

/** Field-by-field equality of two serving reports. */
void
expectSameReport(const ServingReport &a, const ServingReport &b)
{
    EXPECT_EQ(a.submitted, b.submitted);
    EXPECT_EQ(a.requests, b.requests);
    EXPECT_EQ(a.batches, b.batches);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_DOUBLE_EQ(a.offeredQps, b.offeredQps);
    EXPECT_DOUBLE_EQ(a.achievedQps, b.achievedQps);
    EXPECT_DOUBLE_EQ(a.goodputQps, b.goodputQps);
    EXPECT_EQ(a.deadlineMisses, b.deadlineMisses);
    EXPECT_EQ(a.missedIds, b.missedIds);
    EXPECT_DOUBLE_EQ(a.meanBatchSize, b.meanBatchSize);
    expectSameDouble(a.p50Ms, b.p50Ms);
    expectSameDouble(a.p95Ms, b.p95Ms);
    expectSameDouble(a.p99Ms, b.p99Ms);
    EXPECT_DOUBLE_EQ(a.meanMs, b.meanMs);
    EXPECT_DOUBLE_EQ(a.maxMs, b.maxMs);
    EXPECT_DOUBLE_EQ(a.meanQueueMs, b.meanQueueMs);
    EXPECT_DOUBLE_EQ(a.meanExecMs, b.meanExecMs);
    EXPECT_DOUBLE_EQ(a.joules, b.joules);
    EXPECT_DOUBLE_EQ(a.joulesPerRequest, b.joulesPerRequest);
    EXPECT_DOUBLE_EQ(a.groupUtilization, b.groupUtilization);
    EXPECT_EQ(a.shedRequests, b.shedRequests);
    EXPECT_EQ(a.timedOutRequests, b.timedOutRequests);
    EXPECT_EQ(a.rejectedRequests, b.rejectedRequests);
    EXPECT_EQ(a.failedRequests, b.failedRequests);
    EXPECT_EQ(a.batchRetries, b.batchRetries);
    EXPECT_DOUBLE_EQ(a.availability, b.availability);
    ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
    for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
        const RequestOutcome &x = a.outcomes[i];
        const RequestOutcome &y = b.outcomes[i];
        EXPECT_EQ(x.request.id, y.request.id);
        EXPECT_EQ(x.request.model, y.request.model);
        EXPECT_EQ(x.state, y.state);
        EXPECT_EQ(x.dropReason, y.dropReason);
        EXPECT_EQ(x.dispatched, y.dispatched);
        EXPECT_EQ(x.firstToken, y.firstToken);
        EXPECT_EQ(x.completed, y.completed);
        EXPECT_EQ(x.batchSize, y.batchSize);
        EXPECT_EQ(x.tokensEmitted, y.tokensEmitted);
    }
}

//
// Size-1 equivalence: a FleetServer over a borrowed Device (the
// Server facade) serves exactly like one that owns its device.
//

TEST(FleetTest, SizeOneFleetServerMatchesServer)
{
    auto trace = mixedTrace(/*seed=*/23);

    Device device;
    Server server(device, fleetServingConfig());
    server.submit(trace);
    ServingReport single = server.serve();

    FleetServer fleet({.devices = 1,
                       .serving = fleetServingConfig()});
    fleet.submit(trace);
    FleetReport report = fleet.serveFleet();

    expectSameReport(single, report.fleet);
    // The fleet aggregate of one device is that device's report.
    ASSERT_EQ(report.perDevice.size(), 1u);
    expectSameReport(report.perDevice[0].report, report.fleet);
}

//
// Routing policies.
//

TEST(FleetTest, RoutingIsDeterministicPerSeed)
{
    auto run = [](RoutingPolicy policy) {
        FleetServer fleet({.devices = 4,
                           .routing = policy,
                           .serving = fleetServingConfig()});
        fleet.submit(finalizeTrace(
            {burstyTrace("conformer", 6000.0, 96, /*seed=*/7),
             burstyTrace("resnet50", 6000.0, 96, /*seed=*/8)}));
        return fleet.serveFleet();
    };
    for (RoutingPolicy policy : {RoutingPolicy::RoundRobin,
                                 RoutingPolicy::LeastOutstanding,
                                 RoutingPolicy::ModelAffinity}) {
        FleetReport a = run(policy);
        FleetReport b = run(policy);
        ASSERT_EQ(a.perDevice.size(), b.perDevice.size());
        for (std::size_t i = 0; i < a.perDevice.size(); ++i) {
            EXPECT_EQ(a.perDevice[i].routed, b.perDevice[i].routed)
                << routingPolicyName(policy) << " device " << i;
            expectSameReport(a.perDevice[i].report,
                             b.perDevice[i].report);
        }
        expectSameReport(a.fleet, b.fleet);
    }
}

TEST(FleetTest, RoundRobinCyclesThroughDevices)
{
    FleetServer fleet({.devices = 4,
                       .serving = fleetServingConfig(1)});
    fleet.submit(finalizeTrace({fixedRateTrace("conformer", 1e6, 8)}));
    const FleetReport &report = fleet.serveFleet();
    for (const DeviceReport &dev : report.perDevice)
        EXPECT_EQ(dev.routed, 2u) << "device " << dev.device;
}

TEST(FleetTest, LeastOutstandingTracksLoadNotTurnOrder)
{
    // Two requests far enough apart that the first completes before
    // the second arrives: every device is idle again, so
    // least-outstanding re-picks device 0 (lowest index wins ties)
    // where round-robin would blindly advance to device 1.
    auto trace =
        finalizeTrace({fixedRateTrace("conformer", 2.0, 2)});

    FleetServer lo({.devices = 2,
                    .routing = RoutingPolicy::LeastOutstanding,
                    .serving = fleetServingConfig(1)});
    lo.submit(trace);
    const FleetReport &lo_report = lo.serveFleet();
    EXPECT_EQ(lo_report.perDevice[0].routed, 2u);
    EXPECT_EQ(lo_report.perDevice[1].routed, 0u);

    FleetServer rr({.devices = 2,
                    .routing = RoutingPolicy::RoundRobin,
                    .serving = fleetServingConfig(1)});
    rr.submit(trace);
    const FleetReport &rr_report = rr.serveFleet();
    EXPECT_EQ(rr_report.perDevice[0].routed, 1u);
    EXPECT_EQ(rr_report.perDevice[1].routed, 1u);
}

TEST(FleetTest, LeastOutstandingSpreadsASimultaneousBurst)
{
    // A burst of four simultaneous arrivals: each admission raises
    // the chosen device's outstanding count, so the burst fans out
    // 1-1-1-1 instead of stacking on one queue.
    FleetServer fleet({.devices = 4,
                       .routing = RoutingPolicy::LeastOutstanding,
                       .serving = fleetServingConfig(1)});
    fleet.submit(finalizeTrace({fixedRateTrace("conformer", 1e13, 4)}));
    const FleetReport &report = fleet.serveFleet();
    for (const DeviceReport &dev : report.perDevice)
        EXPECT_EQ(dev.routed, 1u) << "device " << dev.device;
}

TEST(FleetTest, ModelAffinityKeepsModelsSticky)
{
    // Two models, simultaneous first arrivals: the first placement
    // lands "bert_large" on device 0, the fallback then routes the
    // first "conformer" to the less-loaded device 1 — and from then
    // on every request follows its model's placement.
    FleetServer fleet({.devices = 2,
                       .routing = RoutingPolicy::ModelAffinity,
                       .serving = fleetServingConfig(1)});
    fleet.submit(finalizeTrace(
        {fixedRateTrace("bert_large", 1e13, 6),
         fixedRateTrace("conformer", 1e13, 6)}));
    const FleetReport &report = fleet.serveFleet();
    ASSERT_EQ(report.perDevice.size(), 2u);
    EXPECT_EQ(report.perDevice[0].placedModels,
              std::vector<std::string>{"bert_large"});
    EXPECT_EQ(report.perDevice[1].placedModels,
              std::vector<std::string>{"conformer"});
    for (const DeviceReport &dev : report.perDevice) {
        EXPECT_EQ(dev.routed, 6u);
        for (const RequestOutcome &r : dev.report.outcomes)
            EXPECT_EQ(r.request.model, dev.placedModels.front());
    }
}

//
// Accounting: per-device slices must sum to the fleet aggregate.
//

TEST(FleetTest, PerDeviceAccountingSumsToFleetTotals)
{
    ServingConfig serving = fleetServingConfig();
    serving.degradation.requestTimeout = secondsToTicks(300e-6);
    FleetServer fleet({.devices = 4,
                       .routing = RoutingPolicy::LeastOutstanding,
                       .serving = serving});
    fleet.submit(finalizeTrace(
        {burstyTrace("conformer", 20000.0, 128, /*seed=*/3),
         burstyTrace("resnet50", 20000.0, 128, /*seed=*/4)}));
    const FleetReport &report = fleet.serveFleet();

    std::uint64_t routed = 0, requests = 0, batches = 0;
    std::uint64_t dropped = 0, timed_out = 0, retries = 0;
    Tick makespan = 0;
    double joules = 0.0, utilization = 0.0;
    for (const DeviceReport &dev : report.perDevice) {
        routed += dev.routed;
        requests += dev.report.requests;
        batches += dev.report.batches;
        dropped += droppedCount(dev.report);
        timed_out += dev.report.timedOutRequests;
        retries += dev.report.batchRetries;
        joules += dev.report.joules;
        utilization += dev.report.groupUtilization;
        makespan = std::max(makespan, dev.report.makespan);
        // Each device's own accounting is internally consistent.
        EXPECT_EQ(dev.report.submitted,
                  dev.report.requests + droppedCount(dev.report));
        EXPECT_EQ(dev.report.submitted, dev.routed);
    }
    EXPECT_EQ(routed, 256u);
    EXPECT_EQ(report.fleet.submitted, 256u);
    EXPECT_EQ(report.fleet.requests, requests);
    EXPECT_EQ(report.fleet.batches, batches);
    EXPECT_EQ(droppedCount(report.fleet), dropped);
    EXPECT_EQ(report.fleet.timedOutRequests, timed_out);
    EXPECT_EQ(report.fleet.batchRetries, retries);
    EXPECT_EQ(report.fleet.makespan, makespan);
    EXPECT_DOUBLE_EQ(report.fleet.joules, joules);
    EXPECT_DOUBLE_EQ(
        report.fleet.groupUtilization,
        utilization / static_cast<double>(report.perDevice.size()));
}

//
// Model placement and modeled PCIe weight loads.
//

TEST(FleetTest, WeightLoadDelaysTheFirstBatch)
{
    auto trace = finalizeTrace({fixedRateTrace("resnet50", 1e6, 4)});

    FleetServer free_fleet({.devices = 1,
                            .serving = fleetServingConfig()});
    free_fleet.submit(trace);
    FleetReport free_report = free_fleet.serveFleet();
    EXPECT_EQ(free_report.perDevice[0].weightLoads, 0u);
    EXPECT_EQ(free_report.perDevice[0].weightLoadTicks, 0u);

    FleetServer paid_fleet({.devices = 1,
                            .serving = fleetServingConfig(),
                            .weightLoadGbps = 1.0});
    paid_fleet.submit(trace);
    FleetReport paid_report = paid_fleet.serveFleet();
    const DeviceReport &dev = paid_report.perDevice[0];
    EXPECT_EQ(dev.weightLoads, 1u);
    EXPECT_GT(dev.weightLoadTicks, 0u);
    EXPECT_GT(dev.weightLoadBytes, 0u);
    // No batch may start before the weights are resident, so the
    // whole run shifts right by at least the load time.
    ASSERT_FALSE(dev.report.outcomes.empty());
    EXPECT_GE(dev.report.outcomes.front().dispatched,
              dev.weightLoadTicks);
    EXPECT_GT(paid_report.fleet.makespan, free_report.fleet.makespan);
    // Placement pays once: both models of weight traffic are the
    // first batch's; re-serving the same model adds no new load.
    EXPECT_EQ(dev.placedModels,
              std::vector<std::string>{"resnet50"});
}

//
// Export formats.
//

TEST(FleetTest, FleetJsonCarriesAggregateAndPerDeviceSections)
{
    FleetServer fleet({.devices = 2,
                       .routing = RoutingPolicy::LeastOutstanding,
                       .serving = fleetServingConfig()});
    fleet.submit(mixedTrace(/*seed=*/31, /*per_model=*/12));
    const FleetReport &report = fleet.serveFleet();
    std::ostringstream os;
    writeJson(report, os);
    std::string doc = os.str();
    for (const char *key :
         {"\"devices\"", "\"routing\"", "\"least_outstanding\"",
          "\"fleet\"", "\"per_device\"", "\"routed\"",
          "\"peak_queue_depth\"", "\"placed_models\"",
          "\"weight_load_ms\"", "\"achieved_qps\"",
          "\"latency_p99_ms\""}) {
        EXPECT_NE(doc.find(key), std::string::npos) << key;
    }
}

TEST(FleetTest, PrometheusExportCoversDevicesAndFleet)
{
    FleetServer fleet({.devices = 2,
                       .serving = fleetServingConfig()});
    fleet.submit(mixedTrace(/*seed=*/41, /*per_model=*/8));
    fleet.serveFleet();
    std::ostringstream os;
    fleet.writePrometheus(os);
    std::string doc = os.str();
    for (const char *needle :
         {"dtusim_dev0_", "dtusim_dev1_", "dtusim_fleet_devices",
          "dtusim_fleet_achieved_qps",
          "dtusim_fleet_device_routed{device=\"0\"}",
          "dtusim_fleet_device_routed{device=\"1\"}"}) {
        EXPECT_NE(doc.find(needle), std::string::npos) << needle;
    }
}

TEST(FleetTest, PrometheusExportCarriesMetricSeriesFamilies)
{
    FleetServer fleet(
        {.devices = 2, .serving = fleetServingConfig()});
    fleet.enableRequestTracing(
        {.sampleRate = 0.0, .metricPeriod = secondsToTicks(100e-6)});
    fleet.submit(mixedTrace(/*seed=*/41, /*per_model=*/8));
    fleet.serveFleet();
    std::ostringstream os;
    fleet.writePrometheus(os);
    std::string doc = os.str();
    for (const char *needle :
         {"# TYPE dtusim_fleet_queue_depth gauge",
          "dtusim_fleet_queue_depth{device=\"0\"}",
          "dtusim_fleet_queue_depth{device=\"1\"}",
          "dtusim_fleet_outstanding_requests{device=\"0\"}",
          "dtusim_fleet_completed_requests_total{device=\"1\"}"}) {
        EXPECT_NE(doc.find(needle), std::string::npos) << needle;
    }
}

TEST(FleetTest, TwoDeviceTraceKeepsChipTimelinesOnDistinctPids)
{
    // Regression: both chips' tracers number their pids from 1, so
    // before the merged export remapped them, a two-device trace
    // stacked dev1's spans onto dev0's lanes.
    FleetServer fleet(
        {.devices = 2, .serving = fleetServingConfig()});
    fleet.enableRequestTracing({.sampleRate = 1.0});
    fleet.submit(mixedTrace(/*seed=*/43, /*per_model=*/12));
    const FleetReport &report = fleet.serveFleet();
    ASSERT_EQ(report.perDevice.size(), 2u);
    ASSERT_GT(report.perDevice[0].routed, 0u);
    ASSERT_GT(report.perDevice[1].routed, 0u);

    std::ostringstream os;
    fleet.exportFleetTrace(os);
    const std::string doc = os.str();

    // Pull pid -> process name out of the metadata records with the
    // shared parser-free approach: scan via the test JSON parser.
    dtu::test::JValue root = dtu::test::parseJson(doc);
    const dtu::test::JValue *events = root.find("traceEvents");
    ASSERT_NE(events, nullptr);
    std::map<std::string, std::set<double>> pids_of_prefix;
    std::map<double, std::string> name_of_pid;
    for (const dtu::test::JValue &e : events->items) {
        if (e.str("ph") != "M" || e.str("name") != "process_name")
            continue;
        std::string name = e.find("args")->str("name");
        double pid = e.num("pid");
        ASSERT_EQ(name_of_pid.count(pid), 0u)
            << "pid " << pid << " declared twice: '"
            << name_of_pid[pid] << "' and '" << name << "'";
        name_of_pid[pid] = name;
        if (name.rfind("dev0.", 0) == 0)
            pids_of_prefix["dev0"].insert(pid);
        if (name.rfind("dev1.", 0) == 0)
            pids_of_prefix["dev1"].insert(pid);
    }
    // Both devices contribute chip-timeline processes...
    ASSERT_FALSE(pids_of_prefix["dev0"].empty());
    ASSERT_FALSE(pids_of_prefix["dev1"].empty());
    // ...and no pid serves two processes across the parts.
    for (double pid : pids_of_prefix["dev0"])
        EXPECT_EQ(pids_of_prefix["dev1"].count(pid), 0u)
            << "pid " << pid << " shared across devices";
}

TEST(FleetTest, PolicyNamesRoundTrip)
{
    for (RoutingPolicy policy : {RoutingPolicy::RoundRobin,
                                 RoutingPolicy::LeastOutstanding,
                                 RoutingPolicy::ModelAffinity}) {
        auto parsed = parseRoutingPolicy(routingPolicyName(policy));
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(*parsed, policy);
    }
    EXPECT_FALSE(parseRoutingPolicy("random").has_value());
}

TEST(FleetTest, MisconfiguredFleetIsFatal)
{
    FleetConfig empty;
    empty.devices = 0;
    EXPECT_THROW(FleetServer{empty}, FatalError);
    Dtu chip(dtu2Config());
    ResourceManager rm(chip);
    FleetConfig config;
    config.devices = 2; // but only one member provided
    EXPECT_THROW(Fleet({{&chip, &rm}}, config), FatalError);
}

} // namespace
