/**
 * @file
 * Power & energy observability: per-component attribution, the
 * CPME/LPME audit trail, the EnergyMonitor observer, and the
 * dtusim_power_* / dtusim_energy_* exports.
 *
 * The contract under test has two halves. With a monitor attached,
 * every joule the meter integrates must be attributable: component
 * buckets sum to the meter total, serving reports grow an energy
 * section with guarded J/request and J/token figures, and the power
 * manager's decisions replay from the audit ring. Without a monitor,
 * nothing changes — the serving path, reports, and JSON artifacts
 * stay bit-for-bit identical to the pre-energy format (the golden
 * files pin that separately).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "api/server.hh"
#include "compiler/lowering.hh"
#include "models/model_zoo.hh"
#include "obs/slo_monitor.hh"
#include "runtime/executor.hh"
#include "serve/arrival.hh"
#include "sim/logging.hh"

namespace
{

using namespace dtu;

ExecResult
runTraced(const std::string &model)
{
    DtuConfig config = dtu2Config();
    Dtu chip(config);
    Graph graph = models::buildModel(model, 1);
    ExecutionPlan plan =
        compile(graph, config, DType::FP16, config.totalGroups(), {}, 1);
    std::vector<unsigned> groups;
    for (unsigned g = 0; g < config.totalGroups(); ++g)
        groups.push_back(g);
    Executor executor(chip, groups,
                      {.powerManagement = true, .trace = true});
    return executor.run(plan);
}

//
// 1. Attribution: the component buckets tile the meter total.
//

TEST(EnergyAttribution, ComponentsSumToMeterJoules)
{
    ExecResult r = runTraced("resnet50");
    ASSERT_GT(r.joules, 0.0);
    // The buckets are exact meter deltas, so the sum matches to
    // float noise — far inside the 0.1% acceptance band.
    EXPECT_NEAR(r.energy.total(), r.joules, 1e-6 * r.joules);
    EXPECT_GT(r.energy.macJoules, 0.0);
    EXPECT_GT(r.energy.hbmJoules, 0.0);
    EXPECT_GT(r.energy.staticJoules, 0.0);
}

TEST(EnergyAttribution, PerOperatorEnergyIsNonNegativeAndBounded)
{
    ExecResult r = runTraced("resnet50");
    ASSERT_FALSE(r.trace.empty());
    EnergyBreakdown ops;
    for (const OpTrace &op : r.trace) {
        EXPECT_GE(op.energy.macJoules, 0.0) << op.name;
        EXPECT_GE(op.energy.hbmJoules, 0.0) << op.name;
        EXPECT_GE(op.energy.total(), 0.0) << op.name;
        ops.add(op.energy);
    }
    // Operator windows exclude host transfers and the end-of-run L3
    // batch, so their sum stays within the run total but covers the
    // bulk of it.
    EXPECT_LE(ops.macJoules, r.energy.macJoules * (1.0 + 1e-9));
    EXPECT_GT(ops.total(), 0.5 * r.energy.total());
}

TEST(EnergyAttribution, BreakdownAddAndMinusRoundTrip)
{
    EnergyBreakdown a;
    a.macJoules = 1.0;
    a.hbmJoules = 2.0;
    a.staticJoules = 3.0;
    EnergyBreakdown b = a;
    b.add(a);
    EXPECT_DOUBLE_EQ(b.total(), 2.0 * a.total());
    EnergyBreakdown c = b.minus(a);
    EXPECT_DOUBLE_EQ(c.macJoules, a.macJoules);
    EXPECT_DOUBLE_EQ(c.total(), a.total());
}

//
// 2. The audit trail ring.
//

PowerEvent
event(PowerEventKind kind, Tick at)
{
    PowerEvent e;
    e.kind = kind;
    e.at = at;
    return e;
}

TEST(PowerAudit, RingEvictsOldestButCountsEverything)
{
    PowerAuditTrail trail(4);
    for (Tick t = 0; t < 6; ++t)
        trail.record(event(PowerEventKind::BudgetGrant, t));
    trail.record(event(PowerEventKind::BudgetDeny, 6));
    EXPECT_EQ(trail.events().size(), 4u);
    EXPECT_EQ(trail.totalRecorded(), 7u);
    EXPECT_EQ(trail.count(PowerEventKind::BudgetGrant), 6u);
    EXPECT_EQ(trail.count(PowerEventKind::BudgetDeny), 1u);
    // Oldest-first: the ring holds the newest four.
    EXPECT_EQ(trail.events().front().at, 3u);
    EXPECT_EQ(trail.events().back().kind, PowerEventKind::BudgetDeny);
    trail.clear();
    EXPECT_EQ(trail.totalRecorded(), 0u);
    EXPECT_TRUE(trail.events().empty());
}

TEST(PowerAudit, CpmeRecordsDvfsStepsAndWindows)
{
    DtuConfig config = dtu2Config();
    Dtu chip(config);
    PowerAuditTrail &trail = chip.installPowerAudit(1 << 14);
    Graph graph = models::buildModel("resnet50", 1);
    ExecutionPlan plan =
        compile(graph, config, DType::FP16, config.totalGroups(), {}, 1);
    std::vector<unsigned> groups;
    for (unsigned g = 0; g < config.totalGroups(); ++g)
        groups.push_back(g);
    Executor executor(chip, groups, {.powerManagement = true});
    executor.run(plan);
    // The DVFS loop must have stepped at least once on ResNet50's
    // compute/memory phase changes, and every step was recorded.
    EXPECT_GT(trail.count(PowerEventKind::DvfsCoast) +
                  trail.count(PowerEventKind::DvfsClimb),
              0u);
    EXPECT_GT(chip.cpme().windowsServiced(), 0u);
    // One trail per chip.
    EXPECT_THROW(chip.installPowerAudit(16), FatalError);
}

//
// 3. The flight recorder's power ring.
//

TEST(FlightRecorder, PowerEventsRingDumpsAndResets)
{
    obs::FlightRecorderConfig config;
    config.powerCapacity = 4;
    obs::FlightRecorder recorder(config);
    for (Tick t = 0; t < 6; ++t)
        recorder.recordPowerEvent(0, event(PowerEventKind::Throttle, t));
    recorder.recordPowerEvent(1, event(PowerEventKind::BudgetDeny, 6));
    EXPECT_EQ(recorder.bufferedPowerEvents(), 4u);

    recorder.trigger("test:power", 7);
    const std::string &dump = recorder.lastDump();
    EXPECT_NE(dump.find("\"power_events\""), std::string::npos);
    EXPECT_NE(dump.find("\"buffered_power_events\": 4"),
              std::string::npos);
    EXPECT_NE(dump.find("budget_deny"), std::string::npos);
    EXPECT_NE(dump.find("throttle"), std::string::npos);

    recorder.reset();
    EXPECT_EQ(recorder.bufferedPowerEvents(), 0u);
    EXPECT_EQ(recorder.dumpCount(), 0u);
}

//
// 4. The EnergyMonitor observer on a Server.
//

TEST(EnergyMonitorTest, ServingReportGainsGuardedEnergySection)
{
    Device device;
    Server server(device, {.batching = {
                               .maxBatch = 4,
                               .maxQueueDelay = secondsToTicks(1e-3)}});
    server.enableEnergyMonitor();
    server.submit(serve::finalizeTrace(
        {serve::poissonTrace("conformer", 2000.0, 8, /*seed=*/7,
                             secondsToTicks(10e-3))}));
    const serve::ServingReport &r = server.serve();
    ASSERT_TRUE(r.hasEnergy);
    EXPECT_GT(r.energy.total(), 0.0);
    // The component split sums to the same joules the report already
    // carried (within the 0.1% acceptance band).
    EXPECT_NEAR(r.energy.total(), r.joules, 1e-3 * r.joules);

    // The JSON grows an energy section; a bare run's does not.
    std::ostringstream with;
    serve::writeJson(r, with);
    EXPECT_NE(with.str().find("\"energy\""), std::string::npos);

    Device bare_device;
    Server bare(bare_device, {.batching = {
                                  .maxBatch = 4,
                                  .maxQueueDelay =
                                      secondsToTicks(1e-3)}});
    bare.submit(serve::finalizeTrace(
        {serve::poissonTrace("conformer", 2000.0, 8, /*seed=*/7,
                             secondsToTicks(10e-3))}));
    const serve::ServingReport &plain = bare.serve();
    EXPECT_FALSE(plain.hasEnergy);
    std::ostringstream without;
    serve::writeJson(plain, without);
    EXPECT_EQ(without.str().find("\"energy\""), std::string::npos);

    // Observation only: the monitored simulation is unperturbed.
    EXPECT_EQ(r.makespan, plain.makespan);
    EXPECT_DOUBLE_EQ(r.joules, plain.joules);
    EXPECT_DOUBLE_EQ(r.p99Ms, plain.p99Ms);
}

TEST(EnergyMonitorTest, DoubleEnableIsAConfigurationError)
{
    Device device;
    Server server(device);
    server.enableEnergyMonitor();
    EXPECT_THROW(server.enableEnergyMonitor(), FatalError);
}

TEST(EnergyMonitorTest, AnnotateGuardsZeroSpansAndZeroWindows)
{
    Device device;
    obs::EnergyMonitor monitor;
    monitor.attach(0, device.chip());
    monitor.beginRun(0);
    obs::FleetMetricSample sample;
    sample.at = 0;
    obs::DeviceMetricSample dev;
    dev.device = 0;
    sample.devices.push_back(dev);
    // dt == 0 and zero CPME windows: both ratios must clamp to 0
    // instead of dividing by zero.
    monitor.annotate(sample, {monitor.read(0)});
    const obs::DeviceMetricSample &d = sample.devices[0];
    ASSERT_TRUE(d.hasPower);
    EXPECT_TRUE(std::isfinite(d.powerWatts));
    EXPECT_TRUE(std::isfinite(d.throttleFraction));
    EXPECT_DOUBLE_EQ(d.powerWatts, 0.0);
    EXPECT_DOUBLE_EQ(d.throttleFraction, 0.0);
}

TEST(EnergyMonitorTest, FinalizeEnergyGuardsZeroTokenRuns)
{
    serve::ServingReport report;
    report.hasGeneration = true;
    report.generation.tokens = 0;
    report.generation.requests = 0;
    report.generation.prefill.energy.macJoules = 1.0;
    report.generation.decode.energy.hbmJoules = 2.0;
    EnergyBreakdown run;
    run.macJoules = 3.0;
    serve::finalizeEnergy(report, run);
    ASSERT_TRUE(report.hasEnergy);
    // No completions, no tokens: every rate renders 0, never inf/NaN.
    EXPECT_DOUBLE_EQ(report.generation.joulesPerToken, 0.0);
    EXPECT_DOUBLE_EQ(report.generation.prefillJoulesPerToken, 0.0);
    EXPECT_DOUBLE_EQ(report.generation.decodeJoulesPerToken, 0.0);

    // One-token sequences: every token is a first token, so decode
    // J/token (tokens - requests == 0) stays guarded too.
    report.generation.tokens = 4;
    report.generation.requests = 4;
    serve::finalizeEnergy(report, run);
    EXPECT_GT(report.generation.joulesPerToken, 0.0);
    EXPECT_GT(report.generation.prefillJoulesPerToken, 0.0);
    EXPECT_DOUBLE_EQ(report.generation.decodeJoulesPerToken, 0.0);
}

TEST(SloMonitorGuards, BurnRateStaysFiniteAtExtremeTargets)
{
    // An sloTarget one ulp under 1.0 makes the error budget denormal
    // small; the burn rate must saturate, not overflow to inf (inf
    // would poison the JSON and Prometheus exports).
    const Tick w = 1000;
    obs::SloMonitor mon(
        {.window = w,
         .sloTarget = std::nextafter(1.0, 0.0)});
    serve::RequestOutcome missed;
    missed.state = serve::TerminalState::Completed;
    missed.request.arrival = 0;
    missed.request.deadline = 1;
    missed.completed = w / 2;
    mon.onTerminal(0, missed);
    mon.endRun(w);
    ASSERT_EQ(mon.windows().size(), 1u);
    EXPECT_TRUE(std::isfinite(mon.windows()[0].burnRate));
    EXPECT_GT(mon.windows()[0].burnRate, 0.0);
}

//
// 5. Fleet integration: the fault-listener fallback, corpus order and
//    the generation rollup. (Observer artifacts at every thread
//    count: test_determinism.cc.)
//

TEST(EnergyMonitorTest, FleetThreadsFallBackToSerialWithWarning)
{
    // The energy monitor itself serves on lanes; a fault listener (the
    // flight recorder's fault trigger) downgrades the fleet to the
    // serial driver with a warning. Either way the fleet report and
    // the energy report reproduce the serial run byte-for-byte.
    auto run = [](unsigned threads, bool listener, std::string *warning) {
        serve::FleetConfig config;
        config.devices = 2;
        config.threads = threads;
        config.serving.batching.maxBatch = 4;
        config.serving.batching.maxQueueDelay = secondsToTicks(1e-3);
        FleetServer fleet(config);
        obs::EnergyMonitor &energy = fleet.enableEnergyMonitor();
        if (listener)
            fleet.enableFlightRecorder({});
        for (unsigned i = 0; i < fleet.size(); ++i)
            fleet.device(i).installFaults(
                {.seed = 11 + i, .eccCorrectablePerGiB = 60.0});
        fleet.submit(serve::finalizeTrace(
            {serve::poissonTrace("conformer", 4000.0, 24, /*seed=*/5,
                                 secondsToTicks(10e-3))}));
        bool was_enabled = loggingEnabled();
        setLoggingEnabled(true);
        testing::internal::CaptureStderr();
        const serve::FleetReport &r = fleet.serveFleet();
        *warning = testing::internal::GetCapturedStderr();
        setLoggingEnabled(was_enabled);
        std::ostringstream os;
        serve::writeJson(r, os, /*per_request=*/true);
        energy.writeJson(os);
        return os.str();
    };

    for (bool listener : {false, true}) {
        std::string serial_warning, parallel_warning;
        std::string serial = run(1, listener, &serial_warning);
        std::string parallel = run(2, listener, &parallel_warning);

        // threads=2 downgrades to the serial driver only when a fault
        // listener is attached...
        if (loggingEnabled()) {
            EXPECT_EQ(parallel_warning.find("threads=1") !=
                          std::string::npos,
                      listener)
                << parallel_warning;
            EXPECT_EQ(parallel_warning.find("fault listener") !=
                          std::string::npos,
                      listener)
                << parallel_warning;
            EXPECT_EQ(serial_warning.find("threads=1"),
                      std::string::npos);
        }
        // ...and reproduces the serial run byte-for-byte either way.
        EXPECT_EQ(serial, parallel) << "listener " << listener;
    }
}

TEST(EnergyMonitorTest, CorpusKeepsLaunchOrderAcrossServes)
{
    // The fleet thread records a launch's corpus rows when it reads
    // the launch, which on lanes is not launch order across devices.
    // Each serve's rows must still come out in launch order (as at
    // threads=1), and after every earlier serve's rows.
    auto run = [](unsigned threads) {
        serve::FleetConfig config;
        config.devices = 4;
        config.threads = threads;
        config.serving.batching.maxBatch = 4;
        config.serving.batching.maxQueueDelay = secondsToTicks(1e-3);
        FleetServer fleet(config);
        obs::EnergyMonitor &energy =
            fleet.enableEnergyMonitor({.corpus = true});
        std::vector<std::vector<std::string>> rows;
        for (std::uint64_t seed : {5u, 9u}) {
            fleet.submit(serve::finalizeTrace(
                {serve::poissonTrace("resnet50", 12000.0, 24, seed,
                                     secondsToTicks(20e-3)),
                 serve::poissonTrace("conformer", 4000.0, 8, seed + 1,
                                     secondsToTicks(30e-3))}));
            fleet.serveFleet();
            std::vector<std::string> &serve = rows.emplace_back();
            for (const obs::EnergyCorpusRow &row : energy.corpus()) {
                std::ostringstream key;
                key << row.device << " " << row.model << " "
                    << row.phase << " " << row.op << " " << std::hexfloat
                    << row.energy.total() << " " << row.frequencyGhz;
                serve.push_back(key.str());
            }
        }
        return rows;
    };
    const auto serial = run(1);
    const auto parallel = run(4);
    EXPECT_EQ(serial, parallel);
    ASSERT_EQ(serial.size(), 2u);
    const std::vector<std::string> &first = serial[0];
    const std::vector<std::string> &both = serial[1];
    ASSERT_FALSE(first.empty());
    ASSERT_GT(both.size(), first.size());
    EXPECT_TRUE(std::equal(first.begin(), first.end(), both.begin()));
}

TEST(EnergyMonitorTest, GenerationRunReportsJoulesPerToken)
{
    serve::FleetConfig config;
    config.devices = 1;
    config.serving.batching.maxBatch = 4;
    FleetServer fleet(config);
    fleet.enableEnergyMonitor();
    std::vector<serve::Request> trace;
    for (unsigned i = 0; i < 4; ++i) {
        serve::Request r;
        r.model = "gpt_tiny";
        r.arrival = secondsToTicks(1e-4) * i;
        r.gen.promptLen = 32;
        r.gen.maxNewTokens = 8;
        trace.push_back(r);
    }
    fleet.submit(serve::finalizeTrace({std::move(trace)}));
    const serve::FleetReport &r = fleet.serveFleet();
    ASSERT_TRUE(r.fleet.hasGeneration);
    ASSERT_TRUE(r.fleet.hasEnergy);
    const serve::GenerationReport &g = r.fleet.generation;
    EXPECT_GT(g.joulesPerToken, 0.0);
    EXPECT_GT(g.prefillJoulesPerToken, 0.0);
    EXPECT_GT(g.decodeJoulesPerToken, 0.0);
    EXPECT_GT(g.prefill.energy.total(), 0.0);
    EXPECT_GT(g.decode.energy.total(), 0.0);
    // Phase energy is a subset of the run's total attribution.
    EXPECT_LE(g.prefill.energy.total() + g.decode.energy.total(),
              r.fleet.energy.total() * (1.0 + 1e-9));

    std::ostringstream os;
    serve::writeJson(r.fleet, os);
    EXPECT_NE(os.str().find("\"joules_per_token\""), std::string::npos);
    EXPECT_NE(os.str().find("\"decode_joules_per_token\""),
              std::string::npos);
}

//
// 6. Exports: Prometheus families and the EnergyReport golden.
//

TEST(PrometheusEnergy, FamiliesRenderWithDeviceAndComponentLabels)
{
    Device device;
    Server server(device, {.batching = {
                               .maxBatch = 4,
                               .maxQueueDelay = secondsToTicks(1e-3)}});
    server.enableEnergyMonitor();
    server.submit(serve::finalizeTrace(
        {serve::poissonTrace("conformer", 2000.0, 12, /*seed=*/13,
                             secondsToTicks(10e-3))}));
    server.serve();
    std::ostringstream os;
    server.writePrometheus(os);
    const std::string text = os.str();

    for (const char *needle :
         {"# TYPE dtusim_power_limit_watts gauge",
          "dtusim_power_limit_watts{device=\"0\"}",
          "dtusim_power_reserve_watts{device=\"0\"}",
          "dtusim_power_frequency_ghz{device=\"0\"}",
          "# TYPE dtusim_energy_joules_total counter",
          "dtusim_energy_joules_total{device=\"0\"}",
          "dtusim_power_watts{device=\"0\"}",
          "dtusim_power_throttle_fraction{device=\"0\"}",
          "dtusim_energy_component_joules{device=\"0\",component=\"mac\"}",
          "dtusim_energy_component_joules{device=\"0\",component=\"static\"}",
          "dtusim_energy_audit_events_total{device=\"0\",kind=\"budget_grant\"}"}) {
        EXPECT_NE(text.find(needle), std::string::npos) << needle;
    }

    // Exposition hygiene: every non-comment line is "name{labels} value"
    // with a finite-or-spelled value ("+Inf"/"-Inf"/"NaN", never
    // "inf"/"nan").
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        auto space = line.rfind(' ');
        ASSERT_NE(space, std::string::npos) << line;
        std::string value = line.substr(space + 1);
        EXPECT_TRUE(value == "+Inf" || value == "-Inf" ||
                    value == "NaN" ||
                    std::isfinite(std::strtod(value.c_str(), nullptr)))
            << line;
    }
}

std::string
energyGoldenPath()
{
    return std::string(DTU_TESTS_DIR) + "/golden/energy_report.json";
}

/** The fixed-seed monitored run the EnergyReport golden pins. */
std::string
renderEnergyReport()
{
    Device device;
    Server server(device, {.batching = {
                               .maxBatch = 4,
                               .maxQueueDelay =
                                   secondsToTicks(0.5e-3)}});
    obs::EnergyMonitor &monitor = server.enableEnergyMonitor();
    server.submit(serve::finalizeTrace(
        {serve::poissonTrace("conformer", 4000.0, 16, /*seed=*/2718,
                             secondsToTicks(5e-3)),
         serve::poissonTrace("resnet50", 300.0, 4, /*seed=*/3141,
                             secondsToTicks(20e-3))}));
    server.serve();
    std::ostringstream os;
    monitor.writeJson(os);
    return os.str();
}

TEST(GoldenEnergyReport, MatchesCheckedInJson)
{
    std::string rendered = renderEnergyReport();

    if (std::getenv("DTU_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(energyGoldenPath());
        ASSERT_TRUE(out) << "cannot write " << energyGoldenPath();
        out << rendered;
        GTEST_SKIP() << "regenerated " << energyGoldenPath();
    }

    std::ifstream in(energyGoldenPath());
    ASSERT_TRUE(in) << "missing " << energyGoldenPath()
                    << "; regenerate with DTU_UPDATE_GOLDEN=1";
    std::stringstream golden;
    golden << in.rdbuf();

    std::vector<std::string> want, got;
    {
        std::istringstream is(golden.str());
        for (std::string line; std::getline(is, line);)
            want.push_back(line);
    }
    {
        std::istringstream is(rendered);
        for (std::string line; std::getline(is, line);)
            got.push_back(line);
    }
    std::size_t common = std::min(want.size(), got.size());
    for (std::size_t i = 0; i < common; ++i) {
        EXPECT_EQ(got[i], want[i])
            << "energy report diverged from golden at line " << i + 1
            << "; if intentional, regenerate with DTU_UPDATE_GOLDEN=1";
    }
    EXPECT_EQ(got.size(), want.size());
}

TEST(GoldenEnergyReport, RunIsReproducibleWithinProcess)
{
    EXPECT_EQ(renderEnergyReport(), renderEnergyReport());
}

} // namespace
