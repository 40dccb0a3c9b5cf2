/**
 * @file
 * Tests for the performance-analysis subsystem (src/obs/): PMU-style
 * counter sampling, top-down bottleneck attribution with roofline
 * placement, Prometheus export, and the live serving SLO monitor —
 * plus the StatSnapshot windowing helpers and JSON non-finite
 * handling they build on.
 *
 * The two load-bearing invariants from the design:
 *
 *  1. Observability is strictly opt-in: a run with sampling enabled
 *     is bit-for-bit identical to one without (the monitors only
 *     read counters).
 *
 *  2. Top-down categories tile time exactly: each operator's six
 *     category ticks sum to its window, and each core's whole-run
 *     breakdown sums to the end-to-end latency.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "api/server.hh"
#include "compiler/lowering.hh"
#include "graph/importer.hh"
#include "json_test_util.hh"
#include "models/model_zoo.hh"
#include "obs/perf_monitor.hh"
#include "obs/prometheus.hh"
#include "obs/topdown.hh"
#include "serve/arrival.hh"
#include "sim/json.hh"
#include "sim/logging.hh"

namespace
{

using namespace dtu;
using dtu::test::JValue;
using dtu::test::parseJson;

//
// Shared fixture: one traced resnet50-class run with its bottleneck
// report, built once (the compile is the expensive part).
//

struct ReportRun
{
    Dtu chip{dtu2Config()};
    std::vector<unsigned> groups;
    ExecResult result;
    obs::BottleneckReport report;

    ReportRun(const std::string &model, int batch)
    {
        Graph graph = models::buildModel(model, batch);
        ExecutionPlan plan = compile(graph, chip.config(), DType::FP16,
                                     chip.config().totalGroups(), {},
                                     batch);
        for (unsigned g = 0; g < chip.config().totalGroups(); ++g)
            groups.push_back(g);
        Executor executor(chip, groups, {.trace = true});
        result = executor.run(plan);
        report = obs::buildBottleneckReport(result, chip.config(),
                                            DType::FP16, groups);
    }
};

const ReportRun &
resnetRun()
{
    static ReportRun run("resnet50", 4);
    return run;
}

//
// 1. Opt-in safety: enabling the sampler cannot move a single tick.
//

const char *kTinyNet = R"(
graph tiny
input x 1x16x32x32
conv2d c1 x k=3 p=1 oc=32
relu a1 c1
conv2d c2 a1 k=3 p=1 oc=32
output c2
)";

ExecResult
runTiny(Dtu &chip)
{
    Graph graph = importGraphText(kTinyNet);
    ExecutionPlan plan = compile(graph, chip.config(), DType::FP16,
                                 chip.config().totalGroups());
    std::vector<unsigned> groups;
    for (unsigned g = 0; g < chip.config().totalGroups(); ++g)
        groups.push_back(g);
    Executor executor(chip, groups,
                      {.powerManagement = true, .trace = true});
    return executor.run(plan);
}

TEST(PerfSampling, DisabledIsBitForBitIdentical)
{
    Dtu plain(dtu2Config());
    ExecResult a = runTiny(plain);

    Dtu sampled(dtu2Config());
    obs::PerfMonitor &pm =
        sampled.enablePerfSampling(secondsToTicks(5e-6));
    ExecResult b = runTiny(sampled);

    // The sampler saw the run...
    EXPECT_GT(pm.sampleCount(), 0u);
    EXPECT_GT(pm.watched().size(), 0u);

    // ...and perturbed nothing: every result field is exactly equal.
    EXPECT_EQ(a.start, b.start);
    EXPECT_EQ(a.end, b.end);
    EXPECT_EQ(a.latency, b.latency);
    EXPECT_EQ(a.joules, b.joules);
    EXPECT_EQ(a.watts, b.watts);
    EXPECT_EQ(a.l3Bytes, b.l3Bytes);
    EXPECT_EQ(a.meanFrequencyGHz, b.meanFrequencyGHz);
    ASSERT_EQ(a.trace.size(), b.trace.size());
    for (std::size_t i = 0; i < a.trace.size(); ++i) {
        const OpTrace &x = a.trace[i];
        const OpTrace &y = b.trace[i];
        EXPECT_EQ(x.name, y.name);
        EXPECT_EQ(x.start, y.start);
        EXPECT_EQ(x.end, y.end);
        EXPECT_EQ(x.computeTicks, y.computeTicks);
        EXPECT_EQ(x.kernelStallTicks, y.kernelStallTicks);
        EXPECT_EQ(x.weightStallTicks, y.weightStallTicks);
        EXPECT_EQ(x.unhiddenTicks, y.unhiddenTicks);
        EXPECT_EQ(x.launchTicks, y.launchTicks);
        EXPECT_EQ(x.throttle, y.throttle);
        EXPECT_EQ(x.macs, y.macs);
        EXPECT_EQ(x.bytes, y.bytes);
    }
}

TEST(PerfSampling, DoubleEnableIsAConfigurationError)
{
    Dtu chip(dtu2Config());
    chip.enablePerfSampling(secondsToTicks(5e-6));
    EXPECT_THROW(chip.enablePerfSampling(secondsToTicks(5e-6)),
                 FatalError);
}

//
// 2. Top-down accounting: the categories tile time exactly.
//

TEST(TopDown, CategoriesTileEveryOperatorWindow)
{
    const ReportRun &run = resnetRun();
    ASSERT_FALSE(run.report.operators.empty());
    for (const obs::OpAttribution &op : run.report.operators) {
        EXPECT_EQ(op.td.total(), op.ticks())
            << op.name << ": category ticks must sum to the window";
        EXPECT_EQ(op.td.syncWait, 0u)
            << "the analytic executor resolves sync by phase ordering";
    }
}

TEST(TopDown, PerCoreTicksSumToRunLatency)
{
    const ReportRun &run = resnetRun();
    const DtuConfig &config = run.chip.config();
    ASSERT_EQ(run.report.cores.size(),
              run.groups.size() * config.coresPerGroup);
    for (const obs::CoreAttribution &core : run.report.cores) {
        EXPECT_EQ(core.td.total(), run.report.latency)
            << core.core << ": whole-run breakdown must sum to latency";
    }
    EXPECT_EQ(run.report.total.total(), run.report.latency);
    // The run did real work in several categories.
    EXPECT_GT(run.report.total.issue, 0u);
    EXPECT_GT(run.report.total.idle, 0u);
}

TEST(TopDown, RooflinePlacementIsConsistent)
{
    const ReportRun &run = resnetRun();
    const obs::MachineSpec &spec = run.report.spec;
    EXPECT_EQ(spec.cores, run.chip.config().totalCores());
    EXPECT_GT(spec.peakOpsPerSecond, 0.0);
    EXPECT_GT(spec.hbmBytesPerSecond, 0.0);
    EXPECT_GT(spec.ridgeOpsPerByte(), 0.0);

    std::size_t with_macs = 0;
    for (const obs::OpAttribution &op : run.report.operators) {
        const obs::RooflinePoint &r = op.roofline;
        // MAC-free operators (pooling, gap) sit at the origin.
        EXPECT_GE(r.intensityOpsPerByte, 0.0) << op.name;
        EXPECT_GE(r.achievedOpsPerSecond, 0.0) << op.name;
        if (r.intensityOpsPerByte > 0.0)
            ++with_macs;
        // The ceiling is the roofline: min of the two roofs.
        EXPECT_DOUBLE_EQ(
            r.ceilingOpsPerSecond,
            std::min(spec.peakOpsPerSecond,
                     r.intensityOpsPerByte * spec.hbmBytesPerSecond))
            << op.name;
        EXPECT_EQ(r.computeBound,
                  r.intensityOpsPerByte >= spec.ridgeOpsPerByte())
            << op.name;
        // Nothing exceeds the machine's peak.
        EXPECT_LE(r.achievedOpsPerSecond,
                  spec.peakOpsPerSecond * (1.0 + 1e-9))
            << op.name;
        EXPECT_TRUE(std::isfinite(r.efficiency())) << op.name;
    }
    // The convolutions carry real arithmetic intensity.
    EXPECT_GT(with_macs, run.report.operators.size() / 2);
}

TEST(TopDown, CriticalPathCoversTheWholeRun)
{
    const ReportRun &run = resnetRun();
    ASSERT_FALSE(run.report.criticalPath.empty());
    Tick covered = 0;
    double share_sum = 0.0;
    Tick cursor = run.result.start;
    for (const obs::CriticalSegment &seg : run.report.criticalPath) {
        EXPECT_EQ(seg.start, cursor) << "segments must be contiguous";
        EXPECT_GT(seg.ticks, 0u);
        EXPECT_FALSE(seg.dominantOp.empty());
        covered += seg.ticks;
        share_sum += seg.share;
        cursor = seg.start + seg.ticks;
    }
    EXPECT_EQ(covered, run.report.latency);
    EXPECT_NEAR(share_sum, 1.0, 1e-9);
    // Consecutive segments never share a category (else merged).
    for (std::size_t i = 1; i < run.report.criticalPath.size(); ++i) {
        EXPECT_NE(run.report.criticalPath[i - 1].category,
                  run.report.criticalPath[i].category);
    }
}

TEST(TopDown, ReportJsonParsesAndMatches)
{
    const ReportRun &run = resnetRun();
    std::ostringstream ss;
    run.report.writeJson(ss);
    JValue doc = parseJson(ss.str());

    EXPECT_DOUBLE_EQ(doc.num("latency_ticks"),
                     static_cast<double>(run.report.latency));
    const JValue *machine = doc.find("machine");
    ASSERT_NE(machine, nullptr);
    EXPECT_DOUBLE_EQ(machine->num("peak_ops_per_s"),
                     run.report.spec.peakOpsPerSecond);

    const JValue *td = doc.find("topdown");
    ASSERT_NE(td, nullptr);
    double sum = td->num("issue_ticks") + td->num("throttled_ticks") +
                 td->num("dma_wait_ticks") + td->num("sync_wait_ticks") +
                 td->num("icache_stall_ticks") + td->num("idle_ticks");
    EXPECT_DOUBLE_EQ(sum, td->num("total_ticks"));
    EXPECT_DOUBLE_EQ(sum, static_cast<double>(run.report.latency));

    const JValue *cores = doc.find("cores");
    ASSERT_NE(cores, nullptr);
    EXPECT_EQ(cores->items.size(), run.report.cores.size());
    EXPECT_EQ(cores->items[0].str("core"), run.report.cores[0].core);

    const JValue *ops = doc.find("operators");
    ASSERT_NE(ops, nullptr);
    ASSERT_EQ(ops->items.size(), run.report.operators.size());
    for (const JValue &op : ops->items) {
        const JValue *roofline = op.find("roofline");
        ASSERT_NE(roofline, nullptr);
        EXPECT_TRUE(roofline->has("intensity_ops_per_byte"));
        EXPECT_TRUE(roofline->has("achieved_ops_per_s"));
        EXPECT_TRUE(roofline->has("ceiling_ops_per_s"));
    }

    const JValue *path = doc.find("critical_path");
    ASSERT_NE(path, nullptr);
    EXPECT_EQ(path->items.size(), run.report.criticalPath.size());
}

TEST(TopDown, UntracedRunIsAConfigurationError)
{
    const ReportRun &run = resnetRun();
    ExecResult untraced;
    untraced.latency = 100;
    EXPECT_THROW(obs::buildBottleneckReport(untraced, run.chip.config(),
                                            DType::FP16, run.groups),
                 FatalError);
}

//
// 3. The PerfMonitor sampling engine (on a hand-rolled registry, so
//    boundary arithmetic is exactly checkable).
//

TEST(PerfMonitor, SamplesAtExactPeriodBoundaries)
{
    StatRegistry registry;
    Stat counter;
    counter.init(registry, "unit.bytes", "test counter");

    obs::PerfMonitor pm(registry, 100);
    pm.watch("unit.bytes");
    pm.watch("unit.bytes"); // idempotent
    ASSERT_EQ(pm.watched().size(), 1u);

    counter += 5.0;
    pm.sampleUpTo(250); // boundaries at 100 and 200; 250 is not one
    EXPECT_EQ(pm.sampleCount(), 2u);
    EXPECT_EQ(pm.lastSampleAt(), 200u);

    const std::vector<obs::PerfSample> &s = pm.series("unit.bytes");
    ASSERT_EQ(s.size(), 2u);
    EXPECT_EQ(s[0].at, 100u);
    EXPECT_DOUBLE_EQ(s[0].value, 5.0);
    // 5 counts over 100 ticks = 100 ps.
    EXPECT_DOUBLE_EQ(s[0].ratePerSecond, 5.0 / ticksToSeconds(100));
    EXPECT_EQ(s[1].at, 200u);
    EXPECT_DOUBLE_EQ(s[1].value, 5.0);
    EXPECT_DOUBLE_EQ(s[1].ratePerSecond, 0.0); // no movement

    // Time cannot move backwards; catch-up resumes cleanly.
    pm.sampleUpTo(50);
    EXPECT_EQ(pm.sampleCount(), 2u);
    counter += 3.0;
    pm.sampleUpTo(300);
    EXPECT_EQ(pm.sampleCount(), 3u);
    EXPECT_DOUBLE_EQ(pm.latest("unit.bytes"), 8.0);
    EXPECT_DOUBLE_EQ(pm.series("unit.bytes")[2].ratePerSecond,
                     3.0 / ticksToSeconds(100));
}

TEST(PerfMonitor, WatchingAnUnknownStatIsAConfigurationError)
{
    StatRegistry registry;
    obs::PerfMonitor pm(registry, 100);
    EXPECT_THROW(pm.watch("no.such.counter"), FatalError);
}

TEST(PerfMonitor, CsvAndJsonExportsRoundTrip)
{
    StatRegistry registry;
    Stat a, b;
    a.init(registry, "unit.a", "counter a");
    b.init(registry, "unit.b", "counter b");

    obs::PerfMonitor pm(registry, 1000);
    pm.watch("unit.a");
    pm.watch("unit.b");
    a += 2.0;
    b += 4.0;
    pm.sampleUpTo(2000);
    ASSERT_EQ(pm.sampleCount(), 2u);

    std::ostringstream csv;
    pm.writeCsv(csv);
    std::istringstream lines(csv.str());
    std::string line;
    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_EQ(line, "tick,seconds,stat,value,rate_per_s");
    std::size_t rows = 0;
    while (std::getline(lines, line))
        ++rows;
    // Long form: one row per (sample, watched stat).
    EXPECT_EQ(rows, pm.sampleCount() * pm.watched().size());

    std::ostringstream js;
    pm.writeJson(js);
    JValue doc = parseJson(js.str());
    EXPECT_DOUBLE_EQ(doc.num("period_ticks"), 1000.0);
    EXPECT_DOUBLE_EQ(doc.num("samples"), 2.0);
    const JValue *series = doc.find("series");
    ASSERT_NE(series, nullptr);
    const JValue *sa = series->find("unit.a");
    ASSERT_NE(sa, nullptr);
    ASSERT_EQ(sa->items.size(), 2u);
    EXPECT_DOUBLE_EQ(sa->items[0].num("at_ticks"), 1000.0);
    EXPECT_DOUBLE_EQ(sa->items[0].num("value"), 2.0);
    EXPECT_DOUBLE_EQ(series->find("unit.b")->items[0].num("value"), 4.0);
}

TEST(PerfMonitor, ChipInstallWatchesTheKeyCounters)
{
    Dtu chip(dtu2Config());
    obs::PerfMonitor &pm =
        chip.enablePerfSampling(secondsToTicks(10e-6));
    // Per-core cycles/macs, DMA pipes, HBM channels, sync, CPME.
    auto watches = [&](const std::string &needle) {
        for (const std::string &name : pm.watched())
            if (name.find(needle) != std::string::npos)
                return true;
        return false;
    };
    EXPECT_TRUE(watches(".core0.cycles"));
    EXPECT_TRUE(watches(".core0.macs"));
    EXPECT_TRUE(watches(".dma.pipe.bytes"));
    EXPECT_TRUE(watches(".sync.wait_ticks"));
    EXPECT_TRUE(watches(".hbm.ch0.bytes"));
    EXPECT_TRUE(watches("pcie.bytes"));
    EXPECT_TRUE(watches("cpme.granted_watts"));
}

//
// 4. Prometheus text exposition.
//

TEST(Prometheus, SanitizesMetricNames)
{
    EXPECT_EQ(obs::promSanitize("dtu2.cluster0.pg1.dma.bytes"),
              "dtu2_cluster0_pg1_dma_bytes");
    EXPECT_EQ(obs::promSanitize("0starts.with-digit"),
              "_0starts_with_digit");
    EXPECT_EQ(obs::promSanitize("already_legal:name"),
              "already_legal:name");
}

TEST(Prometheus, TextExportIsWellFormed)
{
    StatRegistry registry;
    Stat counter;
    counter.init(registry, "unit.count", "a counter");
    counter += 7.0;
    Histogram hist;
    hist.init(registry, "unit.lat", "a histogram", 0.0, 10.0, 5);
    hist.sample(1.0);
    hist.sample(9.0);
    hist.sample(25.0); // clamps into the last bucket -> +Inf only

    std::ostringstream os;
    obs::writePrometheusText(registry, os);
    std::string text = os.str();

    EXPECT_NE(text.find("# HELP dtusim_unit_count a counter"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE dtusim_unit_count gauge"),
              std::string::npos);
    EXPECT_NE(text.find("dtusim_unit_count 7"), std::string::npos);

    EXPECT_NE(text.find("# TYPE dtusim_unit_lat histogram"),
              std::string::npos);
    // Cumulative buckets: 1.0 lands in [0,2); 9.0 lives in the last
    // bucket [8,10) and 25.0 clamps into it, so both fold into +Inf.
    EXPECT_NE(text.find("dtusim_unit_lat_bucket{le=\"2\"} 1"),
              std::string::npos);
    EXPECT_NE(text.find("dtusim_unit_lat_bucket{le=\"8\"} 1"),
              std::string::npos);
    EXPECT_NE(text.find("dtusim_unit_lat_bucket{le=\"+Inf\"} 3"),
              std::string::npos);
    EXPECT_NE(text.find("dtusim_unit_lat_sum 35"), std::string::npos);
    EXPECT_NE(text.find("dtusim_unit_lat_count 3"), std::string::npos);

    // A real chip's registry exports without a parse-breaking name.
    Dtu chip(dtu2Config());
    std::ostringstream chip_os;
    obs::writePrometheusText(chip.stats(), chip_os, "");
    std::istringstream lines(chip_os.str());
    std::string line;
    std::size_t metrics = 0;
    while (std::getline(lines, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        ++metrics;
        // "name value" or "name{labels} value": one space, legal head.
        auto space = line.find(' ');
        ASSERT_NE(space, std::string::npos) << line;
        std::string head = line.substr(0, space);
        auto brace = head.find('{');
        std::string metric =
            brace == std::string::npos ? head : head.substr(0, brace);
        EXPECT_EQ(metric, obs::promSanitize(metric)) << line;
    }
    EXPECT_GT(metrics, 100u); // the chip registers hundreds of stats
}

//
// 5. The serving SLO monitor.
//

serve::RequestOutcome
completion(Tick completed_at, double latency_ms, bool missed)
{
    serve::RequestOutcome c;
    Tick latency = secondsToTicks(latency_ms * 1e-3);
    c.request.arrival = completed_at - latency;
    c.request.deadline = missed ? completed_at - 1 : completed_at + 1;
    c.completed = completed_at;
    c.firstToken = completed_at;
    c.dispatched = c.request.arrival;
    return c;
}

TEST(SloMonitor, WindowsPercentilesAndBurnRate)
{
    const Tick w = secondsToTicks(1e-3); // 1 ms windows
    obs::SloMonitor mon({.window = w, .sloTarget = 0.9});

    // First window: 10 completions, latencies 1..10 ms, 2 late.
    for (int i = 1; i <= 10; ++i) {
        mon.onTerminal(0, completion(
            static_cast<Tick>(i) * (w / 16), static_cast<double>(i),
            /*missed=*/i > 8));
    }
    serve::RequestOutcome drop;
    drop.state = serve::TerminalState::Shed;
    drop.completed = w / 2;
    mon.onTerminal(0, drop);

    // Nothing closes until simulated time passes the window end.
    mon.advanceTo(w - 1);
    EXPECT_TRUE(mon.windows().empty());
    mon.advanceTo(w);
    ASSERT_EQ(mon.windows().size(), 1u);

    const obs::SloWindow &win = mon.windows()[0];
    EXPECT_EQ(win.start, 0u);
    EXPECT_EQ(win.end, w);
    EXPECT_EQ(win.completed, 10u);
    EXPECT_EQ(win.missed, 2u);
    EXPECT_EQ(win.dropped, 1u);
    // Exact nearest-rank percentiles of {1..10}.
    EXPECT_DOUBLE_EQ(win.p50Ms, 5.0);
    EXPECT_DOUBLE_EQ(win.p95Ms, 10.0);
    EXPECT_DOUBLE_EQ(win.p99Ms, 10.0);
    EXPECT_DOUBLE_EQ(win.throughputPerSecond, 10.0 / 1e-3);
    EXPECT_DOUBLE_EQ(win.goodputPerSecond, 8.0 / 1e-3);
    // 3 bad of 11 over a 10% budget.
    EXPECT_DOUBLE_EQ(win.burnRate, 3.0 / 11.0 / 0.1);

    EXPECT_EQ(mon.totalCompleted(), 10u);
    EXPECT_EQ(mon.totalMissed(), 2u);
    EXPECT_EQ(mon.totalDropped(), 1u);
}

TEST(SloMonitor, EmptyWindowsAreSkippedAndBoundariesAreHalfOpen)
{
    const Tick w = 1000;
    obs::SloMonitor mon({.window = w, .sloTarget = 0.99});

    // An event at exactly t = w belongs to the second window.
    mon.onTerminal(0, completion(w, 0.001, false));
    // An event in the fourth window; windows 1 and 3 stay empty.
    mon.onTerminal(0, completion(3 * w + 1, 0.001, false));
    mon.endRun(4 * w);

    ASSERT_EQ(mon.windows().size(), 2u);
    EXPECT_EQ(mon.windows()[0].start, w);
    EXPECT_EQ(mon.windows()[0].end, 2 * w);
    EXPECT_EQ(mon.windows()[1].start, 3 * w);
}

TEST(SloMonitor, AlertsFireLiveThroughTheCallback)
{
    const Tick w = 1000;
    obs::SloMonitor mon({.window = w,
                         .sloTarget = 0.9,
                         .p99AlertMs = 5.0,
                         .burnRateAlert = 2.0});
    std::vector<obs::SloAlert> seen;
    mon.onAlert([&](const obs::SloAlert &a) { seen.push_back(a); });

    // p99 of 10 ms > 5 ms, and 1 miss of 2 over a 10% budget burns
    // at 5x > 2x: both alerts fire from one window.
    mon.onTerminal(0, completion(10, 10.0, /*missed=*/true));
    mon.onTerminal(0, completion(20, 1.0, false));
    mon.advanceTo(w);

    ASSERT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen[0].kind, "p99_latency");
    EXPECT_DOUBLE_EQ(seen[0].value, 10.0);
    EXPECT_DOUBLE_EQ(seen[0].threshold, 5.0);
    EXPECT_EQ(seen[0].at, w);
    EXPECT_EQ(seen[1].kind, "slo_burn_rate");
    EXPECT_DOUBLE_EQ(seen[1].value, 0.5 / 0.1);
    ASSERT_EQ(mon.alerts().size(), 2u);
}

TEST(SloMonitor, ExportsParse)
{
    const Tick w = 1000;
    obs::SloMonitor mon({.window = w, .sloTarget = 0.99});
    mon.onTerminal(0, completion(10, 2.0, false));
    mon.endRun(w);

    std::ostringstream js;
    mon.writeJson(js);
    JValue doc = parseJson(js.str());
    EXPECT_DOUBLE_EQ(doc.find("config")->num("window_ticks"),
                     static_cast<double>(w));
    EXPECT_DOUBLE_EQ(doc.num("total_completed"), 1.0);
    ASSERT_EQ(doc.find("windows")->items.size(), 1u);
    EXPECT_DOUBLE_EQ(doc.find("windows")->items[0].num("p50_ms"), 2.0);

    std::ostringstream csv;
    mon.writeCsv(csv);
    std::istringstream lines(csv.str());
    std::string line;
    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_EQ(line,
              "start_tick,end_tick,completed,missed,dropped,p50_ms,"
              "p95_ms,p99_ms,goodput_per_s,throughput_per_s,burn_rate");
    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_EQ(line.substr(0, 2), "0,");
}

TEST(Prometheus, LabelValuesEscapeBackslashQuoteAndNewline)
{
    EXPECT_EQ(obs::promLabelEscape("plain"), "plain");
    EXPECT_EQ(obs::promLabelEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(obs::promLabelEscape("say \"hi\""), "say \\\"hi\\\"");
    EXPECT_EQ(obs::promLabelEscape("two\nlines"), "two\\nlines");
    EXPECT_EQ(obs::promLabelEscape("\\\"\n"), "\\\\\\\"\\n");
    EXPECT_EQ(obs::promLabelEscape(""), "");
}

TEST(Prometheus, NonFiniteSamplesUseTextExpositionSpelling)
{
    // The text format spells non-finite values NaN / +Inf / -Inf —
    // not JSON's null (which scrapes as a parse error).
    EXPECT_EQ(obs::promSampleValue(1.5), "1.5");
    EXPECT_EQ(obs::promSampleValue(0.0), "0");
    EXPECT_EQ(obs::promSampleValue(std::nan("")), "NaN");
    EXPECT_EQ(
        obs::promSampleValue(std::numeric_limits<double>::infinity()),
        "+Inf");
    EXPECT_EQ(
        obs::promSampleValue(-std::numeric_limits<double>::infinity()),
        "-Inf");
}

TEST(Prometheus, FleetMetricSeriesEmitsPerDeviceFamilies)
{
    obs::FleetMetricSeries series;
    // Empty series: no families at all.
    std::ostringstream empty;
    series.writePrometheus(empty);
    EXPECT_EQ(empty.str(), "");

    obs::FleetMetricSample s;
    s.at = 500;
    s.devices.push_back({.device = 0,
                         .queueDepth = 3,
                         .inFlightBatches = 1,
                         .outstanding = 4,
                         .completed = 10,
                         .dropped = 2,
                         .retries = 1});
    s.devices.push_back({.device = 1, .queueDepth = 7});
    series.append(s);

    std::ostringstream os;
    series.writePrometheus(os);
    std::string text = os.str();
    EXPECT_NE(text.find("# TYPE dtusim_fleet_queue_depth gauge"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("dtusim_fleet_queue_depth{device=\"0\"} 3"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("dtusim_fleet_queue_depth{device=\"1\"} 7"),
              std::string::npos)
        << text;
    EXPECT_NE(
        text.find(
            "dtusim_fleet_dropped_requests_total{device=\"0\"} 2"),
        std::string::npos)
        << text;
    EXPECT_NE(
        text.find("dtusim_fleet_in_flight_batches{device=\"0\"} 1"),
        std::string::npos)
        << text;
}

TEST(SloMonitor, AlertsRearmPerOffendingWindow)
{
    // An alert is per-window, not one-shot: every offending window
    // re-fires it (the flight recorder latches; the monitor does not).
    const Tick w = 1000;
    obs::SloMonitor mon(
        {.window = w, .sloTarget = 0.9, .burnRateAlert = 2.0});
    std::vector<obs::SloAlert> seen;
    mon.onAlert([&](const obs::SloAlert &a) { seen.push_back(a); });

    mon.onTerminal(0, completion(10, 1.0, /*missed=*/true));
    mon.advanceTo(w);
    ASSERT_EQ(seen.size(), 1u);

    // A healthy window in between fires nothing...
    mon.onTerminal(0, completion(w + 10, 1.0, false));
    mon.advanceTo(2 * w);
    ASSERT_EQ(seen.size(), 1u);

    // ...and the next offending window alerts again.
    mon.onTerminal(0, completion(2 * w + 10, 1.0, /*missed=*/true));
    mon.advanceTo(3 * w);
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen[1].at, 3 * w);
}

TEST(SloMonitor, ListenersStackAfterThePrimaryCallback)
{
    const Tick w = 1000;
    obs::SloMonitor mon(
        {.window = w, .sloTarget = 0.9, .burnRateAlert = 2.0});
    std::vector<std::string> order;
    mon.onAlert([&](const obs::SloAlert &) {
        order.push_back("primary");
    });
    mon.addAlertListener([&](const obs::SloAlert &) {
        order.push_back("first");
    });
    mon.addAlertListener([&](const obs::SloAlert &a) {
        order.push_back("second:" + a.kind);
    });

    mon.onTerminal(0, completion(10, 1.0, /*missed=*/true));
    mon.advanceTo(w);
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], "primary");
    EXPECT_EQ(order[1], "first");
    EXPECT_EQ(order[2], "second:slo_burn_rate");
}

TEST(SloMonitor, ServingIntegrationSeesEveryRequest)
{
    Device device;
    serve::ServingConfig config;
    config.batching.maxBatch = 4;
    config.batching.maxQueueDelay = secondsToTicks(1e-3);
    Server server(device, config);
    obs::SloMonitor &mon = server.enableSloMonitor(
        {.window = secondsToTicks(20e-3), .sloTarget = 0.99});
    EXPECT_EQ(server.sloMonitor(), &mon);
    EXPECT_THROW(server.enableSloMonitor({}), FatalError);

    server.submit(serve::poissonTrace("resnet50", 400.0, 24,
                                      /*seed=*/1234,
                                      /*deadline=*/secondsToTicks(30e-3)));
    const serve::ServingReport &report = server.serve();

    // Live totals reconcile exactly with the post-hoc report.
    EXPECT_EQ(mon.totalCompleted(), report.requests);
    EXPECT_EQ(mon.totalMissed(), report.deadlineMisses);
    EXPECT_EQ(mon.totalCompleted() + mon.totalDropped(),
              report.submitted);
    ASSERT_FALSE(mon.windows().empty());
    std::uint64_t windowed = 0;
    for (const obs::SloWindow &win : mon.windows())
        windowed += win.total();
    EXPECT_EQ(windowed, report.submitted);
}

//
// 6. Satellites: StatSnapshot windowing helpers, JSON non-finite
//    handling.
//

TEST(StatSnapshot, DeltaAndRateHelpers)
{
    StatRegistry registry;
    Stat counter;
    counter.init(registry, "unit.x", "test");
    counter += 5.0;

    StatSnapshot first = registry.snapshot(100);
    counter += 10.0;
    StatSnapshot second = registry.snapshot(200);

    EXPECT_DOUBLE_EQ(first.value("unit.x"), 5.0);
    EXPECT_DOUBLE_EQ(second.value("unit.x"), 15.0);
    EXPECT_DOUBLE_EQ(second.value("unit.absent"), 0.0);
    EXPECT_DOUBLE_EQ(second.delta(first, "unit.x"), 10.0);
    // 10 counts over 100 ticks = 100 ps.
    EXPECT_DOUBLE_EQ(second.ratePerSecond(first, "unit.x"),
                     10.0 / ticksToSeconds(100));

    // A stat registered mid-window still yields its full count.
    Stat late;
    late.init(registry, "unit.late", "registered after first snapshot");
    late += 3.0;
    StatSnapshot third = registry.snapshot(300);
    EXPECT_DOUBLE_EQ(third.delta(first, "unit.late"), 3.0);

    // Unordered snapshots define no window: the rate is 0, not inf.
    EXPECT_DOUBLE_EQ(first.ratePerSecond(second, "unit.x"), 0.0);
    EXPECT_DOUBLE_EQ(second.ratePerSecond(second, "unit.x"), 0.0);
}

TEST(JsonWriter, NonFiniteDoublesRenderAsNull)
{
    EXPECT_EQ(jsonNumber(std::nan("")), "null");
    EXPECT_EQ(jsonNumber(std::numeric_limits<double>::infinity()),
              "null");
    EXPECT_EQ(jsonNumber(-std::numeric_limits<double>::infinity()),
              "null");
    EXPECT_EQ(jsonNumber(1.5), "1.5");

    // Through the writer: the document stays parseable and the
    // non-finite field reads back as null.
    std::ostringstream ss;
    {
        JsonWriter json(ss);
        json.beginObject()
            .field("good", 2.5)
            .field("bad", std::nan(""))
            .field("worse", std::numeric_limits<double>::infinity())
            .endObject();
    }
    JValue doc = parseJson(ss.str());
    EXPECT_DOUBLE_EQ(doc.num("good"), 2.5);
    ASSERT_NE(doc.find("bad"), nullptr);
    EXPECT_EQ(doc.find("bad")->type, JValue::Type::Null);
    EXPECT_EQ(doc.find("worse")->type, JValue::Type::Null);
}

//
// 7. Golden-JSON regression for the bottleneck report: a fixed tiny
//    run serialized field-by-field against the checked-in file.
//    Regenerate after an intentional timing-model change with
//    DTU_UPDATE_GOLDEN=1 (same flow as tests/golden/serving_report).
//

std::string
bottleneckGoldenPath()
{
    return std::string(DTU_TESTS_DIR) + "/golden/bottleneck_report.json";
}

std::string
renderBottleneckReport()
{
    Dtu chip(dtu2Config());
    ExecResult result = runTiny(chip);
    std::vector<unsigned> groups;
    for (unsigned g = 0; g < chip.config().totalGroups(); ++g)
        groups.push_back(g);
    obs::BottleneckReport report = obs::buildBottleneckReport(
        result, chip.config(), DType::FP16, groups);
    std::ostringstream os;
    report.writeJson(os);
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

TEST(GoldenBottleneck, MatchesCheckedInJson)
{
    std::string rendered = renderBottleneckReport();

    if (std::getenv("DTU_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(bottleneckGoldenPath());
        ASSERT_TRUE(out) << "cannot write " << bottleneckGoldenPath();
        out << rendered;
        GTEST_SKIP() << "regenerated " << bottleneckGoldenPath();
    }

    std::ifstream in(bottleneckGoldenPath());
    ASSERT_TRUE(in) << "missing " << bottleneckGoldenPath()
                    << "; regenerate with DTU_UPDATE_GOLDEN=1";
    std::stringstream golden;
    golden << in.rdbuf();

    std::vector<std::string> want = splitLines(golden.str());
    std::vector<std::string> got = splitLines(rendered);
    // Field-by-field: the writer emits one field per line, so a
    // mismatch names the exact field (and line) that moved.
    std::size_t common = std::min(want.size(), got.size());
    for (std::size_t i = 0; i < common; ++i) {
        EXPECT_EQ(got[i], want[i])
            << "bottleneck report diverged from golden at line " << i + 1
            << "; if intentional, regenerate with DTU_UPDATE_GOLDEN=1";
    }
    EXPECT_EQ(got.size(), want.size());
}

TEST(GoldenBottleneck, RunIsReproducibleWithinProcess)
{
    EXPECT_EQ(renderBottleneckReport(), renderBottleneckReport());
}

} // namespace
