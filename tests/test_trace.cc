/**
 * @file
 * Tests for the observability stack: the timeline Tracer and its
 * Chrome trace-event export, the JSON stat/result serializers, the
 * histogram clamping semantics, and the logging prefixes.
 *
 * The trace tests parse the emitted JSON with the small recursive
 * descent parser in json_test_util.hh, so a syntactically broken
 * export (the kind Perfetto would reject) fails loudly here.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "compiler/lowering.hh"
#include "graph/importer.hh"
#include "json_test_util.hh"
#include "runtime/profiler.hh"
#include "runtime/report.hh"
#include "sim/json.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"
#include "sim/tracer.hh"

namespace
{

using namespace dtu;
using dtu::test::JValue;
using dtu::test::parseJson;

//
// Fixture: a small imported network executed with tracing on.
//

const char *kTinyNet = R"(
graph tiny
input x 1x16x32x32
conv2d c1 x k=3 p=1 oc=32
relu a1 c1
conv2d c2 a1 k=3 p=1 oc=32
add s c2,a1
conv2d tail s k=3 p=1 oc=16
output tail
)";

struct TracedRun
{
    Dtu chip{dtu2Config()};
    ExecutionPlan plan;
    ExecResult result;

    explicit TracedRun(ExecOptions options = {.powerManagement = true,
                                              .trace = true,
                                              .timeline = true})
    {
        Graph graph = importGraphText(kTinyNet);
        plan = compile(graph, chip.config(), DType::FP16,
                       chip.config().totalGroups());
        std::vector<unsigned> groups;
        for (unsigned g = 0; g < chip.config().totalGroups(); ++g)
            groups.push_back(g);
        Executor executor(chip, groups, options);
        result = executor.run(plan);
    }

    JValue
    exportedTrace()
    {
        std::ostringstream ss;
        chip.tracer().exportChromeTrace(ss);
        return parseJson(ss.str());
    }
};

TEST(Tracer, DisabledByDefault)
{
    TracedRun run({.powerManagement = true, .trace = true});
    EXPECT_FALSE(run.chip.tracer().enabled());
    EXPECT_EQ(run.chip.tracer().eventCount(), 0u);
}

TEST(Tracer, TrackResolutionIsStable)
{
    Tracer tracer;
    TrackId a = tracer.track("dtu2.cluster0.pg0", "dma");
    TrackId b = tracer.trackFor("dtu2.cluster0.pg0.dma");
    EXPECT_EQ(a.pid, b.pid);
    EXPECT_EQ(a.tid, b.tid);
    TrackId c = tracer.trackFor("flat");
    EXPECT_NE(c.pid, a.pid);
    EXPECT_EQ(tracer.trackCount(), 2u);
}

TEST(Tracer, NegativeDurationClampsToZero)
{
    Tracer tracer;
    tracer.setEnabled(true);
    tracer.span(tracer.track("p", "t"), "backwards", "test", 100, 50);
    std::ostringstream ss;
    tracer.exportChromeTrace(ss);
    JValue doc = parseJson(ss.str());
    const JValue *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    for (const JValue &e : events->items) {
        if (e.str("ph") == "X") {
            EXPECT_DOUBLE_EQ(e.num("dur"), 0.0);
        }
    }
}

/** Record a fixed mix of events that exercises the store's corners. */
void
recordCornerCases(Tracer &tracer, const std::string &long_name)
{
    TrackId t = tracer.track("proc", "thr");
    // Repeated names and categories, and one long name.
    for (int i = 0; i < 3; ++i)
        tracer.span(t, "op", "compute", 10 * i, 10 * i + 5,
                    {{"i", static_cast<double>(i)}});
    tracer.span(t, long_name, "compute", 40, 45);
    // Empty categories fall back per kind.
    tracer.span(t, "bare span", "", 50, 55);
    tracer.instant(t, "bare instant", "", 60);
    tracer.flow(t, "bare flow", "", 50, 77, FlowPhase::Start);
    // An empty series key falls back to "value".
    tracer.counter("ctr", "", 70, 1.5);
    tracer.counter("ctr", "GHz", 80, 2.5);
    // Args keep their order, including a repeated key.
    tracer.instant(t, "ordered", "misc", 90,
                   {{"z", 1.0}, {"a", 2.0}, {"m", 3.0}, {"a", 4.0}});
}

TEST(Tracer, InternedStoreKeepsNamesFallbacksAndArgOrder)
{
    const std::string long_name(300, 'x');
    Tracer tracer;
    tracer.setEnabled(true);
    recordCornerCases(tracer, long_name);
    EXPECT_EQ(tracer.eventCount(), 10u);
    std::ostringstream first;
    tracer.exportChromeTrace(first);

    JValue doc = parseJson(first.str());
    const JValue *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    std::map<std::string, const JValue *> by_name;
    std::vector<const JValue *> counters;
    int ops = 0;
    for (const JValue &e : events->items) {
        if (e.str("ph") == "M")
            continue;
        if (e.str("ph") == "C") {
            counters.push_back(&e);
            continue;
        }
        if (e.str("name") == "op") {
            const JValue *args = e.find("args");
            ASSERT_NE(args, nullptr);
            EXPECT_EQ(args->num("i"), static_cast<double>(ops++));
            EXPECT_EQ(e.str("cat"), "compute");
        }
        by_name[e.str("name")] = &e;
    }
    EXPECT_EQ(ops, 3);
    ASSERT_TRUE(by_name.count(long_name));
    EXPECT_EQ(by_name.at(long_name)->str("cat"), "compute");
    EXPECT_EQ(by_name.at("bare span")->str("cat"), "span");
    EXPECT_EQ(by_name.at("bare instant")->str("cat"), "event");
    EXPECT_EQ(by_name.at("bare flow")->str("cat"), "flow");
    EXPECT_EQ(by_name.at("bare flow")->num("id"), 77.0);

    ASSERT_EQ(counters.size(), 2u);
    for (const JValue *c : counters)
        EXPECT_EQ(c->str("name"), "ctr");
    const JValue *unkeyed = counters[0]->find("args");
    ASSERT_NE(unkeyed, nullptr);
    ASSERT_EQ(unkeyed->members.size(), 1u);
    EXPECT_EQ(unkeyed->members[0].first, "value");
    EXPECT_EQ(unkeyed->members[0].second.number, 1.5);
    EXPECT_EQ(counters[1]->find("args")->members[0].first, "GHz");

    const JValue *ordered = by_name.at("ordered")->find("args");
    ASSERT_NE(ordered, nullptr);
    std::vector<std::pair<std::string, double>> got;
    for (const auto &[k, v] : ordered->members)
        got.emplace_back(k, v.number);
    EXPECT_EQ(got, (std::vector<std::pair<std::string, double>>{
                       {"z", 1.0}, {"a", 2.0}, {"m", 3.0}, {"a", 4.0}}));

    // clear() drops the events but keeps tracks; recording the same
    // events again exports the same bytes.
    tracer.clear();
    EXPECT_EQ(tracer.eventCount(), 0u);
    recordCornerCases(tracer, long_name);
    std::ostringstream second;
    tracer.exportChromeTrace(second);
    EXPECT_EQ(second.str(), first.str());
}

TEST(Tracer, ChromeTraceHasAllTrackTypes)
{
    TracedRun run;
    ASSERT_TRUE(run.chip.tracer().enabled());
    ASSERT_GT(run.chip.tracer().eventCount(), 0u);

    JValue doc = run.exportedTrace();
    ASSERT_EQ(doc.type, JValue::Type::Object);
    EXPECT_EQ(doc.str("displayTimeUnit"), "ns");
    const JValue *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->type, JValue::Type::Array);
    ASSERT_FALSE(events->items.empty());

    // Resolve track names from the metadata records.
    std::vector<std::pair<double, std::string>> process_names;
    std::vector<std::pair<std::pair<double, double>, std::string>>
        thread_names;
    for (const JValue &e : events->items) {
        if (e.str("ph") != "M")
            continue;
        if (e.str("name") == "process_name") {
            process_names.emplace_back(
                e.num("pid"), e.find("args")->str("name"));
        } else if (e.str("name") == "thread_name") {
            thread_names.push_back(
                {{e.num("pid"), e.num("tid")},
                 e.find("args")->str("name")});
        }
    }
    auto process_of = [&](double pid) {
        for (const auto &[p, name] : process_names)
            if (p == pid)
                return name;
        return std::string();
    };
    auto thread_of = [&](double pid, double tid) {
        for (const auto &[key, name] : thread_names)
            if (key.first == pid && key.second == tid)
                return name;
        return std::string();
    };

    // The acceptance bar: operator spans, DMA spans, and the
    // frequency + power counter tracks must all be present.
    std::size_t op_spans = 0, dma_spans = 0, freq_samples = 0,
                power_samples = 0;
    std::vector<std::pair<double, double>> op_intervals;
    for (const JValue &e : events->items) {
        std::string ph = e.str("ph");
        if (ph == "X") {
            std::string process = process_of(e.num("pid"));
            std::string thread = thread_of(e.num("pid"), e.num("tid"));
            EXPECT_FALSE(process.empty())
                << "span on unnamed pid " << e.num("pid");
            if (process == "runtime" && thread == "operators") {
                ++op_spans;
                op_intervals.emplace_back(e.num("ts"),
                                          e.num("ts") + e.num("dur"));
            }
            if (thread == "dma")
                ++dma_spans;
        } else if (ph == "C") {
            std::string name = e.str("name");
            const JValue *args = e.find("args");
            ASSERT_NE(args, nullptr);
            if (name == "core_frequency_ghz") {
                ++freq_samples;
                EXPECT_GT(args->num("GHz"), 0.1);
                EXPECT_LT(args->num("GHz"), 10.0);
            } else if (name == "power_watts") {
                ++power_samples;
                EXPECT_GT(args->num("W"), 0.0);
            }
        }
    }
    EXPECT_EQ(op_spans, run.plan.ops.size());
    EXPECT_GT(dma_spans, 0u);
    EXPECT_EQ(freq_samples, run.plan.ops.size());
    EXPECT_EQ(power_samples, run.plan.ops.size());

    // Phase spans nest inside some operator span. Weight streaming is
    // exempt: prefetch for operator N+1 runs during operator N.
    double slack = 1e-6; // us; double rounding of tick conversion
    for (const JValue &e : events->items) {
        std::string cat = e.str("cat");
        if (e.str("ph") != "X" ||
            (cat != "kernel-load" && cat != "activation-dma" &&
             cat != "compute"))
            continue;
        double ts = e.num("ts");
        double end = ts + e.num("dur");
        bool contained = false;
        for (const auto &[lo, hi] : op_intervals)
            contained |= ts >= lo - slack && end <= hi + slack;
        EXPECT_TRUE(contained)
            << cat << " span '" << e.str("name") << "' [" << ts << ", "
            << end << "] outside every operator span";
    }

    // Monotonic timestamps: the exporter sorts by start tick.
    double prev = -1.0;
    for (const JValue &e : events->items) {
        if (!e.has("ts"))
            continue;
        EXPECT_GE(e.num("ts"), prev);
        prev = e.num("ts");
    }
}

TEST(Tracer, CountersAndInstantsFromPowerManagement)
{
    TracedRun run;
    JValue doc = run.exportedTrace();
    const JValue *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    // The CPME reserve-pool counter and the throttle/bandwidth
    // counters ride along with frequency and power: at least four
    // distinct counter tracks in total.
    std::vector<std::string> counter_names;
    for (const JValue &e : events->items) {
        if (e.str("ph") != "C")
            continue;
        std::string name = e.str("name");
        bool seen = false;
        for (const std::string &n : counter_names)
            seen |= n == name;
        if (!seen)
            counter_names.push_back(name);
    }
    EXPECT_GE(counter_names.size(), 4u) << "expected frequency, power, "
                                           "bandwidth, and throttle "
                                           "counter tracks";
}

//
// JSON serialization of results, profiles, tables, and stats.
//

TEST(ExecResultJson, RoundTripsScalarsAndOperators)
{
    TracedRun run;
    std::ostringstream ss;
    writeJson(run.result, ss);
    JValue doc = parseJson(ss.str());
    EXPECT_DOUBLE_EQ(doc.num("latency_ticks"),
                     static_cast<double>(run.result.latency));
    EXPECT_DOUBLE_EQ(doc.num("joules"), run.result.joules);
    EXPECT_DOUBLE_EQ(doc.num("watts"), run.result.watts);
    const JValue *ops = doc.find("operators");
    ASSERT_NE(ops, nullptr);
    ASSERT_EQ(ops->items.size(), run.result.trace.size());
    for (std::size_t i = 0; i < ops->items.size(); ++i) {
        EXPECT_EQ(ops->items[i].str("name"), run.result.trace[i].name);
        EXPECT_DOUBLE_EQ(
            ops->items[i].num("start_ticks"),
            static_cast<double>(run.result.trace[i].start));
    }
}

TEST(ProfileJson, Parses)
{
    TracedRun run;
    Profile profile(run.result);
    std::ostringstream ss;
    profile.writeJson(ss);
    JValue doc = parseJson(ss.str());
    EXPECT_DOUBLE_EQ(doc.num("latency_ticks"),
                     static_cast<double>(run.result.latency));
    ASSERT_NE(doc.find("by_kind"), nullptr);
    ASSERT_NE(doc.find("trace"), nullptr);
    EXPECT_EQ(doc.find("trace")->items.size(), run.result.trace.size());
}

TEST(ReportTableJson, RoundTripsCells)
{
    ReportTable table({"model", "ms", "x"});
    table.addRow("resnet", {1.25, 2.5});
    table.addRow("bert", {3.0, 0.5});
    std::ostringstream ss;
    table.writeJson(ss);
    JValue doc = parseJson(ss.str());
    const JValue *columns = doc.find("columns");
    ASSERT_NE(columns, nullptr);
    ASSERT_EQ(columns->items.size(), 3u);
    EXPECT_EQ(columns->items[0].text, "model");
    const JValue *rows = doc.find("rows");
    ASSERT_NE(rows, nullptr);
    ASSERT_EQ(rows->items.size(), 2u);
    EXPECT_EQ(rows->items[0].str("model"), "resnet");
    EXPECT_DOUBLE_EQ(rows->items[0].num("ms"), 1.25);
    EXPECT_DOUBLE_EQ(rows->items[1].num("x"), 0.5);
}

TEST(StatsJson, DumpRoundTripsEveryScalarAndBucket)
{
    TracedRun run;
    const StatRegistry &stats = run.chip.stats();
    std::ostringstream ss;
    stats.dumpJson(ss);
    JValue doc = parseJson(ss.str());

    const JValue *scalars = doc.find("scalars");
    ASSERT_NE(scalars, nullptr);
    std::vector<std::string> names = stats.scalarNames();
    ASSERT_EQ(scalars->members.size(), names.size());
    for (const std::string &name : names) {
        const JValue *entry = scalars->find(name);
        ASSERT_NE(entry, nullptr) << name;
        auto value = stats.tryLookup(name);
        ASSERT_TRUE(value.has_value()) << name;
        EXPECT_DOUBLE_EQ(entry->num("value"), *value) << name;
    }

    const JValue *histograms = doc.find("histograms");
    ASSERT_NE(histograms, nullptr);
    std::vector<std::string> hist_names = stats.histogramNames();
    ASSERT_EQ(histograms->members.size(), hist_names.size());
    for (const std::string &name : hist_names) {
        const JValue *entry = histograms->find(name);
        ASSERT_NE(entry, nullptr) << name;
        const Histogram *hist = stats.histogram(name);
        ASSERT_NE(hist, nullptr) << name;
        EXPECT_DOUBLE_EQ(entry->num("count"),
                         static_cast<double>(hist->count()));
        EXPECT_DOUBLE_EQ(entry->num("sum"), hist->sum());
        const JValue *buckets = entry->find("buckets");
        ASSERT_NE(buckets, nullptr) << name;
        ASSERT_EQ(buckets->items.size(), hist->buckets().size());
        for (std::size_t b = 0; b < buckets->items.size(); ++b) {
            EXPECT_DOUBLE_EQ(
                buckets->items[b].number,
                static_cast<double>(hist->buckets()[b]))
                << name << " bucket " << b;
        }
    }
}

TEST(StatsJson, StandaloneRegistryWithHistogram)
{
    StatRegistry registry;
    Stat counter;
    counter.init(registry, "unit.count", "a counter");
    counter += 7.0;
    Histogram hist;
    hist.init(registry, "unit.lat", "a histogram", 0.0, 10.0, 5);
    hist.sample(1.0);
    hist.sample(9.0);
    hist.sample(25.0); // clamps into the last bucket

    std::ostringstream ss;
    registry.dumpJson(ss);
    JValue doc = parseJson(ss.str());
    EXPECT_DOUBLE_EQ(
        doc.find("scalars")->find("unit.count")->num("value"), 7.0);
    const JValue *h = doc.find("histograms")->find("unit.lat");
    ASSERT_NE(h, nullptr);
    EXPECT_DOUBLE_EQ(h->num("count"), 3.0);
    EXPECT_DOUBLE_EQ(h->num("max"), 25.0);
    ASSERT_EQ(h->find("buckets")->items.size(), 5u);
    EXPECT_DOUBLE_EQ(h->find("buckets")->items[4].number, 2.0);
}

//
// Histogram clamping + registry lookup satellites.
//

TEST(Histogram, ClampsOutOfRangeIntoEdgeBuckets)
{
    StatRegistry registry;
    Histogram hist;
    hist.init(registry, "h", "test", 0.0, 10.0, 5);

    hist.sample(-5.0); // below lo: first bucket
    EXPECT_EQ(hist.buckets()[0], 1u);
    hist.sample(100.0); // above hi: last bucket
    EXPECT_EQ(hist.buckets()[4], 1u);
    hist.sample(10.0); // == hi: last bucket, not one past it
    EXPECT_EQ(hist.buckets()[4], 2u);
    hist.sample(5.0); // in range
    EXPECT_EQ(hist.buckets()[2], 1u);

    // min/max/count/sum see the raw values, not the clamped ones.
    EXPECT_EQ(hist.count(), 4u);
    EXPECT_DOUBLE_EQ(hist.min(), -5.0);
    EXPECT_DOUBLE_EQ(hist.max(), 100.0);
    EXPECT_DOUBLE_EQ(hist.sum(), 110.0);

    // NaN carries no position: dropped entirely.
    hist.sample(std::nan(""));
    EXPECT_EQ(hist.count(), 4u);
}

TEST(StatRegistry, TryLookupDistinguishesMissingFromZero)
{
    StatRegistry registry;
    Stat zero;
    zero.init(registry, "present.zero", "zero-valued");

    EXPECT_FALSE(registry.tryLookup("no.such.stat").has_value());
    ASSERT_TRUE(registry.tryLookup("present.zero").has_value());
    EXPECT_DOUBLE_EQ(*registry.tryLookup("present.zero"), 0.0);
    // lookup() keeps the legacy absent-reads-zero contract.
    EXPECT_DOUBLE_EQ(registry.lookup("no.such.stat"), 0.0);
}

//
// Logging satellites: severity and device tags.
//

TEST(Logging, PrefixCarriesSeverity)
{
    bool was_enabled = loggingEnabled();
    setLoggingEnabled(true);
    if (!loggingEnabled()) {
        // DTU_LOG=0 forces logging off; nothing to observe here.
        setLoggingEnabled(was_enabled);
        GTEST_SKIP() << "DTU_LOG overrides setLoggingEnabled";
    }
    testing::internal::CaptureStderr();
    warn("something odd");
    std::string err = testing::internal::GetCapturedStderr();
    setLoggingEnabled(was_enabled);
    EXPECT_NE(err.find("[WARN] something odd"), std::string::npos) << err;
}

TEST(Logging, WritesNothingWhenDisabled)
{
    if (loggingEnabled())
        GTEST_SKIP() << "DTU_LOG forces logging on";
    testing::internal::CaptureStderr();
    warn("invisible");
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
}

TEST(Logging, DeviceContextPrefixesWarnings)
{
    bool was_enabled = loggingEnabled();
    setLoggingEnabled(true);
    if (!loggingEnabled()) {
        setLoggingEnabled(was_enabled);
        GTEST_SKIP() << "DTU_LOG overrides setLoggingEnabled";
    }
    testing::internal::CaptureStderr();
    {
        ScopedLogDevice dev(3);
        EXPECT_EQ(logDevice(), 3);
        warn("queue backlog");
        {
            // Nesting restores the outer device on exit.
            ScopedLogDevice inner(7);
            warn("inner");
        }
        EXPECT_EQ(logDevice(), 3);
    }
    EXPECT_EQ(logDevice(), -1);
    warn("no device");
    std::string err = testing::internal::GetCapturedStderr();
    setLoggingEnabled(was_enabled);
    EXPECT_NE(err.find("[WARN][dev3] queue backlog"), std::string::npos)
        << err;
    EXPECT_NE(err.find("[WARN][dev7] inner"), std::string::npos) << err;
    EXPECT_NE(err.find("[WARN] no device"), std::string::npos) << err;
}

//
// Flow events and the merged multi-tracer export.
//

TEST(Tracer, FlowEventsExportWithSharedIdAndBindingPoint)
{
    Tracer tracer;
    tracer.setEnabled(true);
    TrackId a = tracer.track("p1", "t1");
    TrackId b = tracer.track("p2", "t2");
    tracer.span(a, "source", "test", 0, 100);
    tracer.span(b, "sink", "test", 200, 300);
    tracer.flow(a, "hop", "test", 50, 77, FlowPhase::Start);
    tracer.flow(b, "hop", "test", 250, 77, FlowPhase::End);

    std::ostringstream ss;
    tracer.exportChromeTrace(ss);
    JValue doc = parseJson(ss.str());
    const JValue *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);

    const JValue *start = nullptr, *end = nullptr;
    for (const JValue &e : events->items) {
        if (e.str("ph") == "s")
            start = &e;
        if (e.str("ph") == "f")
            end = &e;
    }
    ASSERT_NE(start, nullptr);
    ASSERT_NE(end, nullptr);
    EXPECT_EQ(start->num("id"), 77.0);
    EXPECT_EQ(end->num("id"), 77.0);
    // The terminating event binds to the enclosing slice; the start
    // must not carry the binding-point field.
    EXPECT_FALSE(start->has("bp"));
    EXPECT_EQ(end->str("bp"), "e");
    // Flow timestamps land inside their spans.
    EXPECT_GE(start->num("ts"), 0.0);
    EXPECT_LE(end->num("ts"), 300.0 / 1e6);
}

TEST(Tracer, DisabledTracerRecordsNoFlows)
{
    Tracer tracer;
    TrackId a = tracer.track("p", "t");
    tracer.flow(a, "hop", "test", 10, 1, FlowPhase::Start);
    EXPECT_EQ(tracer.eventCount(), 0u);
}

TEST(Tracer, MergedExportKeepsPartsOnDisjointPids)
{
    // Regression: two devices' tracers each number their pids from 1,
    // so a naive concatenation collides every device's tracks onto
    // the same lanes. The merged export must remap them disjointly.
    Tracer dev0, dev1;
    dev0.setEnabled(true);
    dev1.setEnabled(true);
    dev0.span(dev0.track("runtime", "operators"), "op_a", "test", 0,
              100);
    dev0.counter("power_watts", "W", 50, 10.0);
    dev1.span(dev1.track("runtime", "operators"), "op_b", "test", 0,
              100);
    dev1.counter("power_watts", "W", 50, 20.0);

    std::ostringstream ss;
    Tracer::exportMergedChromeTrace({{"dev0", &dev0}, {"dev1", &dev1}},
                                    ss);
    JValue doc = parseJson(ss.str());
    const JValue *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);

    std::map<std::string, double> pid_of;
    for (const JValue &e : events->items) {
        if (e.str("ph") == "M" && e.str("name") == "process_name")
            pid_of[e.find("args")->str("name")] = e.num("pid");
    }
    // Both parts present, label-prefixed, on different pids.
    ASSERT_TRUE(pid_of.count("dev0.runtime"));
    ASSERT_TRUE(pid_of.count("dev1.runtime"));
    ASSERT_TRUE(pid_of.count("dev0.power_watts"));
    ASSERT_TRUE(pid_of.count("dev1.power_watts"));
    std::set<double> pids;
    for (const auto &[name, pid] : pid_of)
        pids.insert(pid);
    EXPECT_EQ(pids.size(), pid_of.size())
        << "merged parts share a pid";

    // Every event's pid belongs to exactly one declared process.
    std::set<double> declared = pids;
    for (const JValue &e : events->items) {
        if (e.str("ph") == "X" || e.str("ph") == "C")
            EXPECT_TRUE(declared.count(e.num("pid")))
                << e.str("name") << " on undeclared pid "
                << e.num("pid");
    }
}

TEST(Tracer, ScopedEnableRestoresPriorState)
{
    Tracer tracer;
    ASSERT_FALSE(tracer.enabled());
    {
        ScopedTracerEnable on(tracer);
        EXPECT_TRUE(tracer.enabled());
        {
            ScopedTracerEnable noop(tracer, false);
            EXPECT_TRUE(tracer.enabled()); // does not force off
        }
        EXPECT_TRUE(tracer.enabled());
    }
    EXPECT_FALSE(tracer.enabled());

    tracer.setEnabled(true);
    {
        ScopedTracerEnable on(tracer);
        EXPECT_TRUE(tracer.enabled());
    }
    EXPECT_TRUE(tracer.enabled()); // already-on stays on
}

} // namespace
