/**
 * @file
 * Unit tests for the event-driven simulation kernel: event queue
 * ordering, clock domains with DVFS-style frequency changes, and the
 * statistics registry.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <optional>
#include <sstream>

#include "compiler/lowering.hh"
#include "models/model_zoo.hh"
#include "obs/prometheus.hh"
#include "runtime/executor.hh"
#include "sim/clocked.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/stats.hh"
#include "soc/dtu.hh"

namespace
{

using namespace dtu;

TEST(EventQueue, RunsEventsInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    Event a([&] { order.push_back(1); }, "a");
    Event b([&] { order.push_back(2); }, "b");
    Event c([&] { order.push_back(3); }, "c");
    q.schedule(c, 30);
    q.schedule(a, 10);
    q.schedule(b, 20);
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueue, SameTickIsFifo)
{
    EventQueue q;
    std::vector<int> order;
    Event a([&] { order.push_back(1); }, "a");
    Event b([&] { order.push_back(2); }, "b");
    q.schedule(a, 5);
    q.schedule(b, 5);
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, RescheduleMovesEvent)
{
    EventQueue q;
    int fired_at = -1;
    Event a([&] { fired_at = static_cast<int>(q.now()); }, "a");
    q.schedule(a, 10);
    q.reschedule(a, 50);
    q.run();
    EXPECT_EQ(fired_at, 50);
    EXPECT_EQ(q.executed(), 1u);
}

TEST(EventQueue, DescheduleCancels)
{
    EventQueue q;
    bool fired = false;
    Event a([&] { fired = true; }, "a");
    q.schedule(a, 10);
    q.deschedule(a);
    q.run();
    EXPECT_FALSE(fired);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    EventQueue q;
    int count = 0;
    Event *ptr = nullptr;
    Event tick(
        [&] {
            if (++count < 5)
                q.scheduleIn(*ptr, 100);
        },
        "tick");
    ptr = &tick;
    q.schedule(tick, 0);
    q.run();
    EXPECT_EQ(count, 5);
    EXPECT_EQ(q.now(), 400u);
}

TEST(EventQueue, RunRespectsLimit)
{
    EventQueue q;
    int count = 0;
    Event a([&] { ++count; }, "a");
    Event b([&] { ++count; }, "b");
    q.schedule(a, 10);
    q.schedule(b, 1000);
    q.run(500);
    EXPECT_EQ(count, 1);
    EXPECT_FALSE(q.empty());
    q.run();
    EXPECT_EQ(count, 2);
}

TEST(EventQueue, SchedulingInPastPanics)
{
    EventQueue q;
    Event a([] {}, "a");
    Event b([] {}, "b");
    q.schedule(a, 100);
    q.run();
    EXPECT_THROW(q.schedule(b, 50), PanicError);
}

TEST(EventQueue, DoubleSchedulePanics)
{
    EventQueue q;
    Event a([] {}, "a");
    q.schedule(a, 10);
    EXPECT_THROW(q.schedule(a, 20), PanicError);
}

TEST(ClockDomain, PeriodMatchesFrequency)
{
    EventQueue q;
    ClockDomain clk(q, 1.0e9); // 1 GHz -> 1000 ps
    EXPECT_EQ(clk.period(), 1000u);
    EXPECT_DOUBLE_EQ(clk.frequency(), 1.0e9);
}

TEST(ClockDomain, CycleCountingAt1GHz)
{
    EventQueue q;
    ClockDomain clk(q, 1.0e9);
    EXPECT_EQ(clk.cyclesAt(0), 0u);
    EXPECT_EQ(clk.cyclesAt(999), 0u);
    EXPECT_EQ(clk.cyclesAt(1000), 1u);
    EXPECT_EQ(clk.cyclesAt(123456), 123u);
}

TEST(ClockDomain, FrequencyChangeKeepsCyclesMonotonic)
{
    EventQueue q;
    ClockDomain clk(q, 1.0e9);
    q.advanceTo(10'000); // 10 cycles at 1 GHz
    EXPECT_EQ(clk.curCycle(), 10u);
    clk.setFrequency(1.4e9); // DVFS step up
    Cycles at_switch = clk.curCycle();
    EXPECT_EQ(at_switch, 10u);
    q.advanceTo(10'000 + 10 * clk.period());
    EXPECT_EQ(clk.curCycle(), at_switch + 10);
}

TEST(ClockDomain, TicksForScalesWithFrequency)
{
    EventQueue q;
    ClockDomain slow(q, 1.0e9);
    ClockDomain fast(q, 2.0e9);
    EXPECT_EQ(slow.ticksFor(100), 2 * fast.ticksFor(100));
}

TEST(ClockDomain, NextEdgeAligns)
{
    EventQueue q;
    ClockDomain clk(q, 1.0e9);
    EXPECT_EQ(clk.nextEdge(), 0u);
    q.advanceTo(1500);
    EXPECT_EQ(clk.nextEdge(), 2000u);
    q.advanceTo(2000);
    EXPECT_EQ(clk.nextEdge(), 2000u);
}

TEST(ClockDomain, RejectsNonPositiveFrequency)
{
    EventQueue q;
    EXPECT_THROW(ClockDomain(q, 0.0), FatalError);
    EXPECT_THROW(ClockDomain(q, -1.0), FatalError);
}

TEST(Stats, ScalarAccumulationAndLookup)
{
    StatRegistry reg;
    Stat s;
    s.init(reg, "core0.vmm_ops", "VMM operations");
    s += 5;
    ++s;
    EXPECT_DOUBLE_EQ(reg.lookup("core0.vmm_ops"), 6.0);
    EXPECT_TRUE(reg.has("core0.vmm_ops"));
    EXPECT_FALSE(reg.has("core0.missing"));
    EXPECT_DOUBLE_EQ(reg.lookup("core0.missing"), 0.0);
}

TEST(Stats, SumMatchingPrefix)
{
    StatRegistry reg;
    Stat a, b, c;
    a.init(reg, "pg0.dma.bytes", "");
    b.init(reg, "pg1.dma.bytes", "");
    c.init(reg, "pg1.core.cycles", "");
    a += 100;
    b += 50;
    c += 7;
    EXPECT_DOUBLE_EQ(reg.sumMatching("pg1."), 57.0);
    EXPECT_DOUBLE_EQ(reg.sumMatching("pg"), 157.0);
}

TEST(Stats, ResetAllZeroes)
{
    StatRegistry reg;
    Stat a;
    a.init(reg, "x", "");
    a += 42;
    reg.resetAll();
    EXPECT_DOUBLE_EQ(reg.lookup("x"), 0.0);
}

TEST(Stats, DuplicateNamePanics)
{
    StatRegistry reg;
    Stat a, b;
    a.init(reg, "dup", "");
    EXPECT_THROW(b.init(reg, "dup", ""), PanicError);
}

TEST(Stats, HistogramBasics)
{
    StatRegistry reg;
    Histogram h;
    h.init(reg, "lat", "latency", 0.0, 100.0, 10);
    h.sample(5.0);
    h.sample(15.0);
    h.sample(95.0);
    h.sample(200.0); // clamps to last bucket
    EXPECT_EQ(h.count(), 4u);
    EXPECT_DOUBLE_EQ(h.min(), 5.0);
    EXPECT_DOUBLE_EQ(h.max(), 200.0);
    EXPECT_EQ(h.buckets()[0], 1u);
    EXPECT_EQ(h.buckets()[1], 1u);
    EXPECT_EQ(h.buckets()[9], 2u);
}

TEST(Stats, HistogramPercentiles)
{
    Histogram h;
    h.init(0.0, 100.0, 100); // standalone (unregistered) histogram
    for (int i = 1; i <= 100; ++i)
        h.sample(static_cast<double>(i));
    // Interpolated quantiles land inside the right bucket.
    EXPECT_NEAR(h.percentile(0.50), 50.0, 1.0);
    EXPECT_NEAR(h.percentile(0.95), 95.0, 1.0);
    EXPECT_NEAR(h.percentile(0.99), 99.0, 1.0);
    // Estimates clamp to the observed range, even with clamped
    // out-of-range samples in the edge buckets.
    EXPECT_LE(h.percentile(1.0), h.max());
    EXPECT_GE(h.percentile(0.0), h.min());
    h.sample(1000.0); // clamps into the last bucket
    EXPECT_LE(h.percentile(0.999), 1000.0);

    // Edge cases have defined answers. Empty: no order statistics
    // exist, so every percentile is NaN (serialized as JSON null by
    // the non-finite rule), not a fabricated 0.
    Histogram empty;
    empty.init(0.0, 1.0, 4);
    EXPECT_TRUE(std::isnan(empty.percentile(0.0)));
    EXPECT_TRUE(std::isnan(empty.percentile(0.5)));
    EXPECT_TRUE(std::isnan(empty.percentile(0.99)));
    EXPECT_TRUE(std::isnan(empty.percentile(1.0)));

    // A single sample is every percentile of its own distribution.
    Histogram one;
    one.init(0.0, 100.0, 8);
    one.sample(37.5);
    EXPECT_DOUBLE_EQ(one.percentile(0.0), 37.5);
    EXPECT_DOUBLE_EQ(one.percentile(0.5), 37.5);
    EXPECT_DOUBLE_EQ(one.percentile(0.99), 37.5);
    EXPECT_DOUBLE_EQ(one.percentile(1.0), 37.5);

    // p == 1.0 is exactly the observed maximum (no bucket-upper-edge
    // overshoot), including when samples clamped into edge buckets.
    EXPECT_DOUBLE_EQ(h.percentile(1.0), h.max());
}

TEST(Stats, NameAndDescriptionAreWhatInitReceived)
{
    StatRegistry reg;
    Stat s;
    EXPECT_EQ(s.name(), "");
    EXPECT_EQ(s.description(), "");

    const std::string prefix = "cluster0.pg1.core2";
    static const char kDescription[] = "cycles spent issuing packets";
    s.init(reg, prefix + ".issue_cycles", kDescription);
    EXPECT_EQ(s.name(), "cluster0.pg1.core2.issue_cycles");
    EXPECT_EQ(s.description(), kDescription);
    EXPECT_EQ(reg.stat(s.name()), &s);

    Stat &owned = reg.counter("serve.retries", "batch re-executions");
    EXPECT_EQ(owned.name(), "serve.retries");
    EXPECT_EQ(owned.description(), "batch re-executions");
    EXPECT_EQ(&reg.counter("serve.retries", "batch re-executions"), &owned);
    // A name Stat::init() registered is not counter()'s to share.
    EXPECT_THROW(reg.counter(s.name(), "other"), PanicError);

    Histogram h;
    h.init(reg, "pg0.dma.latency", "descriptor latency", 0.0, 10.0, 4);
    EXPECT_EQ(h.name(), "pg0.dma.latency");
    EXPECT_EQ(h.description(), "descriptor latency");
    EXPECT_EQ(reg.histogram("pg0.dma.latency"), &h);
}

TEST(Stats, StandaloneHistogramCopiesWithEmptyName)
{
    std::optional<Histogram> original;
    original.emplace();
    original->init(0.0, 10.0, 4);
    original->sample(2.0);
    original->sample(7.0);
    Histogram copy = *original;
    original.reset();

    EXPECT_EQ(copy.name(), "");
    EXPECT_EQ(copy.description(), "");
    EXPECT_EQ(copy.count(), 2u);
    EXPECT_EQ(copy.buckets(), (std::vector<std::uint64_t>{1, 0, 1, 0}));
    copy.sample(9.0);
    EXPECT_EQ(copy.count(), 3u);
}

/** Text, JSON and Prometheus renderings of @p reg, concatenated. */
std::string
renderAll(const StatRegistry &reg)
{
    std::ostringstream os;
    reg.dump(os);
    reg.dumpJson(os);
    obs::writePrometheusText(reg, os, "dtusim");
    return os.str();
}

TEST(Stats, RegistrationOrderDoesNotChangeDump)
{
    struct Spec
    {
        const char *name;
        const char *description;
        double value;
    };
    const std::vector<Spec> specs = {
        {"pg1.dma.bytes", "bytes moved", 4096.0},
        {"hbm.ch0.bytes", "", 512.0},
        {"pg0.core3.cycles", "busy cycles", 17.0},
        {"pg0.core10.cycles", "busy cycles", 3.0},
        {"cpme.frequency_ghz", "current frequency", 1.4},
    };
    auto build = [&](const std::vector<std::size_t> &order) {
        auto reg = std::make_unique<StatRegistry>();
        auto stats = std::make_unique<Stat[]>(specs.size());
        for (std::size_t i : order) {
            stats[i].init(*reg, specs[i].name, specs[i].description);
            stats[i].set(specs[i].value);
        }
        return std::make_pair(std::move(reg), std::move(stats));
    };
    auto [forward, forward_stats] = build({0, 1, 2, 3, 4});
    auto [backward, backward_stats] = build({4, 3, 2, 1, 0});
    auto [shuffled, shuffled_stats] = build({2, 0, 4, 1, 3});
    Histogram hf, hb, hs;
    hf.init(*forward, "lat", "latency", 0.0, 8.0, 4);
    hb.init(*backward, "lat", "latency", 0.0, 8.0, 4);
    hs.init(*shuffled, "lat", "latency", 0.0, 8.0, 4);
    for (Histogram *h : {&hf, &hb, &hs})
        h->sample(3.0);

    const std::string expected = renderAll(*forward);
    EXPECT_EQ(renderAll(*backward), expected);
    EXPECT_EQ(renderAll(*shuffled), expected);
    EXPECT_EQ(backward->scalarNames(), forward->scalarNames());
    EXPECT_EQ(shuffled->snapshot(0).values, forward->snapshot(0).values);
    EXPECT_EQ(forward->scalarNames().front(), "cpme.frequency_ghz");
}

TEST(Stats, LateRegistrationIsVisible)
{
    StatRegistry reg;
    Stat early;
    early.init(reg, "serve.early", "registered first");
    early += 2.0;
    EXPECT_FALSE(reg.tryLookup("serve.late").has_value());
    EXPECT_DOUBLE_EQ(reg.sumMatching("serve."), 2.0);
    std::ostringstream before;
    reg.dump(before);

    reg.counter("serve.late", "registered after the first queries") += 5.0;
    EXPECT_DOUBLE_EQ(reg.lookup("serve.late"), 5.0);
    EXPECT_DOUBLE_EQ(reg.sumMatching("serve."), 7.0);
    EXPECT_TRUE(reg.has("serve.late"));
    std::ostringstream after;
    reg.dump(after);
    EXPECT_EQ(after.str(),
              "serve.early 2 # registered first\n"
              "serve.late 5 # registered after the first queries\n");
    EXPECT_NE(after.str(), before.str());
    EXPECT_EQ(reg.scalarNames(),
              (std::vector<std::string>{"serve.early", "serve.late"}));
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

// The digests pin a whole chip's stat surface byte for byte: every
// name, value and description of a dtu2 chip after one ResNet50 batch,
// in the text dump, the JSON dump and the Prometheus exposition.
TEST(Stats, ChipDumpsMatchParent)
{
    const DtuConfig config = dtu2Config();
    Dtu chip(config);
    ExecutionPlan plan = compile(models::buildModel("resnet50", 1), config,
                                 DType::FP16, config.totalGroups());
    std::vector<unsigned> groups;
    for (unsigned g = 0; g < config.totalGroups(); ++g)
        groups.push_back(g);
    Executor executor(chip, groups, {.powerManagement = false});
    executor.run(plan);

    std::ostringstream text, json, prom;
    chip.stats().dump(text);
    chip.stats().dumpJson(json);
    obs::writePrometheusText(chip.stats(), prom, "dtusim");
    EXPECT_EQ(fnv1a(text.str()), 0xaab50c7f60f9b9f6ull) << std::hex << fnv1a(text.str());
    EXPECT_EQ(fnv1a(json.str()), 0xe31bc843c4f2cfe8ull) << std::hex << fnv1a(json.str());
    EXPECT_EQ(fnv1a(prom.str()), 0x70451e8f733940aeull) << std::hex << fnv1a(prom.str());
}

TEST(Random, DeterministicForSameSeed)
{
    Random a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Random, DifferentSeedsDiffer)
{
    Random a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next() ? 1 : 0;
    EXPECT_LT(same, 5);
}

TEST(Random, UniformInRange)
{
    Random rng(7);
    for (int i = 0; i < 1000; ++i) {
        double u = rng.uniform(2.0, 3.0);
        EXPECT_GE(u, 2.0);
        EXPECT_LT(u, 3.0);
    }
}

TEST(Random, BetweenIsInclusive)
{
    Random rng(7);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 1000; ++i) {
        auto v = rng.between(0, 3);
        EXPECT_GE(v, 0);
        EXPECT_LE(v, 3);
        saw_lo |= v == 0;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Logging, FatalAndPanicThrow)
{
    EXPECT_THROW(fatal("bad config"), FatalError);
    EXPECT_THROW(panic("bug"), PanicError);
    EXPECT_NO_THROW(fatalIf(false, "fine"));
    EXPECT_THROW(fatalIf(true, "bad"), FatalError);
}

TEST(Ticks, FrequencyPeriodRoundTrip)
{
    Tick p = periodFromFrequency(1.4e9);
    EXPECT_EQ(p, 714u);
    EXPECT_NEAR(frequencyFromPeriod(p), 1.4e9, 2e6);
    EXPECT_DOUBLE_EQ(ticksToSeconds(ticksPerSecond), 1.0);
    EXPECT_EQ(secondsToTicks(1e-6), 1'000'000u);
}

} // namespace
