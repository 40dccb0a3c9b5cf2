/**
 * @file
 * Tests for the synchronization engine (1-1/1-N/N-1/N-M patterns) and
 * the power-management stack (LPME integrity and budget borrowing,
 * CPME reserve pool and the 4-stage DVFS loop, energy metering).
 */

#include <gtest/gtest.h>

#include "sim/logging.hh"

#include "power/cpme.hh"
#include "power/lpme.hh"
#include "power/power_model.hh"
#include "sync/sync_engine.hh"

namespace
{

using namespace dtu;

struct SyncHarness
{
    StatRegistry stats;
    SyncEngine sync{"sync", &stats, /*signal_latency=*/20};
};

TEST(SyncEngine, OneToOneHandoff)
{
    SyncHarness h;
    Tick released = h.sync.oneToOne(1, /*producer_done=*/1000,
                                    /*consumer_ready=*/500);
    EXPECT_EQ(released, 1020u); // producer + signal latency
}

TEST(SyncEngine, ConsumerAlreadyLate)
{
    SyncHarness h;
    Tick released = h.sync.oneToOne(1, 1000, 5000);
    EXPECT_EQ(released, 5000u); // signal long since visible
}

TEST(SyncEngine, OneToNReleasesAll)
{
    SyncHarness h;
    auto released = h.sync.oneToN(2, 1000, {100, 2000, 900});
    EXPECT_EQ(released[0], 1020u);
    EXPECT_EQ(released[1], 2000u);
    EXPECT_EQ(released[2], 1020u);
}

TEST(SyncEngine, NToOneJoinsOnSlowest)
{
    SyncHarness h;
    Tick released = h.sync.nToOne(3, {500, 3000, 1200}, 0);
    EXPECT_EQ(released, 3020u);
}

TEST(SyncEngine, NToMBarrier)
{
    SyncHarness h;
    auto released = h.sync.nToM(4, {100, 800}, {0, 5000});
    EXPECT_EQ(released[0], 820u);  // waits for both producers
    EXPECT_EQ(released[1], 5000u); // was late anyway
}

TEST(SyncEngine, OutOfOrderSignalsSorted)
{
    SyncHarness h;
    h.sync.signalAt(7, 5000);
    h.sync.signalAt(7, 100); // producer simulated later, fired earlier
    EXPECT_EQ(h.sync.waitUntil(7, 1, 0), 120u);
    EXPECT_EQ(h.sync.waitUntil(7, 2, 0), 5020u);
}

TEST(SyncEngine, DeadlockDetected)
{
    SyncHarness h;
    h.sync.signalAt(9, 100);
    EXPECT_THROW(h.sync.waitUntil(9, 2, 0), FatalError);
    EXPECT_THROW(h.sync.waitUntil(42, 1, 0), FatalError);
}

TEST(SyncEngine, ResetConsumesSignals)
{
    SyncHarness h;
    h.sync.signalAt(1, 10);
    EXPECT_EQ(h.sync.signalCount(1), 1u);
    h.sync.reset(1);
    EXPECT_EQ(h.sync.signalCount(1), 0u);
}

//
// LPME
//

TEST(Lpme, NoThrottleUnderBudget)
{
    Lpme lpme("core0", 5.0);
    auto d = lpme.onWindow({.busyRatio = 0.9, .projectedWatts = 4.0});
    EXPECT_DOUBLE_EQ(d.throttle, 0.0);
    EXPECT_DOUBLE_EQ(d.requestWatts, 0.0);
}

TEST(Lpme, ThrottleSizedByNegativeFeedback)
{
    Lpme lpme("core0", 5.0);
    auto d = lpme.onWindow({.busyRatio = 1.0, .projectedWatts = 10.0});
    // Need to halve effective power: bubble fraction 1.0.
    EXPECT_DOUBLE_EQ(d.throttle, 1.0);
}

TEST(Lpme, BorrowsAfterMOfNWindows)
{
    Lpme lpme("core0", 5.0, 0.10, 3, 5);
    ActivitySample hot{.busyRatio = 1.0, .projectedWatts = 8.0};
    auto d1 = lpme.onWindow(hot);
    auto d2 = lpme.onWindow(hot);
    EXPECT_DOUBLE_EQ(d1.requestWatts, 0.0);
    EXPECT_DOUBLE_EQ(d2.requestWatts, 0.0);
    auto d3 = lpme.onWindow(hot); // 3rd hot window of 5 -> borrow
    EXPECT_DOUBLE_EQ(d3.requestWatts, 3.0);
}

TEST(Lpme, ReturnsSurplusAboveMargin)
{
    Lpme lpme("core0", 5.0);
    lpme.grant(10.0); // budget now 15
    auto d = lpme.onWindow({.busyRatio = 0.2, .projectedWatts = 2.0});
    // Adequate = max(5, 2*1.15) = 5; surplus = 10.
    EXPECT_DOUBLE_EQ(d.returnWatts, 10.0);
}

TEST(Lpme, NeverReclaimsBelowBaseline)
{
    Lpme lpme("core0", 5.0);
    lpme.grant(2.0);
    lpme.reclaim(100.0);
    EXPECT_DOUBLE_EQ(lpme.budgetWatts(), 5.0);
}

//
// CPME
//

TEST(Cpme, BaselinesCarvedFromLimit)
{
    Cpme cpme(150.0);
    Lpme a("a", 10.0), b("b", 20.0);
    cpme.attach(a);
    cpme.attach(b);
    EXPECT_DOUBLE_EQ(cpme.reserveWatts(), 120.0);
}

TEST(Cpme, GrantsBoundedByReserve)
{
    Cpme cpme(30.0);
    Lpme a("a", 10.0);
    cpme.attach(a);
    EXPECT_DOUBLE_EQ(cpme.requestBudget(a, 50.0), 20.0);
    EXPECT_DOUBLE_EQ(cpme.reserveWatts(), 0.0);
    EXPECT_DOUBLE_EQ(a.budgetWatts(), 30.0);
    // Integrity: nothing left to grant.
    EXPECT_DOUBLE_EQ(cpme.requestBudget(a, 1.0), 0.0);
}

TEST(Cpme, ReturnsReplenishReserve)
{
    Cpme cpme(30.0);
    Lpme a("a", 10.0);
    cpme.attach(a);
    cpme.requestBudget(a, 10.0);
    cpme.returnBudget(a, 10.0);
    EXPECT_DOUBLE_EQ(cpme.reserveWatts(), 20.0);
    EXPECT_DOUBLE_EQ(a.budgetWatts(), 10.0);
}

TEST(Cpme, ServiceWindowLiftsThrottleWhenGranted)
{
    Cpme cpme(100.0);
    Lpme a("a", 5.0, 0.10, 1, 1); // borrow immediately
    cpme.attach(a);
    double throttle =
        cpme.serviceWindow(a, {.busyRatio = 1.0, .projectedWatts = 9.0});
    EXPECT_DOUBLE_EQ(throttle, 0.0); // grant removed the bottleneck
    EXPECT_GE(a.budgetWatts(), 9.0);
}

TEST(Cpme, ClassifierFollowsFig10)
{
    Cpme cpme(150.0);
    EXPECT_EQ(cpme.classify({.busyRatio = 0.95, .l3StallRatio = 0.05}),
              WorkloadClass::ComputeBound);
    EXPECT_EQ(cpme.classify({.busyRatio = 0.5, .l3StallRatio = 0.6}),
              WorkloadClass::BandwidthBound);
    EXPECT_EQ(cpme.classify({.busyRatio = 0.5, .l3StallRatio = 0.1}),
              WorkloadClass::Balanced);
}

TEST(Cpme, DvfsStepsDownOnBandwidthBound)
{
    Cpme cpme(150.0);
    EXPECT_DOUBLE_EQ(cpme.frequency(), 1.4e9); // boots at the top
    ActivitySample bw{.busyRatio = 0.3, .l3StallRatio = 0.7};
    cpme.onWindow(bw);
    cpme.onWindow(bw); // two consistent windows -> act
    EXPECT_DOUBLE_EQ(cpme.frequency(), 1.3e9);
}

TEST(Cpme, DvfsNeedsConsistentHistory)
{
    Cpme cpme(150.0);
    cpme.onWindow({.busyRatio = 0.3, .l3StallRatio = 0.7});
    cpme.onWindow({.busyRatio = 0.5, .l3StallRatio = 0.1}); // balanced
    EXPECT_DOUBLE_EQ(cpme.frequency(), 1.4e9); // no change
}

TEST(Cpme, DvfsClimbsBackOnComputeBound)
{
    Cpme cpme(150.0);
    ActivitySample bw{.busyRatio = 0.3, .l3StallRatio = 0.7};
    for (int i = 0; i < 10; ++i)
        cpme.onWindow(bw);
    EXPECT_DOUBLE_EQ(cpme.frequency(), 1.0e9); // pinned at the floor
    ActivitySample compute{.busyRatio = 0.95, .l3StallRatio = 0.05};
    for (int i = 0; i < 10; ++i)
        cpme.onWindow(compute);
    EXPECT_DOUBLE_EQ(cpme.frequency(), 1.4e9);
    EXPECT_GT(cpme.frequencyChanges(), 0u);
}

TEST(Cpme, DisabledPolicyHoldsFrequency)
{
    DvfsPolicy off;
    off.enabled = false;
    off.ladderHz = {1.4e9};
    Cpme cpme(150.0, off);
    for (int i = 0; i < 5; ++i)
        cpme.onWindow({.busyRatio = 0.1, .l3StallRatio = 0.9});
    EXPECT_DOUBLE_EQ(cpme.frequency(), 1.4e9);
}

//
// Energy model
//

TEST(PowerModel, VoltageCurve)
{
    PowerParams p;
    EXPECT_DOUBLE_EQ(p.voltageAt(1.0e9), 0.75);
    EXPECT_NEAR(p.voltageAt(1.4e9), 0.9, 1e-12);
    EXPECT_LT(p.voltageScale(1.0e9), p.voltageScale(1.4e9));
    EXPECT_NEAR(p.voltageScale(1.4e9), 1.0, 1e-9);
}

TEST(PowerModel, LowerFrequencySavesSuperlinearly)
{
    PowerParams p;
    // Same work at 1.0 GHz: dynamic energy scales by (V1/V1.4)^2.
    EnergyMeter slow(p), fast(p);
    slow.addCompute(1e12, DType::FP16, 0, 1.0e9);
    fast.addCompute(1e12, DType::FP16, 0, 1.4e9);
    EXPECT_NEAR(slow.joules() / fast.joules(), 0.75 * 0.75 / (0.9 * 0.9),
                1e-9);
}

TEST(PowerModel, StaticScalesWithUnitsAndTime)
{
    EnergyMeter meter;
    meter.addStatic(ticksPerSecond, 24, 6, 1.4e9); // 1 s, full chip
    double watts = meter.averageWatts(ticksPerSecond);
    PowerParams p;
    EXPECT_NEAR(watts,
                p.baseStaticWatts + 24 * p.coreStaticWatts +
                    6 * p.dmaStaticWatts,
                1e-6);
}

TEST(PowerModel, DenseFp16WorkloadNearTdp)
{
    // Running every core at FP16 peak for 1 ms lands in the TDP
    // neighbourhood. The unconstrained activity model may exceed the
    // 150 W board limit here — that headroom is exactly what the
    // LPME/CPME integrity machinery exists to clamp (Section IV-F).
    PowerParams p;
    EnergyMeter meter(p);
    double seconds = 1e-3;
    double macs = 24 * 2048.0 * 1.4e9 * seconds; // all cores, peak
    meter.addCompute(macs, DType::FP16, macs * 0.1, 1.4e9);
    meter.addTraffic(macs * 0.05, macs * 0.02, 400e9 * seconds,
                     macs * 0.05);
    meter.addStatic(secondsToTicks(seconds), 24, 6, 1.4e9);
    double watts = meter.averageWatts(secondsToTicks(seconds));
    EXPECT_GT(watts, 130.0);
    EXPECT_LT(watts, 230.0);
}

TEST(PowerModel, NarrowTypesCostLessPerMac)
{
    PowerParams p;
    EXPECT_LT(p.joulesPerMac(DType::INT8), p.joulesPerMac(DType::FP16));
    EXPECT_LT(p.joulesPerMac(DType::FP16), p.joulesPerMac(DType::FP32));
}

} // namespace
