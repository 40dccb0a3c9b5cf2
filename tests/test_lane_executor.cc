/**
 * @file
 * Tests for the fleet's lane executor (sim/lane_executor.hh): per-lane
 * FIFO order without overlap, help-while-wait, inline execution at
 * threads = 1, polling with done(), and deterministic exception
 * surfacing.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sim/lane_executor.hh"

namespace
{

using namespace dtu;

TEST(LaneExecutor, LanesRunInSubmitOrderWithoutOverlap)
{
    for (unsigned threads : {1u, 2u, 4u}) {
        constexpr unsigned kLanes = 4;
        constexpr unsigned kTasks = 400;
        LaneExecutor lanes(threads, kLanes);
        std::vector<std::vector<unsigned>> order(kLanes);
        std::atomic<unsigned> in_flight[kLanes] = {};
        std::atomic<bool> overlapped{false};
        for (unsigned i = 0; i < kTasks; ++i) {
            const unsigned lane = (i * 7 + i / 3) % kLanes;
            lanes.submit(lane, [&, lane, i] {
                if (in_flight[lane].fetch_add(1) != 0)
                    overlapped = true;
                // A little work so tasks of different lanes overlap.
                volatile unsigned sink = 0;
                for (unsigned k = 0; k < 2000; ++k)
                    sink = sink + k;
                order[lane].push_back(i);
                in_flight[lane].fetch_sub(1);
            });
        }
        for (unsigned lane = 0; lane < kLanes; ++lane)
            lanes.drain(lane);
        EXPECT_FALSE(overlapped) << "threads=" << threads;
        unsigned total = 0;
        for (unsigned lane = 0; lane < kLanes; ++lane) {
            total += order[lane].size();
            for (std::size_t k = 1; k < order[lane].size(); ++k)
                EXPECT_LT(order[lane][k - 1], order[lane][k])
                    << "threads=" << threads << " lane " << lane;
        }
        EXPECT_EQ(total, kTasks);
    }
}

TEST(LaneExecutor, SingleThreadRunsEveryTaskAtSubmit)
{
    LaneExecutor lanes(1, 2);
    const std::thread::id caller = std::this_thread::get_id();
    bool ran = false;
    std::thread::id ran_on;
    lanes.submit(1, [&] {
        ran = true;
        ran_on = std::this_thread::get_id();
    });
    EXPECT_TRUE(ran);
    EXPECT_EQ(ran_on, caller);
}

TEST(LaneExecutor, DoneReportsWithoutRunningTasks)
{
    // done() polls: a queued task stays queued, and a task a helper
    // is running reads as not done until it returns.
    LaneExecutor lanes(2, 2);
    std::atomic<bool> started{false};
    std::atomic<bool> released{false};
    const LaneExecutor::Ticket running = lanes.submit(0, [&] {
        started = true;
        while (!released)
            std::this_thread::yield();
    });
    while (!started)
        std::this_thread::yield();
    bool queued_ran = false;
    const LaneExecutor::Ticket queued =
        lanes.submit(0, [&] { queued_ran = true; });
    EXPECT_FALSE(lanes.done(running));
    EXPECT_FALSE(lanes.done(queued));
    EXPECT_FALSE(queued_ran);
    released = true;
    lanes.wait(queued);
    EXPECT_TRUE(lanes.done(running));
    EXPECT_TRUE(lanes.done(queued));

    LaneExecutor inline_lanes(1, 1);
    EXPECT_TRUE(inline_lanes.done(inline_lanes.submit(0, [] {})));
}

TEST(LaneExecutor, WaitHelpsWhileAHelperHoldsTheAwaitedLane)
{
    // The only helper blocks in a lane-0 task until a lane-1 task
    // runs. Waiting on lane 0 must run the lane-1 task on the waiting
    // thread, or nothing ever would.
    LaneExecutor lanes(2, 2);
    std::atomic<bool> started{false};
    std::atomic<bool> released{false};
    const LaneExecutor::Ticket blocker = lanes.submit(0, [&] {
        started = true;
        while (!released)
            std::this_thread::yield();
    });
    while (!started)
        std::this_thread::yield();
    std::thread::id ran_on;
    lanes.submit(1, [&] {
        ran_on = std::this_thread::get_id();
        released = true;
    });
    lanes.wait(blocker);
    EXPECT_EQ(ran_on, std::this_thread::get_id());
}

TEST(LaneExecutor, WaitRunsTheAwaitedLaneFirst)
{
    // With the helper held on lane 1, waiting on lane 0's second task
    // runs lane 0's queue on the waiting thread, in order, before the
    // older lane-2 task that is also runnable.
    LaneExecutor lanes(2, 3);
    std::atomic<bool> started{false};
    std::atomic<bool> released{false};
    lanes.submit(1, [&] {
        started = true;
        while (!released)
            std::this_thread::yield();
    });
    while (!started)
        std::this_thread::yield();
    std::vector<std::string> ran;
    lanes.submit(2, [&] { ran.push_back("lane2"); });
    lanes.submit(0, [&] { ran.push_back("lane0.a"); });
    const LaneExecutor::Ticket b =
        lanes.submit(0, [&] { ran.push_back("lane0.b"); });
    lanes.wait(b);
    const std::vector<std::string> seen = ran;
    released = true;
    lanes.drain(1);
    lanes.drain(2);
    ASSERT_GE(seen.size(), 2u);
    EXPECT_EQ(seen[0], "lane0.a");
    EXPECT_EQ(seen[1], "lane0.b");
}

TEST(LaneExecutor, EarliestFailingTaskSurfacesAtAnyThreadCount)
{
    for (unsigned threads : {1u, 2u, 4u}) {
        LaneExecutor lanes(threads, 3);
        std::atomic<bool> after_failure_ran{false};
        const LaneExecutor::Ticket ok =
            lanes.submit(1, [] {});
        // Lane 2 fails first in submit order, lane 0 later; waiting on
        // lane 0's failure must still surface lane 2's.
        lanes.submit(2, [] { throw std::runtime_error("first"); });
        lanes.submit(1, [] {});
        const LaneExecutor::Ticket second = lanes.submit(
            0, [] { throw std::runtime_error("second"); });
        lanes.submit(0, [&] { after_failure_ran = true; });
        // A task before every failure waits without throwing.
        EXPECT_NO_THROW(lanes.wait(ok)) << "threads=" << threads;
        try {
            lanes.wait(second);
            ADD_FAILURE() << "no exception, threads=" << threads;
        } catch (const std::runtime_error &e) {
            EXPECT_EQ(std::string(e.what()), "first")
                << "threads=" << threads;
        }
        // A failed task does not stop its lane.
        EXPECT_THROW(lanes.drain(0), std::runtime_error);
        EXPECT_TRUE(after_failure_ran) << "threads=" << threads;
    }
}

} // namespace
