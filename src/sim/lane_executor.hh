/**
 * @file
 * Ordered asynchronous lanes for a serial event loop's chip-side work.
 *
 * The fleet loop (serve/fleet.cc) makes every scheduling decision on
 * one thread, in serial order. The expensive part of a decision, a
 * batch execution on a chip, is independent host work once it has
 * been decided, so the loop hands it to that chip's lane and reads the
 * result only when simulated time reaches the launch's latency floor.
 *
 * A lane is a FIFO: its tasks never overlap and run in submit order,
 * so a chip sees exactly the sequence of operations the serial loop
 * would have issued. Tasks of different lanes run concurrently on
 * `threads - 1` helper threads and on the waiting caller itself
 * (help-while-wait): wait() runs queued tasks, from the awaited lane
 * first, instead of blocking. With threads = 1 there are no helpers
 * and every task runs inline at submit, which is the serial schedule.
 *
 * A task that throws keeps its exception. The first wait() or drain()
 * that covers a failed task finishes every task submitted before it
 * and rethrows the exception of the earliest failing task in submit
 * order, so which error surfaces never depends on the thread count.
 */

#ifndef DTU_SIM_LANE_EXECUTOR_HH
#define DTU_SIM_LANE_EXECUTOR_HH

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

namespace dtu
{

class LaneExecutor
{
  public:
    /** Identifies one submitted task. Tickets order by submit time. */
    struct Ticket
    {
        unsigned lane = 0;
        /** Global submit sequence number, from 1. */
        std::uint64_t seq = 0;
    };

    /**
     * @param threads workers including the calling thread, >= 1.
     * @param lanes lanes, one per device. With helpers, lane i's
     *        tasks run under ScopedLogDevice(i); inline ones keep the
     *        caller's log context.
     */
    LaneExecutor(unsigned threads, unsigned lanes);

    /** Joins the helpers; tasks that have not started are dropped. */
    ~LaneExecutor();

    LaneExecutor(const LaneExecutor &) = delete;
    LaneExecutor &operator=(const LaneExecutor &) = delete;

    /** Queue @p fn on @p lane (run it now when threads = 1). */
    Ticket submit(unsigned lane, std::function<void()> fn);

    /**
     * Block until @p ticket's task has run, running queued tasks
     * meanwhile. Rethrows as described in the file comment.
     */
    void wait(Ticket ticket);

    /** wait() for every task submitted to @p lane so far. */
    void drain(unsigned lane);

    /** True once @p ticket's task has run (wait() returns at once,
     *  or rethrows). Never runs a task. */
    bool done(Ticket ticket);

  private:
    struct Task
    {
        std::uint64_t seq;
        std::function<void()> fn;
    };

    struct Lane
    {
        std::deque<Task> queue;
        /** Seq of the task a worker is running, 0 when idle. */
        std::uint64_t running = 0;
        /** Seq of the last task that finished (tasks finish in order). */
        std::uint64_t finished = 0;
        /** Seq of the last task submitted. */
        std::uint64_t submitted = 0;
    };

    using Lock = std::unique_lock<std::mutex>;

    /** @p lane if it can start a task, else the runnable lane whose
     *  front task is oldest; nullptr when none can. */
    Lane *runnable(Lane *preferred);

    /** Run @p lane's front task with the lock released. */
    void runFront(Lock &lock, Lane &lane);

    /** Help until @p seq on @p lane has finished. */
    void waitFinished(Lock &lock, Lane &lane, std::uint64_t seq);

    /** Rethrow the earliest failure if one is at or before @p seq. */
    void surface(Lock &lock, std::uint64_t seq);

    void helperMain();

    /** Stop and join the helpers. */
    void stop();

    const unsigned threads_;
    /** Lanes, failures and the counters below are guarded by mutex_. */
    std::vector<Lane> lanes_;
    std::mutex mutex_;
    /** Signals helpers: a lane became runnable, or shutdown. */
    std::condition_variable work_;
    /** Signals waiters: a task finished. */
    std::condition_variable finished_;
    bool shutdown_ = false;
    std::uint64_t nextSeq_ = 1;
    /** Exceptions of failed tasks by seq. */
    std::map<std::uint64_t, std::exception_ptr> failures_;
    /** Declared last: helpers use every member above. */
    std::vector<std::thread> helpers_;
};

} // namespace dtu

#endif // DTU_SIM_LANE_EXECUTOR_HH
