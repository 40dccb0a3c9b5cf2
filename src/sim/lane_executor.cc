#include "sim/lane_executor.hh"

#include <optional>

#include "sim/logging.hh"

namespace dtu
{

LaneExecutor::LaneExecutor(unsigned threads, unsigned lanes)
    : threads_(threads), lanes_(lanes)
{
    fatalIf(threads == 0, "a lane executor needs at least one thread");
    fatalIf(lanes == 0, "a lane executor needs at least one lane");
    helpers_.reserve(threads - 1);
    try {
        for (unsigned w = 1; w < threads; ++w)
            helpers_.emplace_back([this] { helperMain(); });
    } catch (...) {
        // No destructor runs for a half-built executor: join here.
        stop();
        throw;
    }
}

LaneExecutor::~LaneExecutor()
{
    stop();
}

void
LaneExecutor::stop()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        shutdown_ = true;
    }
    work_.notify_all();
    for (std::thread &helper : helpers_)
        helper.join();
}

LaneExecutor::Ticket
LaneExecutor::submit(unsigned lane, std::function<void()> fn)
{
    fatalIf(lane >= lanes_.size(), "lane ", lane, " of ",
            lanes_.size());
    Lock lock(mutex_);
    Lane &l = lanes_[lane];
    const Ticket ticket{lane, nextSeq_++};
    l.submitted = ticket.seq;
    l.queue.push_back({ticket.seq, std::move(fn)});
    if (threads_ == 1)
        runFront(lock, l);
    else
        work_.notify_one();
    return ticket;
}

LaneExecutor::Lane *
LaneExecutor::runnable(Lane *preferred)
{
    auto ready = [](const Lane &l) {
        return l.running == 0 && !l.queue.empty();
    };
    if (preferred && ready(*preferred))
        return preferred;
    Lane *best = nullptr;
    for (Lane &l : lanes_) {
        if (ready(l) &&
            (!best || l.queue.front().seq < best->queue.front().seq))
            best = &l;
    }
    return best;
}

void
LaneExecutor::runFront(Lock &lock, Lane &lane)
{
    Task task = std::move(lane.queue.front());
    lane.queue.pop_front();
    lane.running = task.seq;
    const auto index = static_cast<int>(&lane - lanes_.data());
    lock.unlock();
    std::exception_ptr error;
    try {
        // Inline tasks keep the caller's log context, as serial code.
        std::optional<ScopedLogDevice> log_dev;
        if (threads_ > 1)
            log_dev.emplace(index);
        task.fn();
    } catch (...) {
        error = std::current_exception();
    }
    task.fn = nullptr;
    lock.lock();
    lane.running = 0;
    lane.finished = task.seq;
    if (error)
        failures_.emplace(task.seq, std::move(error));
    if (!lane.queue.empty())
        work_.notify_one();
    finished_.notify_all();
}

void
LaneExecutor::waitFinished(Lock &lock, Lane &lane, std::uint64_t seq)
{
    while (lane.finished < seq) {
        if (Lane *l = runnable(&lane))
            runFront(lock, *l);
        else
            finished_.wait(lock);
    }
}

void
LaneExecutor::surface(Lock &lock, std::uint64_t seq)
{
    if (failures_.empty() || failures_.begin()->first > seq)
        return;
    // Finish every task submitted before the earliest failure seen so
    // far: one of them may be an earlier failure on another lane.
    const std::uint64_t first = failures_.begin()->first;
    for (Lane &lane : lanes_) {
        std::uint64_t last = 0;
        if (lane.running != 0 && lane.running < first)
            last = lane.running;
        for (const Task &task : lane.queue) {
            if (task.seq >= first)
                break;
            last = task.seq;
        }
        waitFinished(lock, lane, last);
    }
    std::rethrow_exception(failures_.begin()->second);
}

void
LaneExecutor::wait(Ticket ticket)
{
    Lock lock(mutex_);
    waitFinished(lock, lanes_[ticket.lane], ticket.seq);
    surface(lock, ticket.seq);
}

void
LaneExecutor::drain(unsigned lane)
{
    Lock lock(mutex_);
    const std::uint64_t seq = lanes_[lane].submitted;
    waitFinished(lock, lanes_[lane], seq);
    surface(lock, seq);
}

bool
LaneExecutor::done(Ticket ticket)
{
    Lock lock(mutex_);
    return lanes_[ticket.lane].finished >= ticket.seq;
}

void
LaneExecutor::helperMain()
{
    Lock lock(mutex_);
    while (true) {
        Lane *lane = nullptr;
        work_.wait(lock, [&] {
            return shutdown_ || (lane = runnable(nullptr)) != nullptr;
        });
        if (shutdown_)
            return;
        runFront(lock, *lane);
    }
}

} // namespace dtu
