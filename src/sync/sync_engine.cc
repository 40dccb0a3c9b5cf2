#include "sync/sync_engine.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/tracer.hh"

namespace dtu
{

SyncEngine::SyncEngine(std::string name, StatRegistry *stats,
                       Tick signal_latency)
    : SimObject(std::move(name), stats), signalLatency_(signal_latency)
{
    if (stats) {
        signals_.init(*stats, childName("signals"),
                      "semaphore signals sent");
        waits_.init(*stats, childName("waits"),
                    "semaphore waits served");
        waitTicks_.init(*stats, childName("wait_ticks"),
                        "total ticks consumers spent blocked");
    }
}

void
SyncEngine::signalAt(int sem, Tick at)
{
    auto &times = semaphores_[sem];
    Tick visible = at + signalLatency_;
    // Keep timestamps sorted; producers may be simulated out of order.
    times.insert(std::upper_bound(times.begin(), times.end(), visible),
                 visible);
    ++signals_;
}

Tick
SyncEngine::waitUntil(int sem, unsigned count, Tick at)
{
    fatalIf(count == 0, "waitUntil with count 0 on '", name(), "'");
    auto it = semaphores_.find(sem);
    unsigned have = it == semaphores_.end()
                        ? 0
                        : static_cast<unsigned>(it->second.size());
    fatalIf(have < count, "deadlock: semaphore ", sem, " on '", name(),
            "' has ", have, " signals but ", count, " awaited");
    Tick available = it->second[count - 1];
    Tick released = std::max(at, available);
    ++waits_;
    waitTicks_ += static_cast<double>(released - at);
    if (Tracer *tr = tracer(); tr && tr->enabled() && released > at) {
        tr->span(tr->trackFor(name()),
                 "wait sem" + std::to_string(sem), "sync", at, released,
                 {{"count", static_cast<double>(count)}});
    }
    return released;
}

unsigned
SyncEngine::signalCount(int sem) const
{
    auto it = semaphores_.find(sem);
    return it == semaphores_.end()
               ? 0
               : static_cast<unsigned>(it->second.size());
}

void
SyncEngine::reset(int sem)
{
    semaphores_.erase(sem);
}

void
SyncEngine::resetAll()
{
    semaphores_.clear();
}

Tick
SyncEngine::oneToOne(int sem, Tick producer_done, Tick consumer_ready)
{
    signalAt(sem, producer_done);
    return waitUntil(sem, 1, consumer_ready);
}

std::vector<Tick>
SyncEngine::oneToN(int sem, Tick producer_done,
                   const std::vector<Tick> &consumers_ready)
{
    signalAt(sem, producer_done);
    std::vector<Tick> released;
    released.reserve(consumers_ready.size());
    for (Tick ready : consumers_ready)
        released.push_back(waitUntil(sem, 1, ready));
    return released;
}

Tick
SyncEngine::nToOne(int sem, const std::vector<Tick> &producers_done,
                   Tick consumer_ready)
{
    for (Tick done : producers_done)
        signalAt(sem, done);
    return waitUntil(sem, static_cast<unsigned>(producers_done.size()),
                     consumer_ready);
}

std::vector<Tick>
SyncEngine::nToM(int sem, const std::vector<Tick> &producers_done,
                 const std::vector<Tick> &consumers_ready)
{
    for (Tick done : producers_done)
        signalAt(sem, done);
    std::vector<Tick> released;
    released.reserve(consumers_ready.size());
    for (Tick ready : consumers_ready) {
        released.push_back(waitUntil(
            sem, static_cast<unsigned>(producers_done.size()), ready));
    }
    return released;
}

} // namespace dtu
