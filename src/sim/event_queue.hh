/**
 * @file
 * The event queue at the heart of the dtusim kernel.
 *
 * Every timed behaviour in the simulated DTU — instruction issue,
 * DMA transactions, HBM channel service, synchronization wakeups,
 * power-management observation windows — is an Event scheduled on a
 * single EventQueue. Events at the same tick execute in FIFO order of
 * scheduling (stable), which keeps runs deterministic.
 *
 * The queue is an indexed calendar queue (R. Brown, CACM 1988): time
 * is divided into fixed-width "days" hashed onto a power-of-two ring
 * of buckets, so schedule/deschedule/pop are O(1) amortized instead
 * of the O(log n) heap push plus O(n) lazy-deletion backlog of a
 * binary heap. Descheduling removes the entry eagerly, so the queue
 * never holds a pointer to an Event that may since have been
 * destroyed (the lazy-deletion scheme dereferenced stale Event
 * pointers at pop time). The bucket ring resizes with the live event
 * population and re-derives the day width from the observed event
 * span, keeping ~O(1) events per bucket across workload scales.
 */

#ifndef DTU_SIM_EVENT_QUEUE_HH
#define DTU_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/ticks.hh"

namespace dtu
{

class EventQueue;

/**
 * A schedulable unit of work. Events are owned by the caller and may
 * be rescheduled after they fire; an event can only be in the queue
 * once at a time. Destroying a still-scheduled event removes it from
 * its queue.
 */
class Event
{
  public:
    /** Construct an event around a callback. */
    explicit Event(std::function<void()> callback, std::string name = "");

    Event(const Event &) = delete;
    Event &operator=(const Event &) = delete;
    ~Event();

    /** The tick this event is (or was last) scheduled for. */
    Tick when() const { return when_; }

    /** True while the event sits in an event queue. */
    bool scheduled() const { return scheduled_; }

    /** Diagnostic name. */
    const std::string &name() const { return name_; }

  private:
    friend class EventQueue;

    std::function<void()> callback_;
    std::string name_;
    Tick when_ = 0;
    std::uint64_t sequence_ = 0;
    bool scheduled_ = false;
    EventQueue *queue_ = nullptr;
};

/**
 * A deterministic discrete-event queue.
 *
 * The queue is not global: each simulation (each DTU instance, each
 * test) owns its own queue, so independent simulations can coexist in
 * one process — and, in a parallel fleet, each device's queue is
 * touched only by tasks on that device's lane, one at a time.
 */
class EventQueue
{
  public:
    /** Registers this queue as the log clock (see setLogClock). */
    EventQueue();
    ~EventQueue();
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /**
     * Schedule an event at an absolute tick.
     * @param event the event to schedule; must not already be scheduled.
     * @param when absolute tick, must be >= now().
     */
    void schedule(Event &event, Tick when);

    /** Schedule an event @p delay ticks in the future. */
    void scheduleIn(Event &event, Tick delay) { schedule(event, now_ + delay); }

    /** Remove a scheduled event from the queue without running it. */
    void deschedule(Event &event);

    /** Move an already-scheduled event to a new absolute tick. */
    void reschedule(Event &event, Tick when);

    /** True when no events remain. */
    bool empty() const { return live_ == 0; }

    /** Number of live (scheduled) events. */
    std::size_t size() const { return live_; }

    /** Total events executed since construction. */
    std::uint64_t executed() const { return executed_; }

    /**
     * Run events until the queue drains or @p limit ticks is reached.
     * @param limit absolute tick bound (inclusive); events scheduled
     *              beyond it stay queued.
     * @return the tick of the last executed event, or now() if none ran.
     */
    Tick run(Tick limit = maxTick);

    /** Execute exactly one event if any is pending. @return true if run. */
    bool step();

    /**
     * Advance simulated time to @p when without running any events.
     * Only valid when nothing is scheduled before @p when.
     */
    void advanceTo(Tick when);

    /**
     * The start of the open part of this queue's bandwidth timeline:
     * a booking that starts earlier waits for it, and ledger pages
     * wholly below it are retired (see CapacityLedger). It is
     * separate from now(): engines book ahead of now(), and
     * co-simulation books out of order from tick 0, so only a driver
     * that books nothing earlier raises it: the serving scheduler, at
     * each settle. Other users (streams, Executor, tenancy) never
     * raise it, so on a chip that never served they book anywhere.
     */
    Tick ledgerWatermark() const { return ledgerWatermark_; }
    void
    raiseLedgerWatermark(Tick at)
    {
        ledgerWatermark_ = std::max(ledgerWatermark_, at);
    }
    /** Only with every ledger restarted (see Dtu::restartLedgers). */
    void resetLedgerWatermark() { ledgerWatermark_ = 0; }

  private:
    struct Entry
    {
        Tick when;
        std::uint64_t sequence;
        Event *event;
    };

    /** The earliest pending entry, or nullptr when empty. */
    const Entry *peekNext() const;

    /** Pop @p top (must be peekNext()'s result) and run its event. */
    void popAndRun(const Entry &top);

    /** Insert into the bucket for @p entry.when, keeping it sorted. */
    void insertEntry(const Entry &entry);

    /** Eagerly remove @p event's entry from its bucket. */
    void removeEntry(const Event &event);

    /** Rebuild onto @p nbuckets buckets, re-deriving the day width. */
    void resize(std::size_t nbuckets);

    /**
     * Bucket ring. Each bucket holds the entries of every day hashing
     * onto it, sorted ascending by (when, sequence); since a bucket
     * stays small (resize keeps load ~O(1)) the sorted-vector insert
     * and erase are effectively O(1).
     */
    std::vector<std::vector<Entry>> buckets_;
    /** Ticks per calendar day. */
    Tick width_ = 1024;
    /** buckets_.size() - 1; the size is a power of two. */
    std::size_t mask_ = 0;

    Tick now_ = 0;
    Tick ledgerWatermark_ = 0;
    std::uint64_t nextSequence_ = 0;
    std::uint64_t executed_ = 0;
    std::size_t live_ = 0;
};

} // namespace dtu

#endif // DTU_SIM_EVENT_QUEUE_HH
