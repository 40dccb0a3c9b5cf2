/**
 * @file
 * The synchronization engine (Section IV-D).
 *
 * Each processing group integrates one synchronization engine that
 * coordinates compute cores and DMA engines through hardware
 * semaphores, supporting 1-to-1, 1-to-N, N-to-1 and N-to-M patterns
 * inside or across processing groups.
 *
 * The simulator uses timestamped semaphores: producers record the
 * tick of each signal; consumers ask "when is the k-th signal
 * available from tick t onward" and block (advance their local time)
 * until then. This supports the sequential co-simulation style the
 * executor uses: producers are simulated before consumers along the
 * dependence order, and the engine replays the timing interaction.
 */

#ifndef DTU_SYNC_SYNC_ENGINE_HH
#define DTU_SYNC_SYNC_ENGINE_HH

#include <cstdint>
#include <map>
#include <vector>

#include "sim/sim_object.hh"
#include "sim/stats.hh"

namespace dtu
{

/** Semaphore-based synchronization fabric. */
class SyncEngine : public SimObject
{
  public:
    SyncEngine(std::string name, StatRegistry *stats,
               Tick signal_latency = 20);

    /**
     * Record a signal on semaphore @p sem at tick @p at (plus the
     * fabric's signal latency).
     */
    void signalAt(int sem, Tick at);

    /**
     * Earliest tick >= @p at at which @p count signals have been
     * observed on @p sem since the last reset.
     * @throws FatalError when fewer than @p count signals were ever
     *         recorded — a deadlock under sequential co-simulation.
     */
    Tick waitUntil(int sem, unsigned count, Tick at);

    /** Signals recorded so far on @p sem. */
    unsigned signalCount(int sem) const;

    /** Clear one semaphore (consume its signals). */
    void reset(int sem);

    /** Clear all semaphores. */
    void resetAll();

    //
    // Pattern helpers used by the runtime. Each returns the tick at
    // which the whole pattern has completed, given per-participant
    // ready times.
    //

    /** 1-to-1: a single producer hands off to a single consumer. */
    Tick oneToOne(int sem, Tick producer_done, Tick consumer_ready);

    /** 1-to-N: one producer releases N consumers; returns per-consumer
     *  release times. */
    std::vector<Tick> oneToN(int sem, Tick producer_done,
                             const std::vector<Tick> &consumers_ready);

    /** N-to-1: a consumer joins N producers. */
    Tick nToOne(int sem, const std::vector<Tick> &producers_done,
                Tick consumer_ready);

    /** N-to-M: full barrier among N producers and M consumers. */
    std::vector<Tick> nToM(int sem, const std::vector<Tick> &producers_done,
                           const std::vector<Tick> &consumers_ready);

    double signalsSent() const { return signals_.value(); }
    double waitsServed() const { return waits_.value(); }
    Tick signalLatency() const { return signalLatency_; }

  private:
    Tick signalLatency_;
    /** Per-semaphore sorted signal timestamps. */
    std::map<int, std::vector<Tick>> semaphores_;

    Stat signals_;
    Stat waits_;
    Stat waitTicks_;
};

} // namespace dtu

#endif // DTU_SYNC_SYNC_ENGINE_HH
