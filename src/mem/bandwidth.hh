/**
 * @file
 * A serialized bandwidth resource.
 *
 * Memory ports, HBM channels, the PCIe link, and DMA data paths are
 * all modelled as BandwidthResources: a pipe with a fixed byte rate
 * that serves requests in arrival order. A request arriving while the
 * pipe is busy queues behind the in-flight bytes, which is how
 * contention (e.g. two cores sharing an L2 port, or three DMA engines
 * hitting HBM) manifests as latency.
 */

#ifndef DTU_MEM_BANDWIDTH_HH
#define DTU_MEM_BANDWIDTH_HH

#include <string>

#include "mem/capacity_ledger.hh"
#include "sim/sim_object.hh"
#include "sim/stats.hh"
#include "sim/ticks.hh"

namespace dtu
{

/**
 * A capacity-ledger pipe with fixed bandwidth and per-access latency.
 *
 * Traffic is booked on a CapacityLedger (see mem/capacity_ledger.hh),
 * so requests submitted out of simulation order share capacity
 * fairly; this class adds the access latency and the stats.
 */
class BandwidthResource : public SimObject
{
  public:
    /**
     * @param name hierarchical name.
     * @param queue event queue (provides current time).
     * @param stats stat registry (may be null).
     * @param bytes_per_second sustained bandwidth.
     * @param access_latency fixed pipeline latency added to every
     *        request (ticks).
     */
    BandwidthResource(std::string name, EventQueue &queue,
                      StatRegistry *stats, double bytes_per_second,
                      Tick access_latency = 0);

    /**
     * Occupy the pipe for @p bytes starting no earlier than now.
     * @return the tick at which the last byte has been delivered.
     */
    Tick transfer(std::uint64_t bytes);

    /**
     * Like transfer() but the request enters the queue at @p at
     * (>= now) rather than at the current tick — used when an engine
     * computes a future phase without advancing global time.
     */
    Tick transferAt(Tick at, std::uint64_t bytes);

    /**
     * @p n transfers of @p bytes each, entering the queue at the
     * non-decreasing @p starts (each >= now), booked in order exactly
     * as n transferAt() calls would be; writes each completion to
     * @p done.
     */
    void transferSeries(const Tick *starts, std::size_t n,
                        std::uint64_t bytes, Tick *done);

    /** Tick at which the pipe next becomes idle. */
    Tick freeAt() const { return ledger_.freeAt(); }

    /** Configured bandwidth in bytes/second. */
    double bytesPerSecond() const { return ledger_.bytesPerSecond(); }

    /** Pure service time for @p bytes with no queueing (ticks). */
    Tick serviceTime(std::uint64_t bytes) const;

    /** Total bytes moved through this resource. */
    double totalBytes() const { return bytesMoved_.value(); }

    /** Total ticks requests spent waiting behind earlier traffic. */
    double totalWait() const { return waitTicks_.value(); }

    /** Ledger pages held (see CapacityLedger::livePages). */
    std::size_t ledgerPages() const { return ledger_.livePages(); }

    /** Drop every booking: the pipe is idle from tick 0 again. */
    void restartLedger() { ledger_ = CapacityLedger(bytesPerSecond()); }

  private:
    CapacityLedger ledger_;
    Tick accessLatency_;

    Stat bytesMoved_;
    Stat transfers_;
    Stat waitTicks_;
};

} // namespace dtu

#endif // DTU_MEM_BANDWIDTH_HH
