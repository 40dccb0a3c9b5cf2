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

#include <memory>
#include <optional>
#include <string>
#include <vector>

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
 * fairly; this class adds the access latency and the stats. A pipe
 * owns a one-lane ledger, or is one lane of a BandwidthLanes.
 */
class BandwidthResource : public SimObject
{
  public:
    /**
     * @param name hierarchical name.
     * @param watermark the ledger watermark this pipe books behind
     *        (see Dtu::ledgerWatermark); it outlives this pipe.
     * @param stats stat registry (may be null).
     * @param bytes_per_second sustained bandwidth.
     * @param access_latency fixed pipeline latency added to every
     *        request (ticks).
     */
    BandwidthResource(std::string name, const Tick &watermark,
                      StatRegistry *stats, double bytes_per_second,
                      Tick access_latency = 0);

    /** Lane @p lane of @p ledger, which outlives this pipe. */
    BandwidthResource(std::string name, const Tick &watermark,
                      StatRegistry *stats, CapacityLedger &ledger,
                      unsigned lane, Tick access_latency = 0);

    /**
     * Occupy the pipe for @p bytes, entering its queue at @p at.
     * @return the tick at which the last byte has been delivered.
     */
    Tick transferAt(Tick at, std::uint64_t bytes);

    /**
     * @p n transfers of @p bytes each, entering the queue at the
     * non-decreasing @p starts, booked in order exactly as n
     * transferAt() calls would be; writes each completion to @p done.
     */
    void transferSeries(const Tick *starts, std::size_t n,
                        std::uint64_t bytes, Tick *done);

    /** Tick at which the pipe next becomes idle. */
    Tick freeAt() const { return ledger_->freeAt(lane_); }

    /** Configured bandwidth in bytes/second. */
    double bytesPerSecond() const { return ledger_->bytesPerSecond(); }

    /** Pure service time for @p bytes with no queueing (ticks). */
    Tick serviceTime(std::uint64_t bytes) const;

    /** Total bytes moved through this resource. */
    double totalBytes() const { return bytesMoved_.value(); }

    /** Total ticks requests spent waiting behind earlier traffic. */
    double totalWait() const { return waitTicks_.value(); }

    /** Ledger pages held (see CapacityLedger::livePages). */
    std::size_t ledgerPages() const { return ledger_->livePages(); }

    /** The ledger this pipe books on, shared with its sibling lanes. */
    CapacityLedger &ledger() { return *ledger_; }

  private:
    friend class BandwidthLanes;

    void initStats();

    /**
     * Stats and access latency of one transfer of @p bytes from
     * @p start, taking @p service ticks unqueued, that the ledger
     * completed at @p done.
     * @return the completion tick.
     */
    Tick settle(Tick start, std::uint64_t bytes, Tick service, Tick done);

    /** The chip's ledger watermark (see Dtu::ledgerWatermark). */
    const Tick &watermark_;
    /** The ledger of a stand-alone pipe. */
    std::optional<CapacityLedger> own_;
    CapacityLedger *ledger_;
    unsigned lane_;
    Tick accessLatency_;

    Stat bytesMoved_;
    Stat transfers_;
    Stat waitTicks_;
};

/**
 * Parallel pipes of one rate that share one lane ledger: the core
 * ports of an L2 slice, the channels of an HBM stack. Each lane is a
 * BandwidthResource with its own name, stats, latency and freeAt; a
 * striped transfer books every lane in one ledger walk.
 */
class BandwidthLanes
{
  public:
    /**
     * Lanes named @p prefix + index, each of @p bytes_per_second,
     * booking behind @p watermark.
     */
    BandwidthLanes(const std::string &prefix, const Tick &watermark,
                   StatRegistry *stats, unsigned lanes,
                   double bytes_per_second, Tick access_latency);

    /** The lanes point at the ledger this owns. */
    BandwidthLanes(const BandwidthLanes &) = delete;
    BandwidthLanes &operator=(const BandwidthLanes &) = delete;

    unsigned size() const { return static_cast<unsigned>(lanes_.size()); }

    BandwidthResource &operator[](unsigned i) { return *lanes_.at(i); }
    const BandwidthResource &operator[](unsigned i) const
    {
        return *lanes_.at(i);
    }

    /**
     * @p n striped transfers at the non-decreasing @p starts, each
     * moving @p bytes[l] through lane l (none for 0), booked in order
     * exactly as a transferAt() per lane and transfer would be. Writes
     * to @p done[i] the later of starts[i] and the i-th transfer's
     * last lane completion.
     */
    void transferSeries(const Tick *starts, std::size_t n,
                        const std::uint64_t *bytes, Tick *done);

    CapacityLedger &ledger() { return ledger_; }

  private:
    CapacityLedger ledger_;
    std::vector<std::unique_ptr<BandwidthResource>> lanes_;
};

} // namespace dtu

#endif // DTU_MEM_BANDWIDTH_HH
