/**
 * @file
 * The L3 HBM model.
 *
 * DTU 1.0 carries two 8 GB HBM2 stacks at 512 GB/s aggregate; DTU 2.0
 * replaces them with HBM2E for 819 GB/s (Tables I/IV, Section IV).
 * The model is a set of pseudo-channels, the lanes of one
 * BandwidthLanes; requests are interleaved across channels by
 * address, so a single requester can saturate at most the per-channel
 * rate times the number of channels it touches, while many concurrent
 * requesters share the aggregate fairly.
 */

#ifndef DTU_MEM_HBM_HH
#define DTU_MEM_HBM_HH

#include <vector>

#include "mem/bandwidth.hh"
#include "mem/mem_types.hh"
#include "sim/sim_object.hh"

namespace dtu
{

class FaultInjector;

/** A multi-channel high-bandwidth memory device. */
class Hbm : public SimObject
{
  public:
    /**
     * @param capacity total bytes (16 GiB on both DTU generations).
     * @param total_bytes_per_second aggregate bandwidth.
     * @param channels number of pseudo-channels.
     * @param access_latency fixed DRAM access latency per request.
     */
    Hbm(std::string name, EventQueue &queue, StatRegistry *stats,
        std::uint64_t capacity, double total_bytes_per_second,
        unsigned channels, Tick access_latency);

    std::uint64_t capacity() const { return capacity_; }
    double totalBandwidth() const { return totalBandwidth_; }
    unsigned numChannels() const { return channels_.size(); }

    /**
     * Stream @p bytes to/from HBM starting at address @p addr, no
     * earlier than tick @p at. Large requests are striped across all
     * channels; the completion time is when the slowest stripe lands.
     */
    Tick accessAt(Tick at, Addr addr, std::uint64_t bytes);

    /** Convenience: accessAt(now, ...). */
    Tick access(Addr addr, std::uint64_t bytes);

    /** Aggregate bytes moved. */
    double totalBytes() const;

    /** The channels' shared ledger. */
    CapacityLedger &ledger() { return channels_.ledger(); }

    /**
     * Attach (or detach, with nullptr) the chip fault injector: every
     * access then draws its ECC outcome, and correctable errors
     * lengthen the access by the scrub stall.
     */
    void setFaultInjector(FaultInjector *faults) { faults_ = faults; }

  private:
    std::uint64_t capacity_;
    double totalBandwidth_;
    std::uint64_t stripeBytes_ = 256;
    BandwidthLanes channels_;
    /** Per-channel bytes of one access (scratch). */
    std::vector<std::uint64_t> channelBytes_;
    FaultInjector *faults_ = nullptr;
};

} // namespace dtu

#endif // DTU_MEM_HBM_HH
