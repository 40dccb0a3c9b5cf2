/**
 * @file
 * On-chip SRAM models: the per-core L1 local data buffer and the
 * per-processing-group L2 shared memory slice.
 *
 * DTU 2.0's L2 slice has 4 parallel read/write ports, one bonded to
 * each compute core of the processing group (Section IV-B and V-B),
 * so the 4 cores access shared memory without interference — provided
 * the software's affinity-aware allocation keeps each core on its own
 * port. Accesses routed through a foreign port contend with that
 * port's owner and pay an extra crossbar latency.
 */

#ifndef DTU_MEM_SRAM_HH
#define DTU_MEM_SRAM_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "mem/bandwidth.hh"
#include "mem/mem_types.hh"
#include "sim/sim_object.hh"

namespace dtu
{

/** A multi-port scratchpad SRAM with capacity accounting. */
class Sram : public SimObject
{
  public:
    /**
     * @param watermark the ledger watermark the ports book behind.
     * @param capacity total bytes.
     * @param ports number of parallel read/write ports.
     * @param port_bytes_per_second bandwidth of each port.
     * @param access_latency fixed latency per access (ticks).
     * @param remote_penalty extra latency when a requester uses a
     *        port other than its affine one (crossbar hop).
     */
    Sram(std::string name, const Tick &watermark, StatRegistry *stats,
         MemLevel level, std::uint64_t capacity, unsigned ports,
         double port_bytes_per_second, Tick access_latency,
         Tick remote_penalty = 0, double dma_port_bytes_per_second = 0.0);

    MemLevel level() const { return level_; }
    std::uint64_t capacity() const { return capacity_; }
    unsigned numPorts() const { return ports_.size(); }

    /**
     * Access @p bytes through @p port, starting at @p at, on behalf of
     * a requester whose affine port is @p affine_port.
     * @return completion tick.
     */
    Tick accessAt(Tick at, unsigned port, unsigned affine_port,
                  std::uint64_t bytes);

    /**
     * @p n accesses of @p bytes each at the non-decreasing @p starts,
     * in order, as n accessAt() calls; writes each completion to
     * @p done.
     */
    void accessSeries(const Tick *starts, std::size_t n, unsigned port,
                      unsigned affine_port, std::uint64_t bytes,
                      Tick *done);

    /**
     * @p n accesses of @p bytes each at the non-decreasing @p starts,
     * each striped over every port (port p moves bytes / numPorts(),
     * plus one of the remainder's bytes when p < the remainder) and
     * booked on all ports at once, in order. Writes to @p done[i] the
     * later of starts[i] and access i's last port completion.
     */
    void stripeSeries(const Tick *starts, std::size_t n, std::uint64_t bytes,
                      Tick *done);

    /** The port with the earliest free time (for DMA traffic). */
    unsigned leastLoadedPort() const;

    /** True when a dedicated DMA-side fill port exists. */
    bool hasDmaPort() const { return dmaPort_ != nullptr; }

    /**
     * Bulk access through the DMA-side fill port, which does not
     * contend with the core-bonded ports.
     */
    Tick dmaAccessAt(Tick at, std::uint64_t bytes);

    /** dmaAccessAt() for a series, as accessSeries(). */
    void dmaAccessSeries(const Tick *starts, std::size_t n,
                         std::uint64_t bytes, Tick *done);

    /** Port-level resource, for utilization queries. */
    const BandwidthResource &port(unsigned i) const { return ports_[i]; }

    /** Aggregate bytes moved across all ports. */
    double totalBytes() const;

    /** Visit every ledger: the ports' shared one, then the fill port's. */
    void forEachLedger(const std::function<void(CapacityLedger &)> &f);

  private:
    MemLevel level_;
    std::uint64_t capacity_;
    Tick remotePenalty_;
    BandwidthLanes ports_;
    std::unique_ptr<BandwidthResource> dmaPort_;
    Stat remoteAccesses_;
    Stat localAccesses_;
};

} // namespace dtu

#endif // DTU_MEM_SRAM_HH
