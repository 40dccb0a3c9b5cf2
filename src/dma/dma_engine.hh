/**
 * @file
 * The DMA engine (Section IV-C).
 *
 * One DMA engine serves each processing group (4 compute cores). It
 * moves data between any two levels of the memory hierarchy while
 * applying tensor layout transformations on the fly, and implements
 * the DTU 2.0 bandwidth optimizations:
 *
 *  - sparse decompression during transfer,
 *  - broadcast into the L2 slices of all processing groups,
 *  - repeat mode (one configuration, many transactions),
 *  - direct L1 <-> L3 transfers that bypass L2.
 *
 * A feature mask lets the same engine model DTU 1.0, where none of
 * these exist and L1 traffic must route through L2.
 */

#ifndef DTU_DMA_DMA_ENGINE_HH
#define DTU_DMA_DMA_ENGINE_HH

#include <memory>
#include <vector>

#include "dma/descriptor.hh"
#include "mem/bandwidth.hh"
#include "mem/hbm.hh"
#include "mem/sram.hh"
#include "sim/clocked.hh"
#include "sim/sim_object.hh"

namespace dtu
{

class FaultInjector;

/** Optional DTU 2.0 DMA capabilities (all false models DTU 1.0). */
struct DmaFeatures
{
    bool sparseDecompress = true;
    bool broadcast = true;
    bool repeatMode = true;
    bool l1L3Direct = true;
};

/** The memory endpoints a DMA engine can reach. */
struct DmaFabric
{
    /** The chip's L3 HBM. */
    Hbm *hbm = nullptr;
    /** This processing group's L2 slice. */
    Sram *localL2 = nullptr;
    /** Every L2 slice in the cluster (broadcast targets). */
    std::vector<Sram *> clusterL2;
    /** The L1 buffers of this group's compute cores. */
    std::vector<Sram *> coreL1;
    /** Host link (PCIe), for Host endpoints. May be null. */
    BandwidthResource *pcie = nullptr;
};

/** Result of one DMA request. */
struct DmaResult
{
    /** Tick at which the last byte landed. */
    Tick done = 0;
    /** Bytes that crossed the source interface (after compression). */
    std::uint64_t srcBytes = 0;
    /** Bytes written at the destination(s). */
    std::uint64_t dstBytes = 0;
    /** Configuration operations performed. */
    unsigned configs = 0;
    /** Transient-fault retries the engine issued for this request. */
    unsigned retries = 0;
};

/** A per-processing-group DMA engine. */
class DmaEngine : public SimObject
{
  public:
    /**
     * @param watermark the ledger watermark the datapath books behind.
     * @param clock engine clock domain (configuration overhead is
     *        measured in engine cycles).
     * @param fabric reachable memory endpoints.
     * @param features DTU 2.0 capability mask.
     * @param datapath_bytes_per_cycle internal pipe width.
     * @param config_cycles cycles per descriptor configuration.
     */
    DmaEngine(std::string name, const Tick &watermark, StatRegistry *stats,
              ClockDomain &clock, DmaFabric fabric, DmaFeatures features,
              unsigned datapath_bytes_per_cycle = 512,
              unsigned config_cycles = 128);

    /**
     * Late-bind the broadcast fan-out: the L2 slices of every
     * processing group in the cluster. Called once the cluster is
     * fully constructed.
     */
    void
    setBroadcastTargets(std::vector<Sram *> slices)
    {
        fabric_.clusterL2 = std::move(slices);
    }

    /** Submit a request that enters the engine at @p at. */
    DmaResult submitAt(Tick at, const DmaDescriptor &desc);

    /** Tick at which the engine datapath next idles. */
    Tick freeAt() const { return pipe_->freeAt(); }

    const DmaFeatures &features() const { return features_; }

    /** Cycles one configuration costs. */
    unsigned configCycles() const { return configCycles_; }

    /** Total bytes moved through the engine datapath. */
    double totalBytes() const { return pipe_->totalBytes(); }

    /** The engine datapath. */
    BandwidthResource &pipe() { return *pipe_; }

    /**
     * Attach (or detach, with nullptr) the chip fault injector: each
     * submitted request then draws a transient fault per attempt and
     * the engine retries with bounded exponential backoff.
     */
    void setFaultInjector(FaultInjector *faults) { faults_ = faults; }

  private:
    /** One fault-free attempt at a request (the pre-fault submitAt). */
    DmaResult submitOnce(Tick at, const DmaDescriptor &desc);

    /**
     * Book every transaction of the series (starts_) on one endpoint,
     * the i-th at @p addr + i * @p stride.
     * @return the last transaction's completion tick.
     */
    Tick endpointSeries(MemLevel level, Addr addr, std::uint64_t stride,
                        unsigned port, std::uint64_t bytes, bool fill_port);

    /**
     * L2 series: pinned to @p port, via the fill port, or striped.
     * @return the last transaction's completion tick.
     */
    Tick l2Series(Sram &l2, unsigned port, std::uint64_t bytes,
                  bool fill_port);

    ClockDomain &clock_;
    DmaFabric fabric_;
    DmaFeatures features_;
    unsigned configCycles_;
    std::unique_ptr<BandwidthResource> pipe_;
    FaultInjector *faults_ = nullptr;
    /** The current request's transaction start ticks. */
    std::vector<Tick> starts_;
    /** Completions of one endpoint's series (scratch). */
    std::vector<Tick> seriesDone_;

    Stat transactions_;
    Stat configOps_;
    Stat configTicks_;
    Stat sparseSavedBytes_;
    Stat broadcastCopies_;
};

} // namespace dtu

#endif // DTU_DMA_DMA_ENGINE_HH
