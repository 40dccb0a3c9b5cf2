/**
 * @file
 * A processing group: the unit of hardware isolation (Section IV-E).
 *
 * Each group bundles 4 compute cores, their L1 buffers, one third of
 * the cluster's L2 memory (4-ported), one DMA engine, one
 * synchronization engine, and per-unit LPMEs. Groups serve tenants
 * independently: "isolated hardware resources prevent interference
 * among each other".
 */

#ifndef DTU_SOC_PROCESSING_GROUP_HH
#define DTU_SOC_PROCESSING_GROUP_HH

#include <memory>
#include <vector>

#include "core/compute_core.hh"
#include "core/icache.hh"
#include "dma/dma_engine.hh"
#include "mem/allocator.hh"
#include "mem/sram.hh"
#include "power/lpme.hh"
#include "soc/config.hh"
#include "sync/sync_engine.hh"

namespace dtu
{

/** One isolated processing group. */
class ProcessingGroup : public SimObject
{
  public:
    /**
     * @param watermark the chip's ledger watermark, which every pipe
     *        of this group books behind.
     * @param gid global group index.
     * @param core_clock the cluster's core clock domain (DVFS target).
     * @param dma_clock the fixed DMA clock domain.
     * @param hbm the chip's L3.
     * @param pcie the chip's host link.
     */
    ProcessingGroup(std::string name, const Tick &watermark,
                    StatRegistry *stats, const DtuConfig &config,
                    unsigned gid, ClockDomain &core_clock,
                    ClockDomain &dma_clock, Hbm &hbm,
                    BandwidthResource *pcie);

    /** Wire the DMA's broadcast fan-out to sibling groups' L2. */
    void connectClusterL2(const std::vector<Sram *> &slices);

    unsigned gid() const { return gid_; }
    unsigned numCores() const
    {
        return static_cast<unsigned>(cores_.size());
    }

    ComputeCore &core(unsigned i) { return *cores_.at(i); }
    Sram &l1(unsigned i) { return *l1s_.at(i); }
    Sram &l2() { return *l2_; }
    DmaEngine &dma() { return *dma_; }
    SyncEngine &sync() { return *sync_; }
    InstructionCache &icache(unsigned i) { return *icaches_.at(i); }
    ScratchpadAllocator &l2Allocator() { return *l2Allocator_; }
    Lpme &coreLpme(unsigned i) { return *coreLpmes_.at(i); }
    Lpme &dmaLpme() { return *dmaLpme_; }

  private:
    unsigned gid_;
    std::unique_ptr<Sram> l2_;
    std::vector<std::unique_ptr<Sram>> l1s_;
    std::vector<std::unique_ptr<InstructionCache>> icaches_;
    std::unique_ptr<SyncEngine> sync_;
    std::unique_ptr<DmaEngine> dma_;
    std::vector<std::unique_ptr<ComputeCore>> cores_;
    std::unique_ptr<ScratchpadAllocator> l2Allocator_;
    std::vector<std::unique_ptr<Lpme>> coreLpmes_;
    std::unique_ptr<Lpme> dmaLpme_;
};

} // namespace dtu

#endif // DTU_SOC_PROCESSING_GROUP_HH
