#include "soc/processing_group.hh"

namespace dtu
{

ProcessingGroup::ProcessingGroup(std::string name, EventQueue &queue,
                                 StatRegistry *stats,
                                 const DtuConfig &config, unsigned gid,
                                 ClockDomain &core_clock,
                                 ClockDomain &dma_clock, Hbm &hbm,
                                 BandwidthResource *pcie)
    : SimObject(std::move(name), queue, stats), gid_(gid)
{
    double l2_port_bw = config.l2PortBytesPerCycle * config.nominalHz;
    double l2_dma_bw = config.l2DmaPortBytesPerCycle * config.nominalHz;
    l2_ = std::make_unique<Sram>(
        childName("l2"), queue, stats, MemLevel::L2,
        config.l2BytesPerGroup, config.l2Ports, l2_port_bw,
        config.l2LatencyTicks, config.l2RemotePenaltyTicks, l2_dma_bw);
    l2Allocator_ = std::make_unique<ScratchpadAllocator>(
        childName("l2alloc"), MemLevel::L2, config.l2BytesPerGroup,
        config.l2Ports);

    sync_ = std::make_unique<SyncEngine>(childName("sync"), queue, stats);

    const unsigned ncores = config.coresPerGroup;
    l1s_.reserve(ncores);
    icaches_.reserve(ncores);
    cores_.reserve(ncores);
    coreLpmes_.reserve(ncores);
    double l1_bw = config.l1BytesPerCycle * config.nominalHz;
    for (unsigned c = 0; c < ncores; ++c) {
        l1s_.push_back(std::make_unique<Sram>(
            childName("core" + std::to_string(c) + ".l1"), queue, stats,
            MemLevel::L1, config.l1BytesPerCore, 1, l1_bw,
            config.l1LatencyTicks));
    }

    DmaFabric fabric;
    fabric.hbm = &hbm;
    fabric.localL2 = l2_.get();
    fabric.pcie = pcie;
    fabric.coreL1.reserve(ncores);
    for (auto &l1 : l1s_)
        fabric.coreL1.push_back(l1.get());
    dma_ = std::make_unique<DmaEngine>(
        childName("dma"), queue, stats, dma_clock, std::move(fabric),
        config.dmaFeatures, config.dmaBytesPerCycle,
        config.dmaConfigCycles);

    for (unsigned c = 0; c < ncores; ++c) {
        const std::string core = "core" + std::to_string(c);
        icaches_.push_back(std::make_unique<InstructionCache>(
            childName(core + ".icache"), queue, stats, hbm,
            config.icacheBytes, config.icacheCacheMode));
        CoreConfig core_config;
        core_config.dtu2 = config.dtu2;
        core_config.l1Bytes = config.l1BytesPerCore;
        cores_.push_back(std::make_unique<ComputeCore>(
            childName(core), queue, stats, core_clock, core_config,
            icaches_.back().get(), sync_.get(), dma_.get()));
        coreLpmes_.push_back(std::make_unique<Lpme>(
            childName(core + ".lpme"), config.coreBaselineWatts));
    }
    dmaLpme_ = std::make_unique<Lpme>(childName("dma.lpme"),
                                      config.dmaBaselineWatts);
}

void
ProcessingGroup::connectClusterL2(const std::vector<Sram *> &slices)
{
    dma_->setBroadcastTargets(slices);
}

} // namespace dtu
