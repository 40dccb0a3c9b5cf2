#include "soc/dtu.hh"

#include "obs/perf_monitor.hh"
#include "sim/logging.hh"

namespace dtu
{

Cluster::Cluster(std::string name, const Tick &watermark,
                 StatRegistry *stats, const DtuConfig &config,
                 unsigned cluster_id, ClockDomain &core_clock,
                 ClockDomain &dma_clock, Hbm &hbm, BandwidthResource *pcie)
    : SimObject(std::move(name), stats), coreClock_(core_clock)
{
    groups_.reserve(config.groupsPerCluster);
    for (unsigned g = 0; g < config.groupsPerCluster; ++g) {
        unsigned gid = cluster_id * config.groupsPerCluster + g;
        groups_.push_back(std::make_unique<ProcessingGroup>(
            childName("pg" + std::to_string(g)), watermark, stats, config,
            gid, core_clock, dma_clock, hbm, pcie));
    }
    // Broadcast fan-out: every group's DMA engine can write all L2
    // slices of this cluster at once.
    std::vector<Sram *> slices;
    slices.reserve(groups_.size());
    for (auto &group : groups_)
        slices.push_back(&group->l2());
    for (auto &group : groups_)
        group->connectClusterL2(slices);
}

Dtu::Dtu(const DtuConfig &config)
    : config_(config), energy_(config.power)
{
    hbm_ = std::make_unique<Hbm>(config.name + ".hbm", ledgerWatermark_,
                                 &stats_, config.l3Bytes,
                                 config.l3BytesPerSecond, config.l3Channels,
                                 config.l3LatencyTicks);
    pcie_ = std::make_unique<BandwidthResource>(
        config.name + ".pcie", ledgerWatermark_, &stats_,
        config.pcieBytesPerSecond, 500'000 /* ~500 ns host round trip */);
    dmaClock_ = std::make_unique<ClockDomain>(config.dmaHz);

    DvfsPolicy dvfs = config.dvfs;
    if (dvfs.enabled) {
        dvfs.ladderHz.clear();
        for (double hz = config.minHz; hz <= config.maxHz + 1e6;
             hz += 0.1e9) {
            dvfs.ladderHz.push_back(hz);
        }
    } else {
        dvfs.ladderHz = {config.nominalHz};
    }
    cpme_ = std::make_unique<Cpme>(config.tdpWatts, dvfs);

    for (unsigned c = 0; c < config.clusters; ++c) {
        // Boot clocks at the CPME's initial point (top of ladder).
        coreClocks_.push_back(
            std::make_unique<ClockDomain>(cpme_->frequency()));
        clusters_.push_back(std::make_unique<Cluster>(
            config.name + ".cluster" + std::to_string(c), ledgerWatermark_,
            &stats_, config, c, *coreClocks_.back(), *dmaClock_, *hbm_,
            pcie_.get()));
    }

    // Register every function unit's LPME with the CPME.
    for (auto &cluster : clusters_) {
        for (unsigned g = 0; g < cluster->numGroups(); ++g) {
            ProcessingGroup &pg = cluster->group(g);
            for (unsigned i = 0; i < pg.numCores(); ++i)
                cpme_->attach(pg.coreLpme(i));
            cpme_->attach(pg.dmaLpme());
        }
    }
    cpme_->setTracer(&tracer_);

    // Wire every engine that emits timeline events to the chip tracer.
    for (auto &cluster : clusters_) {
        for (unsigned g = 0; g < cluster->numGroups(); ++g) {
            ProcessingGroup &pg = cluster->group(g);
            pg.dma().setTracer(&tracer_);
            pg.sync().setTracer(&tracer_);
            for (unsigned i = 0; i < pg.numCores(); ++i)
                pg.icache(i).setTracer(&tracer_);
        }
    }
}

// Out of line: Dtu holds a unique_ptr to the forward-declared
// obs::PerfMonitor.
Dtu::~Dtu() = default;

ProcessingGroup &
Dtu::group(unsigned gid)
{
    fatalIf(gid >= totalGroups(), "group id ", gid, " out of range");
    unsigned per = config_.groupsPerCluster;
    return clusters_[gid / per]->group(gid % per);
}

ComputeCore &
Dtu::core(unsigned cid)
{
    fatalIf(cid >= totalCores(), "core id ", cid, " out of range");
    unsigned per = config_.coresPerGroup;
    return group(cid / per).core(cid % per);
}

void
Dtu::forEachLedger(const std::function<void(CapacityLedger &)> &f)
{
    f(hbm_->ledger());
    f(pcie_->ledger());
    for (unsigned gid = 0; gid < totalGroups(); ++gid) {
        ProcessingGroup &g = group(gid);
        g.l2().forEachLedger(f);
        f(g.dma().pipe().ledger());
        for (unsigned c = 0; c < config_.coresPerGroup; ++c)
            g.l1(c).forEachLedger(f);
    }
}

std::size_t
Dtu::ledgerPages()
{
    std::size_t pages = 0;
    forEachLedger([&pages](CapacityLedger &l) { pages += l.livePages(); });
    return pages;
}

void
Dtu::restartLedgers()
{
    forEachLedger([](CapacityLedger &l) { l.restart(); });
    ledgerWatermark_ = 0;
}

ClockDomain &
Dtu::coreClockOf(unsigned gid)
{
    fatalIf(gid >= totalGroups(), "group id ", gid, " out of range");
    return clusters_[gid / config_.groupsPerCluster]->coreClock();
}

void
Dtu::setCoreFrequency(double hz)
{
    for (auto &clock : coreClocks_)
        clock->setFrequency(hz);
}

obs::PerfMonitor &
Dtu::enablePerfSampling(Tick period)
{
    fatalIf(perfMon_ != nullptr,
            "chip '", config_.name, "' already has a perf monitor");
    // Register the CPME gauges first so the monitor can watch them.
    cpme_->attachStats(stats_);
    perfMon_ = std::make_unique<obs::PerfMonitor>(stats_, period,
                                                  &tracer_);

    for (unsigned gid = 0; gid < totalGroups(); ++gid) {
        ProcessingGroup &pg = group(gid);
        const std::string pgname = pg.name();
        for (unsigned ci = 0; ci < config_.coresPerGroup; ++ci) {
            std::string core = pgname + ".core" + std::to_string(ci);
            perfMon_->watch(core + ".cycles");
            perfMon_->watch(core + ".issue_cycles");
            perfMon_->watch(core + ".throttle_cycles");
            perfMon_->watch(core + ".macs");
            perfMon_->watch(core + ".icache.stall_ticks");
        }
        perfMon_->watch(pgname + ".dma.pipe.bytes");
        perfMon_->watch(pgname + ".dma.pipe.wait_ticks");
        perfMon_->watch(pgname + ".sync.wait_ticks");
    }
    for (unsigned ch = 0; ch < config_.l3Channels; ++ch) {
        perfMon_->watch(config_.name + ".hbm.ch" + std::to_string(ch) +
                        ".bytes");
    }
    perfMon_->watch(config_.name + ".pcie.bytes");
    perfMon_->watch("cpme.reserve_watts");
    perfMon_->watch("cpme.granted_watts");
    perfMon_->watch("cpme.frequency_changes");
    perfMon_->watch("cpme.frequency_ghz");
    return *perfMon_;
}

FaultInjector &
Dtu::installFaults(const FaultConfig &config)
{
    fatalIf(faults_ != nullptr,
            "chip '", config_.name, "' already has a fault injector");
    faults_ = std::make_unique<FaultInjector>(config);
    faults_->registerStats(stats_);
    faults_->setTracer(&tracer_);
    hbm_->setFaultInjector(faults_.get());
    for (unsigned gid = 0; gid < totalGroups(); ++gid)
        group(gid).dma().setFaultInjector(faults_.get());
    cpme_->setFaultInjector(faults_.get());
    return *faults_;
}

PowerAuditTrail &
Dtu::installPowerAudit(std::size_t capacity)
{
    fatalIf(powerAudit_ != nullptr,
            "chip '", config_.name, "' already has a power audit trail");
    powerAudit_ = std::make_unique<PowerAuditTrail>(capacity);
    cpme_->setAuditTrail(powerAudit_.get());
    return *powerAudit_;
}

} // namespace dtu
