/**
 * @file
 * The full DTU system-on-chip (Fig. 2).
 *
 * A Dtu owns its ledger watermark, one statistics registry, the L3 HBM,
 * the PCIe host link, per-cluster core clock domains (DVFS acts on
 * the core clocks), a fixed DMA clock, the clusters of processing
 * groups, the central power management engine, and the chip-level
 * energy meter. Instantiating it with dtu1Config() yields a faithful
 * DTU 1.0 for the i20-vs-i10 comparisons.
 */

#ifndef DTU_SOC_DTU_HH
#define DTU_SOC_DTU_HH

#include <algorithm>
#include <functional>
#include <memory>
#include <vector>

#include "power/cpme.hh"
#include "power/power_event.hh"
#include "power/power_model.hh"
#include "sim/fault.hh"
#include "sim/tracer.hh"
#include "soc/config.hh"
#include "soc/processing_group.hh"

namespace dtu
{

namespace obs
{
class PerfMonitor;
} // namespace obs

/** A cluster: a set of processing groups sharing broadcast reach. */
class Cluster : public SimObject
{
  public:
    Cluster(std::string name, const Tick &watermark, StatRegistry *stats,
            const DtuConfig &config, unsigned cluster_id,
            ClockDomain &core_clock, ClockDomain &dma_clock, Hbm &hbm,
            BandwidthResource *pcie);

    unsigned numGroups() const
    {
        return static_cast<unsigned>(groups_.size());
    }
    ProcessingGroup &group(unsigned i) { return *groups_.at(i); }
    ClockDomain &coreClock() { return coreClock_; }

  private:
    ClockDomain &coreClock_;
    std::vector<std::unique_ptr<ProcessingGroup>> groups_;
};

/** The chip. */
class Dtu
{
  public:
    explicit Dtu(const DtuConfig &config);
    ~Dtu();

    const DtuConfig &config() const { return config_; }

    /**
     * The start of the open part of this chip's bandwidth timeline:
     * a booking that starts earlier waits for it, and ledger pages
     * wholly below it are retired (see CapacityLedger). Co-simulation
     * books out of order from tick 0, so only a driver that books
     * nothing earlier raises it: the serving scheduler, at each
     * launch, on the chip's lane. Other users (streams, Executor,
     * tenancy) never raise it, so on a chip that never served they
     * book anywhere.
     */
    Tick ledgerWatermark() const { return ledgerWatermark_; }
    void
    raiseLedgerWatermark(Tick at)
    {
        ledgerWatermark_ = std::max(ledgerWatermark_, at);
    }
    StatRegistry &stats() { return stats_; }
    /** The chip-wide timeline tracer (disabled until enabled). */
    Tracer &tracer() { return tracer_; }
    Hbm &hbm() { return *hbm_; }
    BandwidthResource &pcie() { return *pcie_; }
    Cpme &cpme() { return *cpme_; }
    EnergyMeter &energy() { return energy_; }

    unsigned numClusters() const
    {
        return static_cast<unsigned>(clusters_.size());
    }
    Cluster &cluster(unsigned i) { return *clusters_.at(i); }

    /** Flat group addressing across clusters. */
    unsigned totalGroups() const { return config_.totalGroups(); }
    ProcessingGroup &group(unsigned gid);

    /** Flat core addressing across the chip. */
    unsigned totalCores() const { return config_.totalCores(); }
    ComputeCore &core(unsigned cid);

    /**
     * Ledger pages held across the chip's ledgers. Pages retire behind
     * the serving scheduler's watermark, so a long serve keeps this
     * flat.
     */
    std::size_t ledgerPages();

    /**
     * Drop every ledger's bookings and the watermark: the chip's
     * contention timeline starts again, idle, from tick 0.
     */
    void restartLedgers();

    /** Core clock of the cluster containing group @p gid. */
    ClockDomain &coreClockOf(unsigned gid);

    /** Set every cluster's core clock (the CPME Action stage). */
    void setCoreFrequency(double hz);

    /** Current core frequency (all clusters track the CPME). */
    double coreFrequency() const { return coreClocks_.front()->frequency(); }

    //
    // Fault injection (strictly opt-in). Without installFaults() the
    // chip has no injector and every hook is a null-pointer check.
    //

    /**
     * Install a seeded fault injector and wire it into the HBM, every
     * DMA engine, and the CPME. One injector per chip; installing
     * twice is a configuration error.
     */
    FaultInjector &installFaults(const FaultConfig &config);

    /** The installed injector, or nullptr. */
    FaultInjector *faults() { return faults_.get(); }

    //
    // Performance sampling (strictly opt-in, like fault injection).
    // Without enablePerfSampling() the chip has no monitor and the
    // executor's sampling hooks are null-pointer checks, so timing
    // results stay bit-for-bit identical.
    //

    /**
     * Install a PMU-style performance sampler with period @p period
     * and subscribe it to the chip's key counters: per-core cycles /
     * macs / throttle bubbles, per-group icache stalls, DMA pipe
     * bytes and wait ticks, sync waits, per-channel HBM bytes, PCIe
     * bytes, and the CPME power-budget gauges. One monitor per chip;
     * enabling twice is a configuration error.
     */
    obs::PerfMonitor &enablePerfSampling(Tick period);

    /** The installed monitor, or nullptr. */
    obs::PerfMonitor *perfMonitor() { return perfMon_.get(); }

    //
    // Power-decision auditing (strictly opt-in, same pattern). The
    // chip owns the bounded ring; the CPME records every budget
    // grant/denial/return, DVFS step, throttle order, and thermal
    // clamp into it. Without installPowerAudit() the CPME hook is a
    // null-pointer check and behavior is bit-for-bit unchanged.
    //

    /**
     * Install a bounded power-decision audit trail and attach it to
     * the CPME. One trail per chip; installing twice is a
     * configuration error.
     */
    PowerAuditTrail &installPowerAudit(std::size_t capacity = 1024);

    /** The installed trail, or nullptr. */
    PowerAuditTrail *powerAudit() { return powerAudit_.get(); }

  private:
    /**
     * Visit every capacity ledger on the chip once: the HBM channels',
     * PCIe's, and each group's L2 ports', L2 fill port's, DMA
     * datapath's and L1 ports'.
     */
    void forEachLedger(const std::function<void(CapacityLedger &)> &f);

    DtuConfig config_;
    /** Every pipe of the chip holds a reference to it. */
    Tick ledgerWatermark_ = 0;
    StatRegistry stats_;
    Tracer tracer_;
    std::unique_ptr<Hbm> hbm_;
    std::unique_ptr<BandwidthResource> pcie_;
    std::vector<std::unique_ptr<ClockDomain>> coreClocks_;
    std::unique_ptr<ClockDomain> dmaClock_;
    std::vector<std::unique_ptr<Cluster>> clusters_;
    std::unique_ptr<Cpme> cpme_;
    EnergyMeter energy_;
    std::unique_ptr<FaultInjector> faults_;
    std::unique_ptr<obs::PerfMonitor> perfMon_;
    std::unique_ptr<PowerAuditTrail> powerAudit_;
};

} // namespace dtu

#endif // DTU_SOC_DTU_HH
