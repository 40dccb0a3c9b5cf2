/**
 * @file
 * Fleet energy & power observability: per-component attribution,
 * power telemetry, and the CPME decision feed.
 *
 * The chips have always *metered* energy (one joules scalar per run);
 * an operator wants to know where it went and when. The EnergyMonitor
 * attaches to every chip of a Server or Fleet and turns the meters
 * into telemetry:
 *
 *  - per-component energy attribution (compute-MAC, vector-SPU, L1,
 *    L2, HBM, DMA, static leakage) per device and fleet-wide, read
 *    from each EnergyMeter's running EnergyBreakdown;
 *  - per-device power samples (mean watts since the previous sample,
 *    cumulative joules, CPME throttle fraction, DVFS point) folded
 *    into the fleet metric time-series at the serving loop's
 *    observation points;
 *  - the CPME/LPME decision audit trail: attach() installs each
 *    chip's PowerAuditTrail and every sample point drains the fresh
 *    decisions into the SLO flight recorder, so an incident dump can
 *    replay "denied 12 W -> coasted to 1.1 GHz -> throttled ->
 *    recovered" next to the request lifecycles;
 *  - an optional per-operator energy-feature corpus (shape, roofline
 *    intensity, top-down tick mix, joules by component) for offline
 *    modeling;
 *  - the EnergyReport JSON artifact and the dtusim_power_* /
 *    dtusim_energy_* Prometheus families.
 *
 * A sample is taken in two halves so that serving loops can keep
 * each chip's work on its own thread: read() copies one chip's
 * meters and fresh audit events where that chip's work runs, and
 * annotate() folds the readings into the sample on the loop's
 * thread, in sample order.
 *
 * Strictly opt-in, like every observer in this tree: without a
 * monitor attached the serving path is bit-for-bit unchanged, and
 * every JSON field the monitor adds is gated so energy-disabled
 * artifacts keep the pre-energy format byte-for-byte.
 */

#ifndef DTU_OBS_ENERGY_MONITOR_HH
#define DTU_OBS_ENERGY_MONITOR_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "power/power_model.hh"
#include "serve/observer.hh"

namespace dtu
{

class Dtu;

namespace obs
{

class FlightRecorder;

/** Sampling and audit knobs. */
struct EnergyMonitorConfig
{
    /**
     * Power-sample period in simulated ticks. Used by drivers that
     * have no request tracer attached (the tracer's metricPeriod
     * wins when both are present, so the two observers share one
     * sample stream). 0 disables periodic sampling; run totals and
     * the audit trail still work.
     */
    Tick samplePeriod = 1'000'000'000; // 1 ms
    /** Ring capacity of each chip's installed PowerAuditTrail. */
    std::size_t auditCapacity = 1024;
    /** Record the per-operator energy-feature corpus (opt-in). */
    bool corpus = false;
};

/** One per-operator energy-feature corpus row. */
struct EnergyCorpusRow
{
    unsigned device = 0;
    std::string model;
    /** Which execution produced it: "batch", "prefill", "decode". */
    std::string phase;
    std::string op;
    std::string kind;
    double macs = 0.0;
    double bytes = 0.0;
    /** Roofline intensity, MACs per logical byte. */
    double intensity = 0.0;
    /** Top-down tick mix (see PhaseBreakdown's attribution rules). */
    double issueTicks = 0.0;
    double dmaTicks = 0.0;
    double otherTicks = 0.0;
    double frequencyGhz = 0.0;
    double throttle = 0.0;
    EnergyBreakdown energy;
};

/** The fleet-wide energy/power observer. */
class EnergyMonitor : public serve::ServingObserver
{
  public:
    explicit EnergyMonitor(EnergyMonitorConfig config = {});

    const EnergyMonitorConfig &config() const { return config_; }
    std::optional<Tick> samplePeriod() const override
    {
        return config_.samplePeriod;
    }
    /** The corpus needs every launch's operator traces. */
    bool needsOpTraces() const override { return config_.corpus; }
    bool attributesEnergy() const override { return true; }

    /**
     * Watch chip @p dtu as fleet device @p device. Installs the
     * chip's PowerAuditTrail (unless one is already present) and
     * snapshots the meter baselines. Attach every device before the
     * first beginRun().
     */
    void attach(unsigned device, Dtu &dtu);

    /** Devices currently attached. */
    std::size_t deviceCount() const { return devices_.size(); }

    /** True when @p device is attached. */
    bool watches(unsigned device) const override
    {
        return find(device) != nullptr;
    }

    /**
     * Forward drained CPME/LPME decisions to @p recorder's power
     * ring (null detaches).
     */
    void setFlightRecorder(FlightRecorder *recorder)
    {
        flightRec_ = recorder;
    }

    /**
     * A serving run starts at simulated time @p at: clear the sample
     * series and each chip's audit trail, and re-baseline the meters
     * so all reported energy is this run's. The corpus is *not*
     * cleared — it accumulates across runs by design.
     */
    void beginRun(Tick at) override;

    /**
     * Read attached device @p device's chip: its meters, DVFS point
     * and the audit events recorded since the previous read(). It
     * touches only that chip and the device's audit cursor, so a
     * serving loop calls it where the chip's work runs, in line with
     * the chip's launches.
     */
    ChipReading read(unsigned device) override;

    /**
     * Fill the power telemetry of @p sample's device entries from
     * @p readings (mean watts since the previous sample, cumulative
     * joules, throttle fraction, DVFS point), append the sample to
     * the series, and forward the readings' audit events to the
     * flight recorder. Entries without a reading stay bare. The
     * serving loops call it once per metric sample, in sample order.
     */
    void annotate(FleetMetricSample &sample,
                  const std::vector<ChipReading> &readings) override;

    /**
     * The run ended at @p at, with every chip idle: extend the
     * power-averaging span to the final completion, forward the
     * audit tails, and append the run's corpus rows.
     */
    void endRun(Tick at) override;

    /** Energy consumed by @p device since beginRun(), by component. */
    EnergyBreakdown runBreakdown(unsigned device) const;

    /** Joules consumed by @p device since beginRun(). */
    double runJoules(unsigned device) const;

    /** The power-annotated sample series of the current run. */
    const FleetMetricSeries &series() const { return series_; }

    /** The audit trail installed on @p device, or nullptr. */
    const PowerAuditTrail *auditTrail(unsigned device) const;

    /**
     * Record one launch's operator traces for the energy corpus
     * (no-op unless config().corpus). The launch's ticket seq orders
     * the run: endRun() appends the run's rows in launch order, after
     * every earlier run's, whatever order the launches were read in.
     */
    void onBatchExecuted(unsigned device,
                         const serve::Launch &launch) override;

    const std::vector<EnergyCorpusRow> &corpus() const
    {
        return corpus_;
    }

    /** Serialize the corpus as a JSON array of feature rows. */
    void writeCorpusJson(std::ostream &os) const;

    /**
     * The EnergyReport artifact: per-device component breakdowns,
     * mean watts, throttle fractions, and audit summaries plus the
     * fleet rollup, as one JSON document.
     */
    void writeJson(std::ostream &os) const;

    /**
     * Export the dtusim_power_* and dtusim_energy_* gauge families
     * (per-device watts, frequency, throttle fraction, limit and
     * reserve watts, total and per-component joules, and per-kind
     * audit decision counts).
     */
    void writePrometheus(std::ostream &os,
                         const std::string &prefix = "dtusim") const;

  private:
    struct DeviceState
    {
        unsigned device = 0;
        Dtu *dtu = nullptr;
        PowerAuditTrail *audit = nullptr;
        /** Run baselines (set by beginRun). */
        Tick runStart = 0;
        double joulesBase = 0.0;
        EnergyBreakdown breakdownBase;
        std::uint64_t windowsBase = 0;
        std::uint64_t throttledBase = 0;
        /** Previous-sample state (for deltas). */
        Tick lastAt = 0;
        double lastJoules = 0.0;
        std::uint64_t lastWindows = 0;
        std::uint64_t lastThrottled = 0;
        /** Audit events (absolute index) already read. */
        std::uint64_t auditRead = 0;
    };

    DeviceState *find(unsigned device);
    const DeviceState *find(unsigned device) const;
    void forwardAudit(unsigned device,
                      const std::vector<PowerEvent> &events);
    /** Append the current run's corpus rows in launch order. */
    void appendRunCorpus();

    EnergyMonitorConfig config_;
    std::vector<DeviceState> devices_;
    FleetMetricSeries series_;
    std::vector<EnergyCorpusRow> corpus_;
    /** The current run's corpus rows by launch order. */
    std::map<std::uint64_t, std::vector<EnergyCorpusRow>> runCorpus_;
    FlightRecorder *flightRec_ = nullptr;
};

} // namespace obs
} // namespace dtu

#endif // DTU_OBS_ENERGY_MONITOR_HH
