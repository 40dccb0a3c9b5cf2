/**
 * @file
 * Fleet-wide periodic metric time-series.
 *
 * While a fleet serving run is in flight, the driver samples every
 * device's live serving state (queue depth, in-flight batches,
 * outstanding requests, cumulative drop/retry counts) on a fixed
 * simulated-time period. The samples form one FleetMetricSeries that
 * feeds three consumers: the request tracer's per-device counter
 * tracks (so Perfetto shows queue depth next to the request spans),
 * the Prometheus exporter (the dtusim_fleet_queue_depth{device=...}
 * gauge family), and the SLO flight recorder's metric ring buffer.
 *
 * Sampling is driven by the serving event loop at simulated times
 * that are pure observation points — the loop's settle/advance steps
 * are idempotent at non-event ticks, so enabling the series never
 * perturbs simulated results.
 */

#ifndef DTU_OBS_FLEET_METRICS_HH
#define DTU_OBS_FLEET_METRICS_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "power/power_event.hh"
#include "sim/ticks.hh"

namespace dtu
{
namespace obs
{

/** One device's serving state at a sample instant. */
struct DeviceMetricSample
{
    /** Device index within the fleet. */
    unsigned device = 0;
    /** Requests waiting in the arrival queue. */
    std::uint64_t queueDepth = 0;
    /** Batches dispatched and not yet completed. */
    std::uint64_t inFlightBatches = 0;
    /** Queued + in-flight requests. */
    std::uint64_t outstanding = 0;
    /** Requests completed so far this run (cumulative). */
    std::uint64_t completed = 0;
    /** Requests dropped so far this run (cumulative). */
    std::uint64_t dropped = 0;
    /** Poisoned-batch re-executions so far this run (cumulative). */
    std::uint64_t retries = 0;

    //
    // Power telemetry (filled only when an EnergyMonitor is
    // attached; hasPower gates the JSON fields so energy-disabled
    // series keep the pre-energy format).
    //
    bool hasPower = false;
    /** Mean chip power since the previous sample, watts. */
    double powerWatts = 0.0;
    /** Cumulative chip energy this run, joules. */
    double energyJoules = 0.0;
    /** Fraction of CPME windows throttled since the previous sample. */
    double throttleFraction = 0.0;
    /** Core DVFS point at the sample instant, GHz. */
    double frequencyGhz = 0.0;
};

/** A whole-fleet snapshot at one simulated instant. */
struct FleetMetricSample
{
    Tick at = 0;
    /** Per-device state, index order. */
    std::vector<DeviceMetricSample> devices;
};

/**
 * One device's chip-side readings at a metric sample point: the
 * meters, the DVFS point, and the power-manager decisions recorded
 * since the device's previous reading.
 */
struct ChipReading
{
    unsigned device = 0;
    double joules = 0.0;
    std::uint64_t windows = 0;
    std::uint64_t throttled = 0;
    double frequencyGhz = 0.0;
    /** Audit events recorded since the previous reading, oldest
     *  first (events the ring evicted in between are lost). */
    std::vector<PowerEvent> audit;
};

/** An append-only series of fleet snapshots over one run. */
class FleetMetricSeries
{
  public:
    void append(FleetMetricSample sample)
    {
        samples_.push_back(std::move(sample));
    }

    const std::vector<FleetMetricSample> &samples() const
    {
        return samples_;
    }

    /** Most recent sample, or nullptr when empty. */
    const FleetMetricSample *latest() const
    {
        return samples_.empty() ? nullptr : &samples_.back();
    }

    void clear() { samples_.clear(); }

    /** Serialize the whole series as a JSON array of snapshots. */
    void writeJson(std::ostream &os) const;

    /**
     * Export the latest sample as per-device Prometheus gauges:
     * <prefix>_fleet_queue_depth{device="0"} and friends.
     */
    void writePrometheus(std::ostream &os,
                         const std::string &prefix = "dtusim") const;

  private:
    std::vector<FleetMetricSample> samples_;
};

} // namespace obs
} // namespace dtu

#endif // DTU_OBS_FLEET_METRICS_HH
