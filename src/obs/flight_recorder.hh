/**
 * @file
 * The SLO flight recorder: a retrospective "black box" for serving
 * incidents.
 *
 * Post-hoc reports tell you *that* an SLO burned; an operator wants
 * to know what the system looked like in the seconds *leading up to*
 * the burn. The FlightRecorder keeps bounded ring buffers of the
 * most recent sampled request lifecycles (from the RequestTracer)
 * and fleet metric snapshots (from the FleetMetricSeries). When an
 * SloMonitor burn-rate alert or an injected hardware fault fires,
 * the recorder dumps both rings plus the trigger context as one JSON
 * document — to memory always, and to a configured path when set.
 *
 * The trigger is latched: only the first trigger of a run dumps (the
 * black box preserves the state at the *first* incident instead of
 * being overwritten by the cascade that usually follows). Later
 * triggers are counted but do not dump; reset() re-arms.
 */

#ifndef DTU_OBS_FLIGHT_RECORDER_HH
#define DTU_OBS_FLIGHT_RECORDER_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <ostream>
#include <string>

#include "obs/fleet_metrics.hh"
#include "power/power_event.hh"
#include "serve/request.hh"
#include "sim/ticks.hh"

namespace dtu
{
namespace obs
{

/**
 * One sampled request's fully resolved lifecycle: the scheduler's
 * uniform RequestOutcome plus the two bits only the tracer knows.
 * (This used to be a third parallel bookkeeping struct; now the
 * outcome is the single source of truth.)
 */
struct RequestRecord
{
    serve::RequestOutcome outcome;
    /** Reached device execution (false for queue-side drops). */
    bool executed = false;
    /** Flow-linked to at least one chip-level operator span. */
    bool deviceLinked = false;
};

/** A CPME/LPME decision stamped with its fleet device index. */
struct PowerEventRecord
{
    unsigned device = 0;
    PowerEvent event;
};

/** Ring capacities and the optional dump destination. */
struct FlightRecorderConfig
{
    /** Most recent sampled request lifecycles retained. */
    std::size_t requestCapacity = 256;
    /** Most recent fleet metric snapshots retained. */
    std::size_t metricCapacity = 64;
    /** Most recent power-management decisions retained. */
    std::size_t powerCapacity = 128;
    /** When non-empty, the trigger also writes the dump here. */
    std::string dumpPath;
};

/** Bounded recent-history recorder with a latched incident dump. */
class FlightRecorder
{
  public:
    explicit FlightRecorder(FlightRecorderConfig config = {});

    const FlightRecorderConfig &config() const { return config_; }

    /** Append one finished request lifecycle (oldest evicted). */
    void recordRequest(const RequestRecord &record);

    /** Append one fleet metric snapshot (oldest evicted). */
    void recordMetrics(const FleetMetricSample &sample);

    /**
     * Append one CPME/LPME decision (oldest evicted). Fed by the
     * EnergyMonitor, which drains each chip's PowerAuditTrail at the
     * metric sample points — so the dump can replay the power
     * manager's recent decisions next to the request lifecycles.
     */
    void recordPowerEvent(unsigned device, const PowerEvent &event);

    /**
     * An incident fired at simulated time @p at. The first trigger
     * dumps the rings as JSON (see lastDump()); later triggers only
     * count. @p reason names the source, e.g. "slo:slo_burn_rate" or
     * "fault:ecc_uncorrectable".
     */
    void trigger(const std::string &reason, Tick at);

    /**
     * Run @p fn right before the first dump is written (empty
     * detaches). A serving fleet applies its pending metric samples
     * here, so the dump shows every sample taken up to the trigger.
     */
    void setBeforeDump(std::function<void()> fn)
    {
        beforeDump_ = std::move(fn);
    }

    /** Triggers seen since the last reset (dumped or not). */
    std::uint64_t triggerCount() const { return triggers_; }

    /** Dumps produced since the last reset: 0 or 1 (latched). */
    std::uint64_t dumpCount() const { return dumped_ ? 1 : 0; }

    /** The dump JSON document; empty before the first trigger. */
    const std::string &lastDump() const { return dump_; }

    /** Write lastDump() to @p path; fatal() when nothing dumped. */
    void writeLastDump(const std::string &path) const;

    /** Requests currently buffered. */
    std::size_t bufferedRequests() const { return requests_.size(); }

    /** Metric snapshots currently buffered. */
    std::size_t bufferedMetrics() const { return metrics_.size(); }

    /** Power events currently buffered. */
    std::size_t bufferedPowerEvents() const { return power_.size(); }

    /** Re-arm the trigger latch and clear the rings and dump. */
    void reset();

  private:
    void writeDump(std::ostream &os, const std::string &reason,
                   Tick at) const;

    FlightRecorderConfig config_;
    std::deque<RequestRecord> requests_;
    std::deque<FleetMetricSample> metrics_;
    std::deque<PowerEventRecord> power_;
    std::function<void()> beforeDump_;
    std::uint64_t triggers_ = 0;
    bool dumped_ = false;
    std::string dump_;
};

} // namespace obs
} // namespace dtu

#endif // DTU_OBS_FLIGHT_RECORDER_HH
