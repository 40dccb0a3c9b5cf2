/**
 * @file
 * Request-lifecycle distributed tracing for the serving runtime.
 *
 * Chip tracing (sim/tracer.hh) ends at the device edge: it shows
 * operators and DMA but not the journey a request takes through the
 * fleet. The RequestTracer closes that gap. Every request already
 * carries a unique id — that id doubles as its trace id — and the
 * serving layers report lifecycle hooks as they handle it: router
 * choice, enqueue/admission, weight placement, batch formation,
 * device execution, retry, and the terminal completion or drop.
 *
 * Sampled requests materialize as causally-linked spans in the
 * tracer's own timeline (per-device pid lanes: "dev<N>.requests"
 * processes with queue / execute / lifecycle threads), tied together
 * by Chrome flow arrows keyed on the request id. The arrows cross
 * into the *chip* tracer: while a sampled request's batch executes,
 * the scheduler force-enables the device timeline (ScopedTracerEnable)
 * and drops a flow step onto the "runtime.operators" track, so
 * opening the merged export in Perfetto walks queue wait -> batch
 * execution -> the exact operator spans that served the request.
 *
 * Sampling is head-based: whether a request is traced is a pure hash
 * of (seed, request id), decided identically at every hook site, so
 * a sampled request's chain is always complete and the decision draws
 * no simulator RNG state. The tracer is a serve::ServingObserver;
 * with none attached serving output is bit-for-bit unchanged
 * (golden-asserted in the tests).
 *
 * The tracer also ingests the fleet's periodic metric snapshots
 * (obs/fleet_metrics.hh), turning them into per-device counter
 * tracks, and forwards finished lifecycles + snapshots to an
 * attached FlightRecorder.
 */

#ifndef DTU_OBS_REQUEST_TRACER_HH
#define DTU_OBS_REQUEST_TRACER_HH

#include <array>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "obs/flight_recorder.hh"
#include "serve/observer.hh"
#include "sim/tracer.hh"

namespace dtu
{
namespace obs
{

/** Sampling and metric policy for request tracing. */
struct RequestTraceConfig
{
    /**
     * Head-based sampling rate: the fraction of requests traced.
     * The decision is a pure function of (seed, request id), so one
     * request is either fully traced or fully invisible.
     */
    double sampleRate = 1.0;
    /** Seed for the sampling hash (independent of simulator RNGs). */
    std::uint64_t seed = 1;
    /**
     * Period of fleet metric snapshots in ticks (simulated time);
     * 0 disables the time-series. Default 100 us.
     */
    Tick metricPeriod = 100'000'000;
};

/** Samples request lifecycles into a Chrome/Perfetto timeline. */
class RequestTracer : public serve::ServingObserver
{
  public:
    explicit RequestTracer(RequestTraceConfig config = {});
    RequestTracer(const RequestTracer &) = delete;
    RequestTracer &operator=(const RequestTracer &) = delete;

    const RequestTraceConfig &config() const { return config_; }

    /** Whole-trace sampling decision for @p id (pure, stateless). */
    bool sampled(std::uint64_t id) const override;

    /** The request-lane timeline (always recording; spans are only
     *  emitted for sampled requests). */
    Tracer &tracer() { return tracer_; }
    const Tracer &tracer() const { return tracer_; }

    /** Forward finished lifecycles + metric snapshots here. */
    void setFlightRecorder(FlightRecorder *recorder)
    {
        flight_ = recorder;
    }

    //
    // Lifecycle hooks, called by serve::Fleet / serve::Scheduler.
    //

    /** The router assigned @p r to @p device. */
    void onRoute(unsigned device, const serve::Request &r) override;

    /** @p r passed admission control into @p device's queue. */
    void onAdmit(unsigned device, const serve::Request &r) override;

    /** @p device began a modeled weight load for @p model. */
    void onWeightLoad(unsigned device, const std::string &model,
                      Tick start, Tick end,
                      std::uint64_t bytes) override;

    /**
     * The chip half of a batch execution, called where the chip's
     * work runs: a flow step lands in @p chip, the device's own
     * tracer (currently force-enabled by the caller), at @p link_ts
     * for every sampled rider of @p batch. @p link_ts is a tick
     * inside one of the chip-level operator spans the batch produced.
     * Touches only @p chip.
     * @return whether the riders are flow-linked (chip recording).
     */
    bool linkBatch(Tracer &chip,
                   const std::vector<serve::Request> &batch,
                   Tick link_ts) const override;

    /**
     * The serving loop read @p launch on @p device: its sampled
     * riders were dispatched at the launch tick and executed through
     * the executor's end (before any fabric overlay).
     */
    void onBatchExecuted(unsigned device,
                         const serve::Launch &launch) override;

    /** Terminal state: @p outcome completed on, or dropped out of,
     *  @p device's pipeline. */
    void onTerminal(unsigned device,
                    const serve::RequestOutcome &outcome) override;

    //
    // Metric time-series.
    //

    /** The configured metric period (0 disables the series). */
    std::optional<Tick> samplePeriod() const override
    {
        return config_.metricPeriod;
    }

    /**
     * Emit one fleet snapshot's counter tracks. Called at the sample
     * tick: the counters read only the loop's own fields, and their
     * place among the other trace events fixes the merged trace.
     */
    void recordCounters(const FleetMetricSample &sample) override;

    /**
     * Append one fleet snapshot, power telemetry included, to the
     * series and the flight recorder's ring. Called once per
     * snapshot, in sample order, after recordCounters().
     */
    void recordMetrics(const FleetMetricSample &sample) override;

    const FleetMetricSeries &metrics() const { return series_; }

    //
    // Results.
    //

    /** Finished sampled lifecycles, in terminal-event order. */
    const std::vector<RequestRecord> &finished() const
    {
        return finished_;
    }

    /** Sampled requests seen so far (terminal or not). */
    std::uint64_t sampledSeen() const { return sampledSeen_; }

    /**
     * Merged Chrome trace: the request lanes plus each device's chip
     * timeline ("dev<i>" process prefixes, disjoint pids, shared
     * flow ids). @p chips is indexed by fleet device.
     */
    void exportTrace(const std::vector<const Tracer *> &chips,
                     std::ostream &os) const;

    /** exportTrace into a file; fatal() on I/O failure. */
    void writeTrace(const std::vector<const Tracer *> &chips,
                    const std::string &path) const;

  private:
    /** The record for @p id, created (and counted) on first sight. */
    RequestRecord &recordFor(std::uint64_t id,
                             const serve::Request &r);

    /** Emit the finished record's spans + flows, then retire it. */
    void finishRecord(RequestRecord &rec);

    static std::string deviceProcess(int device);

    RequestTraceConfig config_;
    std::uint64_t threshold_ = 0;
    Tracer tracer_;
    FleetMetricSeries series_;
    FlightRecorder *flight_ = nullptr;
    /** Sampled requests whose terminal event has not arrived. */
    std::map<std::uint64_t, RequestRecord> pending_;
    std::vector<RequestRecord> finished_;
    std::uint64_t sampledSeen_ = 0;
    /** Each device's five counter-track names, built at first sample. */
    using CounterNames = std::array<std::string, 5>;
    std::vector<CounterNames> counterNames_;
};

} // namespace obs
} // namespace dtu

#endif // DTU_OBS_REQUEST_TRACER_HH
