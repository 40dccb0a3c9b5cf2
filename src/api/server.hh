/**
 * @file
 * The inference-server facades — the top of the redesigned host API.
 *
 * Both facades implement the one generation-aware ServingFrontend
 * interface: clients describe a request with a serve::RequestSpec
 * (model, tenant, arrival, deadline, and optional GenerationParams —
 * maxNewTokens == 0 is the classic one-shot case) and submit it the
 * same way whether the backend is a single Device or a routed fleet.
 *
 *   Device device;
 *   Server server(device, {.batching = {.maxBatch = 8,
 *                                       .maxQueueDelay =
 *                                           secondsToTicks(2e-3)}});
 *   server.submit({.model = "resnet50", .arrival = a, .deadline = d});
 *   server.submit({.model = "gpt_tiny", .arrival = a,
 *                  .gen = {.promptLen = 128, .maxNewTokens = 64}});
 *   server.submit(serve::poissonTrace("bert_large", 200, 64, seed));
 *   serve::ServingReport report = server.serve();
 *
 * The Server shares the device's ResourceManager with any live
 * Streams: streams keep their leases, the batcher works in whatever
 * capacity remains. A served chip's timeline only moves forward:
 * stream work issued after a serve, from an earlier cursor, waits for
 * the point the serve reached (EventQueue::ledgerWatermark()).
 */

#ifndef DTU_API_SERVER_HH
#define DTU_API_SERVER_HH

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "api/tops_runtime.hh"
#include "obs/energy_monitor.hh"
#include "obs/flight_recorder.hh"
#include "obs/request_tracer.hh"
#include "obs/slo_monitor.hh"
#include "serve/fleet.hh"
#include "serve/scheduler.hh"

namespace dtu
{

/**
 * The unified serving frontend: everything a client does to an
 * inference service, independent of whether one Device or a routed
 * fleet backs it. Both facades (Server, FleetServer) implement it,
 * so load generators, benches, and tests drive either through the
 * same handle — and a size-1 fleet is golden-tested to reproduce the
 * single-device Server bit-for-bit through this interface.
 */
class ServingFrontend
{
  public:
    virtual ~ServingFrontend() = default;

    /** Submit one request described by @p spec; returns its id. */
    virtual std::uint64_t submit(const serve::RequestSpec &spec) = 0;

    /**
     * Submit a whole arrival trace (ids are reassigned so the
     * combined submission stream stays uniquely identified).
     */
    virtual void submit(const std::vector<serve::Request> &trace) = 0;

    /** Requests submitted and not yet served. */
    virtual std::size_t pending() const = 0;

    /**
     * Drain everything submitted so far and return the aggregated
     * serving report (the fleet facade aggregates across devices).
     * Subsequent submits start a fresh trace. A trace that starts
     * before the point an earlier serve reached restarts the chips'
     * contention timelines idle from tick 0: every earlier booking,
     * served or streamed, stops contending with it.
     */
    virtual const serve::ServingReport &serve() = 0;

    /**
     * Attach a live SLO monitor to the serving pipeline: tumbling
     * windows of p50/p95/p99, goodput, and SLO burn rate, with
     * threshold alert callbacks firing mid-serve at the simulated
     * time of the crossing (see obs/slo_monitor.hh). Enabling twice
     * is a configuration error; without it serving is bit-for-bit
     * unchanged.
     */
    virtual obs::SloMonitor &
    enableSloMonitor(obs::SloConfig config = {}) = 0;

    /** The attached monitor, or nullptr. */
    virtual obs::SloMonitor *sloMonitor() = 0;

    /**
     * Attach a request-lifecycle tracer (obs/request_tracer.hh):
     * sampled requests become causally-linked queue/execute/lifecycle
     * spans flow-linked to the chip's operator timeline, and the
     * scheduler samples the periodic metric time-series. Enabling
     * twice is a configuration error; without it serving is
     * bit-for-bit unchanged.
     */
    virtual obs::RequestTracer &
    enableRequestTracing(obs::RequestTraceConfig config = {}) = 0;

    /** The attached tracer, or nullptr. */
    virtual obs::RequestTracer *requestTracer() = 0;

    /**
     * Attach an energy monitor (obs/energy_monitor.hh): serving
     * reports gain per-component energy attribution and J/token,
     * metric samples carry power telemetry, every chip records its
     * CPME/LPME decision audit trail, and writePrometheus() exports
     * the dtusim_power_* / dtusim_energy_* families. Enabling twice
     * is a configuration error; without it serving is bit-for-bit
     * unchanged.
     */
    virtual obs::EnergyMonitor &
    enableEnergyMonitor(obs::EnergyMonitorConfig config = {}) = 0;

    /** The attached energy monitor, or nullptr. */
    virtual obs::EnergyMonitor *energyMonitor() = 0;

    /**
     * Write the EnergyReport JSON artifact of the most recent
     * serve() to @p path (requires enableEnergyMonitor()).
     */
    virtual void writeEnergyReport(const std::string &path) = 0;

    /**
     * Export chip stats plus serving gauges from the most recent
     * serve() in Prometheus text exposition format.
     */
    virtual void writePrometheus(std::ostream &os) = 0;
};

/** Request-level serving on top of a Device. */
class Server : public ServingFrontend
{
  public:
    explicit Server(Device &device, serve::ServingConfig config = {});

    /** Submit one request described by @p spec; returns its id. */
    std::uint64_t submit(const serve::RequestSpec &spec) override;

    /**
     * Submit a whole arrival trace (ids are reassigned so the
     * combined submission stream stays uniquely identified).
     */
    void submit(const std::vector<serve::Request> &trace) override;

    /** Requests submitted and not yet served. */
    std::size_t pending() const override { return pending_.size(); }

    /**
     * Drain everything submitted so far and return the aggregated
     * report (also retained; see lastReport()). Subsequent submits
     * start a fresh trace.
     */
    const serve::ServingReport &serve() override;

    /** Report of the most recent serve(). */
    const serve::ServingReport &lastReport() const { return last_; }

    const serve::ServingConfig &config() const { return config_; }

    obs::SloMonitor &
    enableSloMonitor(obs::SloConfig config = {}) override;

    /** The attached monitor, or nullptr. */
    obs::SloMonitor *sloMonitor() override { return sloMon_.get(); }

    obs::RequestTracer &
    enableRequestTracing(obs::RequestTraceConfig config = {}) override;

    /** The attached tracer, or nullptr. */
    obs::RequestTracer *requestTracer() override
    {
        return reqTracer_.get();
    }

    obs::EnergyMonitor &
    enableEnergyMonitor(obs::EnergyMonitorConfig config = {}) override;

    /** The attached energy monitor, or nullptr. */
    obs::EnergyMonitor *energyMonitor() override
    {
        return energyMon_.get();
    }

    void writeEnergyReport(const std::string &path) override;

    /**
     * Write the merged request + chip Chrome trace (requires
     * enableRequestTracing()).
     */
    void writeRequestTrace(const std::string &path);

    /**
     * Export the device's chip registry plus serving gauges (latency,
     * goodput, and — when the run generated — tokens/s, TTFT/ITL
     * tails, KV-cache occupancy) from the most recent serve().
     */
    void writePrometheus(std::ostream &os) override;

  private:
    Device &device_;
    serve::ServingConfig config_;
    serve::Scheduler scheduler_;
    std::vector<serve::Request> pending_;
    std::uint64_t nextId_ = 1;
    serve::ServingReport last_;
    bool served_ = false;
    std::unique_ptr<obs::SloMonitor> sloMon_;
    std::unique_ptr<obs::RequestTracer> reqTracer_;
    std::unique_ptr<obs::EnergyMonitor> energyMon_;
};

/**
 * Data-parallel serving across a fleet of devices — the multi-card
 * deployment facade. Owns N identically configured Devices and a
 * serve::Fleet that routes one submission stream across them:
 *
 *   FleetServer fleet({.devices = 4,
 *                      .routing =
 *                          serve::RoutingPolicy::LeastOutstanding,
 *                      .serving = {.batching = {.maxBatch = 8}}});
 *   fleet.submit(serve::poissonTrace("resnet50", 2000, 512, seed));
 *   serve::FleetReport report = fleet.serve();
 *
 * A size-1 fleet reproduces Server::serve() bit-for-bit.
 */
class FleetServer : public ServingFrontend
{
  public:
    /** Open @p config.devices devices of @p chip and front them. */
    explicit FleetServer(serve::FleetConfig config = {},
                         const DtuConfig &chip = dtu2Config());

    /** Submit one request described by @p spec (routed at serve()
     *  time); returns its id. */
    std::uint64_t submit(const serve::RequestSpec &spec) override;

    /** Submit a whole arrival trace (ids are reassigned). */
    void submit(const std::vector<serve::Request> &trace) override;

    /** Requests submitted and not yet served. */
    std::size_t pending() const override { return pending_.size(); }

    /**
     * Drain everything submitted so far across the fleet and return
     * the full per-device report (also retained; see lastReport()).
     */
    const serve::FleetReport &serveFleet();

    /** ServingFrontend view of serveFleet(): the fleet aggregate. */
    const serve::ServingReport &serve() override
    {
        return serveFleet().fleet;
    }

    /** Report of the most recent serve(). */
    const serve::FleetReport &lastReport() const { return last_; }

    /** Devices in the fleet. */
    unsigned size() const
    {
        return static_cast<unsigned>(devices_.size());
    }

    /** Device @p i (tracing, faults, perf sampling, stats). */
    Device &device(unsigned i) { return *devices_[i]; }

    /** The routing/serving coordinator. */
    serve::Fleet &fleet() { return *fleet_; }

    const serve::FleetConfig &config() const { return config_; }

    /**
     * Attach one live SLO monitor fleet-wide: completions and drops
     * from every device feed it in global event order. Enabling
     * twice is a configuration error.
     */
    obs::SloMonitor &
    enableSloMonitor(obs::SloConfig config = {}) override;

    /** The attached monitor, or nullptr. */
    obs::SloMonitor *sloMonitor() override { return sloMon_.get(); }

    /**
     * Attach a request-lifecycle tracer fleet-wide: router choices,
     * per-device admission/batch/terminal spans, flow links into each
     * device's chip timeline, and the periodic fleet metric
     * time-series. Enabling twice is a configuration error; without
     * it serving is bit-for-bit unchanged.
     */
    obs::RequestTracer &
    enableRequestTracing(obs::RequestTraceConfig config = {}) override;

    /** The attached tracer, or nullptr. */
    obs::RequestTracer *requestTracer() override
    {
        return reqTracer_.get();
    }

    /**
     * Attach one energy monitor fleet-wide: every chip is watched
     * under its fleet index (each gets its PowerAuditTrail
     * installed), the fleet loop's metric samples carry power
     * telemetry, and the flight recorder (either enable order)
     * receives the CPME/LPME decision stream. Enabling twice is a
     * configuration error; without it serving is bit-for-bit
     * unchanged.
     */
    obs::EnergyMonitor &
    enableEnergyMonitor(obs::EnergyMonitorConfig config = {}) override;

    /** The attached energy monitor, or nullptr. */
    obs::EnergyMonitor *energyMonitor() override
    {
        return energyMon_.get();
    }

    void writeEnergyReport(const std::string &path) override;

    /**
     * Attach the SLO flight recorder: a bounded ring of recent
     * sampled request lifecycles and metric snapshots (fed by the
     * request tracer) that dumps a retrospective JSON incident report
     * the first time an SloMonitor burn-rate alert fires or an
     * installed fault injector reports a fault. Works with either
     * enable order relative to enableSloMonitor()/
     * enableRequestTracing(); fault injectors are (re)hooked at
     * serve() time so installFaults() can come later. Enabling twice
     * is a configuration error.
     */
    obs::FlightRecorder &
    enableFlightRecorder(obs::FlightRecorderConfig config = {});

    /** The attached recorder, or nullptr. */
    obs::FlightRecorder *flightRecorder() { return flightRec_.get(); }

    /**
     * Export the merged fleet Chrome trace — request lanes plus every
     * device's chip timeline on disjoint pids, flow arrows crossing
     * between them (requires enableRequestTracing()).
     */
    void exportFleetTrace(std::ostream &os);

    /** exportFleetTrace() into a file; fatal() on I/O failure. */
    void writeFleetTrace(const std::string &path);

    /**
     * Export the whole fleet in Prometheus text exposition format:
     * every device's chip registry under a "dtusim_dev<i>" prefix,
     * then fleet-aggregate and per-device serving gauges (labeled by
     * device) from the most recent serve().
     */
    void writePrometheus(std::ostream &os) override;

  private:
    serve::FleetConfig config_;
    std::vector<std::unique_ptr<Device>> devices_;
    std::unique_ptr<serve::Fleet> fleet_;
    std::vector<serve::Request> pending_;
    std::uint64_t nextId_ = 1;
    serve::FleetReport last_;
    bool served_ = false;
    std::unique_ptr<obs::SloMonitor> sloMon_;
    std::unique_ptr<obs::RequestTracer> reqTracer_;
    std::unique_ptr<obs::EnergyMonitor> energyMon_;
    std::unique_ptr<obs::FlightRecorder> flightRec_;

    /** Hook the SLO monitor's alert stream into the recorder once. */
    void wireFlightAlerts();
    bool flightAlertsWired_ = false;
};

} // namespace dtu

#endif // DTU_API_SERVER_HH
