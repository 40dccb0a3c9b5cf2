/**
 * @file
 * The inference-server facade — the top of the redesigned host API.
 *
 * FleetServer is the one facade: clients describe a request with a
 * serve::RequestSpec (model, tenant, arrival, deadline, and optional
 * GenerationParams — maxNewTokens == 0 is the classic one-shot case)
 * and submit it the same way whether one Device or a routed fleet
 * backs it. Server is a size-1 FleetServer over one borrowed Device
 * that keeps the single-device Prometheus names:
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
 * A borrowed device's ResourceManager stays shared with any live
 * Streams: streams keep their leases, the batcher works in whatever
 * capacity remains. A served chip's timeline only moves forward:
 * stream work issued after a serve, from an earlier cursor, waits for
 * the point the serve reached (Dtu::ledgerWatermark()).
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
 * Data-parallel serving across a fleet of devices — the multi-card
 * deployment facade, and everything a client does to an inference
 * service. Fronts N identically configured Devices with a
 * serve::Fleet that routes one submission stream across them:
 *
 *   FleetServer fleet({.devices = 4,
 *                      .routing =
 *                          serve::RoutingPolicy::LeastOutstanding,
 *                      .serving = {.batching = {.maxBatch = 8}}});
 *   fleet.submit(serve::poissonTrace("resnet50", 2000, 512, seed));
 *   serve::FleetReport report = fleet.serveFleet();
 *
 * The fleet either owns its devices or, size 1, borrows one.
 */
class FleetServer
{
  public:
    /** Open @p config.devices devices of @p chip and front them. */
    explicit FleetServer(serve::FleetConfig config = {},
                         const DtuConfig &chip = dtu2Config());

    /**
     * Front one borrowed @p device as a size-1 fleet. Its
     * ResourceManager stays shared with live Streams; the device
     * must outlive the server.
     */
    explicit FleetServer(Device &device,
                         serve::ServingConfig config = {});

    /** Clears the fault hooks serveFleet() installed. */
    virtual ~FleetServer();

    FleetServer(const FleetServer &) = delete;
    FleetServer &operator=(const FleetServer &) = delete;

    /** Submit one request described by @p spec (routed at serve()
     *  time); returns its id. */
    std::uint64_t submit(const serve::RequestSpec &spec);

    /**
     * Submit a whole arrival trace (ids are reassigned so the
     * combined submission stream stays uniquely identified).
     */
    void submit(const std::vector<serve::Request> &trace);

    /** Requests submitted and not yet served. */
    std::size_t pending() const { return pending_.size(); }

    /**
     * Drain everything submitted so far across the fleet and return
     * the full per-device report (also retained; see lastReport()).
     * Subsequent submits start a fresh trace. A trace that starts
     * before the point an earlier serve reached restarts the chips'
     * contention timelines idle from tick 0: every earlier booking,
     * served or streamed, stops contending with it.
     */
    const serve::FleetReport &serveFleet();

    /** serveFleet()'s fleet aggregate: the serving report. */
    const serve::ServingReport &serve() { return serveFleet().fleet; }

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
     * Attach a live SLO monitor fleet-wide: tumbling windows of
     * p50/p95/p99, goodput, and SLO burn rate (obs/slo_monitor.hh),
     * fed by completions and drops from every device in global event
     * order, with threshold alert callbacks firing mid-serve at the
     * simulated time of the crossing. Enabling twice is a
     * configuration error; without it serving is bit-for-bit
     * unchanged.
     */
    obs::SloMonitor &enableSloMonitor(obs::SloConfig config = {});

    /** The attached monitor, or nullptr. */
    obs::SloMonitor *sloMonitor() { return sloMon_.get(); }

    /**
     * Attach a request-lifecycle tracer fleet-wide
     * (obs/request_tracer.hh): router choices, per-device
     * admission/batch/terminal spans flow-linked into each device's
     * chip timeline, and the periodic fleet metric time-series.
     * Enabling twice is a configuration error; without it serving is
     * bit-for-bit unchanged.
     */
    obs::RequestTracer &
    enableRequestTracing(obs::RequestTraceConfig config = {});

    /** The attached tracer, or nullptr. */
    obs::RequestTracer *requestTracer() { return reqTracer_.get(); }

    /**
     * Attach one energy monitor fleet-wide (obs/energy_monitor.hh):
     * serving reports gain per-component energy attribution and
     * J/token, every chip is watched under its fleet index (each
     * gets its CPME/LPME PowerAuditTrail installed), the fleet
     * loop's metric samples carry power telemetry, the flight
     * recorder (either enable order) receives the decision stream,
     * and writePrometheus() exports the dtusim_power_* /
     * dtusim_energy_* families. Enabling twice is a configuration
     * error; without it serving is bit-for-bit unchanged.
     */
    obs::EnergyMonitor &
    enableEnergyMonitor(obs::EnergyMonitorConfig config = {});

    /** The attached energy monitor, or nullptr. */
    obs::EnergyMonitor *energyMonitor() { return energyMon_.get(); }

    /**
     * Write the EnergyReport JSON artifact of the most recent
     * serve() to @p path (requires enableEnergyMonitor()).
     */
    void writeEnergyReport(const std::string &path);

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
    virtual void writePrometheus(std::ostream &os);

  protected:
    /** True once serve() ran. */
    bool served() const { return served_; }

  private:
    serve::FleetConfig config_;
    /** The devices this server opened (none when it borrows one). */
    std::vector<std::unique_ptr<Device>> owned_;
    /** Every device, in fleet order. */
    std::vector<Device *> devices_;
    std::unique_ptr<serve::Fleet> fleet_;
    std::vector<serve::Request> pending_;
    std::uint64_t nextId_ = 1;
    serve::FleetReport last_;
    bool served_ = false;
    std::unique_ptr<obs::SloMonitor> sloMon_;
    std::unique_ptr<obs::RequestTracer> reqTracer_;
    std::unique_ptr<obs::EnergyMonitor> energyMon_;
    std::unique_ptr<obs::FlightRecorder> flightRec_;
    /** Injectors whose onFault() this server hooked. */
    std::vector<FaultInjector *> hookedFaults_;

    /** Build the fleet over devices_. */
    void openFleet();

    /** Hand the enabled observers to the fleet, in kind order. */
    void attachObservers();

    /** Every chip's tracer, for the merged trace; needs a tracer. */
    std::vector<const Tracer *> chipTracers(const char *caller) const;

    /** Hook the SLO monitor's alert stream into the recorder once. */
    void wireFlightAlerts();
    bool flightAlertsWired_ = false;
};

/**
 * Request-level serving on one borrowed Device: a size-1 FleetServer
 * whose Prometheus exposition keeps the single-device names.
 */
class Server : public FleetServer
{
  public:
    explicit Server(Device &device, serve::ServingConfig config = {})
        : FleetServer(device, std::move(config))
    {}

    /**
     * Export the device's chip registry under "dtusim" plus the
     * dtusim_serve_* gauges (latency, goodput, and — when the run
     * generated — tokens/s, TTFT/ITL tails, KV-cache occupancy) and
     * the energy families from the most recent serve().
     */
    void writePrometheus(std::ostream &os) override;
};

} // namespace dtu

#endif // DTU_API_SERVER_HH
