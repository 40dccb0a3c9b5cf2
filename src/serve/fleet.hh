/**
 * @file
 * Multi-device fleet serving: data-parallel scale-out of the
 * request-level serving runtime.
 *
 * A Fleet fronts N independently clocked Dtu instances (each with
 * its own ResourceManager) with one discrete-event serving loop. A
 * pluggable Router assigns every arrival to a device; each device
 * runs its own steppable Scheduler core (per-device queues, dynamic
 * batching, degradation), while the fleet driver owns the global
 * timeline and min-reduces the devices' next-event times — so
 * cross-device ordering is deterministic. This is the only serving
 * event loop: a single device is served as a size-1 fleet (the
 * api::Server facade).
 *
 * One serial event loop serves every FleetConfig::threads value. The
 * fleet thread makes every scheduling decision in serial order:
 * routing, admission, batching, leases, KV pages and outcome order.
 * Only a launch's chip-side work (Executor::run with its retries, and
 * the TP/PP fabric overlay) leaves it: each device has one FIFO lane
 * on a LaneExecutor (sim/lane_executor.hh), whose tasks run on any of
 * the `threads` workers, the fleet thread included. The fleet thread
 * first reads a launch's result at the launch's *floor*: the launch
 * tick plus a sound lower bound on the batch's latency taken from the
 * plan's compute time (Executor::minLatency). Launches on different
 * chips are therefore in flight together, while each chip still sees
 * exactly the serial sequence of operations, so reports are
 * bit-identical to threads=1 at any thread count. A floor tick that
 * is not a real event makes advance and settle no-ops.
 *
 * Model placement is explicit: the first time the router assigns a
 * model to a device, the device "places" it, optionally paying a
 * modeled PCIe weight-load (weight bytes at weightLoadGbps GB/s,
 * serialized per device, see Scheduler::placeModel). Batches of a
 * model cannot launch on a device before its weights are resident,
 * which is what makes model-affinity routing worth having.
 *
 * This is the paper's cloud-deployment story scaled out: the i20
 * card is a PCIe device, and inference clusters scale by packing
 * cards behind one request router (data parallelism), not by model
 * sharding — so the fleet abstraction is N chips + a router, with
 * per-device SLO accounting rolled up fleet-wide.
 *
 * Beyond data parallelism, a FleetConfig can enable the interconnect
 * fabric (fabric/fabric.hh) and a model-parallel placement
 * (serve/placement.hh): the fleet then partitions its devices into
 * groups of `placement.degree`, runs one scheduler core per group
 * (on the group-leader chip, which models one representative device
 * of the lockstep group), and the schedulers submit the placement's
 * collectives and activation streams as timed fabric transfers.
 * Weight loads always cross the fabric's shared host root complex,
 * so concurrent placements contend.
 */

#ifndef DTU_SERVE_FLEET_HH
#define DTU_SERVE_FLEET_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "fabric/fabric.hh"
#include "serve/placement.hh"
#include "serve/scheduler.hh"

namespace dtu
{
namespace serve
{

class MetricSampler;

/** How the fleet router picks a device for each arrival. */
enum class RoutingPolicy
{
    /** Cycle through devices in index order, stateless. */
    RoundRobin,
    /**
     * Pick the device with the fewest outstanding (queued +
     * in-flight) requests; ties break on the lowest index. The
     * classic load-aware policy: under bursty arrivals it spreads a
     * burst across idle devices instead of stacking it behind a
     * busy one, cutting tail latency.
     */
    LeastOutstanding,
    /**
     * Prefer devices that already hold the model's weights (least
     * outstanding among them); fall back to the globally least
     * loaded device, triggering a placement there. Minimizes PCIe
     * weight traffic at some load-balance cost.
     */
    ModelAffinity,
};

/** Stable lowercase name ("round_robin", ...). */
const char *routingPolicyName(RoutingPolicy policy);

/** Parse a policy name; nullopt when unknown. */
std::optional<RoutingPolicy> parseRoutingPolicy(const std::string &name);

/** Configuration of a serving fleet. */
struct FleetConfig
{
    /** Devices in the fleet. */
    unsigned devices = 1;
    /** Arrival-to-device routing policy. */
    RoutingPolicy routing = RoutingPolicy::RoundRobin;
    /** Per-device scheduler configuration (identical across devices). */
    ServingConfig serving;
    /**
     * PCIe bandwidth for first-placement weight loads, in GB/s.
     * 0 (the default) disables the cost model: placements are
     * tracked (affinity routing still works) but weights are
     * resident immediately.
     */
    double weightLoadGbps = 0.0;
    /**
     * Threads executing the devices' launches, the fleet thread
     * included, clamped to the fleet size. 1 (the default) runs every
     * launch inline on the fleet thread. With more, launches run on
     * per-device FIFO lanes while the serial loop goes on until it
     * reaches a launch's latency floor (see the file comment); every
     * report is bit-identical to threads=1, and so is every
     * observer's artifact: launch records reach the observers when
     * the fleet thread reads a launch, and metric samples read the
     * chips from their lanes. Two cases fall back to threads=1 (with
     * a warning): a chip whose fault injector has a listener (the
     * listener runs inside chip execution and may read fleet-side
     * state, such as the flight recorder's rings, as of the faulting
     * launch), and shared-root fabric topologies under a
     * model-parallel placement, whose peer traffic crosses the shared
     * root link the fleet thread books weight loads on.
     */
    unsigned threads = 1;
    /**
     * The interconnect fabric (off by default). When enabled, weight
     * loads route through the fabric's shared host root complex —
     * concurrent placements contend on its bandwidth ledger instead
     * of each enjoying the full weightLoadGbps — and model-parallel
     * placements run their collectives over the peer links.
     */
    fabric::FabricConfig fabric;
    /**
     * How devices are grouped into serving units (data parallel by
     * default). Tensor/pipeline placements require the fabric.
     */
    PlacementConfig placement;
};

/** One device's slice of a fleet serving run. */
struct DeviceReport
{
    /** Device index within the fleet. */
    unsigned device = 0;
    /** Arrivals the router assigned to this device. */
    std::uint64_t routed = 0;
    /** Highest arrival-queue depth the device saw. */
    std::uint64_t peakQueueDepth = 0;
    /** Models placed on this device, alphabetical. */
    std::vector<std::string> placedModels;
    /** First-placement weight loads this device paid. */
    std::uint64_t weightLoads = 0;
    /** Total modeled PCIe weight-load time. */
    Tick weightLoadTicks = 0;
    /** Total weight bytes loaded. */
    std::uint64_t weightLoadBytes = 0;
    /** The device's own serving report (its routed slice). */
    ServingReport report;
};

/** Fabric traffic rollup for the fleet report (all zero when off). */
struct FleetFabricReport
{
    bool enabled = false;
    fabric::Topology topology = fabric::Topology::SharedRoot;
    unsigned groups = 0;
    unsigned groupSize = 1;
    double linkGbps = 0.0;
    double hostGbps = 0.0;
    fabric::FabricTotals totals;
    std::vector<fabric::LinkStats> links;
};

/** Fleet-wide outcome: the aggregate plus every device's slice. */
struct FleetReport
{
    /** Devices served. */
    unsigned devices = 0;
    /** Policy that routed the trace. */
    RoutingPolicy routing = RoutingPolicy::RoundRobin;
    /** How devices were grouped into serving units. */
    PlacementConfig placement;
    /** Interconnect traffic (enabled=false keeps the JSON unchanged). */
    FleetFabricReport fabric;
    /**
     * Fleet-aggregate report over the merged completion/drop logs:
     * fleet-wide percentiles, summed batches/energy, mean device
     * utilization. For a size-1 fleet this equals devices[0].report.
     */
    ServingReport fleet;
    /** Per-device slices (one per placement group), index order. */
    std::vector<DeviceReport> perDevice;
};

/**
 * Routing policy implementation. route() sees the live device cores
 * (queue depths, outstanding work, placements) so policies can be
 * load- and placement-aware. Implementations must be deterministic:
 * same arrival sequence and device states => same assignment.
 */
class Router
{
  public:
    virtual ~Router() = default;

    /** Pick the device for @p request. */
    virtual unsigned route(const Request &request,
                           const std::vector<Scheduler *> &devices) = 0;

    /** Build the standard implementation of @p policy. */
    static std::unique_ptr<Router> make(RoutingPolicy policy);
};

/**
 * N steppable Scheduler cores behind one Router on one timeline.
 * The Fleet borrows the chips and managers (the api::FleetServer
 * facade owns them); members must outlive the Fleet.
 */
class Fleet
{
  public:
    /** One borrowed device: a chip and its resource manager. */
    struct Member
    {
        Dtu *dtu = nullptr;
        ResourceManager *manager = nullptr;
    };

    Fleet(std::vector<Member> members, FleetConfig config);

    /** The schedulers refer to the fleet's observer list. */
    Fleet(const Fleet &) = delete;
    Fleet &operator=(const Fleet &) = delete;

    /**
     * Drain a finalized arrival trace (see serve/arrival.hh) across
     * the fleet. When a chip's Tracer is enabled (or
     * config.serving.exec.timeline is set), every request contributes
     * an arrival-to-completion span and every batch an execution
     * span, nested over the executor's operator spans in the same
     * timeline.
     */
    FleetReport serve(std::vector<Request> trace);

    /** Scheduler cores in the fleet (placement groups). */
    std::size_t size() const { return devices_.size(); }

    /** Group @p i's scheduler core (e.g. for placement queries). */
    Scheduler &device(std::size_t i) { return *devices_[i]; }

    const FleetConfig &config() const { return config_; }

    /** The interconnect fabric, or nullptr when disabled. */
    const fabric::Fabric *fabricPtr() const { return fabric_.get(); }

    /**
     * Replace the observers (serve/observer.hh) the fleet loop, the
     * device schedulers and the metric sampler notify, in list order.
     * Observers see devices by fleet index and must outlive every
     * serve(). Without observers the serving loop is bit-for-bit
     * unchanged.
     */
    void setObservers(Observers observers)
    {
        observers_ = std::move(observers);
    }

    /**
     * Apply the metric samples serve() has taken so far to the
     * observers, waiting for their chip readings (see
     * serve/metric_sampler.hh). A no-op outside serve(); call it
     * from the fleet thread, e.g. before a flight-recorder dump.
     */
    void flushMetricSamples();

  private:
    /** Threads serve() will actually use (clamp + fallback). */
    unsigned effectiveThreads() const;

    /** Assemble the per-device and fleet-aggregate reports. */
    FleetReport
    buildReport(double offered,
                const std::vector<std::vector<Request>> &routed);

    /** (Re)build the fabric and hand it to the group schedulers. */
    void rebuildFabric();

    FleetConfig config_;
    /** Physical devices per scheduler core (1 = data parallel). */
    unsigned groupSize_ = 1;
    /** One compiled-plan cache for the identically configured devices. */
    PlanCache plans_;
    /** Referred to by every scheduler: declared before them. */
    Observers observers_;
    std::vector<std::unique_ptr<Scheduler>> devices_;
    std::vector<Scheduler *> view_;
    std::unique_ptr<fabric::Fabric> fabric_;
    std::unique_ptr<Router> router_;
    /** serve()'s metric sampler while it runs. */
    MetricSampler *sampler_ = nullptr;
};

/**
 * Serialize a fleet report: fleet config, the aggregate report, and
 * one per-device section (routing counts, placements, weight-load
 * totals, the device's own report).
 * @param per_request include per-request logs in every section.
 */
void writeJson(const FleetReport &report, std::ostream &os,
               bool per_request = false);

} // namespace serve
} // namespace dtu

#endif // DTU_SERVE_FLEET_HH
