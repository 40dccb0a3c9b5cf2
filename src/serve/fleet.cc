#include "serve/fleet.hh"

#include <algorithm>
#include <limits>

#include "obs/energy_monitor.hh"
#include "obs/request_tracer.hh"
#include "obs/slo_monitor.hh"
#include "serve/arrival.hh"
#include "serve/metric_sampler.hh"
#include "sim/fault.hh"
#include "sim/json.hh"
#include "sim/logging.hh"
#include "sim/lane_executor.hh"
#include "soc/dtu.hh"

namespace dtu
{
namespace serve
{

namespace
{

constexpr Tick kNever = std::numeric_limits<Tick>::max();

/** Stateless cycle through device indices. */
class RoundRobinRouter : public Router
{
  public:
    unsigned
    route(const Request &, const std::vector<Scheduler *> &devices)
        override
    {
        return static_cast<unsigned>(next_++ % devices.size());
    }

  private:
    std::size_t next_ = 0;
};

/** Device with the fewest queued + in-flight requests, lowest index. */
unsigned
leastOutstanding(const std::vector<Scheduler *> &devices)
{
    unsigned best = 0;
    std::size_t best_load = devices[0]->outstanding();
    for (unsigned i = 1; i < devices.size(); ++i) {
        std::size_t load = devices[i]->outstanding();
        if (load < best_load) {
            best = i;
            best_load = load;
        }
    }
    return best;
}

class LeastOutstandingRouter : public Router
{
  public:
    unsigned
    route(const Request &, const std::vector<Scheduler *> &devices)
        override
    {
        return leastOutstanding(devices);
    }
};

/**
 * Least outstanding among devices already holding the model's
 * weights; globally least outstanding (forcing a new placement)
 * when no device has them yet.
 */
class ModelAffinityRouter : public Router
{
  public:
    unsigned
    route(const Request &r, const std::vector<Scheduler *> &devices)
        override
    {
        bool found = false;
        unsigned best = 0;
        std::size_t best_load = 0;
        for (unsigned i = 0; i < devices.size(); ++i) {
            if (!devices[i]->modelPlaced(r.model))
                continue;
            std::size_t load = devices[i]->outstanding();
            if (!found || load < best_load) {
                found = true;
                best = i;
                best_load = load;
            }
        }
        return found ? best : leastOutstanding(devices);
    }
};

} // namespace

const char *
routingPolicyName(RoutingPolicy policy)
{
    switch (policy) {
      case RoutingPolicy::RoundRobin: return "round_robin";
      case RoutingPolicy::LeastOutstanding: return "least_outstanding";
      case RoutingPolicy::ModelAffinity: return "model_affinity";
    }
    return "?";
}

std::optional<RoutingPolicy>
parseRoutingPolicy(const std::string &name)
{
    if (name == "round_robin")
        return RoutingPolicy::RoundRobin;
    if (name == "least_outstanding")
        return RoutingPolicy::LeastOutstanding;
    if (name == "model_affinity")
        return RoutingPolicy::ModelAffinity;
    return std::nullopt;
}

std::unique_ptr<Router>
Router::make(RoutingPolicy policy)
{
    switch (policy) {
      case RoutingPolicy::RoundRobin:
        return std::make_unique<RoundRobinRouter>();
      case RoutingPolicy::LeastOutstanding:
        return std::make_unique<LeastOutstandingRouter>();
      case RoutingPolicy::ModelAffinity:
        return std::make_unique<ModelAffinityRouter>();
    }
    fatal("unknown routing policy");
}

Fleet::Fleet(std::vector<Member> members, FleetConfig config)
    : config_(std::move(config))
{
    fatalIf(members.empty(), "a fleet needs at least one device");
    fatalIf(config_.devices != members.size(),
            "fleet config says ", config_.devices,
            " devices but ", members.size(), " were provided");
    for (const Member &m : members) {
        fatalIf(!m.dtu || !m.manager,
                "fleet member needs a chip and a resource manager");
    }
    validatePlacement(config_.placement, config_.devices);
    if (config_.fabric.enabled)
        config_.fabric.validate();
    fatalIf(config_.placement.mode != PlacementMode::DataParallel &&
                !config_.fabric.enabled,
            placementModeName(config_.placement.mode),
            " placements need the fleet fabric enabled");
    groupSize_ = config_.placement.mode == PlacementMode::DataParallel
                     ? 1
                     : config_.placement.degree;

    // One scheduler core per placement group, on the group-leader
    // chip: the leader models one representative device of the
    // lockstep group (TP peers execute the same shard in unison; PP
    // stage timing is folded in analytically, see shardOverlay).
    const std::size_t groups = members.size() / groupSize_;
    devices_.reserve(groups);
    for (std::size_t g = 0; g < groups; ++g) {
        const Member &m = members[g * groupSize_];
        devices_.push_back(std::make_unique<Scheduler>(
            *m.dtu, *m.manager, config_.serving, plans_,
            static_cast<unsigned>(g)));
        view_.push_back(devices_.back().get());
    }
    rebuildFabric();
}

void
Fleet::rebuildFabric()
{
    if (!config_.fabric.enabled)
        return;
    // A fresh ledger per run: serve() re-places every model, so the
    // fabric's contention state must start empty too.
    fabric_ = std::make_unique<fabric::Fabric>(
        config_.fabric, config_.devices, groupSize_);
    for (unsigned g = 0; g < devices_.size(); ++g)
        devices_[g]->setSharding(fabric_.get(), g, config_.placement);
}

void
Fleet::setSloMonitor(obs::SloMonitor *monitor)
{
    sloMon_ = monitor;
    for (auto &dev : devices_)
        dev->setSloMonitor(monitor);
}

void
Fleet::setRequestTracer(obs::RequestTracer *tracer)
{
    reqTracer_ = tracer;
    for (auto &dev : devices_)
        dev->setRequestTracer(tracer);
}

void
Fleet::setEnergyMonitor(obs::EnergyMonitor *monitor)
{
    energyMon_ = monitor;
    for (auto &dev : devices_)
        dev->setEnergyMonitor(monitor);
}

void
Fleet::flushMetricSamples()
{
    if (sampler_)
        sampler_->flush();
}

unsigned
Fleet::effectiveThreads() const
{
    unsigned threads = std::max(1u, config_.threads);
    threads = static_cast<unsigned>(
        std::min<std::size_t>(threads, devices_.size()));
    if (threads <= 1)
        return 1;
    for (const auto &dev : devices_) {
        const FaultInjector *faults = dev->chip().faults();
        if (faults && faults->hasListener()) {
            warn("a fault listener runs inside chip execution and may "
                 "read fleet-side state as of the faulting launch; "
                 "serving with threads=1");
            return 1;
        }
    }
    if (fabric_ && fabric_->peerTrafficSharesRoot()) {
        warn("shared-root fabric topologies route group collectives "
             "over the shared root link, which the fleet thread books "
             "weight loads on; serving with threads=1");
        return 1;
    }
    return threads;
}

FleetReport
Fleet::serve(std::vector<Request> trace)
{
    std::sort(trace.begin(), trace.end(),
              [](const Request &a, const Request &b) {
                  if (a.arrival != b.arrival)
                      return a.arrival < b.arrival;
                  return a.id < b.id;
              });
    const double offered = offeredQps(trace);

    // The fleet-global future-arrivals map: a device's batcher holds
    // a partial batch while ANY future arrival of the model exists —
    // an upper bound on "a companion could still join this device",
    // and exact for a size-1 fleet.
    std::map<std::string, unsigned> future;
    for (const Request &r : trace)
        ++future[r.model];

    const std::size_t n = devices_.size();
    Tick now = trace.empty() ? 0 : trace.front().arrival;
    rebuildFabric();
    for (unsigned i = 0; i < n; ++i) {
        ScopedLogDevice log_dev(static_cast<int>(i));
        devices_[i]->begin(now, &future);
    }
    if (energyMon_)
        energyMon_->beginRun(now);

    // A fresh router per run keeps serve() deterministic regardless
    // of what earlier runs routed.
    router_ = Router::make(config_.routing);
    std::vector<std::vector<Request>> routed(n);

    std::size_t next_arrival = 0;
    auto admitUpTo = [&](Tick upto) {
        // Every device has reached `upto`, so no root-link transfer
        // (weight loads here, shared-root collectives in settle) can
        // start before it.
        if (fabric_)
            fabric_->raiseRootWatermark(upto);
        while (next_arrival < trace.size() &&
               trace[next_arrival].arrival <= upto) {
            const Request &r = trace[next_arrival++];
            --future[r.model];
            unsigned d = router_->route(r, view_);
            fatalIf(d >= n, "router picked device ", d, " of ", n);
            if (reqTracer_)
                reqTracer_->onRoute(d, r);
            ScopedLogDevice log_dev(static_cast<int>(d));
            devices_[d]->placeModel(r.model, r.arrival,
                                    config_.weightLoadGbps);
            devices_[d]->admit(r);
            routed[d].push_back(r);
        }
    };

    // Each device's chip-side work runs on its own lane. The guard
    // detaches the devices after the lanes' helpers are joined, also
    // when a FatalError unwinds the loop.
    struct Detach
    {
        std::vector<std::unique_ptr<Scheduler>> &devices;
        MetricSampler *&sampler;
        ~Detach()
        {
            for (auto &dev : devices)
                dev->setLanes(nullptr, 0);
            sampler = nullptr;
        }
    } detach{devices_, sampler_};
    LaneExecutor lanes(effectiveThreads(), static_cast<unsigned>(n));
    for (unsigned i = 0; i < n; ++i)
        devices_[i]->setLanes(&lanes, i);
    // The chip energy-monitor device d reads is physical device d,
    // whose work runs on its placement group's lane.
    MetricSampler sampler(
        lanes, [g = groupSize_](unsigned d) { return d / g; },
        reqTracer_, energyMon_);
    sampler_ = &sampler;

    admitUpTo(now);
    for (unsigned i = 0; i < n; ++i) {
        ScopedLogDevice log_dev(static_cast<int>(i));
        devices_[i]->settle(now);
    }
    // Periodic metric snapshots: pure observation points. The loop
    // wakes early for them only while a real event is still pending,
    // and the settle/advance steps are idempotent at non-event ticks,
    // so sampling never changes simulated results (or termination).
    const Tick metric_period = sampler.period();
    Tick next_sample =
        metric_period ? (now / metric_period + 1) * metric_period
                      : kNever;
    while (true) {
        // Global next event: min over every device's internal events
        // and the next arrival. Devices are advanced in index order
        // at each event time, so cross-device ordering (and the SLO
        // monitor's record order) is deterministic.
        Tick next = kNever;
        for (const auto &dev : devices_)
            next = std::min(next, dev->nextEvent(now));
        if (next_arrival < trace.size())
            next = std::min(next, trace[next_arrival].arrival);
        if (next == kNever) {
            std::size_t stuck = 0;
            for (const auto &dev : devices_)
                stuck += dev->queueDepth() + dev->decodeReadyCount();
            fatalIf(stuck != 0, "fleet serving deadlock: ", stuck,
                    " queued requests but no future event");
            break;
        }
        if (next_sample < next)
            next = next_sample;
        now = next;
        for (unsigned i = 0; i < n; ++i) {
            ScopedLogDevice log_dev(static_cast<int>(i));
            devices_[i]->advanceCompletions(now);
        }
        admitUpTo(now);
        for (unsigned i = 0; i < n; ++i) {
            ScopedLogDevice log_dev(static_cast<int>(i));
            devices_[i]->settle(now);
        }
        if (metric_period && now >= next_sample) {
            obs::FleetMetricSample sample;
            sample.at = now;
            for (const auto &dev : devices_)
                sample.devices.push_back(dev->metricSample());
            sampler.take(std::move(sample));
            next_sample = (now / metric_period + 1) * metric_period;
        }
        if (sloMon_)
            sloMon_->advanceTo(now);
    }
    for (unsigned i = 0; i < n; ++i)
        lanes.drain(i);
    sampler.flush();
    Tick last_completion = 0;
    for (const auto &dev : devices_)
        last_completion =
            std::max(last_completion, dev->lastCompletion());
    if (sloMon_)
        sloMon_->finish(std::max(now, last_completion));
    if (energyMon_)
        energyMon_->endRun(std::max(now, last_completion));

    return buildReport(offered, routed);
}

FleetReport
Fleet::buildReport(double offered,
                   const std::vector<std::vector<Request>> &routed)
{
    const std::size_t n = devices_.size();
    FleetReport report;
    report.devices = config_.devices;
    report.routing = config_.routing;
    report.placement = config_.placement;
    if (fabric_) {
        report.fabric.enabled = true;
        report.fabric.topology = config_.fabric.topology;
        report.fabric.groups = static_cast<unsigned>(n);
        report.fabric.groupSize = groupSize_;
        report.fabric.linkGbps = config_.fabric.linkGbps;
        report.fabric.hostGbps = config_.fabric.hostGbps;
        report.fabric.totals = fabric_->totals();
        // Each link measures utilization over its own busy horizon.
        report.fabric.links = fabric_->linkStats(0);
    }

    // Per-device slices first (each device summarizes its routed
    // subset at the load it actually saw), then the fleet aggregate
    // over the merged logs — so fleet percentiles are true fleet-wide
    // order statistics, not an average of averages.
    std::vector<RequestOutcome> all_outcomes;
    GenerationLog fleet_gen;
    std::uint64_t batches = 0;
    std::uint64_t retries = 0;
    std::uint64_t faults = 0;
    double joules = 0.0;
    double utilization = 0.0;
    for (unsigned i = 0; i < n; ++i) {
        DeviceReport dev;
        dev.device = i;
        dev.routed = routed[i].size();
        dev.peakQueueDepth = devices_[i]->peakQueueDepth();
        dev.placedModels = devices_[i]->placedModels();
        dev.weightLoads = devices_[i]->weightLoads();
        dev.weightLoadTicks = devices_[i]->weightLoadTicks();
        dev.weightLoadBytes = devices_[i]->weightLoadBytes();
        // The raw generation log must be grabbed before finish()
        // summarizes the device (finish moves the outcome log but
        // leaves the generation counters readable; taking it here
        // keeps the ordering obviously safe).
        fleet_gen.merge(devices_[i]->generationLog());
        dev.report = devices_[i]->finish(offeredQps(routed[i]));
        all_outcomes.insert(all_outcomes.end(),
                            dev.report.outcomes.begin(),
                            dev.report.outcomes.end());
        batches += dev.report.batches;
        retries += dev.report.batchRetries;
        faults += dev.report.faultsInjected;
        joules += dev.report.joules;
        utilization += dev.report.groupUtilization;
        report.perDevice.push_back(std::move(dev));
    }
    report.fleet = summarize(std::move(all_outcomes), offered,
                             batches, joules,
                             utilization / static_cast<double>(n),
                             retries, faults, std::move(fleet_gen));
    if (energyMon_) {
        // Fleet-aggregate attribution: sum of the per-device deltas
        // the schedulers' finish() already attributed.
        EnergyBreakdown fleet_energy;
        for (const DeviceReport &dev : report.perDevice)
            fleet_energy.add(dev.report.energy);
        finalizeEnergy(report.fleet, fleet_energy);
    }
    return report;
}

void
writeJson(const FleetReport &report, std::ostream &os,
          bool per_request)
{
    JsonWriter json(os);
    json.beginObject();
    json.field("devices", report.devices)
        .field("routing", routingPolicyName(report.routing));

    // Both sections are gated so a classic data-parallel fleet's JSON
    // is byte-identical to what it was before the fabric existed.
    if (report.placement.mode != PlacementMode::DataParallel) {
        json.key("placement").beginObject();
        json.field("mode", placementModeName(report.placement.mode))
            .field("degree", report.placement.degree)
            .field("microbatches", report.placement.microbatches);
        json.endObject();
    }
    if (report.fabric.enabled) {
        const FleetFabricReport &fab = report.fabric;
        json.key("fabric").beginObject();
        json.field("topology", fabric::topologyName(fab.topology))
            .field("groups", fab.groups)
            .field("group_size", fab.groupSize)
            .field("link_gbps", fab.linkGbps)
            .field("host_gbps", fab.hostGbps)
            .field("collectives", fab.totals.collectives)
            .field("collective_bytes", fab.totals.collectiveBytes)
            .field("activation_sends", fab.totals.activationSends)
            .field("activation_bytes", fab.totals.activationBytes)
            .field("weight_loads", fab.totals.weightLoads)
            .field("weight_load_bytes", fab.totals.weightLoadBytes);
        json.key("links").beginArray();
        for (const fabric::LinkStats &link : fab.links) {
            json.beginObject()
                .field("name", link.name)
                .field("gbps", link.gbps)
                .field("bytes", link.bytes)
                .field("transfers", link.transfers)
                .field("wait_ms", link.waitMs)
                .field("utilization", link.utilization)
                .endObject();
        }
        json.endArray();
        json.endObject();
    }

    json.key("fleet");
    writeJson(report.fleet, json, per_request);

    json.key("per_device").beginArray();
    for (const DeviceReport &dev : report.perDevice) {
        json.beginObject()
            .field("device", dev.device)
            .field("routed", dev.routed)
            .field("peak_queue_depth", dev.peakQueueDepth)
            .field("weight_loads", dev.weightLoads)
            .field("weight_load_ms",
                   ticksToMilliSeconds(dev.weightLoadTicks))
            .field("weight_load_bytes", dev.weightLoadBytes);
        json.key("placed_models").beginArray();
        for (const std::string &model : dev.placedModels)
            json.value(model);
        json.endArray();
        json.key("report");
        writeJson(dev.report, json, per_request);
        json.endObject();
    }
    json.endArray();
    json.endObject();
    os << "\n";
}

} // namespace serve
} // namespace dtu
