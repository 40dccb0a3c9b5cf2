#include "api/server.hh"

#include <cmath>
#include <fstream>

#include "obs/prometheus.hh"
#include "sim/json.hh"
#include "sim/logging.hh"

namespace dtu
{

namespace
{

void
servingGauge(std::ostream &os, const std::string &metric,
             const std::string &help, double v)
{
    os << "# HELP " << metric << " " << help << "\n";
    os << "# TYPE " << metric << " gauge\n";
    os << metric << " " << obs::promSampleValue(v) << "\n";
}

/** Generation gauges under @p prefix, when the last run generated. */
void
writeGenerationGauges(std::ostream &os, const std::string &prefix,
                      const serve::ServingReport &r)
{
    if (!r.hasGeneration)
        return;
    const serve::GenerationReport &g = r.generation;
    servingGauge(os, prefix + "_tokens_per_second",
                 "emitted tokens per second of serving makespan",
                 g.tokensPerSecond);
    servingGauge(os, prefix + "_ttft_p99_ms",
                 "p99 time-to-first-token", g.ttftP99Ms);
    servingGauge(os, prefix + "_itl_p99_ms",
                 "p99 inter-token latency", g.itlP99Ms);
    servingGauge(os, prefix + "_kv_peak_occupancy",
                 "peak KV-cache page occupancy (0..1)",
                 g.kvPeakOccupancy);
    servingGauge(os, prefix + "_kv_pages_in_use",
                 "KV pages still held at end of run (0 == no leak)",
                 static_cast<double>(g.kvPagesInUseAtEnd));
}

} // namespace

FleetServer::FleetServer(serve::FleetConfig config,
                         const DtuConfig &chip)
    : config_(std::move(config))
{
    fatalIf(config_.devices == 0, "a fleet needs at least one device");
    for (unsigned i = 0; i < config_.devices; ++i) {
        owned_.push_back(std::make_unique<Device>(chip));
        devices_.push_back(owned_.back().get());
    }
    openFleet();
}

FleetServer::FleetServer(Device &device, serve::ServingConfig config)
    : devices_{&device}
{
    config_.serving = std::move(config);
    openFleet();
}

FleetServer::~FleetServer()
{
    // A borrowed device outlives the server: its injector must not
    // call into the freed recorder, nor keep later fleets serial.
    for (FaultInjector *inj : hookedFaults_)
        inj->onFault(nullptr);
}

void
FleetServer::openFleet()
{
    std::vector<serve::Fleet::Member> members;
    for (Device *d : devices_)
        members.push_back({&d->chip(), &d->resources()});
    fleet_ = std::make_unique<serve::Fleet>(std::move(members),
                                            config_);
}

std::uint64_t
FleetServer::submit(const serve::RequestSpec &spec)
{
    pending_.push_back(serve::makeRequest(spec, nextId_++));
    return pending_.back().id;
}

void
FleetServer::submit(const std::vector<serve::Request> &trace)
{
    pending_.reserve(pending_.size() + trace.size());
    for (serve::Request r : trace) {
        r.id = nextId_++;
        pending_.push_back(std::move(r));
    }
}

const serve::FleetReport &
FleetServer::serveFleet()
{
    // (Re)hook every installed fault injector into the recorder here
    // rather than at enableFlightRecorder() time, so installFaults()
    // may come in either order.
    if (flightRec_) {
        hookedFaults_.clear();
        for (unsigned i = 0; i < size(); ++i) {
            FaultInjector *inj = devices_[i]->faults();
            if (!inj)
                continue;
            obs::FlightRecorder *rec = flightRec_.get();
            inj->onFault([rec, i](const InjectedFault &f) {
                rec->trigger("fault:" +
                                 std::string(faultKindName(f.kind)) +
                                 " dev" + std::to_string(i),
                             f.at);
            });
            hookedFaults_.push_back(inj);
        }
    }
    last_ = fleet_->serve(std::move(pending_));
    pending_.clear();
    served_ = true;
    return last_;
}

obs::SloMonitor &
FleetServer::enableSloMonitor(obs::SloConfig config)
{
    fatalIf(sloMon_ != nullptr, "fleet already has an SLO monitor");
    sloMon_ = std::make_unique<obs::SloMonitor>(config);
    attachObservers();
    wireFlightAlerts();
    return *sloMon_;
}

obs::RequestTracer &
FleetServer::enableRequestTracing(obs::RequestTraceConfig config)
{
    fatalIf(reqTracer_ != nullptr,
            "fleet already has a request tracer");
    reqTracer_ = std::make_unique<obs::RequestTracer>(config);
    attachObservers();
    if (flightRec_)
        reqTracer_->setFlightRecorder(flightRec_.get());
    return *reqTracer_;
}

obs::EnergyMonitor &
FleetServer::enableEnergyMonitor(obs::EnergyMonitorConfig config)
{
    fatalIf(energyMon_ != nullptr,
            "fleet already has an energy monitor");
    energyMon_ = std::make_unique<obs::EnergyMonitor>(config);
    for (unsigned i = 0; i < size(); ++i)
        energyMon_->attach(i, devices_[i]->chip());
    attachObservers();
    if (flightRec_)
        energyMon_->setFlightRecorder(flightRec_.get());
    return *energyMon_;
}

void
FleetServer::attachObservers()
{
    // A fixed kind order, whatever order they were enabled in, so
    // no artifact depends on the enable order. At serve end, for
    // one, the SLO monitor's last window can raise a burn alert that
    // dumps the flight recorder before the energy monitor forwards
    // its last power decisions there.
    serve::Observers observers;
    if (sloMon_)
        observers.push_back(sloMon_.get());
    if (reqTracer_)
        observers.push_back(reqTracer_.get());
    if (energyMon_)
        observers.push_back(energyMon_.get());
    fleet_->setObservers(std::move(observers));
}

void
FleetServer::writeEnergyReport(const std::string &path)
{
    fatalIf(energyMon_ == nullptr,
            "writeEnergyReport() needs enableEnergyMonitor()");
    std::ofstream file(path);
    fatalIf(!file, "cannot open energy report '", path, "'");
    energyMon_->writeJson(file);
    fatalIf(!file.good(), "error writing energy report '", path, "'");
}

obs::FlightRecorder &
FleetServer::enableFlightRecorder(obs::FlightRecorderConfig config)
{
    fatalIf(flightRec_ != nullptr,
            "fleet already has a flight recorder");
    flightRec_ = std::make_unique<obs::FlightRecorder>(config);
    // Metric samples reach the rings when their chip readings are
    // in; a dump must show every sample taken up to its trigger.
    flightRec_->setBeforeDump(
        [fleet = fleet_.get()] { fleet->flushMetricSamples(); });
    if (reqTracer_)
        reqTracer_->setFlightRecorder(flightRec_.get());
    if (energyMon_)
        energyMon_->setFlightRecorder(flightRec_.get());
    wireFlightAlerts();
    return *flightRec_;
}

void
FleetServer::wireFlightAlerts()
{
    // The ISSUE's incident sources are SLO *burn-rate* alerts and
    // injected faults; p99 alerts still land in SloMonitor::alerts().
    if (!sloMon_ || !flightRec_ || flightAlertsWired_)
        return;
    flightAlertsWired_ = true;
    obs::FlightRecorder *rec = flightRec_.get();
    sloMon_->addAlertListener([rec](const obs::SloAlert &alert) {
        if (alert.kind == "slo_burn_rate")
            rec->trigger("slo:" + alert.kind, alert.at);
    });
}

std::vector<const Tracer *>
FleetServer::chipTracers(const char *caller) const
{
    fatalIf(reqTracer_ == nullptr, caller,
            "() needs enableRequestTracing()");
    std::vector<const Tracer *> chips;
    for (Device *d : devices_)
        chips.push_back(&d->chip().tracer());
    return chips;
}

void
FleetServer::exportFleetTrace(std::ostream &os)
{
    const std::vector<const Tracer *> chips =
        chipTracers("exportFleetTrace");
    reqTracer_->exportTrace(chips, os);
}

void
FleetServer::writeFleetTrace(const std::string &path)
{
    const std::vector<const Tracer *> chips =
        chipTracers("writeFleetTrace");
    reqTracer_->writeTrace(chips, path);
}

void
FleetServer::writePrometheus(std::ostream &os)
{
    for (unsigned i = 0; i < size(); ++i) {
        obs::writePrometheusText(devices_[i]->chip().stats(), os,
                                 "dtusim_dev" + std::to_string(i));
    }
    if (!served_)
        return;

    const serve::FleetReport &r = last_;
    servingGauge(os, "dtusim_fleet_devices", "devices in the fleet",
               static_cast<double>(r.devices));
    servingGauge(os, "dtusim_fleet_submitted",
               "requests the last serve submitted",
               static_cast<double>(r.fleet.submitted));
    servingGauge(os, "dtusim_fleet_requests",
               "requests the last serve completed",
               static_cast<double>(r.fleet.requests));
    servingGauge(os, "dtusim_fleet_achieved_qps",
               "fleet-wide sustained throughput",
               r.fleet.achievedQps);
    servingGauge(os, "dtusim_fleet_goodput_qps",
               "fleet-wide in-deadline throughput",
               r.fleet.goodputQps);
    servingGauge(os, "dtusim_fleet_latency_p50_ms",
               "fleet-wide median latency", r.fleet.p50Ms);
    servingGauge(os, "dtusim_fleet_latency_p99_ms",
               "fleet-wide tail latency", r.fleet.p99Ms);
    servingGauge(os, "dtusim_fleet_availability",
               "completed / submitted", r.fleet.availability);
    writeGenerationGauges(os, "dtusim_fleet", r.fleet);

    const struct
    {
        const char *metric;
        const char *help;
        double (*get)(const serve::DeviceReport &);
    } per_device[] = {
        {"dtusim_fleet_device_routed",
         "arrivals routed to the device",
         [](const serve::DeviceReport &d) {
             return static_cast<double>(d.routed);
         }},
        {"dtusim_fleet_device_requests",
         "requests the device completed",
         [](const serve::DeviceReport &d) {
             return static_cast<double>(d.report.requests);
         }},
        {"dtusim_fleet_device_peak_queue_depth",
         "highest arrival-queue depth the device saw",
         [](const serve::DeviceReport &d) {
             return static_cast<double>(d.peakQueueDepth);
         }},
        {"dtusim_fleet_device_weight_load_ms",
         "modeled PCIe weight-load time the device paid",
         [](const serve::DeviceReport &d) {
             return ticksToMilliSeconds(d.weightLoadTicks);
         }},
        {"dtusim_fleet_device_latency_p99_ms",
         "the device's tail latency",
         [](const serve::DeviceReport &d) { return d.report.p99Ms; }},
        {"dtusim_fleet_device_group_utilization",
         "time-weighted fraction of the device's groups leased",
         [](const serve::DeviceReport &d) {
             return d.report.groupUtilization;
         }},
    };
    for (const auto &g : per_device) {
        os << "# HELP " << g.metric << " " << g.help << "\n";
        os << "# TYPE " << g.metric << " gauge\n";
        for (const serve::DeviceReport &d : r.perDevice) {
            os << g.metric << "{device=\"" << d.device << "\"} "
               << obs::promSampleValue(g.get(d)) << "\n";
        }
    }

    // Interconnect traffic (dtusim_fabric_*) when the fleet fabric
    // is enabled: totals plus one labeled sample per link.
    if (const fabric::Fabric *fab = fleet_->fabricPtr()) {
        const fabric::FabricTotals t = fab->totals();
        servingGauge(os, "dtusim_fabric_collectives_total",
                     "all-reduce collectives the fabric carried",
                     static_cast<double>(t.collectives));
        servingGauge(os, "dtusim_fabric_collective_bytes_total",
                     "tensor bytes all-reduced across groups",
                     t.collectiveBytes);
        servingGauge(os, "dtusim_fabric_activation_sends_total",
                     "pipeline activation sends the fabric carried",
                     static_cast<double>(t.activationSends));
        servingGauge(os, "dtusim_fabric_activation_bytes_total",
                     "activation bytes streamed between stages",
                     t.activationBytes);
        servingGauge(os, "dtusim_fabric_weight_loads_total",
                     "weight loads routed over the host root complex",
                     static_cast<double>(t.weightLoads));
        servingGauge(os, "dtusim_fabric_weight_load_bytes_total",
                     "weight bytes the host root complex moved",
                     t.weightLoadBytes);

        const struct
        {
            const char *metric;
            const char *help;
            double (*get)(const fabric::LinkStats &);
        } per_link[] = {
            {"dtusim_fabric_link_bytes_total",
             "bytes the link carried",
             [](const fabric::LinkStats &l) { return l.bytes; }},
            {"dtusim_fabric_link_transfers_total",
             "transfers the link carried",
             [](const fabric::LinkStats &l) {
                 return static_cast<double>(l.transfers);
             }},
            {"dtusim_fabric_link_wait_ms",
             "time transfers queued behind earlier link traffic",
             [](const fabric::LinkStats &l) { return l.waitMs; }},
            {"dtusim_fabric_link_utilization",
             "busy fraction of the link's active horizon",
             [](const fabric::LinkStats &l) { return l.utilization; }},
        };
        const std::vector<fabric::LinkStats> links = fab->linkStats(0);
        for (const auto &g : per_link) {
            os << "# HELP " << g.metric << " " << g.help << "\n";
            os << "# TYPE " << g.metric << " gauge\n";
            for (const fabric::LinkStats &l : links) {
                os << g.metric << "{link=\""
                   << obs::promLabelEscape(l.name) << "\"} "
                   << obs::promSampleValue(g.get(l)) << "\n";
            }
        }
    }

    // The periodic fleet time-series (dtusim_fleet_queue_depth{...}
    // and friends) when request tracing sampled it.
    if (reqTracer_ && reqTracer_->metrics().latest())
        reqTracer_->metrics().writePrometheus(os);

    // Power & energy telemetry (dtusim_power_*, dtusim_energy_*).
    if (energyMon_)
        energyMon_->writePrometheus(os);
}

void
Server::writePrometheus(std::ostream &os)
{
    obs::writePrometheusText(device(0).chip().stats(), os, "dtusim");
    if (!served())
        return;
    const serve::ServingReport &r = lastReport().fleet;
    servingGauge(os, "dtusim_serve_submitted",
                 "requests the last serve submitted",
                 static_cast<double>(r.submitted));
    servingGauge(os, "dtusim_serve_requests",
                 "requests the last serve completed",
                 static_cast<double>(r.requests));
    servingGauge(os, "dtusim_serve_achieved_qps",
                 "sustained throughput", r.achievedQps);
    servingGauge(os, "dtusim_serve_goodput_qps",
                 "in-deadline throughput", r.goodputQps);
    servingGauge(os, "dtusim_serve_latency_p50_ms", "median latency",
                 r.p50Ms);
    servingGauge(os, "dtusim_serve_latency_p99_ms", "tail latency",
                 r.p99Ms);
    servingGauge(os, "dtusim_serve_availability",
                 "completed / submitted", r.availability);
    writeGenerationGauges(os, "dtusim_serve", r);
    if (obs::EnergyMonitor *energy = energyMonitor())
        energy->writePrometheus(os);
}

} // namespace dtu
