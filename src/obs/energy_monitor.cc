#include "obs/energy_monitor.hh"

#include <algorithm>
#include <iterator>

#include "graph/graph.hh"
#include "obs/flight_recorder.hh"
#include "obs/prometheus.hh"
#include "runtime/executor.hh"
#include "serve/report.hh"
#include "sim/json.hh"
#include "sim/logging.hh"
#include "soc/dtu.hh"

namespace dtu
{
namespace obs
{

namespace
{

/** 0/0 is "no activity", not NaN: every ratio here guards its
 *  denominator so zero-completion / zero-window sample intervals
 *  render as 0 instead of poisoning JSON or Prometheus output. */
double
safeRatio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

} // namespace

EnergyMonitor::EnergyMonitor(EnergyMonitorConfig config)
    : config_(config)
{
    fatalIf(config_.auditCapacity == 0,
            "energy monitor audit capacity must be positive");
}

EnergyMonitor::DeviceState *
EnergyMonitor::find(unsigned device)
{
    for (DeviceState &d : devices_) {
        if (d.device == device)
            return &d;
    }
    return nullptr;
}

const EnergyMonitor::DeviceState *
EnergyMonitor::find(unsigned device) const
{
    for (const DeviceState &d : devices_) {
        if (d.device == device)
            return &d;
    }
    return nullptr;
}

void
EnergyMonitor::attach(unsigned device, Dtu &dtu)
{
    fatalIf(find(device) != nullptr,
            "energy monitor already watches device ", device);
    DeviceState state;
    state.device = device;
    state.dtu = &dtu;
    state.audit = dtu.powerAudit()
                      ? dtu.powerAudit()
                      : &dtu.installPowerAudit(config_.auditCapacity);
    state.joulesBase = dtu.energy().joules();
    state.breakdownBase = dtu.energy().breakdown();
    state.windowsBase = dtu.cpme().windowsServiced();
    state.throttledBase = dtu.cpme().throttledWindows();
    state.lastJoules = state.joulesBase;
    state.lastWindows = state.windowsBase;
    state.lastThrottled = state.throttledBase;
    devices_.push_back(state);
}

void
EnergyMonitor::beginRun(Tick at)
{
    appendRunCorpus();
    series_.clear();
    for (DeviceState &dev : devices_) {
        dev.runStart = at;
        dev.joulesBase = dev.dtu->energy().joules();
        dev.breakdownBase = dev.dtu->energy().breakdown();
        dev.windowsBase = dev.dtu->cpme().windowsServiced();
        dev.throttledBase = dev.dtu->cpme().throttledWindows();
        dev.lastAt = at;
        dev.lastJoules = dev.joulesBase;
        dev.lastWindows = dev.windowsBase;
        dev.lastThrottled = dev.throttledBase;
        dev.audit->clear();
        dev.auditRead = 0;
    }
}

ChipReading
EnergyMonitor::read(unsigned device)
{
    DeviceState *dev = find(device);
    fatalIf(!dev, "energy monitor does not watch device ", device);
    ChipReading reading;
    reading.device = device;
    reading.joules = dev->dtu->energy().joules();
    reading.windows = dev->dtu->cpme().windowsServiced();
    reading.throttled = dev->dtu->cpme().throttledWindows();
    reading.frequencyGhz = dev->dtu->coreFrequency() / 1e9;
    const PowerAuditTrail &trail = *dev->audit;
    // Absolute index of the oldest buffered event: everything before
    // it was evicted by the ring (and, if not yet read, is lost to
    // the flight recorder too — the rings bound memory, not the
    // totals).
    std::uint64_t index = trail.totalRecorded() - trail.events().size();
    for (const PowerEvent &event : trail.events()) {
        if (index++ >= dev->auditRead)
            reading.audit.push_back(event);
    }
    dev->auditRead = trail.totalRecorded();
    return reading;
}

void
EnergyMonitor::forwardAudit(unsigned device,
                            const std::vector<PowerEvent> &events)
{
    if (!flightRec_)
        return;
    for (const PowerEvent &event : events)
        flightRec_->recordPowerEvent(device, event);
}

void
EnergyMonitor::annotate(FleetMetricSample &sample,
                        const std::vector<ChipReading> &readings)
{
    for (DeviceMetricSample &d : sample.devices) {
        DeviceState *dev = find(d.device);
        auto reading = std::find_if(
            readings.begin(), readings.end(),
            [&](const ChipReading &r) { return r.device == d.device; });
        if (!dev || reading == readings.end())
            continue;
        const Tick at = std::max(sample.at, dev->lastAt);
        const double dt = ticksToSeconds(at - dev->lastAt);
        d.hasPower = true;
        d.powerWatts = safeRatio(reading->joules - dev->lastJoules, dt);
        d.energyJoules = reading->joules - dev->joulesBase;
        d.throttleFraction = safeRatio(
            static_cast<double>(reading->throttled - dev->lastThrottled),
            static_cast<double>(reading->windows - dev->lastWindows));
        d.frequencyGhz = reading->frequencyGhz;
        dev->lastAt = at;
        dev->lastJoules = reading->joules;
        dev->lastWindows = reading->windows;
        dev->lastThrottled = reading->throttled;
        forwardAudit(d.device, reading->audit);
    }
    series_.append(sample);
}

void
EnergyMonitor::endRun(Tick at)
{
    for (DeviceState &dev : devices_) {
        dev.lastAt = std::max(dev.lastAt, at);
        forwardAudit(dev.device, read(dev.device).audit);
    }
    appendRunCorpus();
}

EnergyBreakdown
EnergyMonitor::runBreakdown(unsigned device) const
{
    const DeviceState *dev = find(device);
    fatalIf(!dev, "energy monitor does not watch device ", device);
    return dev->dtu->energy().breakdown().minus(dev->breakdownBase);
}

double
EnergyMonitor::runJoules(unsigned device) const
{
    const DeviceState *dev = find(device);
    fatalIf(!dev, "energy monitor does not watch device ", device);
    return dev->dtu->energy().joules() - dev->joulesBase;
}

const PowerAuditTrail *
EnergyMonitor::auditTrail(unsigned device) const
{
    const DeviceState *dev = find(device);
    return dev ? dev->audit : nullptr;
}

void
EnergyMonitor::onBatchExecuted(unsigned device,
                               const serve::Launch &launch)
{
    if (!config_.corpus)
        return;
    std::vector<EnergyCorpusRow> &rows = runCorpus_[launch.ticket.seq];
    for (const OpTrace &op : launch.result.trace) {
        EnergyCorpusRow row;
        row.device = device;
        row.model = launch.model;
        row.phase = serve::launchKindName(launch.kind);
        row.op = op.name;
        row.kind = opKindName(op.anchor);
        row.macs = op.macs;
        row.bytes = op.bytes;
        row.intensity = safeRatio(op.macs, op.bytes);
        const serve::OpTickMix mix = serve::opTickMix(op);
        row.issueTicks = mix.issue;
        row.dmaTicks = mix.dma;
        row.otherTicks = mix.other;
        row.frequencyGhz = op.frequencyGHz;
        row.throttle = op.throttle;
        row.energy = op.energy;
        rows.push_back(std::move(row));
    }
}

void
EnergyMonitor::appendRunCorpus()
{
    for (auto &entry : runCorpus_) {
        corpus_.insert(corpus_.end(),
                       std::make_move_iterator(entry.second.begin()),
                       std::make_move_iterator(entry.second.end()));
    }
    runCorpus_.clear();
}

void
EnergyMonitor::writeCorpusJson(std::ostream &os) const
{
    JsonWriter json(os);
    json.beginArray();
    for (const EnergyCorpusRow &row : corpus_) {
        json.beginObject()
            .field("device", static_cast<std::uint64_t>(row.device))
            .field("model", row.model)
            .field("phase", row.phase)
            .field("op", row.op)
            .field("kind", row.kind)
            .field("macs", row.macs)
            .field("bytes", row.bytes)
            .field("intensity", row.intensity)
            .field("issue_ticks", row.issueTicks)
            .field("dma_ticks", row.dmaTicks)
            .field("other_ticks", row.otherTicks)
            .field("frequency_ghz", row.frequencyGhz)
            .field("throttle", row.throttle);
        json.key("energy");
        writeEnergyBreakdownJson(row.energy, json);
        json.endObject();
    }
    json.endArray();
    os << "\n";
}

namespace
{

/** Embed a PowerAuditTrail summary + ring into an open writer. */
void
writeAuditJson(const PowerAuditTrail &trail, JsonWriter &json)
{
    json.beginObject()
        .field("total_recorded", trail.totalRecorded())
        .field("buffered",
               static_cast<std::uint64_t>(trail.events().size()))
        .field("capacity",
               static_cast<std::uint64_t>(trail.capacity()));
    json.key("counts").beginObject();
    for (int k = 0; k <= static_cast<int>(PowerEventKind::ThermalCap);
         ++k) {
        PowerEventKind kind = static_cast<PowerEventKind>(k);
        json.field(powerEventKindName(kind), trail.count(kind));
    }
    json.endObject();
    json.key("events").beginArray();
    for (const PowerEvent &event : trail.events())
        writePowerEventJson(event, json);
    json.endArray();
    json.endObject();
}

} // namespace

void
EnergyMonitor::writeJson(std::ostream &os) const
{
    JsonWriter json(os);
    json.beginObject();
    json.field("devices",
               static_cast<std::uint64_t>(devices_.size()));
    json.field("samples",
               static_cast<std::uint64_t>(series_.samples().size()));

    EnergyBreakdown fleet;
    double fleet_joules = 0.0;
    json.key("per_device").beginArray();
    for (const DeviceState &dev : devices_) {
        const EnergyBreakdown breakdown =
            dev.dtu->energy().breakdown().minus(dev.breakdownBase);
        const double joules =
            dev.dtu->energy().joules() - dev.joulesBase;
        const double span = ticksToSeconds(dev.lastAt - dev.runStart);
        const std::uint64_t windows =
            dev.dtu->cpme().windowsServiced() - dev.windowsBase;
        const std::uint64_t throttled =
            dev.dtu->cpme().throttledWindows() - dev.throttledBase;
        fleet.add(breakdown);
        fleet_joules += joules;
        json.beginObject()
            .field("device", static_cast<std::uint64_t>(dev.device))
            .field("joules", joules)
            .field("span_seconds", span)
            .field("mean_watts", safeRatio(joules, span))
            .field("power_limit_watts", dev.dtu->cpme().powerLimit())
            .field("reserve_watts", dev.dtu->cpme().reserveWatts())
            .field("frequency_ghz",
                   dev.dtu->coreFrequency() / 1e9)
            .field("cpme_windows", windows)
            .field("throttled_windows", throttled)
            .field("throttle_fraction",
                   safeRatio(static_cast<double>(throttled),
                             static_cast<double>(windows)))
            .field("budget_denials",
                   dev.dtu->cpme().budgetDenials());
        json.key("energy");
        writeEnergyBreakdownJson(breakdown, json);
        json.key("audit");
        writeAuditJson(*dev.audit, json);
        json.endObject();
    }
    json.endArray();

    json.key("fleet").beginObject().field("joules", fleet_joules);
    json.key("energy");
    writeEnergyBreakdownJson(fleet, json);
    json.endObject();

    json.endObject();
    os << "\n";
}

namespace
{

struct ComponentColumn
{
    const char *label;
    double EnergyBreakdown::*member;
};

constexpr ComponentColumn kComponents[] = {
    {"mac", &EnergyBreakdown::macJoules},
    {"vector", &EnergyBreakdown::vectorJoules},
    {"l1", &EnergyBreakdown::l1Joules},
    {"l2", &EnergyBreakdown::l2Joules},
    {"hbm", &EnergyBreakdown::hbmJoules},
    {"dma", &EnergyBreakdown::dmaJoules},
    {"fabric", &EnergyBreakdown::fabricJoules},
    {"static", &EnergyBreakdown::staticJoules},
};

void
promHeader(std::ostream &os, const std::string &metric,
           const char *help, const char *type)
{
    os << "# HELP " << metric << " " << help << "\n";
    os << "# TYPE " << metric << " " << type << "\n";
}

} // namespace

void
EnergyMonitor::writePrometheus(std::ostream &os,
                               const std::string &prefix) const
{
    if (devices_.empty())
        return;
    const std::string pre = prefix.empty() ? "" : prefix + "_";

    auto deviceLabel = [](unsigned device) {
        return "{device=\"" +
               promLabelEscape(std::to_string(device)) + "\"} ";
    };

    // Per-device scalar gauges from live device state.
    struct PowerGauge
    {
        const char *name;
        const char *help;
        const char *type;
        double (*value)(const DeviceState &);
    };
    const PowerGauge gauges[] = {
        {"power_limit_watts", "board power limit", "gauge",
         [](const DeviceState &d) {
             return d.dtu->cpme().powerLimit();
         }},
        {"power_reserve_watts",
         "watts unassigned in the CPME reserve pool", "gauge",
         [](const DeviceState &d) {
             return d.dtu->cpme().reserveWatts();
         }},
        {"power_frequency_ghz", "core DVFS point", "gauge",
         [](const DeviceState &d) {
             return d.dtu->coreFrequency() / 1e9;
         }},
        {"energy_joules_total", "chip energy consumed this run",
         "counter",
         [](const DeviceState &d) {
             return d.dtu->energy().joules() - d.joulesBase;
         }},
    };
    for (const PowerGauge &g : gauges) {
        const std::string metric = pre + g.name;
        promHeader(os, metric, g.help, g.type);
        for (const DeviceState &dev : devices_) {
            os << metric << deviceLabel(dev.device)
               << promSampleValue(g.value(dev)) << "\n";
        }
    }

    // Interval telemetry from the latest sample (absent until the
    // first observation point).
    if (const FleetMetricSample *last = series_.latest()) {
        struct SampleGauge
        {
            const char *name;
            const char *help;
            double DeviceMetricSample::*member;
        };
        const SampleGauge sampled[] = {
            {"power_watts",
             "mean chip power over the last sample interval",
             &DeviceMetricSample::powerWatts},
            {"power_throttle_fraction",
             "fraction of CPME windows throttled over the last "
             "sample interval",
             &DeviceMetricSample::throttleFraction},
        };
        for (const SampleGauge &g : sampled) {
            const std::string metric = pre + g.name;
            promHeader(os, metric, g.help, "gauge");
            for (const DeviceMetricSample &d : last->devices) {
                if (!d.hasPower)
                    continue;
                os << metric << deviceLabel(d.device)
                   << promSampleValue(d.*g.member) << "\n";
            }
        }
    }

    // Per-component energy attribution.
    {
        const std::string metric = pre + "energy_component_joules";
        promHeader(os, metric,
                   "chip energy this run attributed to one component",
                   "counter");
        for (const DeviceState &dev : devices_) {
            const EnergyBreakdown breakdown =
                dev.dtu->energy().breakdown().minus(
                    dev.breakdownBase);
            for (const ComponentColumn &c : kComponents) {
                os << metric << "{device=\""
                   << promLabelEscape(std::to_string(dev.device))
                   << "\",component=\"" << promLabelEscape(c.label)
                   << "\"} "
                   << promSampleValue(breakdown.*c.member) << "\n";
            }
        }
    }

    // CPME/LPME decision counts by kind.
    {
        const std::string metric = pre + "energy_audit_events_total";
        promHeader(os, metric,
                   "CPME/LPME power-management decisions recorded",
                   "counter");
        for (const DeviceState &dev : devices_) {
            for (int k = 0;
                 k <= static_cast<int>(PowerEventKind::ThermalCap);
                 ++k) {
                PowerEventKind kind = static_cast<PowerEventKind>(k);
                os << metric << "{device=\""
                   << promLabelEscape(std::to_string(dev.device))
                   << "\",kind=\""
                   << promLabelEscape(powerEventKindName(kind))
                   << "\"} "
                   << promSampleValue(static_cast<double>(
                          dev.audit->count(kind)))
                   << "\n";
            }
        }
    }
}

} // namespace obs
} // namespace dtu
