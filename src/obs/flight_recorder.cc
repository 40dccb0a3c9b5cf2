#include "obs/flight_recorder.hh"

#include <fstream>
#include <sstream>

#include "sim/json.hh"
#include "sim/logging.hh"

namespace dtu
{
namespace obs
{

FlightRecorder::FlightRecorder(FlightRecorderConfig config)
    : config_(std::move(config))
{
    fatalIf(config_.requestCapacity == 0,
            "flight recorder request capacity must be positive");
    fatalIf(config_.metricCapacity == 0,
            "flight recorder metric capacity must be positive");
}

void
FlightRecorder::recordRequest(const RequestRecord &record)
{
    requests_.push_back(record);
    while (requests_.size() > config_.requestCapacity)
        requests_.pop_front();
}

void
FlightRecorder::recordMetrics(const FleetMetricSample &sample)
{
    metrics_.push_back(sample);
    while (metrics_.size() > config_.metricCapacity)
        metrics_.pop_front();
}

void
FlightRecorder::recordPowerEvent(unsigned device, const PowerEvent &event)
{
    power_.push_back({device, event});
    while (power_.size() > config_.powerCapacity)
        power_.pop_front();
}

void
FlightRecorder::trigger(const std::string &reason, Tick at)
{
    ++triggers_;
    if (dumped_)
        return; // latched: the black box keeps the first incident
    dumped_ = true;
    if (beforeDump_)
        beforeDump_();
    std::ostringstream os;
    writeDump(os, reason, at);
    dump_ = os.str();
    if (!config_.dumpPath.empty()) {
        std::ofstream file(config_.dumpPath);
        fatalIf(!file, "cannot open flight recorder dump '",
                config_.dumpPath, "'");
        file << dump_;
        fatalIf(!file.good(), "error writing flight recorder dump '",
                config_.dumpPath, "'");
    }
    warn(csprintf("flight recorder triggered (", reason, ") at t=", at,
                  "ps: dumped ", requests_.size(), " requests, ",
                  metrics_.size(), " metric snapshots"));
}

void
FlightRecorder::writeLastDump(const std::string &path) const
{
    fatalIf(dump_.empty(), "flight recorder has not dumped yet");
    std::ofstream file(path);
    fatalIf(!file, "cannot open flight recorder dump '", path, "'");
    file << dump_;
    fatalIf(!file.good(), "error writing flight recorder dump '", path,
            "'");
}

void
FlightRecorder::reset()
{
    requests_.clear();
    metrics_.clear();
    power_.clear();
    triggers_ = 0;
    dumped_ = false;
    dump_.clear();
}

void
FlightRecorder::writeDump(std::ostream &os, const std::string &reason,
                          Tick at) const
{
    JsonWriter json(os);
    json.beginObject();
    json.field("reason", reason).field("at_ticks", at);
    json.field("buffered_requests",
               static_cast<std::uint64_t>(requests_.size()));
    json.field("buffered_metrics",
               static_cast<std::uint64_t>(metrics_.size()));
    json.field("buffered_power_events",
               static_cast<std::uint64_t>(power_.size()));

    json.key("requests").beginArray();
    for (const RequestRecord &r : requests_) {
        const serve::RequestOutcome &o = r.outcome;
        json.beginObject()
            .field("id", o.request.id)
            .field("model", o.request.model)
            .field("device", static_cast<std::int64_t>(o.device))
            .field("arrival_ticks", o.request.arrival)
            .field("dispatched_ticks", o.dispatched)
            .field("terminal_ticks", o.completed)
            .field("batch", static_cast<std::uint64_t>(o.batchSize))
            .field("retries", static_cast<std::uint64_t>(o.retries))
            .field("executed", r.executed)
            .field("device_linked", r.deviceLinked)
            .field("missed", o.missedDeadline())
            .field("outcome", o.outcomeName());
        if (o.request.generative()) {
            json.field("first_token_ticks", o.firstToken)
                .field("tokens_emitted",
                       static_cast<std::uint64_t>(o.tokensEmitted));
        }
        json.endObject();
    }
    json.endArray();

    json.key("metrics").beginArray();
    for (const FleetMetricSample &s : metrics_) {
        json.beginObject().field("at_ticks", s.at);
        json.key("devices").beginArray();
        for (const DeviceMetricSample &d : s.devices) {
            json.beginObject()
                .field("device", static_cast<std::uint64_t>(d.device))
                .field("queue_depth", d.queueDepth)
                .field("in_flight_batches", d.inFlightBatches)
                .field("outstanding", d.outstanding)
                .field("completed", d.completed)
                .field("dropped", d.dropped)
                .field("retries", d.retries);
            if (d.hasPower) {
                json.field("power_watts", d.powerWatts)
                    .field("energy_joules", d.energyJoules)
                    .field("throttle_fraction", d.throttleFraction)
                    .field("frequency_ghz", d.frequencyGhz);
            }
            json.endObject();
        }
        json.endArray();
        json.endObject();
    }
    json.endArray();

    json.key("power_events").beginArray();
    for (const PowerEventRecord &p : power_) {
        json.beginObject();
        json.field("device", static_cast<std::uint64_t>(p.device));
        json.key("event");
        writePowerEventJson(p.event, json);
        json.endObject();
    }
    json.endArray();

    json.endObject();
    os << "\n";
}

} // namespace obs
} // namespace dtu
