#include "obs/request_tracer.hh"

#include <cmath>

#include "sim/logging.hh"

namespace dtu
{
namespace obs
{

namespace
{

/** splitmix64 finalizer: a well-mixed pure hash, no RNG state. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

Tick
midpoint(Tick a, Tick b)
{
    return a + (b - a) / 2;
}

} // namespace

RequestTracer::RequestTracer(RequestTraceConfig config)
    : config_(config)
{
    fatalIf(config_.sampleRate < 0.0 || config_.sampleRate > 1.0,
            "request trace sample rate must be in [0, 1]");
    // p maps onto the hash's full 2^64 range; p = 1 is exact (every
    // hash value passes), p = 0 passes nothing.
    threshold_ = config_.sampleRate >= 1.0
                     ? ~0ull
                     : static_cast<std::uint64_t>(
                           std::ldexp(config_.sampleRate, 64));
    tracer_.setEnabled(true);
}

bool
RequestTracer::sampled(std::uint64_t id) const
{
    if (config_.sampleRate >= 1.0)
        return true;
    if (threshold_ == 0)
        return false;
    return mix64(config_.seed ^ mix64(id)) < threshold_;
}

std::string
RequestTracer::deviceProcess(int device)
{
    return device < 0 ? std::string("unrouted.requests")
                      : "dev" + std::to_string(device) + ".requests";
}

RequestRecord &
RequestTracer::recordFor(std::uint64_t id, const serve::Request &r)
{
    auto it = pending_.find(id);
    if (it == pending_.end()) {
        RequestRecord rec;
        rec.outcome.request = r;
        it = pending_.emplace(id, std::move(rec)).first;
        ++sampledSeen_;
    }
    return it->second;
}

void
RequestTracer::onRoute(unsigned device, const serve::Request &r)
{
    if (!sampled(r.id))
        return;
    RequestRecord &rec = recordFor(r.id, r);
    rec.outcome.device = static_cast<int>(device);
    tracer_.instant(tracer_.track("fleet.router", "decisions"),
                    r.model + " #" + std::to_string(r.id) + " -> dev" +
                        std::to_string(device),
                    "trace.route", r.arrival,
                    {{"device", static_cast<double>(device)}});
}

void
RequestTracer::onAdmit(unsigned device, const serve::Request &r)
{
    if (!sampled(r.id))
        return;
    RequestRecord &rec = recordFor(r.id, r);
    if (rec.outcome.device < 0)
        rec.outcome.device = static_cast<int>(device);
}

void
RequestTracer::onWeightLoad(unsigned device, const std::string &model,
                            Tick start, Tick end, std::uint64_t bytes)
{
    // Placement is a device-level event, not a per-request one, so
    // it is traced whenever request tracing is on at all.
    tracer_.span(tracer_.track(deviceProcess(static_cast<int>(device)),
                               "weight-load"),
                 "load " + model, "trace.weight-load", start, end,
                 {{"bytes", static_cast<double>(bytes)}});
}

bool
RequestTracer::linkBatch(Tracer &chip,
                         const std::vector<serve::Request> &batch,
                         Tick link_ts) const
{
    TrackId ops = chip.track("runtime", "operators");
    for (const serve::Request &r : batch) {
        // The hop into the chip timeline: lands inside an operator
        // span of the batch this request rode in.
        if (sampled(r.id))
            chip.flow(ops, r.model + " #" + std::to_string(r.id),
                      "request-flow", link_ts, r.id, FlowPhase::Step);
    }
    return chip.enabled();
}

void
RequestTracer::onBatchExecuted(unsigned device,
                               const serve::Launch &launch)
{
    for (const serve::Request &r : launch.sampled) {
        if (!sampled(r.id))
            continue;
        RequestRecord &rec = recordFor(r.id, r);
        rec.outcome.device = static_cast<int>(device);
        rec.executed = true;
        rec.outcome.dispatched = launch.launched;
        rec.outcome.completed = launch.result.end;
        rec.outcome.batchSize =
            static_cast<unsigned>(launch.sampled.size());
        rec.outcome.retries = launch.retries;
        rec.deviceLinked = rec.deviceLinked || launch.linked;
    }
}

void
RequestTracer::finishRecord(RequestRecord &rec)
{
    const serve::RequestOutcome &o = rec.outcome;
    const std::string proc = deviceProcess(o.device);
    const std::string name =
        o.request.model + " #" + std::to_string(o.request.id);
    const TrackId queue = tracer_.track(proc, "queue");
    const TrackId life = tracer_.track(proc, "lifecycle");

    const Tick arrival = o.request.arrival;
    const Tick queue_end = rec.executed ? o.dispatched : o.completed;
    tracer_.span(queue, name, "trace.queue", arrival, queue_end);
    tracer_.flow(queue, name, "request-flow",
                 midpoint(arrival, queue_end), o.request.id,
                 FlowPhase::Start);

    if (rec.executed) {
        const TrackId exec = tracer_.track(proc, "execute");
        TraceArgs args{{"batch", static_cast<double>(o.batchSize)}};
        if (o.retries)
            args.emplace_back("retries",
                              static_cast<double>(o.retries));
        tracer_.span(exec, name, "trace.execute", o.dispatched,
                     o.completed, std::move(args));
        // Generative lifecycles split the execution window into the
        // compute-bound prefill (dispatch -> first token) and the
        // bandwidth-bound decode loop (first token -> completion).
        if (o.request.generative() && o.firstToken > o.dispatched &&
            o.completed >= o.firstToken) {
            tracer_.span(exec, "prefill " + name, "trace.prefill",
                         o.dispatched, o.firstToken,
                         {{"prompt_len", static_cast<double>(
                                             o.request.gen.promptLen)}});
            tracer_.span(exec, "decode " + name, "trace.decode",
                         o.firstToken, o.completed,
                         {{"tokens", static_cast<double>(
                                         o.tokensEmitted)}});
        }
        if (o.retries) {
            tracer_.instant(exec, "batch-retry " + name, "trace.retry",
                            midpoint(o.dispatched, o.completed));
        }
        tracer_.flow(exec, name, "request-flow",
                     midpoint(o.dispatched, o.completed), o.request.id,
                     FlowPhase::Step);
    }

    tracer_.span(life, name, "trace.request", arrival, o.completed,
                 {{"latency_us",
                   ticksToMicroSeconds(o.completed - arrival)},
                  {"batch", static_cast<double>(o.batchSize)},
                  {"missed", o.missedDeadline() ? 1.0 : 0.0}});
    if (!o.completedOk()) {
        tracer_.instant(life,
                        std::string(o.outcomeName()) + " " + name,
                        "trace.drop", o.completed);
    }
    tracer_.flow(life, name, "request-flow",
                 midpoint(arrival, o.completed), o.request.id,
                 FlowPhase::End);

    finished_.push_back(rec);
    if (flight_)
        flight_->recordRequest(rec);
}

void
RequestTracer::onTerminal(unsigned device,
                          const serve::RequestOutcome &outcome)
{
    const serve::Request &r = outcome.request;
    if (!sampled(r.id))
        return;
    RequestRecord &rec = recordFor(r.id, r);
    const int routed = rec.outcome.device;
    rec.outcome = outcome;
    if (rec.outcome.device < 0)
        rec.outcome.device =
            routed >= 0 ? routed : static_cast<int>(device);
    // A drop keeps whether a batch of the request executed.
    rec.executed = rec.executed || outcome.completedOk();
    finishRecord(rec);
    pending_.erase(r.id);
}

void
RequestTracer::recordCounters(const FleetMetricSample &sample)
{
    static constexpr const char *kSuffixes[] = {
        ".queue_depth", ".in_flight_batches", ".outstanding",
        ".dropped_total", ".batch_retries_total"};
    for (const DeviceMetricSample &d : sample.devices) {
        if (counterNames_.size() <= d.device)
            counterNames_.resize(d.device + 1);
        CounterNames &names = counterNames_[d.device];
        if (names[0].empty()) {
            const std::string p = "dev" + std::to_string(d.device);
            for (std::size_t i = 0; i < names.size(); ++i)
                names[i] = p + kSuffixes[i];
        }
        tracer_.counter(names[0], "requests", sample.at,
                        static_cast<double>(d.queueDepth));
        tracer_.counter(names[1], "batches", sample.at,
                        static_cast<double>(d.inFlightBatches));
        tracer_.counter(names[2], "requests", sample.at,
                        static_cast<double>(d.outstanding));
        tracer_.counter(names[3], "requests", sample.at,
                        static_cast<double>(d.dropped));
        tracer_.counter(names[4], "retries", sample.at,
                        static_cast<double>(d.retries));
    }
}

void
RequestTracer::recordMetrics(const FleetMetricSample &sample)
{
    series_.append(sample);
    if (flight_)
        flight_->recordMetrics(sample);
}

void
RequestTracer::exportTrace(const std::vector<const Tracer *> &chips,
                           std::ostream &os) const
{
    std::vector<Tracer::ExportPart> parts;
    parts.push_back({"", &tracer_});
    for (std::size_t i = 0; i < chips.size(); ++i) {
        if (chips[i])
            parts.push_back({"dev" + std::to_string(i), chips[i]});
    }
    Tracer::exportMergedChromeTrace(parts, os);
}

void
RequestTracer::writeTrace(const std::vector<const Tracer *> &chips,
                          const std::string &path) const
{
    std::vector<Tracer::ExportPart> parts;
    parts.push_back({"", &tracer_});
    for (std::size_t i = 0; i < chips.size(); ++i) {
        if (chips[i])
            parts.push_back({"dev" + std::to_string(i), chips[i]});
    }
    Tracer::writeMergedChromeTrace(parts, path);
}

} // namespace obs
} // namespace dtu
