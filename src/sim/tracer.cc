#include "sim/tracer.hh"

#include <algorithm>
#include <fstream>
#include <limits>

#include "sim/json.hh"
#include "sim/logging.hh"

namespace dtu
{

namespace
{

/** Chrome trace timestamps are microseconds; ticks are picoseconds. */
double
ticksToTraceUs(Tick t)
{
    return static_cast<double>(t) / 1e6;
}

} // namespace

TrackId
Tracer::track(const std::string &process, const std::string &thread)
{
    auto [pit, pnew] = processes_.try_emplace(
        process, static_cast<std::uint32_t>(processes_.size() +
                                            counters_.size() + 1));
    (void)pnew;
    std::uint32_t pid = pit->second;
    auto [tit, tnew] = threads_.try_emplace(
        {pid, thread}, static_cast<std::uint32_t>(threads_.size() + 1));
    (void)tnew;
    return TrackId{pid, tit->second};
}

TrackId
Tracer::trackFor(const std::string &hierarchical_name)
{
    auto dot = hierarchical_name.rfind('.');
    if (dot == std::string::npos || dot == 0 ||
        dot + 1 == hierarchical_name.size())
        return track(hierarchical_name, "main");
    return track(hierarchical_name.substr(0, dot),
                 hierarchical_name.substr(dot + 1));
}

Tracer::StringId
Tracer::Store::intern(std::string_view text)
{
    auto it = ids.find(text);
    if (it != ids.end())
        return it->second;
    const auto id = static_cast<StringId>(strings.size());
    ids.emplace(strings.emplace_back(text), id);
    return id;
}

Tracer::Store &
Tracer::store()
{
    if (!store_)
        store_ = std::make_unique<Store>();
    return *store_;
}

std::uint32_t
Tracer::counterPid(const std::string &counter_name)
{
    auto [it, fresh] = counters_.try_emplace(
        counter_name, static_cast<std::uint32_t>(processes_.size() +
                                                 counters_.size() + 1));
    (void)fresh;
    return it->second;
}

std::size_t
Tracer::trackCount() const
{
    return threads_.size() + counters_.size();
}

Tracer::TraceEvent &
Tracer::record(Kind kind, TrackId track, const std::string &name,
               const std::string &category, Tick start, Tick end,
               const TraceArgs &args)
{
    fatalIf(args.size() > std::numeric_limits<std::uint16_t>::max(),
            "trace event '", name, "' has ", args.size(),
            " args; at most 65535 are kept");
    Store &s = store();
    TraceEvent &e = s.events.emplace_back();
    e.kind = kind;
    e.pid = track.pid;
    e.tid = track.tid;
    e.name = s.intern(name);
    e.category = s.intern(category);
    e.start = start;
    e.end = end;
    e.argsBegin = static_cast<std::uint32_t>(s.argKeys.size());
    e.argCount = static_cast<std::uint16_t>(args.size());
    for (const auto &[key, value] : args) {
        s.argKeys.push_back(s.intern(key));
        s.argValues.push_back(value);
    }
    return e;
}

void
Tracer::span(TrackId track, const std::string &name,
             const std::string &category, Tick start, Tick end,
             TraceArgs args)
{
    if (!enabled_)
        return;
    record(Kind::Span, track, name, category, start, std::max(start, end),
           args);
}

void
Tracer::instant(TrackId track, const std::string &name,
                const std::string &category, Tick at, TraceArgs args)
{
    if (!enabled_)
        return;
    record(Kind::Instant, track, name, category, at, at, args);
}

void
Tracer::counter(const std::string &counter_name,
                const std::string &series_key, Tick at, double value)
{
    if (!enabled_)
        return;
    Store &s = store();
    TraceEvent &e = s.events.emplace_back();
    e.kind = Kind::Counter;
    e.pid = counterPid(counter_name);
    e.name = s.intern(counter_name);
    e.category = s.intern(series_key);
    e.start = at;
    e.end = at;
    e.value = value;
}

void
Tracer::flow(TrackId track, const std::string &name,
             const std::string &category, Tick at, std::uint64_t flow_id,
             FlowPhase phase)
{
    if (!enabled_)
        return;
    TraceEvent &e = record(Kind::Flow, track, name, category, at, at, {});
    e.flowId = flow_id;
    e.flowPhase = phase;
}

void
Tracer::writeTrackMetadata(JsonWriter &json, std::uint32_t pid_offset,
                           const std::string &label_prefix) const
{
    auto displayName = [&](const std::string &name) {
        return label_prefix.empty() ? name : label_prefix + "." + name;
    };

    // Track metadata: names and a stable sort order.
    for (const auto &[process, pid] : processes_) {
        json.beginObject()
            .field("ph", "M")
            .field("name", "process_name")
            .field("pid", static_cast<std::uint64_t>(pid + pid_offset))
            .key("args")
            .beginObject()
            .field("name", displayName(process))
            .endObject()
            .endObject();
        json.beginObject()
            .field("ph", "M")
            .field("name", "process_sort_index")
            .field("pid", static_cast<std::uint64_t>(pid + pid_offset))
            .key("args")
            .beginObject()
            .field("sort_index",
                   static_cast<std::uint64_t>(pid + pid_offset))
            .endObject()
            .endObject();
    }
    for (const auto &[key, tid] : threads_) {
        // Find the thread's display name from the (pid, name) key.
        json.beginObject()
            .field("ph", "M")
            .field("name", "thread_name")
            .field("pid",
                   static_cast<std::uint64_t>(key.first + pid_offset))
            .field("tid", static_cast<std::uint64_t>(tid))
            .key("args")
            .beginObject()
            .field("name", key.second)
            .endObject()
            .endObject();
    }
    for (const auto &[counter_name, pid] : counters_) {
        json.beginObject()
            .field("ph", "M")
            .field("name", "process_name")
            .field("pid", static_cast<std::uint64_t>(pid + pid_offset))
            .key("args")
            .beginObject()
            .field("name", displayName(counter_name))
            .endObject()
            .endObject();
    }
}

void
Tracer::writeEvent(JsonWriter &json, const TraceEvent &e,
                   std::uint32_t pid_offset) const
{
    const std::string &name = str(e.name);
    const std::string &category = str(e.category);
    json.beginObject();
    switch (e.kind) {
      case Kind::Span:
        json.field("ph", "X")
            .field("name", name)
            .field("cat", category.empty() ? "span" : category)
            .field("pid", static_cast<std::uint64_t>(e.pid + pid_offset))
            .field("tid", static_cast<std::uint64_t>(e.tid))
            .field("ts", ticksToTraceUs(e.start))
            .field("dur", ticksToTraceUs(e.end - e.start));
        break;
      case Kind::Instant:
        json.field("ph", "i")
            .field("name", name)
            .field("cat", category.empty() ? "event" : category)
            .field("s", "t") // thread-scoped instant
            .field("pid", static_cast<std::uint64_t>(e.pid + pid_offset))
            .field("tid", static_cast<std::uint64_t>(e.tid))
            .field("ts", ticksToTraceUs(e.start));
        break;
      case Kind::Counter:
        json.field("ph", "C")
            .field("name", name)
            .field("pid", static_cast<std::uint64_t>(e.pid + pid_offset))
            .field("tid", std::uint64_t{0})
            .field("ts", ticksToTraceUs(e.start));
        break;
      case Kind::Flow:
        json.field("ph", e.flowPhase == FlowPhase::Start  ? "s"
                         : e.flowPhase == FlowPhase::Step ? "t"
                                                          : "f")
            .field("name", name)
            .field("cat", category.empty() ? "flow" : category)
            .field("id", e.flowId)
            .field("pid", static_cast<std::uint64_t>(e.pid + pid_offset))
            .field("tid", static_cast<std::uint64_t>(e.tid))
            .field("ts", ticksToTraceUs(e.start));
        // Bind to the slice *enclosing* the timestamp (default binds
        // steps/ends to the next slice, which detaches the arrow
        // when the target span starts at the same tick).
        if (e.flowPhase != FlowPhase::Start)
            json.field("bp", "e");
        break;
    }
    if (e.kind == Kind::Counter) {
        json.key("args")
            .beginObject()
            .field(category.empty() ? "value" : category, e.value)
            .endObject();
    } else if (e.argCount > 0) {
        json.key("args").beginObject();
        for (std::uint32_t i = e.argsBegin; i < e.argsBegin + e.argCount;
             ++i)
            json.field(str(store_->argKeys[i]), store_->argValues[i]);
        json.endObject();
    }
    json.endObject();
}

void
Tracer::exportChromeTrace(std::ostream &os) const
{
    exportMergedChromeTrace({{"", this}}, os);
}

void
Tracer::exportMergedChromeTrace(const std::vector<ExportPart> &parts,
                                std::ostream &os)
{
    // Each part's pids start at 1, so give part k a disjoint range
    // by offsetting with the running sum of earlier parts' maxPid().
    std::vector<std::uint32_t> offsets;
    offsets.reserve(parts.size());
    std::uint32_t next = 0;
    for (const ExportPart &part : parts) {
        offsets.push_back(next);
        next += part.tracer->maxPid();
    }

    // Sort by start tick (stable: part order then emission order
    // breaks ties) so the file is monotonic in `ts`, which
    // simplifies diffing and lets consumers stream it.
    std::vector<std::pair<const TraceEvent *, std::size_t>> ordered;
    for (std::size_t k = 0; k < parts.size(); ++k)
        if (const auto &store = parts[k].tracer->store_)
            for (const TraceEvent &e : store->events)
                ordered.emplace_back(&e, k);
    std::stable_sort(ordered.begin(), ordered.end(),
                     [](const auto &a, const auto &b) {
                         return a.first->start < b.first->start;
                     });

    JsonWriter json(os, 0);
    json.beginObject();
    json.key("displayTimeUnit").value("ns");
    json.key("traceEvents");
    json.beginArray();

    for (std::size_t k = 0; k < parts.size(); ++k)
        parts[k].tracer->writeTrackMetadata(json, offsets[k],
                                            parts[k].label);

    for (const auto &[e, k] : ordered)
        parts[k].tracer->writeEvent(json, *e, offsets[k]);

    json.endArray();
    json.endObject();
    os << "\n";
}

void
Tracer::writeChromeTrace(const std::string &path) const
{
    std::ofstream file(path);
    fatalIf(!file, "cannot open trace output file '", path, "'");
    exportChromeTrace(file);
    fatalIf(!file.good(), "error writing trace to '", path, "'");
    inform(csprintf("wrote timeline trace (", eventCount(),
                    " events, ", trackCount(), " tracks) to ", path));
}

void
Tracer::writeMergedChromeTrace(const std::vector<ExportPart> &parts,
                               const std::string &path)
{
    std::ofstream file(path);
    fatalIf(!file, "cannot open trace output file '", path, "'");
    exportMergedChromeTrace(parts, file);
    fatalIf(!file.good(), "error writing trace to '", path, "'");
    std::size_t events = 0;
    for (const ExportPart &part : parts)
        events += part.tracer->eventCount();
    inform(csprintf("wrote merged timeline trace (", parts.size(),
                    " tracers, ", events, " events) to ", path));
}

} // namespace dtu
