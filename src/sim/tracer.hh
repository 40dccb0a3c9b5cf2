/**
 * @file
 * Chip-wide timeline tracing for dtusim.
 *
 * Engines emit typed events into the chip's Tracer:
 *
 *  - duration spans (operator execution, DMA transfers, kernel code
 *    loads, semaphore waits) attributed to a two-level track
 *    hierarchy: a *process* for each hardware block (e.g.
 *    "dtu2.cluster0.pg1") and a *thread* for each engine inside it
 *    ("dma", "icache0", "sync"), mirroring the SimObject naming
 *    hierarchy;
 *  - instant events (DVFS ladder steps, power-budget grants);
 *  - counter tracks sampled over simulated time (core frequency in
 *    GHz, power in watts, HBM bandwidth utilization, throttle level).
 *
 * The collected timeline exports as Chrome trace-event JSON (the
 * "JSON Array Format"), which loads directly into Perfetto
 * (https://ui.perfetto.dev) or chrome://tracing. Timestamps convert
 * from ticks (picoseconds) to the microseconds the format expects.
 *
 * Tracing is off by default and costs one branch per emission site
 * when disabled. The Tracer is owned by the Dtu, alongside the
 * StatRegistry, so independent simulated chips keep independent
 * timelines.
 */

#ifndef DTU_SIM_TRACER_HH
#define DTU_SIM_TRACER_HH

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/ticks.hh"

namespace dtu
{

class JsonWriter;

/** Identifies one (process, thread) timeline track. */
struct TrackId
{
    std::uint32_t pid = 0;
    std::uint32_t tid = 0;
};

/** Optional key/value annotations attached to a span or instant. */
using TraceArgs = std::vector<std::pair<std::string, double>>;

/**
 * Position of a flow event within its arrow chain. Chrome flow
 * events with the same id form one arrow sequence: exactly one
 * Start, any number of Steps, and one End; each binds to the slice
 * enclosing its timestamp on its track.
 */
enum class FlowPhase : std::uint8_t
{
    Start, ///< ph "s" — arrow tail
    Step,  ///< ph "t" — intermediate hop
    End,   ///< ph "f" — arrow head
};

/** Collects timeline events and exports Chrome trace-event JSON. */
class Tracer
{
  public:
    Tracer() = default;
    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** True when emission sites should record events. */
    bool enabled() const { return enabled_; }
    void setEnabled(bool enabled) { enabled_ = enabled; }

    /**
     * Resolve (and lazily create) the track for @p process /
     * @p thread. Track ids are stable for the Tracer's lifetime.
     */
    TrackId track(const std::string &process, const std::string &thread);

    /**
     * Resolve a track from a hierarchical SimObject name by splitting
     * at the last '.': "dtu2.cluster0.pg1.dma" becomes process
     * "dtu2.cluster0.pg1", thread "dma".
     */
    TrackId trackFor(const std::string &hierarchical_name);

    /** Record a duration span [start, end] on @p track. */
    void span(TrackId track, const std::string &name,
              const std::string &category, Tick start, Tick end,
              TraceArgs args = {});

    /** Record an instantaneous event at @p at. */
    void instant(TrackId track, const std::string &name,
                 const std::string &category, Tick at,
                 TraceArgs args = {});

    /**
     * Record one sample of counter track @p counter_name. Each
     * counter name is its own Perfetto counter track; @p series_key
     * labels the value inside it (e.g. "GHz", "W").
     */
    void counter(const std::string &counter_name,
                 const std::string &series_key, Tick at, double value);

    /**
     * Record one hop of flow arrow @p flow_id at @p at on @p track.
     * The event binds to the slice enclosing @p at on the track, so
     * emit it inside (or at the start tick of) the span it should
     * attach to. Flow ids are preserved verbatim by the merged
     * export, letting arrows cross tracer boundaries (e.g. a fleet
     * request span linking to a chip operator span).
     */
    void flow(TrackId track, const std::string &name,
              const std::string &category, Tick at,
              std::uint64_t flow_id, FlowPhase phase);

    /** Events recorded so far (spans + instants + counter samples). */
    std::size_t eventCount() const
    {
        return store_ ? store_->events.size() : 0;
    }

    /** Distinct (process, thread) tracks created so far. */
    std::size_t trackCount() const;

    /** Drop all recorded events (track ids remain valid). */
    void clear() { store_.reset(); }

    /**
     * Export everything as Chrome trace-event JSON. Events are sorted
     * by timestamp; process/thread metadata records name the tracks.
     */
    void exportChromeTrace(std::ostream &os) const;

    /** exportChromeTrace into a file; fatal() on I/O failure. */
    void writeChromeTrace(const std::string &path) const;

    /** One labeled contributor to a merged multi-tracer export. */
    struct ExportPart
    {
        /**
         * Prefix for the part's process names ("dev0" renders
         * "dtu2.cluster0" as "dev0.dtu2.cluster0"). Empty leaves
         * names unprefixed — only safe for a single part.
         */
        std::string label;
        const Tracer *tracer = nullptr;
    };

    /**
     * Export several tracers as one Chrome trace. Each part's pids
     * are remapped into a disjoint range (per-device tracers all
     * start their pids at 1, so a naive concatenation would collide
     * two devices' spans onto one track) and its process names get
     * the part label as a prefix. Flow ids pass through unchanged so
     * request arrows span devices. Events are globally sorted by
     * timestamp.
     */
    static void
    exportMergedChromeTrace(const std::vector<ExportPart> &parts,
                            std::ostream &os);

    /** exportMergedChromeTrace into a file; fatal() on I/O failure. */
    static void writeMergedChromeTrace(const std::vector<ExportPart> &parts,
                                       const std::string &path);

  private:
    enum class Kind : std::uint8_t
    {
        Span,
        Instant,
        Counter,
        Flow,
    };

    /** Index into the intern table: each distinct name is stored once. */
    using StringId = std::uint32_t;

    /**
     * One recorded event in 48 bytes: names are ids into the intern
     * table and args are a run of the pooled args, so a chip's few
     * thousand events per serve cost hundreds of kilobytes, not
     * megabytes.
     */
    struct TraceEvent
    {
        Tick start = 0;
        Tick end = 0;
        union
        {
            double value = 0.0;   ///< counter sample value
            std::uint64_t flowId; ///< flow arrow id
        };
        std::uint32_t pid = 0;
        std::uint32_t tid = 0;
        StringId name = 0;
        StringId category = 0; ///< a counter's series key
        std::uint32_t argsBegin = 0; ///< first arg's index in the pool
        std::uint16_t argCount = 0;
        Kind kind = Kind::Span;
        FlowPhase flowPhase = FlowPhase::Start;
    };
    static_assert(sizeof(TraceEvent) == 48);

    /**
     * The recorded events, their args and the intern table. It is
     * allocated at the first event: most chips never trace, and a
     * larger Tracer made every Dtu, which embeds one, slower to build
     * (EXPERIMENTS.md, "Chip construction and the size of `Dtu`").
     */
    struct Store
    {
        /** Interned strings; a deque keeps the views in `ids` valid. */
        std::deque<std::string> strings;
        std::unordered_map<std::string_view, StringId> ids;
        /** Chunked, so growth never copies (or doubles) the store. */
        std::deque<TraceEvent> events;
        /** The pooled args, keys and values apart (12 bytes an arg). */
        std::deque<StringId> argKeys;
        std::deque<double> argValues;

        /** The id of @p text, added to the table on first sight. */
        StringId intern(std::string_view text);
    };

    /** The store, allocated on first use. */
    Store &store();
    const std::string &str(StringId id) const
    {
        return store_->strings[id];
    }

    /** Append a span, instant or flow event with its args. */
    TraceEvent &record(Kind kind, TrackId track, const std::string &name,
                       const std::string &category, Tick start, Tick end,
                       const TraceArgs &args);

    /** pid for a counter track, all grouped under one process. */
    std::uint32_t counterPid(const std::string &counter_name);

    /** Highest pid handed out so far (pids are 1..maxPid()). */
    std::uint32_t maxPid() const
    {
        return static_cast<std::uint32_t>(processes_.size() +
                                          counters_.size());
    }

    /** Track-naming metadata records, pids shifted by @p pid_offset. */
    void writeTrackMetadata(JsonWriter &json, std::uint32_t pid_offset,
                            const std::string &label_prefix) const;

    /** One event record, pids shifted by @p pid_offset. */
    void writeEvent(JsonWriter &json, const TraceEvent &e,
                    std::uint32_t pid_offset) const;

    bool enabled_ = false;
    std::map<std::string, std::uint32_t> processes_;
    /** (pid, thread name) -> tid. */
    std::map<std::pair<std::uint32_t, std::string>, std::uint32_t> threads_;
    std::map<std::string, std::uint32_t> counters_;
    std::unique_ptr<Store> store_;
};

/**
 * Force a Tracer on for a lexical scope, restoring the previous
 * state on exit. Used to capture chip-side spans only while a
 * sampled request's batch executes, so request-trace overhead scales
 * with the sampling rate instead of the full run.
 */
class ScopedTracerEnable
{
  public:
    explicit ScopedTracerEnable(Tracer &tracer, bool enable = true)
        : tracer_(tracer), saved_(tracer.enabled())
    {
        if (enable)
            tracer_.setEnabled(true);
    }

    ~ScopedTracerEnable() { tracer_.setEnabled(saved_); }

    ScopedTracerEnable(const ScopedTracerEnable &) = delete;
    ScopedTracerEnable &operator=(const ScopedTracerEnable &) = delete;

  private:
    Tracer &tracer_;
    bool saved_;
};

} // namespace dtu

#endif // DTU_SIM_TRACER_HH
