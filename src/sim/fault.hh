/**
 * @file
 * Seeded, deterministic fault injection for the simulated chip.
 *
 * Cloud inference is judged on what it sustains when things go
 * wrong, not only on peak latency: ECC events in the HBM stacks,
 * transient DMA descriptor failures, and thermal-throttle episodes
 * all erode the QPS a box can promise. The FaultInjector schedules
 * those failure modes deterministically from one seed:
 *
 *  - ECC errors draw per HBM access with a probability proportional
 *    to the bytes moved. Correctable errors stall the access for a
 *    scrub interval; uncorrectable errors poison the execution that
 *    observed them (the serving scheduler retries or fails the
 *    batch).
 *  - Transient DMA faults draw per submitted descriptor. The engine
 *    retries with bounded exponential backoff; exhausted retries
 *    poison the execution like an uncorrectable ECC error.
 *  - Thermal-throttle episodes form a precomputed on/off schedule on
 *    the simulated timeline (exponential gaps and durations). While
 *    an episode is active the CPME caps the effective core clock.
 *
 * Every injected fault is appended to a replayable log, counted in
 * the chip's StatRegistry ("fault.*"), and emitted as a Tracer
 * instant, so a fault-injected run can be compared event-for-event
 * against a second run with the same seed. Injection is strictly
 * opt-in: a chip without an installed injector (or with all rates at
 * zero) draws nothing from the fault RNG streams and reproduces the
 * fault-free timing bit-for-bit.
 */

#ifndef DTU_SIM_FAULT_HH
#define DTU_SIM_FAULT_HH

#include <bit>
#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "sim/random.hh"
#include "sim/stats.hh"
#include "sim/ticks.hh"

namespace dtu
{

class Tracer;

/** The failure modes the injector can schedule. */
enum class FaultKind
{
    /** HBM ECC error corrected in place (adds a scrub stall). */
    EccCorrectable,
    /** HBM ECC error beyond correction (poisons the execution). */
    EccUncorrectable,
    /** One DMA descriptor failed transiently (engine retries). */
    DmaTransient,
    /** A DMA descriptor failed every bounded retry (poisons). */
    DmaRetryExhausted,
    /** A thermal-throttle episode began (caps the core clock). */
    ThermalThrottle,
};

/** Stable lowercase name for JSON/logs. */
const char *faultKindName(FaultKind kind);

/** Rates and shapes of the injected failure modes (all default off). */
struct FaultConfig
{
    /** Seed for the per-class RNG streams. */
    std::uint64_t seed = 1;

    //
    // HBM ECC. Rates are expected events per GiB moved, so the fault
    // pressure scales with memory traffic the way field failure
    // rates do. A rate of 0 disables the class (and its RNG draws).
    //
    double eccCorrectablePerGiB = 0.0;
    double eccUncorrectablePerGiB = 0.0;
    /** Stall added to an access hit by a correctable error. */
    Tick eccScrubTicks = 2'000'000; // 2 us

    //
    // DMA transients. Probability that one submitted descriptor
    // fails; the engine retries up to dmaMaxRetries times with
    // exponential backoff (backoff << attempt) between attempts.
    //
    double dmaTransientRate = 0.0;
    unsigned dmaMaxRetries = 3;
    Tick dmaRetryBackoffTicks = 1'000'000; // 1 us, doubling

    //
    // Thermal-throttle episodes. Gaps between episode starts and
    // episode durations are exponentially distributed around these
    // means; during an episode the effective core clock is capped at
    // thermalCapHz. An interval, duration, or cap of 0 disables the
    // class.
    //
    double thermalMeanIntervalS = 0.0;
    double thermalMeanDurationS = 0.0;
    double thermalCapHz = 0.0;

    /** True when any class can fire. */
    bool anyEnabled() const;
};

/** One scheduled fault, in injection order (the replay log). */
struct InjectedFault
{
    FaultKind kind = FaultKind::EccCorrectable;
    /** Simulated time the fault was observed (episode start for
     *  thermal). */
    Tick at = 0;
    /** Hierarchical name of the site that drew it ("thermal" for
     *  episodes). */
    std::string site;

    bool
    operator==(const InjectedFault &other) const
    {
        return kind == other.kind && at == other.at &&
               site == other.site;
    }
};

/** A closed thermal-throttle interval on the simulated timeline. */
struct ThermalEpisode
{
    Tick start = 0;
    Tick end = 0;
};

/**
 * Draws faults from seeded per-class RNG streams. One injector per
 * chip (see Dtu::installFaults); the hooks in Hbm, DmaEngine, and
 * Cpme consult it when wired.
 */
class FaultInjector
{
  public:
    explicit FaultInjector(FaultConfig config);
    FaultInjector(const FaultInjector &) = delete;
    FaultInjector &operator=(const FaultInjector &) = delete;

    /** Register the "fault.*" counters with the chip registry. */
    void registerStats(StatRegistry &stats);

    /** Attach the chip tracer (fault instants + episode spans). */
    void setTracer(Tracer *tracer) { tracer_ = tracer; }

    /**
     * Callback invoked for every injected fault, at injection time
     * (replaces any previous; empty detaches). The flight recorder
     * hooks this so a hardware fault snapshots the serving state
     * leading up to it.
     */
    using FaultCallback = std::function<void(const InjectedFault &)>;
    void onFault(FaultCallback callback)
    {
        callback_ = std::move(callback);
    }

    /** True while an onFault() callback is installed. */
    bool hasListener() const { return static_cast<bool>(callback_); }

    const FaultConfig &config() const { return config_; }

    //
    // HBM hook.
    //

    /**
     * Draw the ECC outcome of one HBM access of @p bytes finishing
     * at @p at.
     * @return extra stall ticks (the correctable scrub; 0 usually).
     */
    Tick eccAccess(Tick at, const std::string &site,
                   std::uint64_t bytes);

    //
    // DMA hooks.
    //

    /** True when descriptors should draw transient faults at all. */
    bool dmaEnabled() const { return config_.dmaTransientRate > 0.0; }

    /** Draw whether the descriptor that finished at @p at failed. */
    bool dmaTransient(Tick at, const std::string &site);

    /** Bounded retries per descriptor. */
    unsigned dmaMaxRetries() const { return config_.dmaMaxRetries; }

    /**
     * Backoff before retry number @p attempt (exponential), saturating
     * at maxTick once the doubling would overflow.
     */
    Tick
    dmaBackoff(unsigned attempt) const
    {
        const Tick base = config_.dmaRetryBackoffTicks;
        if (base == 0)
            return 0;
        return attempt > static_cast<unsigned>(std::countl_zero(base))
                   ? maxTick
                   : base << attempt;
    }

    /** Count one retry the engine issued. */
    void recordDmaRetry();

    /** Count a descriptor whose bounded retries all failed. */
    void recordDmaExhausted(Tick at, const std::string &site);

    //
    // Thermal hook.
    //

    /**
     * Frequency ceiling active at @p at: config().thermalCapHz
     * inside an episode, 0 (uncapped) outside. Extends the episode
     * schedule on demand; the schedule depends only on the seed, so
     * out-of-order queries (overlapping serving batches) see one
     * consistent timeline.
     */
    double thermalCapHz(Tick at);

    /** Clamp @p hz against the episode active at @p at (counted). */
    double thermalClampHz(Tick at, double hz);

    /** Episodes scheduled so far (grows as queries advance). */
    const std::vector<ThermalEpisode> &episodes() const
    {
        return episodes_;
    }

    //
    // Degradation signal and replay log.
    //

    /**
     * Executions observing a growing poison count were corrupted
     * (uncorrectable ECC or exhausted DMA retries); the serving
     * scheduler snapshots this around each batch to decide retries.
     */
    std::uint64_t
    poisonCount() const
    {
        return uncorrectable_ + dmaExhausted_;
    }

    /** Every injected fault, in injection order. */
    const std::vector<InjectedFault> &log() const { return log_; }

    /** Injected faults of one kind. */
    std::uint64_t count(FaultKind kind) const;

    /** Serialize the replay log as a JSON array. */
    void writeLogJson(std::ostream &os) const;

  private:
    /** Append to the log, bump stats, emit the tracer instant. */
    void record(FaultKind kind, Tick at, const std::string &site);

    /** Grow the episode schedule until it covers @p upto. */
    void extendThermalSchedule(Tick upto);

    FaultConfig config_;
    // Independent streams per class: the draw order of one class
    // never shifts another's schedule.
    Random eccRng_;
    Random dmaRng_;
    Random thermalRng_;

    std::vector<InjectedFault> log_;
    std::vector<ThermalEpisode> episodes_;
    /** The schedule is decided up to here (exclusive). */
    Tick thermalCovered_ = 0;

    std::uint64_t uncorrectable_ = 0;
    std::uint64_t dmaExhausted_ = 0;

    Stat eccCorrectableStat_;
    Stat eccUncorrectableStat_;
    Stat dmaTransientStat_;
    Stat dmaRetryStat_;
    Stat dmaExhaustedStat_;
    Stat thermalEpisodeStat_;
    Stat thermalThrottledWindowStat_;

    Tracer *tracer_ = nullptr;
    FaultCallback callback_;
};

} // namespace dtu

#endif // DTU_SIM_FAULT_HH
