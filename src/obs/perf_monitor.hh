/**
 * @file
 * PMU-style performance-counter sampling (the "obs" subsystem).
 *
 * A PerfMonitor watches a set of scalar stats — the per-core cycle
 * and MAC counters, DMA pipe bytes, HBM channel bytes, sync-engine
 * wait ticks, the CPME power gauges — and samples them into in-memory
 * time series at a fixed period of simulated time.
 *
 * dtusim's executor computes completion times analytically on
 * capacity ledgers, so there is no event queue to fire a periodic
 * sampler. Instead the monitor samples *lazily*: the executor (and
 * any other driver) calls sampleUpTo(now) at its natural progress
 * points, and the monitor emits one sample per elapsed period
 * boundary, stamped at the exact boundary tick. Between boundaries
 * counters are piecewise-constant at the granularity of the driver's
 * hook calls — one operator window for the executor — which is also
 * the granularity the modelled hardware moves them at.
 *
 * Each sample records the raw counter value and the per-second rate
 * derived from the previous sample (StatSnapshot::ratePerSecond).
 * Series export as CSV and JSON, and mirror into the chip Tracer as
 * "pmu.<stat>" counter tracks so the sampled series line up with the
 * operator spans on one timeline.
 */

#ifndef DTU_OBS_PERF_MONITOR_HH
#define DTU_OBS_PERF_MONITOR_HH

#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "sim/stats.hh"

namespace dtu
{

class Tracer;

namespace obs
{

/** One point of a sampled counter series. */
struct PerfSample
{
    /** Sample boundary this point was emitted at. */
    Tick at = 0;
    /** Raw counter value at the boundary. */
    double value = 0.0;
    /** Per-second rate of change since the previous sample. */
    double ratePerSecond = 0.0;
};

/** Samples watched stats into time series at a fixed period. */
class PerfMonitor
{
  public:
    /**
     * @param stats the registry the watched counters live in.
     * @param period sample period in ticks (> 0).
     * @param tracer optional chip tracer; when enabled, every sample
     *        also lands on a "pmu.<stat>" counter track.
     */
    PerfMonitor(const StatRegistry &stats, Tick period,
                Tracer *tracer = nullptr);

    Tick period() const { return period_; }

    /**
     * Add @p stat_name to the watched set. The stat must already be
     * registered — a misspelled channel is a configuration error, not
     * a silently flat series.
     */
    void watch(const std::string &stat_name);

    /** Watched stat names, in watch() order. */
    const std::vector<std::string> &watched() const { return watched_; }

    /**
     * Catch up sampling to simulated time @p now: emit one sample per
     * period boundary in (lastSampleAt, now]. Calls never move time
     * backwards; a @p now at or before the last boundary is a no-op.
     * Reads counters only — enabling sampling cannot perturb results.
     */
    void sampleUpTo(Tick now);

    /** Sample instants emitted so far. */
    std::size_t sampleCount() const { return samples_; }

    /** Tick of the last emitted sample boundary. */
    Tick lastSampleAt() const { return last_.at; }

    /** Series of @p name (empty when unknown or never sampled). */
    const std::vector<PerfSample> &series(const std::string &name) const;

    /** Latest sampled value of @p name (0.0 when never sampled). */
    double latest(const std::string &name) const;

    /**
     * Export every series as CSV in long (tidy) form:
     * tick,seconds,stat,value,rate_per_s — one line per (sample,
     * stat), ready for pandas/gnuplot.
     */
    void writeCsv(std::ostream &os) const;

    /** Export every series as JSON keyed by stat name. */
    void writeJson(std::ostream &os) const;

  private:
    const StatRegistry &stats_;
    Tick period_;
    Tracer *tracer_;
    std::vector<std::string> watched_;
    std::map<std::string, std::vector<PerfSample>> series_;
    /** Snapshot at the last emitted boundary (rate derivation base). */
    StatSnapshot last_;
    /** Next boundary a sample is due at. */
    Tick nextBoundary_;
    std::size_t samples_ = 0;
    /** Soft cap on sample instants; exceeded => warn once and stop. */
    std::size_t maxSamples_ = 1'000'000;
    bool saturated_ = false;
};

} // namespace obs
} // namespace dtu

#endif // DTU_OBS_PERF_MONITOR_HH
