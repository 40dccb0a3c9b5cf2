/**
 * @file
 * Statistics collection for dtusim.
 *
 * Engines expose their behaviour (bytes moved, stall cycles, VMM
 * operations, power-budget requests, ...) through named statistics
 * registered with a StatRegistry. Benchmarks and tests query stats by
 * hierarchical name; the registry can also dump everything in a
 * stable, diff-friendly text format.
 */

#ifndef DTU_SIM_STATS_HH
#define DTU_SIM_STATS_HH

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "sim/ticks.hh"

namespace dtu
{

class StatRegistry;

/**
 * A point-in-time capture of every scalar stat in a registry.
 *
 * Two snapshots bracket a window: delta() gives the counter movement
 * inside it and ratePerSecond() the per-second derivation — the
 * primitive the performance sampler (obs/perf_monitor.hh) and the
 * serving SLO monitor build their windowed series on.
 */
struct StatSnapshot
{
    /** Simulated time the snapshot was taken at. */
    Tick at = 0;
    /** Scalar stat values by name at that time. */
    std::map<std::string, double> values;

    /** Value of @p name, or 0.0 when the snapshot lacks it. */
    double value(const std::string &name) const;

    /**
     * Counter movement of @p name since @p earlier: value here minus
     * value there (either side missing reads as 0.0, so a stat
     * registered mid-window still yields its full count).
     */
    double delta(const StatSnapshot &earlier,
                 const std::string &name) const;

    /**
     * Per-second rate of change of @p name between @p earlier and
     * this snapshot. Returns 0.0 when the snapshots are not strictly
     * ordered in time (no window to derive over).
     */
    double ratePerSecond(const StatSnapshot &earlier,
                         const std::string &name) const;
};

/**
 * A named scalar statistic (a counter or a gauge).
 *
 * The registry owns the name and holds the stat by address, so a
 * Stat cannot be copied or moved: it must stay where it was when
 * init() registered it.
 */
class Stat
{
  public:
    Stat() = default;
    Stat(const Stat &) = delete;
    Stat &operator=(const Stat &) = delete;

    /**
     * Register this stat under @p name with @p registry. The
     * @p description is kept by pointer, not copied: it must be a
     * string literal (or otherwise outlive the registry).
     */
    void init(StatRegistry &registry, std::string name,
              const char *description);

    /** Accumulate. */
    Stat &operator+=(double v) { value_ += v; return *this; }
    /** Increment by one. */
    Stat &operator++() { value_ += 1.0; return *this; }
    /** Set to an absolute value (gauge semantics). */
    void set(double v) { value_ = v; }
    /** Current value. */
    double value() const { return value_; }
    /** Reset to zero. */
    void reset() { value_ = 0.0; }

    /** The registry's copy of the name; empty before init(). */
    const std::string &name() const;
    std::string_view description() const { return description_; }

  private:
    friend class StatRegistry;

    const std::string *name_ = nullptr;
    const char *description_ = "";
    double value_ = 0.0;
};

/**
 * A histogram statistic with fixed-width buckets.
 *
 * A registered histogram's name is the registry's copy and its
 * description a literal, as for Stat; a standalone one (init() without
 * a registry) has an empty name and may be copied freely.
 */
class Histogram
{
  public:
    Histogram() = default;

    /**
     * Register and configure. @p description must be a string
     * literal (see Stat::init()).
     * @param lo lower bound of the first bucket.
     * @param hi upper bound of the last bucket.
     * @param buckets number of equal-width buckets.
     */
    void init(StatRegistry &registry, std::string name,
              const char *description, double lo, double hi,
              std::size_t buckets);

    /**
     * Configure without registering: a standalone histogram for
     * ad-hoc aggregation (e.g. the serving runtime's latency
     * distribution, which outlives any one chip's StatRegistry).
     */
    void init(double lo, double hi, std::size_t buckets);

    /**
     * Record one sample.
     *
     * Out-of-range samples clamp into the edge buckets: v < lo counts
     * in the first bucket, v >= hi in the last. min()/max()/count()
     * and the sum still see the raw value, so the tails remain
     * visible even when the configured range was too narrow. NaN
     * samples are dropped with a warn() — they carry no position.
     */
    void sample(double v);

    std::uint64_t count() const { return count_; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }

    /**
     * Estimate the value at quantile @p fraction (in [0, 1], e.g.
     * 0.99 for p99) by linear interpolation inside the bucket that
     * holds the target rank. The estimate is clamped to the observed
     * [min(), max()] so edge-bucket clamping of out-of-range samples
     * cannot place a percentile outside the data.
     *
     * Edge cases are defined: an empty histogram returns quiet NaN
     * (the "no data" value — JSON serializers render it null via the
     * non-finite rule); a single sample returns that sample for every
     * fraction; fraction == 1.0 returns max().
     */
    double percentile(double fraction) const;
    double min() const { return min_; }
    double max() const { return max_; }
    double sum() const { return sum_; }
    /** Lower bound of the first bucket. */
    double lo() const { return lo_; }
    /** Upper bound of the last bucket. */
    double hi() const { return hi_; }
    const std::vector<std::uint64_t> &buckets() const { return counts_; }
    /** The registry's copy of the name; empty when standalone. */
    const std::string &name() const;
    std::string_view description() const { return description_; }

    void reset();

  private:
    friend class StatRegistry;

    /** Validate and apply the bucket layout; @p name labels errors. */
    void configure(const std::string &name, double lo, double hi,
                   std::size_t buckets);

    const std::string *name_ = nullptr;
    const char *description_ = "";
    double lo_ = 0.0;
    double hi_ = 1.0;
    std::vector<std::uint64_t> counts_;
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * Registry of all statistics in one simulation instance.
 *
 * Not global: each simulated chip owns a registry so multiple
 * simulations can coexist (e.g. i20 and i10 side by side in one
 * benchmark binary).
 */
class StatRegistry
{
  public:
    StatRegistry() = default;
    StatRegistry(const StatRegistry &) = delete;
    StatRegistry &operator=(const StatRegistry &) = delete;

    /**
     * Add a scalar stat under @p name (called by Stat::init): the
     * registry keeps the name and points the stat at it. Panics on a
     * duplicate name.
     */
    void add(Stat *stat, std::string name);
    /** Add a histogram under @p name (called by Histogram::init). */
    void add(Histogram *histogram, std::string name);

    /**
     * The registry-owned scalar stat @p name, registered (at zero)
     * on first use. It lives as long as the registry, so callers that
     * may be destroyed first (a serving scheduler on a chip that
     * outlives it) count into it without leaving a dangling entry;
     * every caller naming it shares it.
     */
    Stat &counter(const std::string &name, const char *description);

    /**
     * Look up a scalar stat by exact name.
     * @return the value, or 0.0 when absent (with a warn(), so a
     *         misspelled name cannot silently read zeros — prefer
     *         tryLookup() when absence is expected).
     */
    double lookup(const std::string &name) const;

    /**
     * Look up a scalar stat by exact name without warning.
     * @return the value, or nullopt when no such stat exists.
     */
    std::optional<double> tryLookup(const std::string &name) const;

    /** True when a scalar stat with this exact name exists. */
    bool has(const std::string &name) const;

    /** Sum of all scalar stats whose name begins with @p prefix. */
    double sumMatching(const std::string &prefix) const;

    /**
     * Capture every scalar stat at simulated time @p at. Histograms
     * are not captured: windowed tail estimation needs the raw
     * samples, which the serving monitor keeps itself.
     */
    StatSnapshot snapshot(Tick at) const;

    /** Reset every registered stat to zero. */
    void resetAll();

    /** Dump all stats sorted by name, "name value # description". */
    void dump(std::ostream &os) const;

    /**
     * Dump every stat as JSON: scalars with value + description, and
     * histograms in full (count, sum, mean, min, max, the configured
     * [lo, hi) range, and every bucket — which the text dump drops).
     */
    void dumpJson(std::ostream &os) const;

    /** Names of all registered scalar stats (sorted). */
    std::vector<std::string> scalarNames() const;

    /** Names of all registered histograms (sorted). */
    std::vector<std::string> histogramNames() const;

    /** Find a histogram by exact name, or nullptr. */
    const Histogram *histogram(const std::string &name) const;

    /** Find a scalar stat by exact name, or nullptr. */
    const Stat *stat(const std::string &name) const;

  private:
    /** A registered scalar; counter() stats are owned here too. */
    struct Scalar
    {
        Stat *stat = nullptr;
        std::unique_ptr<Stat> owned;
    };

    /** By name; each node's key is the one copy of the stat's name. */
    std::map<std::string, Scalar> scalars_;
    std::map<std::string, Histogram *> histograms_;
};

} // namespace dtu

#endif // DTU_SIM_STATS_HH
