/**
 * @file
 * Live SLO monitoring for the serving runtime.
 *
 * The ServingReport aggregates a whole run after the fact; an
 * operator of a real inference service watches the same signals
 * *live*: tail latency per time window, goodput (completions that met
 * their deadline), and the SLO burn rate — how fast the service is
 * spending its error budget (SRE convention: a burn rate of 1 exactly
 * exhausts the budget; 10 means ten times too fast).
 *
 * The SloMonitor ingests the scheduler's completion and drop events
 * as they happen and rolls them into tumbling windows anchored at
 * t = 0. Windows close as simulated time passes their end; each
 * closed window yields exact nearest-rank percentiles (the windows
 * are small enough to keep raw samples, unlike the report's
 * histogram), goodput, and burn rate, and is checked against the
 * configured alert thresholds. Threshold crossings invoke the
 * registered callback immediately — mid-run, at the simulated time
 * of the crossing — and are also kept for post-run inspection.
 *
 * Strictly opt-in: it is a serve::ServingObserver, and a fleet
 * without it behaves bit-for-bit identically.
 */

#ifndef DTU_OBS_SLO_MONITOR_HH
#define DTU_OBS_SLO_MONITOR_HH

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "serve/observer.hh"

namespace dtu
{
namespace obs
{

/** Monitoring policy: window width, target, alert thresholds. */
struct SloConfig
{
    /** Tumbling window width (default 10 ms of simulated time). */
    Tick window = 10'000'000'000;
    /**
     * Availability target the burn rate measures against: the
     * fraction of requests that must meet their SLO (complete, on
     * time). 0.99 leaves a 1% error budget.
     */
    double sloTarget = 0.99;
    /** Alert when a window's p99 latency exceeds this; 0 disables. */
    double p99AlertMs = 0.0;
    /** Alert when a window's burn rate exceeds this; 0 disables. */
    double burnRateAlert = 0.0;
};

/** One threshold crossing. */
struct SloAlert
{
    /** Simulated end time of the offending window. */
    Tick at = 0;
    /** "p99_latency" or "slo_burn_rate". */
    std::string kind;
    /** The observed value that crossed. */
    double value = 0.0;
    /** The configured threshold it crossed. */
    double threshold = 0.0;
};

/** One closed tumbling window. */
struct SloWindow
{
    Tick start = 0;
    Tick end = 0;
    std::uint64_t completed = 0;
    /** Completions past their deadline. */
    std::uint64_t missed = 0;
    /** Requests dropped (shed / timed out / rejected / failed). */
    std::uint64_t dropped = 0;
    /** Exact nearest-rank percentiles over the window, in ms. */
    double p50Ms = 0.0;
    double p95Ms = 0.0;
    double p99Ms = 0.0;
    /** On-time completions per second of window. */
    double goodputPerSecond = 0.0;
    /** All completions per second of window. */
    double throughputPerSecond = 0.0;
    /**
     * Error-budget burn rate: bad-request fraction over the window
     * divided by the budget (1 - sloTarget). 1.0 = burning exactly
     * at budget; >1 = the service will exhaust its budget early.
     */
    double burnRate = 0.0;

    std::uint64_t total() const { return completed + dropped; }
};

/** Sliding-window SLO monitor fed by the serving scheduler. */
class SloMonitor : public serve::ServingObserver
{
  public:
    using AlertCallback = std::function<void(const SloAlert &)>;

    explicit SloMonitor(SloConfig config = {});

    const SloConfig &config() const { return config_; }

    /** Register the live alert callback (replaces any previous). */
    void onAlert(AlertCallback callback);

    /**
     * Add a secondary alert listener. Listeners stack (unlike the
     * primary onAlert callback, which replaces) and run after it, in
     * registration order — the flight recorder subscribes here so it
     * never displaces a user's own alert handler.
     */
    void addAlertListener(AlertCallback listener);

    /** Ingest one completed or dropped request (at its terminal
     *  time). */
    void onTerminal(unsigned device,
                    const serve::RequestOutcome &outcome) override;

    /**
     * Close every window that ends at or before @p now. Safe to call
     * with non-decreasing times; the fleet loop calls it once per
     * event-loop step.
     */
    void advanceTo(Tick now) override;

    /**
     * End of run: close windows through @p at and flush the final
     * partial window (if it holds any events).
     */
    void endRun(Tick at) override;

    /** Closed windows so far (empty windows are skipped). */
    const std::vector<SloWindow> &windows() const { return windows_; }

    /** Threshold crossings so far. */
    const std::vector<SloAlert> &alerts() const { return alerts_; }

    /** Cumulative counts across all ingested events. */
    std::uint64_t totalCompleted() const { return totalCompleted_; }
    std::uint64_t totalMissed() const { return totalMissed_; }
    std::uint64_t totalDropped() const { return totalDropped_; }

    /** Serialize config, totals, windows, and alerts as JSON. */
    void writeJson(std::ostream &os) const;

    /** One CSV row per closed window. */
    void writeCsv(std::ostream &os) const;

  private:
    struct PendingCompletion
    {
        Tick at = 0;
        double latencyMs = 0.0;
        bool missed = false;
    };

    /** Close the window [windowStart_, windowStart_ + window). */
    void closeWindow();

    /** Invoke the primary callback, then every listener. */
    void fireAlert(const SloAlert &alert);

    SloConfig config_;
    AlertCallback callback_;
    std::vector<AlertCallback> listeners_;
    Tick windowStart_ = 0;
    std::vector<PendingCompletion> pendingCompletions_;
    std::vector<Tick> pendingDrops_;
    std::vector<SloWindow> windows_;
    std::vector<SloAlert> alerts_;
    std::uint64_t totalCompleted_ = 0;
    std::uint64_t totalMissed_ = 0;
    std::uint64_t totalDropped_ = 0;
};

} // namespace obs
} // namespace dtu

#endif // DTU_OBS_SLO_MONITOR_HH
