#include "obs/slo_monitor.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "sim/json.hh"
#include "sim/logging.hh"

namespace dtu
{
namespace obs
{

namespace
{

/** Exact nearest-rank percentile of an ascending-sorted sample set. */
double
nearestRank(const std::vector<double> &sorted, double fraction)
{
    if (sorted.empty())
        return 0.0;
    double rank =
        fraction * static_cast<double>(sorted.size());
    auto idx = static_cast<std::size_t>(std::ceil(rank));
    idx = std::clamp<std::size_t>(idx, 1, sorted.size());
    return sorted[idx - 1];
}

} // namespace

SloMonitor::SloMonitor(SloConfig config) : config_(config)
{
    fatalIf(config_.window == 0, "SLO window must be positive");
    fatalIf(config_.sloTarget <= 0.0 || config_.sloTarget >= 1.0,
            "SLO target must be in (0, 1)");
}

void
SloMonitor::onAlert(AlertCallback callback)
{
    callback_ = std::move(callback);
}

void
SloMonitor::addAlertListener(AlertCallback listener)
{
    listeners_.push_back(std::move(listener));
}

void
SloMonitor::fireAlert(const SloAlert &alert)
{
    if (callback_)
        callback_(alert);
    for (const AlertCallback &listener : listeners_)
        listener(alert);
}

void
SloMonitor::onTerminal(unsigned, const serve::RequestOutcome &outcome)
{
    if (!outcome.completedOk()) {
        pendingDrops_.push_back(outcome.completed);
        ++totalDropped_;
        return;
    }
    PendingCompletion p;
    p.at = outcome.completed;
    p.latencyMs = ticksToMilliSeconds(outcome.latency());
    p.missed = outcome.missedDeadline();
    pendingCompletions_.push_back(p);
    ++totalCompleted_;
    if (p.missed)
        ++totalMissed_;
}

void
SloMonitor::closeWindow()
{
    const Tick window_end = windowStart_ + config_.window;

    SloWindow w;
    w.start = windowStart_;
    w.end = window_end;

    std::vector<double> latencies;
    auto in_window = [&](Tick at) { return at < window_end; };
    // Events are ingested as simulated time advances, so everything
    // pending for this window sits at its front; partition keeps the
    // rest for the following windows.
    auto keep_completion =
        std::stable_partition(pendingCompletions_.begin(),
                              pendingCompletions_.end(),
                              [&](const PendingCompletion &p) {
                                  return !in_window(p.at);
                              });
    for (auto it = keep_completion; it != pendingCompletions_.end();
         ++it) {
        ++w.completed;
        if (it->missed)
            ++w.missed;
        latencies.push_back(it->latencyMs);
    }
    pendingCompletions_.erase(keep_completion, pendingCompletions_.end());
    auto keep_drop = std::stable_partition(
        pendingDrops_.begin(), pendingDrops_.end(),
        [&](Tick at) { return !in_window(at); });
    w.dropped = static_cast<std::uint64_t>(
        std::distance(keep_drop, pendingDrops_.end()));
    pendingDrops_.erase(keep_drop, pendingDrops_.end());

    windowStart_ = window_end;
    if (w.total() == 0)
        return; // idle window: nothing to report or alert on

    std::sort(latencies.begin(), latencies.end());
    w.p50Ms = nearestRank(latencies, 0.50);
    w.p95Ms = nearestRank(latencies, 0.95);
    w.p99Ms = nearestRank(latencies, 0.99);

    double seconds = ticksToSeconds(config_.window);
    w.throughputPerSecond = static_cast<double>(w.completed) / seconds;
    w.goodputPerSecond =
        static_cast<double>(w.completed - w.missed) / seconds;
    // An sloTarget at (or past) 1.0 would make the error-budget
    // denominator zero: every miss is then infinitely over budget,
    // which is correct arithmetic but poison in JSON and Prometheus
    // exports. Saturate to the bad fraction over the smallest
    // representable budget instead of dividing by zero.
    double bad = static_cast<double>(w.missed + w.dropped);
    double budget = std::max(1.0 - config_.sloTarget,
                             std::numeric_limits<double>::min());
    w.burnRate = bad / static_cast<double>(w.total()) / budget;

    if (config_.p99AlertMs > 0.0 && w.p99Ms > config_.p99AlertMs) {
        alerts_.push_back(
            {w.end, "p99_latency", w.p99Ms, config_.p99AlertMs});
        fireAlert(alerts_.back());
    }
    if (config_.burnRateAlert > 0.0 &&
        w.burnRate > config_.burnRateAlert) {
        alerts_.push_back(
            {w.end, "slo_burn_rate", w.burnRate, config_.burnRateAlert});
        fireAlert(alerts_.back());
    }
    windows_.push_back(std::move(w));
}

void
SloMonitor::advanceTo(Tick now)
{
    while (windowStart_ + config_.window <= now)
        closeWindow();
}

void
SloMonitor::endRun(Tick at)
{
    advanceTo(at);
    // The final partial window: the run ended inside it; report it
    // if anything happened there.
    if (!pendingCompletions_.empty() || !pendingDrops_.empty())
        closeWindow();
}

void
SloMonitor::writeJson(std::ostream &os) const
{
    JsonWriter json(os);
    json.beginObject();
    json.key("config").beginObject();
    json.field("window_ticks", config_.window)
        .field("slo_target", config_.sloTarget)
        .field("p99_alert_ms", config_.p99AlertMs)
        .field("burn_rate_alert", config_.burnRateAlert);
    json.endObject();
    json.field("total_completed", totalCompleted_)
        .field("total_missed", totalMissed_)
        .field("total_dropped", totalDropped_);
    json.key("windows").beginArray();
    for (const SloWindow &w : windows_) {
        json.beginObject()
            .field("start_ticks", w.start)
            .field("end_ticks", w.end)
            .field("completed", w.completed)
            .field("missed", w.missed)
            .field("dropped", w.dropped)
            .field("p50_ms", w.p50Ms)
            .field("p95_ms", w.p95Ms)
            .field("p99_ms", w.p99Ms)
            .field("goodput_per_s", w.goodputPerSecond)
            .field("throughput_per_s", w.throughputPerSecond)
            .field("burn_rate", w.burnRate)
            .endObject();
    }
    json.endArray();
    json.key("alerts").beginArray();
    for (const SloAlert &a : alerts_) {
        json.beginObject()
            .field("at_ticks", a.at)
            .field("kind", a.kind)
            .field("value", a.value)
            .field("threshold", a.threshold)
            .endObject();
    }
    json.endArray();
    json.endObject();
    os << "\n";
}

void
SloMonitor::writeCsv(std::ostream &os) const
{
    os << "start_tick,end_tick,completed,missed,dropped,p50_ms,p95_ms,"
          "p99_ms,goodput_per_s,throughput_per_s,burn_rate\n";
    for (const SloWindow &w : windows_) {
        os << w.start << "," << w.end << "," << w.completed << ","
           << w.missed << "," << w.dropped << "," << jsonNumber(w.p50Ms)
           << "," << jsonNumber(w.p95Ms) << "," << jsonNumber(w.p99Ms)
           << "," << jsonNumber(w.goodputPerSecond) << ","
           << jsonNumber(w.throughputPerSecond) << ","
           << jsonNumber(w.burnRate) << "\n";
    }
}

} // namespace obs
} // namespace dtu
