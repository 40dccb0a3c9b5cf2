/**
 * @file
 * The serving loop's one observer seam, and the launch record it
 * hands to observers.
 *
 * A serve::Fleet holds one list of ServingObservers and hands it to
 * its device schedulers and its metric sampler; every hook below is
 * called on each listed observer in list order. Every hook has an
 * empty default, so an observer overrides only what it watches. The
 * SLO monitor, the request tracer and the energy monitor (obs/)
 * implement the hooks directly. Without observers the serving path is
 * bit-for-bit unchanged.
 *
 * Hooks run on the fleet thread, in the serial loop's order, except
 * read() and linkBatch(), which run on the lane of the chip they
 * touch (sim/lane_executor.hh) and may touch only that chip.
 */

#ifndef DTU_SERVE_OBSERVER_HH
#define DTU_SERVE_OBSERVER_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "obs/fleet_metrics.hh"
#include "runtime/executor.hh"
#include "serve/request.hh"
#include "sim/lane_executor.hh"

namespace dtu
{

class Tracer;

namespace serve
{

/** What a launch executes. */
enum class LaunchKind
{
    /** A one-shot batch. */
    Batch,
    /** A generation prefill batch. */
    Prefill,
    /** One step of a decode batch. */
    Decode,
};

/** "batch", "prefill" or "decode". */
const char *launchKindName(LaunchKind kind);

/**
 * One launch on a device's chip: a one-shot or prefill batch, or one
 * decode step. A scheduler keeps its records in launch order until
 * the batch or step retires. The loop fills the launch fields before
 * it queues the chip part on the device's lane; the chip part fills
 * the result fields; the loop reads those only once it has read the
 * launch (ticket.seq is then 0).
 */
struct Launch
{
    LaunchKind kind = LaunchKind::Batch;
    std::string model;
    /** The launch tick. */
    Tick launched = 0;
    /** A lower bound on end: the loop reads the launch no earlier. */
    Tick floor = 0;
    /** The chip part's lane task. Its seq is the launch order; 0 once
     *  the loop has read the launch. */
    LaneExecutor::Ticket ticket;
    /** The riders, when an observer samples one of them. */
    std::vector<Request> sampled;
    /** Record per-operator traces (phase sums, observers). */
    bool traceOps = false;

    //
    // Written by the chip part.
    //
    /** Completion, after the fabric overlay. */
    Tick end = maxTick;
    /** Poisoned re-executions. */
    unsigned retries = 0;
    /** Still poisoned after the last permitted retry. */
    bool poisoned = false;
    /** The sampled riders' flow steps landed in the chip's tracer. */
    bool linked = false;
    /** The final execution. */
    ExecResult result;

    //
    // The loop's bookkeeping, which the chip part does not read.
    //
    /** The lease's tenant (one-shot and prefill batches). */
    int tenant = -1;
    /** The riders of a one-shot or prefill batch. */
    std::vector<Request> requests;
    /** The batch or step retired. */
    bool retired = false;

    /** The floor until the loop reads the launch, then the end. */
    Tick due() const { return ticket.seq ? floor : end; }
};

/** A serving-loop observer: empty hooks to override. */
class ServingObserver
{
  public:
    virtual ~ServingObserver() = default;

    /** A serve starts at @p at. */
    virtual void beginRun(Tick) {}
    /** The loop stepped to @p now (once per loop step). */
    virtual void advanceTo(Tick) {}
    /** The serve ended at @p at, every chip idle. */
    virtual void endRun(Tick) {}

    /** The router assigned @p r to @p device. */
    virtual void onRoute(unsigned, const Request &) {}
    /** @p r passed admission control into @p device's queue. */
    virtual void onAdmit(unsigned, const Request &) {}
    /** @p device loads @p model's weights over [start, end). */
    virtual void
    onWeightLoad(unsigned, const std::string &, Tick, Tick, std::uint64_t)
    {}
    /** @p outcome, a completion or a drop, left @p device: once per
     *  request. */
    virtual void onTerminal(unsigned, const RequestOutcome &) {}

    /** A launch carrying request @p id copies its riders into
     *  Launch::sampled and records operator traces. */
    virtual bool sampled(std::uint64_t) const { return false; }
    /** Every launch records per-operator traces. */
    virtual bool needsOpTraces() const { return false; }
    /**
     * On the lane, after a sampled launch executed: link @p riders
     * into @p chip, the device's tracer, at @p link_ts, a tick inside
     * one of the launch's operator spans.
     * @return whether the riders are linked (Launch::linked).
     */
    virtual bool linkBatch(Tracer &, const std::vector<Request> &, Tick) const
    {
        return false;
    }
    /** The loop read @p launch of @p device: once per launch, in
     *  launch order per device, with ticket.seq still set. */
    virtual void onBatchExecuted(unsigned, const Launch &) {}

    //
    // Metric samples (serve/metric_sampler.hh).
    //
    /** The sample period this observer asks for; the first observer
     *  with one sets it. */
    virtual std::optional<Tick> samplePeriod() const { return {}; }
    /** @p sample's loop half, at the sample tick. */
    virtual void recordCounters(const obs::FleetMetricSample &) {}
    /** Read device @p device's chip at every sample. */
    virtual bool watches(unsigned) const { return false; }
    /** On the device's lane: the chip half of a sample. */
    virtual obs::ChipReading read(unsigned) { return {}; }
    /** Fold this observer's chip readings into @p sample, in sample
     *  order, before any observer's recordMetrics(). */
    virtual void annotate(obs::FleetMetricSample &,
                          const std::vector<obs::ChipReading> &)
    {}
    /** The annotated sample, in sample order. */
    virtual void recordMetrics(const obs::FleetMetricSample &) {}

    /** Reports attribute their energy by component (finalizeEnergy). */
    virtual bool attributesEnergy() const { return false; }
};

/** The observers a fleet notifies, in order. */
using Observers = std::vector<ServingObserver *>;

} // namespace serve
} // namespace dtu

#endif // DTU_SERVE_OBSERVER_HH
