/**
 * @file
 * The serving scheduler: arrival queues -> dynamic batches ->
 * processing-group leases.
 *
 * A discrete-event loop over simulated time drives the whole serving
 * pipeline. Requests are admitted from a finalized arrival trace
 * into per-model FIFO queues; a dynamic batcher launches a batch
 * when it is full (maxBatch), when the oldest queued request has
 * waited maxQueueDelay, or when no further arrivals can join. Each
 * launched batch leases processing groups from the ResourceManager
 * (the Fig. 7 resource abstraction) and executes through the
 * multi-tenancy path, so concurrent batches are compute-isolated and
 * contend only on the shared HBM/PCIe bandwidth ledgers — online
 * traffic generalizing the paper's VGG16 batch-8/16 tenancy
 * discussion.
 *
 * Everything is deterministic: queue iteration is alphabetical,
 * ties break on request ids, and the only randomness lives in the
 * seeded arrival generators. Same trace + seed => identical
 * makespan, percentiles, and deadline-miss set.
 *
 * The scheduler is *steppable*: a
 * begin()/admit()/advanceCompletions()/settle()/nextEvent()/finish()
 * core with no event loop of its own. The fleet coordinator
 * (serve/fleet.hh) drives N of these cores — one per simulated
 * device — on a single global timeline; a single device is a size-1
 * fleet.
 */

#ifndef DTU_SERVE_SCHEDULER_HH
#define DTU_SERVE_SCHEDULER_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/fleet_metrics.hh"
#include "runtime/executor.hh"
#include "serve/kv_cache.hh"
#include "serve/observer.hh"
#include "serve/placement.hh"
#include "serve/report.hh"
#include "serve/request.hh"
#include "sim/lane_executor.hh"
#include "sim/tracer.hh"
#include "soc/resource_manager.hh"

namespace dtu
{

namespace fabric
{
class Fabric;
} // namespace fabric

namespace serve
{

/** When does a queued model launch? */
struct BatchingPolicy
{
    /** Largest dynamic batch; 1 degenerates to FIFO batch-1. */
    unsigned maxBatch = 8;
    /**
     * Longest a queued request may wait for companions before the
     * batcher launches a partial batch. 0 launches greedily.
     */
    Tick maxQueueDelay = 0;
    /**
     * Per-model overrides of maxBatch. Batching pays off only where
     * weight streams and kernel loads amortize (ResNet50 batch-8
     * costs 0.6x per request); models whose runtime scales linearly
     * with batch (BERT-Large) are better capped low so one long
     * batch never serializes work that idle groups could run in
     * parallel — the per-model knob every serving stack grows.
     */
    std::map<std::string, unsigned> perModelMaxBatch;

    /** The cap that applies to @p model. */
    unsigned
    maxBatchFor(const std::string &model) const
    {
        auto it = perModelMaxBatch.find(model);
        return it == perModelMaxBatch.end() ? maxBatch : it->second;
    }
};

/**
 * How the scheduler degrades under overload and faults. Everything
 * defaults off: a default-constructed policy reproduces the
 * fault-oblivious scheduler bit-for-bit.
 */
struct DegradationPolicy
{
    /**
     * Drop a request still queued this long after arrival; 0 off.
     * Bounds the queue-wait a client can observe before a reject.
     */
    Tick requestTimeout = 0;
    /**
     * Deadline-aware load shedding: drop queued requests whose
     * deadline has already passed — they can only waste a lease.
     */
    bool shedExpired = false;
    /**
     * Admission control: reject new arrivals while the queue holds
     * this many requests; 0 disables backpressure.
     */
    std::size_t admissionLimit = 0;
    /**
     * Re-run a batch whose execution was poisoned (uncorrectable ECC
     * or exhausted DMA retries) up to this many times before failing
     * its requests.
     */
    unsigned maxBatchRetries = 0;

    /** True when any degradation response is active. */
    bool
    anyEnabled() const
    {
        return requestTimeout != 0 || shedExpired ||
               admissionLimit != 0 || maxBatchRetries != 0;
    }
};

/**
 * How autoregressive generation requests are scheduled. Only
 * consulted for requests with gen.maxNewTokens > 0; a run without
 * them never touches this policy (or the KV cache), so the one-shot
 * serving path is bit-for-bit unchanged.
 */
struct GenerationPolicy
{
    /**
     * Iteration-level (continuous) batching: sequences join a
     * running decode batch between steps and finished sequences free
     * their slot immediately. Off = static request-level batching,
     * the classic baseline: a decode batch is formed once and steps
     * at its formed size until its last member finishes (early
     * finishers' slots are wasted as padding).
     */
    bool continuousBatching = true;
    /** Largest decode batch (sequences stepped together). */
    unsigned maxDecodeBatch = 8;
    /**
     * Context-length bucket for plan memoization: prefill and decode
     * costs are compiled at context lengths rounded up to a multiple
     * of this, so the plan cache stays small while the KV length a
     * decode step streams still grows with the sequence.
     */
    unsigned ctxBucket = 64;
    /** Per-device KV-cache pool (the admission currency). */
    KvCacheConfig kv;
};

/** Configuration of one serving run. */
struct ServingConfig
{
    BatchingPolicy batching;
    /** Autoregressive generation scheduling (see GenerationPolicy). */
    GenerationPolicy generation;
    /** Overload/fault response (all off by default). */
    DegradationPolicy degradation;
    /** Processing groups leased per in-flight batch. */
    unsigned groupsPerBatch = 1;
    /** Precision the plans compile to. */
    DType dtype = DType::FP16;
    /**
     * Executor options for every batch. Power management defaults
     * off: the chip-global DVFS loop assumes one monotonic window
     * stream, which overlapping batches do not form.
     */
    ExecOptions exec{.powerManagement = false};
};

/** A compiled plan and its latency floor on a serving lease. */
struct CachedPlan
{
    ExecutionPlan plan;
    /** Executor::minLatency of the plan on a groupsPerBatch lease. */
    Tick floor = 0;
};

/** A memoized (model, batch) -> compiled-plan cache. */
using PlanCache = std::map<std::pair<std::string, unsigned>, CachedPlan>;

/** Admits requests onto leases as dynamic batches and reports SLOs. */
class Scheduler
{
  public:
    /**
     * A core for fleet device @p device (the index the observers see
     * it under) on @p dtu. @p plans is the fleet's compiled-plan
     * cache, shared by its identically configured devices: compiled
     * plans are pure functions of the DtuConfig, so sharing is a
     * host-side memoization only. Plans compile on the driving thread
     * only; lane tasks read entries, which are never erased or moved.
     * @p observers is the fleet's observer list, notified in order
     * (serve/observer.hh); both outlive the core.
     */
    Scheduler(Dtu &dtu, ResourceManager &manager, ServingConfig config,
              PlanCache &plans, unsigned device,
              const Observers &observers);

    /** Compiled-plan cache size (plans are memoized per model/batch). */
    std::size_t cachedPlans() const { return plans_.size(); }

    /**
     * Run this core's chip-side work as lane @p lane of @p lanes (the
     * fleet's executor) instead of inline; nullptr returns to inline.
     * Switch only between runs with the old lanes idle: launches not
     * yet read (left by a run a FatalError cut short) are never read.
     */
    void setLanes(LaneExecutor *lanes, unsigned lane);

    /** The chip this core schedules onto. */
    Dtu &chip() { return dtu_; }

    /**
     * Attach (or detach, with nullptr) the fleet interconnect. This
     * scheduler then drives placement group @p group under
     * @p placement: weight loads route through the fabric's shared
     * root complex (so concurrent placements contend), tensor-parallel
     * decoders execute their per-device shard followed by timed ring
     * all-reduces, and pipeline-parallel decoders stream activations
     * between stage devices. Without a fabric the serving path is
     * bit-for-bit unchanged.
     */
    void
    setSharding(fabric::Fabric *fab, unsigned group,
                PlacementConfig placement)
    {
        fabric_ = fab;
        fabricGroup_ = group;
        placement_ = placement;
    }

    //
    // The steppable discrete-event core. Its one driver is the fleet
    // coordinator (serve/fleet.hh), interleaving N device cores on
    // one global timeline. The protocol per event time t (strictly
    // non-decreasing):
    //
    //   advanceCompletions(t);   // retire batches that ended <= t
    //   admit(r...);             // arrivals with r.arrival == t
    //   settle(t);               // shed/timeout sweeps, launch pass
    //
    // with nextEvent(t) giving the earliest internal wake-up after t
    // (the driver min-reduces it with the next arrival time).
    //
    // A launch's chip-side work (Executor::run with its retries, the
    // fabric overlay) runs as a task on this core's lane, and the
    // core first reads its result at the launch's *floor*: the launch
    // tick plus a lower bound on the batch's latency. Until then
    // nextEvent() reports the floor, which is not a real event:
    // advanceCompletions() and settle() are no-ops there. Only lane
    // tasks touch the chip and its group's fabric links; every core
    // method that reads the chip drains the lane first.
    //

    /**
     * Start a run at simulated time @p start. @p future counts the
     * not-yet-admitted arrivals per model (the batcher holds a
     * partial batch only while a companion could still join); the
     * caller owns the map and decrements it as arrivals are admitted.
     * nullptr means "no future arrivals": every partial batch
     * launches as soon as a lease is free.
     */
    void begin(Tick start,
               const std::map<std::string, unsigned> *future = nullptr);

    /**
     * Admit one arrived request (at r.arrival). Applies admission
     * control: over-limit arrivals are dropped as Rejected at their
     * arrival time.
     */
    void admit(const Request &request);

    /** Retire every active batch that completed at or before @p now. */
    void advanceCompletions(Tick now);

    /**
     * Sweep degradation drops (deadline shedding, queue timeouts) at
     * @p now, then launch every launchable batch onto free leases.
     * Each launch task raises the ledger watermark of the chip and of
     * its placement group's fabric links to its launch tick first:
     * the driver never steps a device backwards, so nothing books
     * before it.
     */
    void settle(Tick now);

    /**
     * Earliest internal event after @p now: an active batch
     * completion (or, before its result is read, its floor), a
     * batching timeout maturing, a degradation deadline (request
     * timeout / SLO expiry), or a model's weights finishing their
     * PCIe load. Returns maxTick when the device is idle.
     */
    Tick nextEvent(Tick now) const;

    /**
     * Summarize the run (moves out the outcome log), attributing its
     * energy by component when @p attribute_energy.
     */
    ServingReport finish(double offered_qps, bool attribute_energy);

    /** Queue empty and nothing in flight. */
    bool
    idle() const
    {
        return queue_.empty() && genQueue_.empty() &&
               inFlightBatches() == 0 && decoding_.empty() &&
               decodeReadyCount() == 0;
    }

    /** Requests waiting in the arrival queues. */
    std::size_t
    queueDepth() const
    {
        return queue_.size() + genQueue_.size();
    }

    /** Queued plus in-flight requests (the routing load signal). */
    std::size_t outstanding() const;

    /** Batches dispatched and not yet completed. */
    std::size_t inFlightBatches() const;

    /** Requests completed so far this run. */
    std::uint64_t completedCount() const { return completedN_; }

    /** Requests dropped so far this run. */
    std::uint64_t droppedCount() const { return droppedN_; }

    /** Sequences through prefill, waiting for a decode slot. */
    std::size_t decodeReadyCount() const;

    /**
     * Raw generation bookkeeping so far (phase counters, ITL
     * samples, KV gauges). finish() folds it into the report; the
     * fleet merges the per-device logs for its aggregate.
     */
    GenerationLog generationLog();

    /** The device's KV cache (nullptr before any generative admit). */
    const KvCache *kvCache() const { return kv_.get(); }

    /** Poisoned-batch re-executions so far this run. */
    std::uint64_t batchRetryCount() const { return batchRetries_; }

    /**
     * Snapshot the live serving state: the loop half of a metric
     * sample (serve/metric_sampler.hh). It waits for the chip only
     * when the chip can retry, since retries count when launches are
     * read.
     */
    obs::DeviceMetricSample metricSample();

    /** Highest queue depth seen this run. */
    std::size_t peakQueueDepth() const { return peakQueue_; }

    /** Latest batch completion seen this run (0 before any). */
    Tick lastCompletion() const { return lastCompletion_; }

    //
    // Model placement. A fleet router calls placeModel() the first
    // time it assigns a model to this device; with @p gbps > 0 the
    // first placement pays a modeled PCIe weight-load (weight bytes
    // at gbps GB/s, serialized per device), and batches of that
    // model cannot launch before the load finishes. Without a fabric
    // and with gbps == 0 a placement is only tracked: the weights are
    // resident at once.
    //

    /** Mark @p model resident, paying the first-placement load. */
    void placeModel(const std::string &model, Tick now, double gbps);

    /** True once placeModel() ran for @p model. */
    bool modelPlaced(const std::string &model) const
    {
        return weightReady_.count(model) != 0;
    }

    /** Models placed on this device, alphabetical. */
    std::vector<std::string> placedModels() const;

    /** Placements that paid a weight load this run. */
    std::uint64_t weightLoads() const { return weightLoads_; }

    /** Total modeled PCIe weight-load time this run. */
    Tick weightLoadTicks() const { return weightLoadTicks_; }

    /** Total weight bytes loaded this run. */
    std::uint64_t weightLoadBytes() const { return weightLoadBytes_; }

  private:
    /** One generation sequence past prefill. */
    struct DecodeSeq
    {
        Request request;
        /** Prefill dispatch time (the outcome's dispatched). */
        Tick dispatched = 0;
        Tick firstToken = 0;
        /** Last token emission (the ITL reference). */
        Tick lastToken = 0;
        /** Prefill batch size (the outcome's batchSize). */
        unsigned prefillBatchSize = 0;
        /** Prefill retries (the outcome's retries). */
        unsigned retries = 0;
        /** Tokens emitted so far, first token included. */
        unsigned emitted = 1;
        /** targetNewTokens(), memoized. */
        unsigned target = 1;
    };

    /**
     * One decode batch stepping on a long-held lease. Between steps
     * (step == nullptr) it can absorb waiting sequences (continuous
     * mode) or retire; each step emits one token per live sequence.
     * The decode loop does not retry a poisoned step.
     */
    struct DecodeBatch
    {
        int tenant = -1;
        std::string model;
        /** Size at formation: the static-mode padded cost size. */
        unsigned formed = 0;
        /** The in-flight step's launch record, or nullptr. */
        Launch *step = nullptr;
        /** The lease's processing groups, held across steps. */
        std::vector<unsigned> groups;
        std::vector<DecodeSeq> seqs;
    };

    /**
     * Look up @p key in the active plan cache, compiling the graph
     * @p build returns on a miss.
     */
    template <typename BuildGraph>
    const CachedPlan &
    cachedPlan(const std::pair<std::string, unsigned> &key,
               BuildGraph &&build);

    /** Memoized compile of @p model at @p batch samples. */
    const CachedPlan &plan(const std::string &model, unsigned batch);

    /** Memoized decoder prefill / decode-step plans. The cache key
     *  encodes the phase and context bucket in the model string
     *  ("gpt_tiny@p128", "gpt_tiny@d256"). */
    const CachedPlan &prefillPlan(const std::string &model,
                                  unsigned batch, unsigned prompt);
    const CachedPlan &decodePlan(const std::string &model,
                                 unsigned batch, unsigned ctx);

    /** @p len rounded up to the generation ctxBucket multiple. */
    unsigned bucketLen(unsigned len) const;

    /** True when @p model is a decoder sharded across a fabric group. */
    bool shardedDecoder(const std::string &model) const;

    /** Tensor-parallel ways @p model's plans compile at (1 = full). */
    unsigned tpDegreeFor(const std::string &model) const;

    /** Bytes of @p model resident per device under the placement. */
    std::uint64_t placedWeightBytes(const std::string &model);

    /**
     * Fold the placement's fabric traffic into a batch that computed
     * over [now, compute_end): TP submits a ring all-reduce of the
     * activation tensor after every sharded attention and FFN block;
     * PP re-times the batch as a (degree x microbatches) pipeline
     * with point-to-point activation sends at each stage boundary.
     * @return the batch's new completion tick.
     */
    Tick shardOverlay(const std::string &model, Tick now,
                      Tick compute_end, unsigned batch, unsigned tokens);

    /** Per-stage microbatch time of a pipeline over compute time @p T. */
    Tick microbatchTicks(Tick T) const;

    /**
     * The floor of a launch at @p now whose plan floor is
     * @p plan_floor: a lower bound on its completion after
     * shardOverlay (which re-times a pipeline-parallel batch, possibly
     * before its compute end).
     */
    Tick launchFloor(const std::string &model, Tick now,
                     Tick plan_floor) const;

    /** KV bytes per generated token for decoder @p model. */
    std::uint64_t bytesPerTokenFor(const std::string &model);

    /** Worst-case KV tokens @p r can occupy (prompt + target). */
    std::uint64_t kvTokens(const Request &r) const;

    /** The lazily built KV cache. */
    KvCache &ensureKv();

    /**
     * Run @p p on @p groups as launch @p l with the poison-retry loop
     * and the observers' chip-side flow links, filling the result
     * fields: a launch's chip part, on the lane.
     */
    void executeBatch(Launch &l, const ExecutionPlan &p,
                      const std::vector<unsigned> &groups,
                      unsigned max_retries);

    /** True when an observer samples request @p r. */
    bool sampled(const Request &r) const;

    /** @p riders when an observer samples one of them, else empty. */
    std::vector<Request>
    sampledRiders(const std::vector<Request> &riders) const;

    /**
     * Record a @p kind launch of @p model at @p now with floor
     * @p floor and the riders @p sampled copies, and queue
     * @p chip(launch) on the lane.
     */
    template <typename ChipPart>
    Launch &launch(LaunchKind kind, const std::string &model, Tick now,
                   Tick floor, std::vector<Request> sampled,
                   ChipPart &&chip);

    /** Queue a chip-side side effect with no result on the lane. */
    void onChip(std::function<void()> fn);

    /**
     * Read every launch whose floor is at or before @p upto, with
     * every earlier launch, in launch order.
     */
    void readResults(Tick upto);

    /**
     * Read launches in launch order through lane seq @p seq, and hand
     * their records to the observers.
     */
    void readThrough(std::uint64_t seq);

    /** Read every launch queued so far. */
    void readAll();

    /** Finish every lane task and read every launch. */
    void drainChip();

    /** Fold @p result's operator traces into @p phase. */
    static void accumulatePhase(PhaseBreakdown &phase,
                                const ExecResult &result);

    /** Record one terminal outcome, a completion or a drop (stats,
     *  timeline, observers). */
    void finishRequest(RequestOutcome outcome);

    /** @p r's outcome when dropped for @p reason at @p at. */
    RequestOutcome dropped(const Request &r, Tick at,
                           DropReason reason) const;

    /** Retire prefill launch @p l's riders into the decode stage. */
    void retirePrefill(const Launch &l);

    /** Retire decode steps that ended at or before @p upto. */
    void advanceDecode(Tick upto);

    /** The one-shot launch pass (the pre-generation settle body). */
    void launchOneShots(Tick now);

    /** Join/step/form decode batches, then launch prefills. */
    void launchGeneration(Tick now);

    /** Launch the next step of @p batch at @p now. */
    void launchDecodeStep(DecodeBatch &batch, Tick now);

    /** Shed expired deadlines / enforce queue timeouts at @p now. */
    void dropExpired(Tick now);

    /** Launch rule for @p model's batches queued in @p queue. */
    bool shouldLaunch(const RequestQueue &queue,
                      const std::string &model, Tick now) const;

    /** Not-yet-admitted arrivals of @p model (0 without a map). */
    unsigned futureCount(const std::string &model) const;

    /** Tick the model's weights are resident from (0 = resident). */
    Tick weightReadyAt(const std::string &model) const;

    Dtu &dtu_;
    ResourceManager &manager_;
    ServingConfig config_;
    /** The fleet's compiled-plan cache (not owned). */
    PlanCache &plans_;
    /** This scheduler's device index under the fleet observers. */
    const unsigned deviceId_;
    /** Runs tasks inline at submit when no fleet lanes are attached. */
    LaneExecutor inlineLanes_{1, 1};
    /** Where chip-side work runs (see setLanes). */
    LaneExecutor *lanes_ = &inlineLanes_;
    unsigned lane_ = 0;

    //
    // Degradation counters: the chip registry's "serve.*" stats,
    // which the registry owns so they outlive the scheduler.
    // Schedulers on one chip share them; the authoritative per-run
    // numbers live in the ServingReport.
    //
    Stat &shedStat_;
    Stat &timedOutStat_;
    Stat &rejectedStat_;
    Stat &failedStat_;
    Stat &retryStat_;

    /** The fleet's observers, notified in order (not owned). */
    const Observers &observers_;
    /** Optional fleet interconnect (not owned; see setSharding). */
    fabric::Fabric *fabric_ = nullptr;
    /** The placement group this scheduler drives over the fabric. */
    unsigned fabricGroup_ = 0;
    /** How the group's devices share the model (see placement.hh). */
    PlacementConfig placement_{};

    //
    // Per-run state, reset by begin().
    //
    const std::map<std::string, unsigned> *future_ = nullptr;
    RequestQueue queue_;
    /** Generative arrivals queue separately: their launch pass is
     *  KV-gated, and keeping them out of queue_ leaves the one-shot
     *  path untouched. */
    RequestQueue genQueue_;
    /** Launches whose batch or step has not retired, in launch order
     *  (retired ones until every earlier one retired). A lane task
     *  writes its record in place: deque elements never move. */
    std::deque<Launch> launches_;
    /** Decode batches holding leases across steps. */
    std::vector<DecodeBatch> decoding_;
    /** Sequences past prefill awaiting a decode slot, per model. */
    std::map<std::string, std::vector<DecodeSeq>> decodeReady_;
    /** The unified terminal log (completions and drops). */
    std::vector<RequestOutcome> outcomes_;
    std::uint64_t completedN_ = 0;
    std::uint64_t droppedN_ = 0;
    /** Per-device KV-cache pool, built on the first generative
     *  admission (a one-shot run never constructs it). */
    std::unique_ptr<KvCache> kv_;
    /** Model -> KV bytes per token, memoized. */
    std::map<std::string, std::uint64_t> kvBytesPerToken_;
    /** Generation bookkeeping for the report. */
    GenerationLog genLog_;
    std::uint64_t batches_ = 0;
    std::uint64_t batchRetries_ = 0;
    int nextTenant_ = 0;
    Tick lastCompletion_ = 0;
    std::size_t peakQueue_ = 0;
    double joulesBefore_ = 0.0;
    /** Meter breakdown at begin(), for the run's component delta. */
    EnergyBreakdown energyBefore_;
    std::uint64_t faultsBefore_ = 0;
    FaultInjector *faults_ = nullptr;
    /** Model -> tick its weights are resident (placement state). */
    std::map<std::string, Tick> weightReady_;
    /** The device's serialized PCIe weight-loader cursor. */
    Tick loadCursor_ = 0;
    std::uint64_t weightLoads_ = 0;
    Tick weightLoadTicks_ = 0;
    std::uint64_t weightLoadBytes_ = 0;
    /** Timeline recording for this run. The track ids below are
     *  made by lane tasks and reset by begin(). */
    bool timeline_ = false;
    TrackId reqTrack_;
    TrackId batchTrack_;
    TrackId dropTrack_;
    bool placeTrackMade_ = false;
    TrackId placeTrack_;
    bool decodeTrackMade_ = false;
    TrackId decodeTrack_;
    bool fabricTrackMade_ = false;
    TrackId fabricTrack_;
};

} // namespace serve
} // namespace dtu

#endif // DTU_SERVE_SCHEDULER_HH
