#include "serve/scheduler.hh"

#include <algorithm>
#include <limits>

#include "compiler/lowering.hh"
#include "fabric/fabric.hh"
#include "models/model_zoo.hh"
#include "obs/energy_monitor.hh"
#include "obs/request_tracer.hh"
#include "obs/slo_monitor.hh"
#include "serve/arrival.hh"
#include "serve/metric_sampler.hh"
#include "sim/logging.hh"
#include "sim/tracer.hh"
#include "tensor/dtype.hh"

namespace dtu
{
namespace serve
{

namespace
{

constexpr Tick kNever = std::numeric_limits<Tick>::max();

} // namespace

Scheduler::Scheduler(Dtu &dtu, ResourceManager &manager,
                     ServingConfig config)
    : dtu_(dtu), manager_(manager), config_(std::move(config))
{
    fatalIf(config_.batching.maxBatch == 0,
            "dynamic batch size must be at least 1");
    for (const auto &[model, cap] : config_.batching.perModelMaxBatch)
        fatalIf(cap == 0, "per-model batch cap for '", model,
                "' must be at least 1");
    fatalIf(config_.groupsPerBatch == 0 ||
                config_.groupsPerBatch >
                    dtu_.config().groupsPerCluster,
            "groups per batch must be 1..",
            dtu_.config().groupsPerCluster);
    fatalIf(config_.generation.maxDecodeBatch == 0,
            "decode batch size must be at least 1");
    fatalIf(config_.generation.ctxBucket == 0,
            "generation context bucket must be at least 1");

    // The first scheduler on a chip owns the chip-level degradation
    // counters; further schedulers (the registry rejects duplicate
    // names) count locally and report through their ServingReport.
    StatRegistry &stats = dtu_.stats();
    if (!stats.has("serve.shed_requests")) {
        shedStat_.init(stats, "serve.shed_requests",
                       "queued requests shed after deadline expiry");
        timedOutStat_.init(stats, "serve.timed_out_requests",
                           "queued requests dropped by timeout");
        rejectedStat_.init(stats, "serve.rejected_requests",
                           "arrivals bounced by admission control");
        failedStat_.init(stats, "serve.failed_requests",
                         "requests whose batch stayed poisoned");
        retryStat_.init(stats, "serve.batch_retries",
                        "poisoned-batch re-executions");
    }
}

template <typename BuildGraph>
const CachedPlan &
Scheduler::cachedPlan(const std::pair<std::string, unsigned> &key,
                      BuildGraph &&build)
{
    PlanCache &cache = plans();
    auto it = cache.find(key);
    if (it == cache.end()) {
        CachedPlan cp;
        cp.plan = compile(build(), dtu_.config(), config_.dtype,
                          config_.groupsPerBatch, {},
                          static_cast<int>(key.second));
        // Any lease of groupsPerBatch groups has the same floor; the
        // executor reads only the chip config and the DVFS ladder.
        std::vector<unsigned> groups(config_.groupsPerBatch);
        for (unsigned g = 0; g < groups.size(); ++g)
            groups[g] = g;
        cp.floor = Executor(dtu_, std::move(groups), config_.exec)
                       .minLatency(cp.plan);
        it = cache.emplace(key, std::move(cp)).first;
    }
    return it->second;
}

const CachedPlan &
Scheduler::plan(const std::string &model, unsigned batch)
{
    return cachedPlan(std::make_pair(model, batch), [&] {
        return models::buildModel(model, static_cast<int>(batch));
    });
}

const CachedPlan &
Scheduler::prefillPlan(const std::string &model, unsigned batch,
                      unsigned prompt)
{
    const unsigned tp = tpDegreeFor(model);
    if (tp > 1) {
        // The cache key encodes the shard so a tensor-parallel plan
        // never collides with the full model's.
        return cachedPlan(
            std::make_pair(model + "@p" + std::to_string(prompt) +
                               "!tp" + std::to_string(tp),
                           batch),
            [&] {
                return models::buildDecoderPrefillTP(
                    model, static_cast<int>(batch),
                    static_cast<int>(prompt), tp);
            });
    }
    return cachedPlan(
        std::make_pair(model + "@p" + std::to_string(prompt), batch),
        [&] {
            return models::buildDecoderPrefill(
                model, static_cast<int>(batch),
                static_cast<int>(prompt));
        });
}

const CachedPlan &
Scheduler::decodePlan(const std::string &model, unsigned batch,
                      unsigned ctx)
{
    const unsigned tp = tpDegreeFor(model);
    if (tp > 1) {
        return cachedPlan(
            std::make_pair(model + "@d" + std::to_string(ctx) + "!tp" +
                               std::to_string(tp),
                           batch),
            [&] {
                return models::buildDecoderStepTP(
                    model, static_cast<int>(batch),
                    static_cast<int>(ctx), tp);
            });
    }
    return cachedPlan(
        std::make_pair(model + "@d" + std::to_string(ctx), batch),
        [&] {
            return models::buildDecoderStep(model,
                                            static_cast<int>(batch),
                                            static_cast<int>(ctx));
        });
}

bool
Scheduler::shardedDecoder(const std::string &model) const
{
    return fabric_ &&
           placement_.mode != PlacementMode::DataParallel &&
           placement_.degree > 1 &&
           models::decoderSpec(model) != nullptr;
}

unsigned
Scheduler::tpDegreeFor(const std::string &model) const
{
    return fabric_ &&
                   placement_.mode == PlacementMode::TensorParallel &&
                   placement_.degree > 1 &&
                   models::decoderSpec(model)
               ? placement_.degree
               : 1;
}

unsigned
Scheduler::bucketLen(unsigned len) const
{
    const unsigned bucket = config_.generation.ctxBucket;
    return ((std::max(len, 1u) + bucket - 1) / bucket) * bucket;
}

std::uint64_t
Scheduler::bytesPerTokenFor(const std::string &model)
{
    auto it = kvBytesPerToken_.find(model);
    if (it == kvBytesPerToken_.end()) {
        const models::DecoderSpec *spec = models::decoderSpec(model);
        fatalIf(!spec, "'", model, "' is not a decoder model");
        std::uint64_t bytes =
            models::kvBytesPerToken(*spec, dtypeBytes(config_.dtype));
        // A sharded model keeps only its share of the KV cache per
        // device (heads under TP, layers under PP).
        if (shardedDecoder(model))
            bytes = std::max<std::uint64_t>(bytes / placement_.degree,
                                            1);
        it = kvBytesPerToken_.emplace(model, bytes).first;
    }
    return it->second;
}

std::uint64_t
Scheduler::kvTokens(const Request &r) const
{
    return static_cast<std::uint64_t>(r.gen.promptLen) +
           r.targetNewTokens();
}

KvCache &
Scheduler::ensureKv()
{
    if (!kv_)
        kv_ = std::make_unique<KvCache>(config_.generation.kv);
    return *kv_;
}

void
Scheduler::begin(Tick start, const std::map<std::string, unsigned> *future)
{
    // A trace that starts below the watermark (a second serve()
    // replaying from tick 0) would wait for the watermark at every
    // transfer: it starts on idle ledgers instead, as the fleet's
    // fabric does every serve. Earlier stream bookings are dropped too.
    if (start < dtu_.eventQueue().ledgerWatermark())
        dtu_.restartLedgers();
    future_ = future;
    queue_ = RequestQueue();
    genQueue_ = RequestQueue();
    active_.clear();
    pending_.clear();
    decoding_.clear();
    decodeReady_.clear();
    outcomes_.clear();
    completedN_ = 0;
    droppedN_ = 0;
    kv_.reset();
    genLog_ = GenerationLog();
    batches_ = 0;
    batchRetries_ = 0;
    nextTenant_ = config_.tenantBase;
    lastCompletion_ = 0;
    peakQueue_ = 0;
    joulesBefore_ = dtu_.energy().joules();
    energyBefore_ = dtu_.energy().breakdown();
    faults_ = dtu_.faults();
    faultsBefore_ = faults_ ? faults_->log().size() : 0;
    weightReady_.clear();
    loadCursor_ = 0;
    weightLoads_ = 0;
    weightLoadTicks_ = 0;
    weightLoadBytes_ = 0;

    Tracer &tracer = dtu_.tracer();
    if (config_.exec.timeline)
        tracer.setEnabled(true);
    timeline_ = tracer.enabled();
    placeTrackMade_ = false;
    decodeTrackMade_ = false;
    fabricTrackMade_ = false;
    if (timeline_) {
        reqTrack_ = tracer.track("serve", "requests");
        batchTrack_ = tracer.track("serve", "batches");
        dropTrack_ = tracer.track("serve", "degradation");
    }
}

unsigned
Scheduler::futureCount(const std::string &model) const
{
    if (!future_)
        return 0;
    auto it = future_->find(model);
    return it == future_->end() ? 0 : it->second;
}

Tick
Scheduler::weightReadyAt(const std::string &model) const
{
    auto it = weightReady_.find(model);
    return it == weightReady_.end() ? 0 : it->second;
}

std::uint64_t
Scheduler::placedWeightBytes(const std::string &model)
{
    const models::DecoderSpec *spec = models::decoderSpec(model);
    if (!spec)
        return plan(model, 1).plan.totalWeightBytes();
    if (fabric_ &&
        placement_.mode == PlacementMode::PipelineParallel &&
        placement_.degree > 1) {
        // Per-device residency under pipeline parallelism is the
        // largest stage's share of the layer stack.
        const unsigned stages = placement_.degree;
        std::uint64_t worst = 0;
        for (unsigned s = 0; s < stages; ++s) {
            const ExecutionPlan &sp = cachedPlan(
                std::make_pair(model + "@p" +
                                   std::to_string(bucketLen(1)) + "!s" +
                                   std::to_string(s) + "of" +
                                   std::to_string(stages),
                               1u),
                [&] {
                    return models::buildDecoderPrefillStage(
                        model, 1, static_cast<int>(bucketLen(1)), s,
                        stages);
                }).plan;
            worst = std::max(worst, sp.totalWeightBytes());
        }
        return worst;
    }
    // Full model, or the per-device shard under tensor parallelism
    // (prefillPlan compiles the sharded graph under a !tp key).
    return prefillPlan(model, 1, bucketLen(1)).plan.totalWeightBytes();
}

void
Scheduler::placeModel(const std::string &model, Tick now, double gbps)
{
    if (modelPlaced(model))
        return;
    if (!fabric_ && gbps <= 0.0) {
        // Placement tracked (model-affinity routing keys on it) but
        // the load itself is not modeled: weights are resident
        // immediately, exactly like the single-device path.
        weightReady_[model] = 0;
        return;
    }
    const std::uint64_t bytes = placedWeightBytes(model);
    fatalIf(bytes > dtu_.config().l3Bytes, "model '", model, "' needs ",
            bytes, " weight bytes but the device HBM holds only ",
            dtu_.config().l3Bytes,
            " — shard it across devices with a tensor-parallel or "
            "pipeline-parallel placement");
    const Tick start = std::max(loadCursor_, now);
    Tick ready;
    std::uint64_t moved = bytes;
    if (fabric_) {
        // Every group member DMAs its shard over the shared root
        // complex; the group is ready when the slowest load lands,
        // and loads co-scheduled with other placements contend on
        // the fabric ledger instead of each enjoying full bandwidth.
        const unsigned loads =
            shardedDecoder(model) ? placement_.degree : 1;
        ready = start;
        for (unsigned i = 0; i < loads; ++i)
            ready = std::max(ready, fabric_->hostLoadAt(start, bytes));
        moved = bytes * loads;
        onChip([this, moved] {
            dtu_.energy().addFabric(static_cast<double>(moved));
        });
    } else {
        const Tick load =
            secondsToTicks(static_cast<double>(bytes) / (gbps * 1e9));
        ready = saturatingAddTicks(start, load);
    }
    loadCursor_ = ready;
    weightReady_[model] = ready;
    ++weightLoads_;
    weightLoadTicks_ =
        saturatingAddTicks(weightLoadTicks_, ready - start);
    weightLoadBytes_ += moved;
    if (timeline_) {
        onChip([this, model, start, ready, moved] {
            Tracer &tracer = dtu_.tracer();
            if (!placeTrackMade_) {
                placeTrack_ = tracer.track("serve", "placement");
                placeTrackMade_ = true;
            }
            tracer.span(placeTrack_, "load " + model, "weight-load",
                        start, ready,
                        {{"bytes", static_cast<double>(moved)}});
        });
    }
    if (reqTracer_)
        reqTracer_->onWeightLoad(deviceId_, model, start, ready,
                                 moved);
}

Tick
Scheduler::shardOverlay(const std::string &model, Tick now,
                        Tick compute_end, unsigned batch,
                        unsigned tokens)
{
    const models::DecoderSpec *spec = models::decoderSpec(model);
    if (!spec)
        return compute_end;
    const unsigned d = placement_.degree;
    // The tensor crossing the fabric after each sharded block (TP)
    // or at each stage boundary (PP): the layer's activations.
    const std::uint64_t act = static_cast<std::uint64_t>(batch) *
                              tokens *
                              static_cast<std::uint64_t>(spec->hidden) *
                              dtypeBytes(config_.dtype);
    const Tick T = compute_end > now ? compute_end - now : 0;
    Tracer &tracer = dtu_.tracer();
    if (timeline_ && !fabricTrackMade_) {
        fabricTrack_ = tracer.track("serve", "fabric");
        fabricTrackMade_ = true;
    }
    Tick end = compute_end;
    if (placement_.mode == PlacementMode::TensorParallel) {
        // One ring all-reduce after the attention out-projection and
        // one after the FFN down-projection of every layer, each
        // submitted where its layer ends within the compute interval.
        const unsigned n = 2 * static_cast<unsigned>(spec->layers);
        for (unsigned k = 0; k < n; ++k) {
            const Tick at = saturatingAddTicks(
                now, static_cast<Tick>(static_cast<double>(T) *
                                       (k + 1) / n));
            const Tick done =
                fabric_->allReduceAt(fabricGroup_, at, act);
            end = std::max(end, done);
            if (timeline_) {
                tracer.span(fabricTrack_,
                            model + ".allreduce" + std::to_string(k),
                            "all-reduce", at, done,
                            {{"bytes", static_cast<double>(act)},
                             {"degree", static_cast<double>(d)}});
            }
        }
        // Ring wire traffic: every device moves 2(d-1)/d of the
        // payload per collective.
        dtu_.energy().addFabric(static_cast<double>(n) *
                                static_cast<double>(act) * 2.0 *
                                (d - 1) / d);
    } else if (placement_.mode == PlacementMode::PipelineParallel) {
        // The batch re-times as a (d stages x m microbatches)
        // pipeline: each microbatch spends T/(d*m) per stage, and a
        // point-to-point activation send crosses each stage boundary.
        // The bubble fraction (d-1)/(d+m-1) falls out of the shape.
        const unsigned m = placement_.microbatches;
        const Tick t_micro = microbatchTicks(T);
        const std::uint64_t mact =
            std::max<std::uint64_t>(act / m, 1);
        Tick pp_end = saturatingAddTicks(
            now, (static_cast<Tick>(d) + m - 1) * t_micro);
        for (unsigned s = 0; s + 1 < d; ++s) {
            for (unsigned j = 0; j < m; ++j) {
                const Tick at = saturatingAddTicks(
                    now,
                    (static_cast<Tick>(s) + j + 1) * t_micro);
                const Tick done =
                    fabric_->sendAt(fabricGroup_, s, at, mact);
                pp_end = std::max(
                    pp_end,
                    saturatingAddTicks(
                        done,
                        static_cast<Tick>(d - 1 - s) * t_micro));
                if (timeline_) {
                    tracer.span(fabricTrack_,
                                model + ".act s" + std::to_string(s) +
                                    ">s" + std::to_string(s + 1) +
                                    " mb" + std::to_string(j),
                                "activation", at, done,
                                {{"bytes",
                                  static_cast<double>(mact)}});
                }
            }
        }
        end = pp_end;
        dtu_.energy().addFabric(static_cast<double>(d - 1) * m *
                                static_cast<double>(mact));
    }
    return std::max(end, now);
}

Tick
Scheduler::microbatchTicks(Tick T) const
{
    return std::max<Tick>(
        T / (static_cast<Tick>(placement_.degree) *
             placement_.microbatches),
        1);
}

Tick
Scheduler::launchFloor(const std::string &model, Tick now,
                       Tick plan_floor) const
{
    // Compute ends no earlier than now + plan_floor, and a TP overlay
    // only adds to it. A PP overlay re-times the batch to
    // now + (d + m - 1) * microbatchTicks(T), which is monotone in the
    // compute time T but can end before the compute does.
    if (shardedDecoder(model) &&
        placement_.mode == PlacementMode::PipelineParallel) {
        const Tick stages = static_cast<Tick>(placement_.degree) +
                            placement_.microbatches - 1;
        return saturatingAddTicks(now,
                                  stages * microbatchTicks(plan_floor));
    }
    return saturatingAddTicks(now, plan_floor);
}

std::vector<std::string>
Scheduler::placedModels() const
{
    std::vector<std::string> models;
    models.reserve(weightReady_.size());
    for (const auto &[model, ready] : weightReady_)
        models.push_back(model);
    return models;
}

std::size_t
Scheduler::outstanding() const
{
    std::size_t inflight = 0;
    for (const ActiveBatch &b : active_)
        inflight += b.requests.size();
    for (const DecodeBatch &b : decoding_)
        inflight += b.seqs.size();
    return queueDepth() + decodeReadyCount() + inflight;
}

std::size_t
Scheduler::inFlightBatches() const
{
    std::size_t stepping = 0;
    for (const DecodeBatch &b : decoding_) {
        if (b.inStep)
            ++stepping;
    }
    return active_.size() + stepping;
}

std::size_t
Scheduler::decodeReadyCount() const
{
    std::size_t waiting = 0;
    for (const auto &[model, seqs] : decodeReady_)
        waiting += seqs.size();
    return waiting;
}

void
Scheduler::recordRequestSpan(const std::string &model,
                             const RequestOutcome &c)
{
    onChip([this,
            name = model + " #" + std::to_string(c.request.id),
            from = c.request.arrival, to = c.completed,
            args = TraceArgs{
                {"queue_wait_us", ticksToMicroSeconds(c.queueWait())},
                {"batch", static_cast<double>(c.batchSize)},
                {"missed", c.missedDeadline() ? 1.0 : 0.0}}]() mutable {
        dtu_.tracer().span(reqTrack_, name, "request", from, to,
                           std::move(args));
    });
}

void
Scheduler::complete(RequestOutcome outcome)
{
    lastCompletion_ = std::max(lastCompletion_, outcome.completed);
    if (sloMon_)
        sloMon_->recordCompletion(outcome);
    if (reqTracer_)
        reqTracer_->onComplete(deviceId_, outcome);
    outcomes_.push_back(std::move(outcome));
    ++completedN_;
}

void
Scheduler::dropOutcome(RequestOutcome outcome)
{
    switch (outcome.dropReason) {
      case DropReason::Rejected: ++rejectedStat_; break;
      case DropReason::Shed: ++shedStat_; break;
      case DropReason::TimedOut: ++timedOutStat_; break;
      case DropReason::Failed: ++failedStat_; break;
    }
    if (timeline_) {
        onChip([this,
                name = std::string(dropReasonName(outcome.dropReason)) +
                       " #" + std::to_string(outcome.request.id),
                at = outcome.completed] {
            dtu_.tracer().instant(dropTrack_, name, "degradation", at);
        });
    }
    if (sloMon_)
        sloMon_->recordDrop(outcome);
    if (reqTracer_)
        reqTracer_->onDrop(deviceId_, outcome);
    outcomes_.push_back(std::move(outcome));
    ++droppedN_;
}

void
Scheduler::drop(const Request &r, Tick at, DropReason reason)
{
    RequestOutcome o;
    o.request = r;
    o.state = terminalStateFor(reason);
    o.dropReason = reason;
    o.device = static_cast<int>(deviceId_);
    o.completed = at;
    dropOutcome(std::move(o));
}

void
Scheduler::admit(const Request &r)
{
    // Admission control: a client sees an immediate reject instead
    // of a doomed wait when the queue is already over the configured
    // depth.
    const DegradationPolicy &degrade = config_.degradation;
    if (degrade.admissionLimit != 0 &&
        queueDepth() >= degrade.admissionLimit) {
        drop(r, r.arrival, DropReason::Rejected);
        return;
    }
    if (r.generative()) {
        fatalIf(!models::decoderSpec(r.model),
                "generative request #", r.id, " targets '", r.model,
                "', which is not a decoder model");
        fatalIf(r.gen.promptLen == 0, "generative request #", r.id,
                " has an empty prompt");
        // KV admission: a sequence whose worst-case footprint
        // (prompt + every token it could emit) exceeds the whole
        // pool can never run — queueing would deadlock, so it is
        // bounced like an over-limit arrival.
        if (!ensureKv().fitsEver(kvTokens(r),
                                 bytesPerTokenFor(r.model))) {
            drop(r, r.arrival, DropReason::Rejected);
            return;
        }
        genQueue_.push(r);
    } else {
        queue_.push(r);
    }
    peakQueue_ = std::max(peakQueue_, queueDepth());
    if (reqTracer_)
        reqTracer_->onAdmit(deviceId_, r);
}

// Load shedding + queue timeout: sweep queued requests whose
// deadline already passed (they could only waste a lease) or whose
// queue wait hit the cap. Deadline arithmetic saturates: a timeout
// configured near maxTick means "never", not a wrapped instant drop.
// Queued generative requests hold no KV pages yet, so the sweep
// needs no release.
void
Scheduler::dropExpired(Tick at)
{
    const DegradationPolicy &degrade = config_.degradation;
    if (!degrade.shedExpired && degrade.requestTimeout == 0)
        return;
    auto expired = [&](const Request &r) {
        return degrade.shedExpired && r.deadline != 0 &&
               r.deadline <= at;
    };
    for (RequestQueue *queue : {&queue_, &genQueue_}) {
        std::vector<Request> victims =
            queue->removeIf([&](const Request &r) {
                if (expired(r))
                    return true;
                return degrade.requestTimeout != 0 &&
                       at >= saturatingAddTicks(
                                 r.arrival, degrade.requestTimeout);
            });
        for (const Request &r : victims) {
            drop(r, at,
                 expired(r) ? DropReason::Shed
                            : DropReason::TimedOut);
        }
    }
}

// Launch rule: full batch, oldest request timed out, or no future
// arrival could grow the batch further — and, when the fleet
// modeled a weight load for this model, the weights are resident.
bool
Scheduler::shouldLaunch(const std::string &model, Tick now) const
{
    std::size_t depth = queue_.sizeFor(model);
    if (depth == 0)
        return false;
    if (weightReadyAt(model) > now)
        return false;
    if (depth >= config_.batching.maxBatchFor(model))
        return true;
    if (now >= saturatingAddTicks(queue_.oldestArrival(model),
                                  config_.batching.maxQueueDelay))
        return true;
    return futureCount(model) == 0;
}

// The same rule over the generation queue (prefill launches).
bool
Scheduler::shouldLaunchGen(const std::string &model, Tick now) const
{
    std::size_t depth = genQueue_.sizeFor(model);
    if (depth == 0)
        return false;
    if (weightReadyAt(model) > now)
        return false;
    if (depth >= config_.batching.maxBatchFor(model))
        return true;
    if (now >= saturatingAddTicks(genQueue_.oldestArrival(model),
                                  config_.batching.maxQueueDelay))
        return true;
    return futureCount(model) == 0;
}

std::vector<Request>
Scheduler::sampledRiders(const std::vector<Request> &riders) const
{
    if (reqTracer_) {
        for (const Request &q : riders) {
            if (reqTracer_->sampled(q.id))
                return riders;
        }
    }
    return {};
}

template <typename ChipPart>
LaneExecutor::Ticket
Scheduler::submitLaunch(PhaseBreakdown *phase, ChipPart &&chip)
{
    PendingRun &pending = pending_.emplace_back();
    pending.phase = phase;
    pending.ticket = lanes_->submit(
        lane_,
        [&run = pending.run,
         chip = std::forward<ChipPart>(chip)]() mutable { run = chip(); });
    return pending.ticket;
}

void
Scheduler::onChip(std::function<void()> fn)
{
    lanes_->submit(lane_, std::move(fn));
}

Scheduler::BatchRun
Scheduler::executeBatch(const ExecutionPlan &p,
                        std::vector<Request> sampled,
                        const std::vector<unsigned> &groups, Tick now,
                        unsigned max_retries, bool record_ops,
                        const std::string &model, const char *phase)
{
    // Everything this chip and its group's peer links book from here
    // on starts at or after now. Raised here, on the lane, rather
    // than at settle: a raise ahead of a queued earlier launch would
    // clamp its bookings.
    dtu_.eventQueue().raiseLedgerWatermark(now);
    if (fabric_)
        fabric_->raiseGroupWatermark(fabricGroup_, now);
    // A batch carrying a sampled request records its chip-side
    // operator spans (the flow-arrow targets) even when the user
    // left the chip timeline off; the op trace supplies the flow
    // anchor. Recording is observation only — simulated timing is
    // unchanged.
    const bool sampled_batch = !sampled.empty();
    ExecOptions exec_opts = config_.exec;
    if (sampled_batch)
        exec_opts.trace = true;
    if (record_ops)
        exec_opts.trace = true;
    // The energy-feature corpus needs every batch's operator traces,
    // not just the generative phases' — same observation-only rule.
    const bool corpus = energyMon_ && energyMon_->corpusEnabled();
    if (corpus)
        exec_opts.trace = true;
    Executor executor(dtu_, groups, exec_opts);
    // Poisoned executions (uncorrectable ECC, exhausted DMA retries)
    // re-run on the same lease up to max_retries times; the lease is
    // held across retries so the re-execution cannot be starved by
    // new admissions.
    BatchRun run;
    Tick launch_at = now;
    {
        ScopedTracerEnable chip_scope(dtu_.tracer(), sampled_batch);
        for (;;) {
            std::uint64_t before =
                faults_ ? faults_->poisonCount() : 0;
            run.result = executor.run(p, launch_at);
            run.poisoned =
                faults_ && faults_->poisonCount() > before;
            if (!run.poisoned || run.retries >= max_retries)
                break;
            ++run.retries;
            launch_at = run.result.end;
            if (timeline_) {
                dtu_.tracer().instant(
                    dropTrack_, "batch-retry " + model,
                    "degradation", launch_at);
            }
        }
        if (sampled_batch) {
            // Flow anchor: the midpoint of the first operator span
            // of the final execution.
            const ExecResult &r = run.result;
            Tick link =
                r.trace.empty()
                    ? launch_at + (r.end - launch_at) / 2
                    : r.trace.front().start +
                          (r.trace.front().end -
                           r.trace.front().start) /
                              2;
            run.linked = reqTracer_->linkBatch(dtu_.tracer(), sampled,
                                               link);
        }
    }
    // The observers' records are applied when the launch is read.
    run.sampled = std::move(sampled);
    run.launched = now;
    if (corpus) {
        run.model = model;
        run.phase = phase;
    }
    run.end = run.result.end;
    return run;
}

void
Scheduler::accumulatePhase(PhaseBreakdown &phase,
                           const ExecResult &result)
{
    for (const OpTrace &op : result.trace) {
        const double compute = static_cast<double>(op.computeTicks);
        const double act_dma = static_cast<double>(
            std::max(op.dmaInTicks, op.dmaOutTicks));
        phase.issueTicks += compute;
        // Memory time: weight-stream stalls, DMA the pipeline could
        // not hide, and activation DMA overhanging the compute it
        // was double-buffered against.
        phase.dmaTicks += static_cast<double>(op.weightStallTicks) +
                          static_cast<double>(op.unhiddenTicks) +
                          std::max(0.0, act_dma - compute);
        phase.otherTicks +=
            static_cast<double>(op.launchTicks) +
            static_cast<double>(op.kernelStallTicks);
        phase.macs += op.macs;
        phase.bytes += op.bytes;
        phase.energy.add(op.energy);
    }
}

void
Scheduler::readResults(Tick upto)
{
    // The latest launch whose floor is due. Its task finishing means
    // every earlier task on this FIFO lane finished, so the launches
    // before it are read too, which keeps the phase sums in launch
    // order.
    std::uint64_t last = 0;
    for (const ActiveBatch &b : active_) {
        if (b.ticket.seq && b.floor <= upto)
            last = std::max(last, b.ticket.seq);
    }
    for (const DecodeBatch &b : decoding_) {
        if (b.ticket.seq && b.stepFloor <= upto)
            last = std::max(last, b.ticket.seq);
    }
    if (last)
        readThrough(last);
}

void
Scheduler::readThrough(std::uint64_t seq)
{
    lanes_->wait({lane_, seq});
    while (!pending_.empty() && pending_.front().ticket.seq <= seq) {
        PendingRun &p = pending_.front();
        const BatchRun &run = p.run;
        if (p.phase)
            accumulatePhase(*p.phase, run.result);
        batchRetries_ += run.retries;
        retryStat_ += static_cast<double>(run.retries);
        if (!run.sampled.empty())
            reqTracer_->onBatchExecuted(deviceId_, run.sampled,
                                        run.launched, run.result.end,
                                        run.retries, run.linked);
        // Read-back order across devices is not launch order: the
        // lane seq puts the corpus rows back in launch order.
        if (run.phase)
            energyMon_->recordOps(p.ticket.seq, deviceId_, run.model,
                                  run.phase, run.result);
        auto active = std::find_if(
            active_.begin(), active_.end(), [&](const ActiveBatch &b) {
                return b.ticket.seq == p.ticket.seq;
            });
        Tick floor = 0;
        if (active != active_.end()) {
            floor = active->floor;
            active->end = run.end;
            active->retries = run.retries;
            active->failed = run.poisoned;
            active->ticket = {};
        } else {
            auto step = std::find_if(
                decoding_.begin(), decoding_.end(),
                [&](const DecodeBatch &b) {
                    return b.ticket.seq == p.ticket.seq;
                });
            panicIf(step == decoding_.end(), "launch ", p.ticket.seq,
                    " has no batch");
            floor = step->stepFloor;
            step->stepEnd = run.end;
            step->stepPoisoned = run.poisoned;
            step->ticket = {};
        }
        panicIf(run.end < floor, "batch ended at ", run.end,
                " before its floor ", floor);
        pending_.pop_front();
    }
}

void
Scheduler::drainChip()
{
    if (!pending_.empty())
        readThrough(pending_.back().ticket.seq);
    lanes_->drain(lane_);
}

void
Scheduler::advanceCompletions(Tick upto)
{
    readResults(upto);
    std::vector<ActiveBatch> still_running;
    std::vector<ActiveBatch> done;
    for (ActiveBatch &b : active_) {
        (b.end <= upto ? done : still_running)
            .push_back(std::move(b));
    }
    active_ = std::move(still_running);
    // Deterministic completion order: by (end, tenant).
    std::sort(done.begin(), done.end(),
              [](const ActiveBatch &a, const ActiveBatch &b) {
                  if (a.end != b.end)
                      return a.end < b.end;
                  return a.tenant < b.tenant;
              });
    for (const ActiveBatch &b : done) {
        manager_.release(b.tenant, b.end);
        lastCompletion_ = std::max(lastCompletion_, b.end);
        auto size = static_cast<unsigned>(b.requests.size());
        if (timeline_) {
            TraceArgs args{{"batch", static_cast<double>(size)}};
            if (b.retries)
                args.emplace_back("retries",
                                  static_cast<double>(b.retries));
            if (b.failed)
                args.emplace_back("failed", 1.0);
            onChip([this, args = std::move(args),
                    name = b.prefill ? b.model + " prefill" : b.model,
                    from = b.dispatched, to = b.end]() mutable {
                dtu_.tracer().span(batchTrack_, name, "serving-batch",
                                   from, to, std::move(args));
            });
        }
        if (b.prefill) {
            retirePrefill(b);
            continue;
        }
        if (b.failed) {
            // Retries ran out with the execution still poisoned:
            // the whole batch's results are suspect and every rider
            // fails together.
            for (const Request &r : b.requests) {
                RequestOutcome o;
                o.request = r;
                o.state = TerminalState::Faulted;
                o.dropReason = DropReason::Failed;
                o.device = static_cast<int>(deviceId_);
                o.dispatched = b.dispatched;
                o.completed = b.end;
                o.batchSize = size;
                o.retries = b.retries;
                dropOutcome(std::move(o));
            }
            continue;
        }
        for (const Request &r : b.requests) {
            RequestOutcome c;
            c.request = r;
            c.device = static_cast<int>(deviceId_);
            c.dispatched = b.dispatched;
            c.firstToken = b.end;
            c.completed = b.end;
            c.batchSize = size;
            c.retries = b.retries;
            if (timeline_)
                recordRequestSpan(b.model, c);
            complete(std::move(c));
        }
    }
    advanceDecode(upto);
}

void
Scheduler::retirePrefill(const ActiveBatch &b)
{
    KvCache &kv = *kv_;
    const auto size = static_cast<unsigned>(b.requests.size());
    if (b.failed) {
        // A poisoned prefill leaves no trustworthy KV state: the
        // riders fail here and their reservations free immediately.
        for (const Request &r : b.requests) {
            kv.release(r.id);
            RequestOutcome o;
            o.request = r;
            o.state = TerminalState::Faulted;
            o.dropReason = DropReason::Failed;
            o.device = static_cast<int>(deviceId_);
            o.dispatched = b.dispatched;
            o.completed = b.end;
            o.batchSize = size;
            o.retries = b.retries;
            dropOutcome(std::move(o));
        }
        return;
    }
    for (const Request &r : b.requests) {
        // Prefill materializes the prompt's KV pages plus the first
        // generated token.
        kv.grow(r.id, r.gen.promptLen + 1);
        ++genLog_.tokens;
        const unsigned target = r.targetNewTokens();
        if (target <= 1) {
            // Single-token generation: the first token is also the
            // last, no decode step needed.
            kv.release(r.id);
            RequestOutcome o;
            o.request = r;
            o.device = static_cast<int>(deviceId_);
            o.dispatched = b.dispatched;
            o.firstToken = b.end;
            o.completed = b.end;
            o.batchSize = size;
            o.retries = b.retries;
            o.tokensEmitted = 1;
            if (timeline_)
                recordRequestSpan(b.model, o);
            complete(std::move(o));
            continue;
        }
        DecodeSeq seq;
        seq.request = r;
        seq.dispatched = b.dispatched;
        seq.firstToken = b.end;
        seq.lastToken = b.end;
        seq.prefillBatchSize = size;
        seq.retries = b.retries;
        seq.emitted = 1;
        seq.target = target;
        decodeReady_[b.model].push_back(std::move(seq));
    }
}

void
Scheduler::advanceDecode(Tick upto)
{
    if (decoding_.empty())
        return;
    // Deterministic retirement order across batches: (stepEnd,
    // tenant), matching the one-shot completion sort.
    std::vector<DecodeBatch *> due;
    for (DecodeBatch &b : decoding_) {
        if (b.inStep && b.stepEnd <= upto)
            due.push_back(&b);
    }
    std::sort(due.begin(), due.end(),
              [](const DecodeBatch *a, const DecodeBatch *b) {
                  if (a->stepEnd != b->stepEnd)
                      return a->stepEnd < b->stepEnd;
                  return a->tenant < b->tenant;
              });
    for (DecodeBatch *bp : due) {
        DecodeBatch &b = *bp;
        b.inStep = false;
        ++genLog_.decodeSteps;
        if (b.stepPoisoned) {
            // The decode loop does not retry poisoned steps: the KV
            // state behind them is suspect, so every rider fails
            // together at the step end.
            for (DecodeSeq &seq : b.seqs) {
                kv_->release(seq.request.id);
                RequestOutcome o;
                o.request = seq.request;
                o.state = TerminalState::Faulted;
                o.dropReason = DropReason::Failed;
                o.device = static_cast<int>(deviceId_);
                o.dispatched = seq.dispatched;
                o.firstToken = seq.firstToken;
                o.completed = b.stepEnd;
                o.batchSize = seq.prefillBatchSize;
                o.retries = seq.retries;
                o.tokensEmitted = seq.emitted;
                dropOutcome(std::move(o));
            }
            b.seqs.clear();
        } else {
            std::vector<DecodeSeq> live;
            live.reserve(b.seqs.size());
            for (DecodeSeq &seq : b.seqs) {
                ++seq.emitted;
                ++genLog_.tokens;
                genLog_.itlMs.push_back(
                    ticksToMilliSeconds(b.stepEnd - seq.lastToken));
                seq.lastToken = b.stepEnd;
                kv_->grow(seq.request.id,
                          seq.request.gen.promptLen + seq.emitted);
                if (seq.emitted >= seq.target) {
                    // Finished: pages free immediately, and in
                    // continuous mode the slot is joinable at the
                    // very next settle.
                    kv_->release(seq.request.id);
                    RequestOutcome o;
                    o.request = seq.request;
                    o.device = static_cast<int>(deviceId_);
                    o.dispatched = seq.dispatched;
                    o.firstToken = seq.firstToken;
                    o.completed = b.stepEnd;
                    o.batchSize = seq.prefillBatchSize;
                    o.retries = seq.retries;
                    o.tokensEmitted = seq.emitted;
                    if (timeline_)
                        recordRequestSpan(b.model, o);
                    complete(std::move(o));
                } else {
                    live.push_back(std::move(seq));
                }
            }
            b.seqs = std::move(live);
        }
        if (b.seqs.empty()) {
            manager_.release(b.tenant, b.stepEnd);
            b.tenant = -1; // marks the batch retired
        }
    }
    decoding_.erase(std::remove_if(decoding_.begin(), decoding_.end(),
                                   [](const DecodeBatch &b) {
                                       return b.tenant < 0;
                                   }),
                    decoding_.end());
}

void
Scheduler::settle(Tick now)
{
    dropExpired(now);
    launchOneShots(now);
    launchGeneration(now);
}

void
Scheduler::launchOneShots(Tick now)
{
    const DegradationPolicy &degrade = config_.degradation;
    // Launch everything launchable at the current time. The model
    // scan restarts after every pass so a freed lease can host the
    // next queued model (alphabetical, deterministic).
    bool launched = true;
    while (launched) {
        launched = false;
        for (const std::string &model : queue_.models()) {
            while (shouldLaunch(model, now) &&
                   manager_.freeGroups() >= config_.groupsPerBatch) {
                auto lease = manager_.allocate(
                    nextTenant_, config_.groupsPerBatch, now);
                if (!lease)
                    break; // free groups span clusters
                std::vector<Request> reqs = queue_.popBatch(
                    model, config_.batching.maxBatchFor(model));
                const CachedPlan &p = plan(
                    model, static_cast<unsigned>(reqs.size()));
                ActiveBatch batch;
                batch.end = kNever;
                batch.floor = saturatingAddTicks(now, p.floor);
                batch.ticket = submitLaunch(
                    nullptr,
                    [this, &plan = p.plan, sampled = sampledRiders(reqs),
                     groups = lease->groups, now,
                     retries = degrade.maxBatchRetries,
                     model]() mutable {
                        return executeBatch(plan, std::move(sampled),
                                            groups, now, retries, false,
                                            model, "batch");
                    });
                batch.dispatched = now;
                batch.tenant = nextTenant_;
                batch.model = model;
                batch.requests = std::move(reqs);
                active_.push_back(std::move(batch));
                ++nextTenant_;
                ++batches_;
                launched = true;
            }
        }
    }
}

void
Scheduler::launchGeneration(Tick now)
{
    if (decoding_.empty() && decodeReady_.empty() &&
        genQueue_.empty())
        return;
    const GenerationPolicy &gen = config_.generation;
    const DegradationPolicy &degrade = config_.degradation;

    // 1) Step idle decode batches, absorbing waiting sequences first
    //    in continuous mode (iteration-level batching: a sequence
    //    joins between steps, never mid-step). Deterministic order:
    //    by tenant, i.e. formation order.
    std::vector<DecodeBatch *> idle;
    for (DecodeBatch &b : decoding_) {
        if (!b.inStep)
            idle.push_back(&b);
    }
    std::sort(idle.begin(), idle.end(),
              [](const DecodeBatch *a, const DecodeBatch *b) {
                  return a->tenant < b->tenant;
              });
    for (DecodeBatch *bp : idle) {
        DecodeBatch &b = *bp;
        if (gen.continuousBatching) {
            auto it = decodeReady_.find(b.model);
            if (it != decodeReady_.end()) {
                std::vector<DecodeSeq> &ready = it->second;
                while (!ready.empty() &&
                       b.seqs.size() < gen.maxDecodeBatch) {
                    b.seqs.push_back(std::move(ready.front()));
                    ready.erase(ready.begin());
                }
                if (ready.empty())
                    decodeReady_.erase(it);
            }
        }
        if (!b.seqs.empty())
            launchDecodeStep(b, now);
    }

    // 2) Form new decode batches from leftover ready sequences
    //    (alphabetical by model). Each batch takes a lease it holds
    //    until its last sequence finishes.
    bool formed = true;
    while (formed) {
        formed = false;
        for (auto it = decodeReady_.begin();
             it != decodeReady_.end();) {
            std::vector<DecodeSeq> &ready = it->second;
            if (ready.empty()) {
                it = decodeReady_.erase(it);
                continue;
            }
            if (manager_.freeGroups() < config_.groupsPerBatch) {
                ++it;
                continue;
            }
            auto lease = manager_.allocate(
                nextTenant_, config_.groupsPerBatch, now);
            if (!lease) {
                ++it;
                continue;
            }
            DecodeBatch b;
            b.tenant = nextTenant_;
            b.model = it->first;
            b.groups = lease->groups;
            while (!ready.empty() &&
                   b.seqs.size() < gen.maxDecodeBatch) {
                b.seqs.push_back(std::move(ready.front()));
                ready.erase(ready.begin());
            }
            b.formed = static_cast<unsigned>(b.seqs.size());
            decoding_.push_back(std::move(b));
            launchDecodeStep(decoding_.back(), now);
            ++nextTenant_;
            formed = true;
            if (ready.empty())
                it = decodeReady_.erase(it);
            else
                ++it;
        }
    }

    // 3) Launch prefills, gated on the KV budget: the queue head
    //    must fit *now* (reservable against unreserved pages) or the
    //    whole model waits — strict FIFO, no small-sequence bypass,
    //    so admission order stays deterministic and starvation-free.
    bool launched = true;
    while (launched) {
        launched = false;
        for (const std::string &model : genQueue_.models()) {
            while (shouldLaunchGen(model, now) &&
                   manager_.freeGroups() >= config_.groupsPerBatch) {
                const Request *head = genQueue_.front(model);
                if (!head)
                    break;
                const std::uint64_t bpt = bytesPerTokenFor(model);
                if (!kv_->fitsNow(kvTokens(*head), bpt))
                    break; // KV full: wait for sequences to finish
                auto lease = manager_.allocate(
                    nextTenant_, config_.groupsPerBatch, now);
                if (!lease)
                    break;
                std::vector<Request> cand = genQueue_.popBatch(
                    model, config_.batching.maxBatchFor(model));
                // Reserve worst-case pages per rider, FIFO prefix:
                // the first failure sends it and everything behind
                // it back to the queue head. The head itself always
                // reserves (fitsNow above is the same arithmetic).
                std::vector<Request> reqs;
                std::vector<Request> back;
                for (Request &r : cand) {
                    if (back.empty() &&
                        kv_->reserve(r.id, kvTokens(r), bpt)) {
                        reqs.push_back(std::move(r));
                    } else {
                        back.push_back(std::move(r));
                    }
                }
                if (!back.empty())
                    genQueue_.pushFront(model, std::move(back));
                unsigned max_prompt = 0;
                for (const Request &r : reqs)
                    max_prompt =
                        std::max(max_prompt, r.gen.promptLen);
                const auto size = static_cast<unsigned>(reqs.size());
                const unsigned prompt = bucketLen(max_prompt);
                const CachedPlan &p = prefillPlan(model, size, prompt);
                ++genLog_.prefillBatches;
                ActiveBatch batch;
                batch.end = kNever;
                batch.floor = launchFloor(model, now, p.floor);
                batch.ticket = submitLaunch(
                    &genLog_.prefill,
                    [this, &plan = p.plan, sampled = sampledRiders(reqs),
                     groups = lease->groups, now,
                     retries = degrade.maxBatchRetries, model, size,
                     prompt]() mutable {
                        BatchRun run = executeBatch(
                            plan, std::move(sampled), groups, now,
                            retries, true, model, "prefill");
                        if (shardedDecoder(model))
                            run.end = shardOverlay(model, now, run.end,
                                                   size, prompt);
                        return run;
                    });
                batch.dispatched = now;
                batch.tenant = nextTenant_;
                batch.model = model;
                batch.requests = std::move(reqs);
                batch.prefill = true;
                active_.push_back(std::move(batch));
                ++nextTenant_;
                ++batches_;
                launched = true;
            }
        }
    }
}

void
Scheduler::launchDecodeStep(DecodeBatch &b, Tick now)
{
    const GenerationPolicy &gen = config_.generation;
    unsigned ctx = 0;
    for (const DecodeSeq &seq : b.seqs)
        ctx = std::max(ctx, seq.request.gen.promptLen + seq.emitted);
    // Static batching pays the formed (padded) batch size every step
    // even after members finish; continuous pays only live sequences.
    const unsigned cost_batch =
        gen.continuousBatching ? static_cast<unsigned>(b.seqs.size())
                               : b.formed;
    const CachedPlan &p =
        decodePlan(b.model, cost_batch, bucketLen(ctx));
    std::vector<Request> riders;
    if (reqTracer_) {
        riders.reserve(b.seqs.size());
        for (const DecodeSeq &seq : b.seqs)
            riders.push_back(seq.request);
    }
    ++batches_;
    b.inStep = true;
    b.stepPoisoned = false;
    b.stepStart = now;
    b.stepEnd = kNever;
    b.stepFloor = launchFloor(b.model, now, p.floor);
    // Decode steps do not retry on poison (max_retries 0): the KV
    // state is already suspect after one poisoned pass.
    b.ticket = submitLaunch(
        &genLog_.decode,
        [this, &plan = p.plan, sampled = sampledRiders(riders),
         groups = b.groups, now, model = b.model, cost_batch,
         live = b.seqs.size(), ctx]() mutable {
            BatchRun run = executeBatch(plan, std::move(sampled), groups,
                                        now, 0, true, model, "decode");
            const Tick compute_end = run.end;
            if (shardedDecoder(model))
                run.end = shardOverlay(model, now, compute_end,
                                       cost_batch, /*tokens=*/1);
            if (timeline_) {
                Tracer &tracer = dtu_.tracer();
                if (!decodeTrackMade_) {
                    decodeTrack_ = tracer.track("serve", "decode");
                    decodeTrackMade_ = true;
                }
                tracer.span(decodeTrack_, model, "decode-step", now,
                            compute_end,
                            {{"batch", static_cast<double>(cost_batch)},
                             {"live", static_cast<double>(live)},
                             {"ctx", static_cast<double>(ctx)}});
            }
            return run;
        });
}

Tick
Scheduler::nextEvent(Tick now) const
{
    Tick next = kNever;
    for (const ActiveBatch &b : active_)
        next = std::min(next, b.ticket.seq ? b.floor : b.end);
    for (const DecodeBatch &b : decoding_) {
        if (b.inStep)
            next = std::min(next, b.ticket.seq ? b.stepFloor : b.stepEnd);
    }
    for (const RequestQueue *queue : {&queue_, &genQueue_}) {
        for (const std::string &model : queue->models()) {
            Tick timeout =
                saturatingAddTicks(queue->oldestArrival(model),
                                   config_.batching.maxQueueDelay);
            if (timeout > now && timeout != kNever)
                next = std::min(next, timeout);
            Tick ready = weightReadyAt(model);
            if (ready > now)
                next = std::min(next, ready);
        }
    }
    // Degradation deadlines are events too: a queued request's SLO
    // expiry or queue-timeout maturation must wake the loop even
    // with no arrival or completion in between — including when
    // requestTimeout is the only policy enabled and the requests
    // carry no deadline of their own.
    const DegradationPolicy &degrade = config_.degradation;
    if (degrade.shedExpired || degrade.requestTimeout != 0) {
        auto deadline = [&](const Request &r) {
            if (degrade.shedExpired && r.deadline > now)
                next = std::min(next, r.deadline);
            if (degrade.requestTimeout != 0) {
                Tick timeout = saturatingAddTicks(
                    r.arrival, degrade.requestTimeout);
                if (timeout > now && timeout != kNever)
                    next = std::min(next, timeout);
            }
        };
        queue_.forEach(deadline);
        genQueue_.forEach(deadline);
    }
    return next;
}

obs::DeviceMetricSample
Scheduler::metricSample(unsigned device)
{
    // Retries are counted as launches are read, and a serial loop's
    // sample counts every launch so far: a chip that can retry reads
    // them all first. The other fields are the loop's own state.
    if (faults_ && !pending_.empty())
        readThrough(pending_.back().ticket.seq);
    obs::DeviceMetricSample d;
    d.device = device;
    d.queueDepth = queueDepth();
    d.inFlightBatches = inFlightBatches();
    d.outstanding = outstanding();
    d.completed = completedN_;
    d.dropped = droppedN_;
    d.retries = batchRetries_;
    return d;
}

GenerationLog
Scheduler::generationLog()
{
    drainChip();
    GenerationLog log = genLog_;
    if (kv_) {
        log.kvPageBudget = kv_->pageBudget();
        log.kvPageBytes = kv_->config().pageBytes;
        log.kvPeakPages = kv_->peakPagesInUse();
        log.kvPeakReservedPages = kv_->peakPagesReserved();
        log.kvPagesAllocated = kv_->totalPagesAllocated();
        log.kvPagesFreed = kv_->totalPagesFreed();
        log.kvPagesInUseAtEnd = kv_->pagesInUse();
    }
    return log;
}

ServingReport
Scheduler::finish(double offered_qps)
{
    drainChip();
    ServingReport report = summarize(
        std::move(outcomes_), offered_qps, batches_,
        dtu_.energy().joules() - joulesBefore_,
        manager_.utilization(lastCompletion_), batchRetries_,
        faults_ ? faults_->log().size() - faultsBefore_ : 0,
        generationLog());
    if (energyMon_) {
        finalizeEnergy(report,
                       dtu_.energy().breakdown().minus(energyBefore_));
    }
    outcomes_.clear();
    return report;
}

ServingReport
Scheduler::serve(std::vector<Request> trace)
{
    std::sort(trace.begin(), trace.end(),
              [](const Request &a, const Request &b) {
                  if (a.arrival != b.arrival)
                      return a.arrival < b.arrival;
                  return a.id < b.id;
              });
    const double offered = offeredQps(trace);

    // How many arrivals of each model are still in the future: the
    // batcher stops holding a partial batch once no companion can
    // ever join it.
    std::map<std::string, unsigned> future;
    for (const Request &r : trace)
        ++future[r.model];

    Tick now = trace.empty() ? 0 : trace.front().arrival;
    begin(now, &future);
    if (energyMon_)
        energyMon_->beginRun(now);
    MetricSampler sampler(
        *lanes_, [lane = lane_](unsigned) { return lane; }, reqTracer_,
        energyMon_);

    std::size_t next_arrival = 0;
    auto admitUpTo = [&](Tick upto) {
        while (next_arrival < trace.size() &&
               trace[next_arrival].arrival <= upto) {
            const Request &r = trace[next_arrival++];
            --future[r.model];
            admit(r);
        }
    };

    admitUpTo(now);
    settle(now);
    // Periodic metric snapshots: pure observation points. The loop
    // wakes early for them only while a real event is still pending,
    // and the settle/advance steps are idempotent at non-event ticks,
    // so sampling never changes simulated results (or termination).
    const Tick metric_period = sampler.period();
    Tick next_sample =
        metric_period ? (now / metric_period + 1) * metric_period
                      : kNever;
    while (true) {
        // Next event: an arrival, a batch completion or decode step,
        // a queue timeout maturing, or a degradation deadline.
        // Events at or before `now` are already handled (or are
        // waiting on a lease, which frees at a completion event).
        Tick next = nextEvent(now);
        if (next_arrival < trace.size())
            next = std::min(next, trace[next_arrival].arrival);
        if (next == kNever) {
            fatalIf(queueDepth() + decodeReadyCount() != 0,
                    "serving deadlock: ",
                    queueDepth() + decodeReadyCount(),
                    " waiting requests but no future event");
            break;
        }
        if (next_sample < next)
            next = next_sample;
        now = next;
        advanceCompletions(now);
        admitUpTo(now);
        settle(now);
        if (metric_period && now >= next_sample) {
            obs::FleetMetricSample sample;
            sample.at = now;
            sample.devices.push_back(metricSample(deviceId_));
            sampler.take(std::move(sample));
            next_sample = (now / metric_period + 1) * metric_period;
        }
        // Close SLO windows the loop just stepped past. Events land
        // in (prev_now, now] and windows close only through now, so
        // every event is ingested before its window seals.
        if (sloMon_)
            sloMon_->advanceTo(now);
    }
    sampler.flush();
    if (sloMon_)
        sloMon_->finish(std::max(now, lastCompletion_));
    if (energyMon_)
        energyMon_->endRun(std::max(now, lastCompletion_));

    return finish(offered);
}

} // namespace serve
} // namespace dtu
