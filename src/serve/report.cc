#include "serve/report.hh"

#include <algorithm>

#include "power/power_event.hh"
#include "runtime/executor.hh"
#include "sim/json.hh"

namespace dtu
{
namespace serve
{

const char *
dropReasonName(DropReason reason)
{
    switch (reason) {
      case DropReason::Rejected: return "rejected";
      case DropReason::Shed: return "shed";
      case DropReason::TimedOut: return "timed_out";
      case DropReason::Failed: return "failed";
    }
    return "?";
}

OpTickMix
opTickMix(const OpTrace &op)
{
    const double compute = static_cast<double>(op.computeTicks);
    const double act_dma =
        static_cast<double>(std::max(op.dmaInTicks, op.dmaOutTicks));
    OpTickMix mix;
    mix.issue = compute;
    mix.dma = static_cast<double>(op.weightStallTicks) +
              static_cast<double>(op.unhiddenTicks) +
              std::max(0.0, act_dma - compute);
    mix.other = static_cast<double>(op.launchTicks) +
                static_cast<double>(op.kernelStallTicks);
    return mix;
}

const char *
PhaseBreakdown::dominant() const
{
    if (dmaTicks >= issueTicks && dmaTicks >= otherTicks)
        return issueTicks + dmaTicks + otherTicks > 0.0 ? "dma" : "none";
    if (issueTicks >= otherTicks)
        return "issue";
    return "other";
}

void
PhaseBreakdown::add(const PhaseBreakdown &other)
{
    issueTicks += other.issueTicks;
    dmaTicks += other.dmaTicks;
    otherTicks += other.otherTicks;
    macs += other.macs;
    bytes += other.bytes;
    energy.add(other.energy);
}

void
GenerationLog::merge(const GenerationLog &other)
{
    itlMs.insert(itlMs.end(), other.itlMs.begin(), other.itlMs.end());
    prefillBatches += other.prefillBatches;
    decodeSteps += other.decodeSteps;
    tokens += other.tokens;
    kvPageBudget += other.kvPageBudget;
    // Page geometry is uniform across a fleet; keep the first seen.
    kvPageBytes = kvPageBytes ? kvPageBytes : other.kvPageBytes;
    kvPeakPages += other.kvPeakPages;
    kvPeakReservedPages += other.kvPeakReservedPages;
    kvPagesAllocated += other.kvPagesAllocated;
    kvPagesFreed += other.kvPagesFreed;
    kvPagesInUseAtEnd += other.kvPagesInUseAtEnd;
    prefill.add(other.prefill);
    decode.add(other.decode);
}

namespace
{

/**
 * Fill a (histogram, p50/p95/p99/mean/max) block from raw samples.
 * Zero samples leaves the NaN percentiles of an empty histogram,
 * which the JSON writer renders as null.
 */
void
summarizeSamples(const std::vector<double> &samples, Histogram &hist,
                 double &p50, double &p95, double &p99, double &mean,
                 double &max)
{
    double max_v = 0.0;
    double sum = 0.0;
    for (double s : samples) {
        max_v = std::max(max_v, s);
        sum += s;
    }
    hist.init(0.0, std::max(max_v, 1e-9) * 1.001, 512);
    for (double s : samples)
        hist.sample(s);
    p50 = hist.percentile(0.50);
    p95 = hist.percentile(0.95);
    p99 = hist.percentile(0.99);
    mean = samples.empty()
               ? 0.0
               : sum / static_cast<double>(samples.size());
    max = max_v;
}

/** Derive the GenerationReport from the raw log + outcome list. */
void
summarizeGeneration(ServingReport &report, const GenerationLog &gen)
{
    if (!gen.any())
        return;
    report.hasGeneration = true;
    GenerationReport &g = report.generation;
    g.prefillBatches = gen.prefillBatches;
    g.decodeSteps = gen.decodeSteps;
    g.tokens = gen.tokens;
    g.kvPageBudget = gen.kvPageBudget;
    g.kvPageBytes = gen.kvPageBytes;
    g.kvPeakPages = gen.kvPeakPages;
    g.kvPeakReservedPages = gen.kvPeakReservedPages;
    g.kvPagesAllocated = gen.kvPagesAllocated;
    g.kvPagesFreed = gen.kvPagesFreed;
    g.kvPagesInUseAtEnd = gen.kvPagesInUseAtEnd;
    g.kvPeakOccupancy =
        gen.kvPageBudget
            ? static_cast<double>(gen.kvPeakPages) /
                  static_cast<double>(gen.kvPageBudget)
            : 0.0;
    g.prefill = gen.prefill;
    g.decode = gen.decode;

    std::vector<double> ttft;
    for (const RequestOutcome &r : report.outcomes) {
        if (!r.completedOk() || !r.request.generative())
            continue;
        ++g.requests;
        ttft.push_back(ticksToMilliSeconds(r.ttft()));
    }
    summarizeSamples(ttft, g.ttftMsHistogram, g.ttftP50Ms, g.ttftP95Ms,
                     g.ttftP99Ms, g.ttftMeanMs, g.ttftMaxMs);
    summarizeSamples(gen.itlMs, g.itlMsHistogram, g.itlP50Ms,
                     g.itlP95Ms, g.itlP99Ms, g.itlMeanMs, g.itlMaxMs);

    double seconds = ticksToSeconds(report.makespan);
    if (seconds > 0.0)
        g.tokensPerSecond = static_cast<double>(g.tokens) / seconds;
}

} // namespace

ServingReport
summarize(std::vector<RequestOutcome> outcomes, double offered_qps,
          std::uint64_t batches, double joules,
          double group_utilization, std::uint64_t batch_retries,
          std::uint64_t faults_injected, GenerationLog gen)
{
    ServingReport report;
    report.offeredQps = offered_qps;
    report.batches = batches;
    report.joules = joules;
    report.groupUtilization = group_utilization;
    report.batchRetries = batch_retries;
    report.faultsInjected = faults_injected;

    // One sort covers both populations: completions were logged with
    // their completion time in `completed` and drops with the drop
    // decision time, so (terminal time, id) is the deterministic
    // order for each — and filtering the merged log preserves it.
    std::sort(outcomes.begin(), outcomes.end(),
              [](const RequestOutcome &a, const RequestOutcome &b) {
                  if (a.completed != b.completed)
                      return a.completed < b.completed;
                  return a.request.id < b.request.id;
              });
    std::uint64_t dropped = 0;
    for (const RequestOutcome &r : outcomes) {
        if (r.completedOk())
            continue;
        ++dropped;
        switch (r.dropReason) {
          case DropReason::Rejected: ++report.rejectedRequests; break;
          case DropReason::Shed: ++report.shedRequests; break;
          case DropReason::TimedOut: ++report.timedOutRequests; break;
          case DropReason::Failed: ++report.failedRequests; break;
        }
    }
    report.outcomes = std::move(outcomes);
    report.submitted = report.outcomes.size();
    report.requests = report.submitted - dropped;
    report.availability =
        report.submitted
            ? static_cast<double>(report.requests) /
                  static_cast<double>(report.submitted)
            : 1.0;
    if (report.requests == 0) {
        // A run can legitimately complete nothing (everything shed,
        // timed out, or failed); every ratio below divides by the
        // request count, so stop here with zeros instead of NaNs.
        // The latency percentiles are the exception: there is no
        // latency distribution to summarize, so they take the empty
        // histogram's defined NaN and serialize as JSON null rather
        // than claiming a 0 ms tail.
        report.meanBatchSize = 0.0;
        report.p50Ms = report.latencyMsHistogram.percentile(0.50);
        report.p95Ms = report.latencyMsHistogram.percentile(0.95);
        report.p99Ms = report.latencyMsHistogram.percentile(0.99);
        summarizeGeneration(report, gen);
        return report;
    }

    double max_ms = 0.0;
    double sum_ms = 0.0;
    double sum_queue_ms = 0.0;
    double sum_exec_ms = 0.0;
    for (const RequestOutcome &r : report.outcomes) {
        if (!r.completedOk())
            continue;
        report.makespan = std::max(report.makespan, r.completed);
        max_ms = std::max(max_ms, ticksToMilliSeconds(r.latency()));
        sum_ms += ticksToMilliSeconds(r.latency());
        sum_queue_ms += ticksToMilliSeconds(r.queueWait());
        sum_exec_ms += ticksToMilliSeconds(r.execTime());
        if (r.missedDeadline()) {
            ++report.deadlineMisses;
            report.missedIds.push_back(r.request.id);
        }
    }
    std::sort(report.missedIds.begin(), report.missedIds.end());

    double n = static_cast<double>(report.requests);
    report.meanMs = sum_ms / n;
    report.maxMs = max_ms;
    report.meanQueueMs = sum_queue_ms / n;
    report.meanExecMs = sum_exec_ms / n;
    report.missRate = static_cast<double>(report.deadlineMisses) / n;
    report.meanBatchSize =
        report.batches
            ? n / static_cast<double>(report.batches)
            : 0.0;
    report.joulesPerRequest = joules / n;

    double seconds = ticksToSeconds(report.makespan);
    if (seconds > 0.0) {
        report.achievedQps = n / seconds;
        report.goodputQps =
            static_cast<double>(report.requests -
                                report.deadlineMisses) /
            seconds;
    }

    // Tail percentiles through the sim/stats.hh Histogram: 512
    // equal-width buckets over the observed range give ~0.2% value
    // resolution, then percentile() interpolates inside the bucket.
    report.latencyMsHistogram.init(0.0, std::max(max_ms, 1e-9) * 1.001,
                                   512);
    for (const RequestOutcome &r : report.outcomes) {
        if (r.completedOk())
            report.latencyMsHistogram.sample(
                ticksToMilliSeconds(r.latency()));
    }
    report.p50Ms = report.latencyMsHistogram.percentile(0.50);
    report.p95Ms = report.latencyMsHistogram.percentile(0.95);
    report.p99Ms = report.latencyMsHistogram.percentile(0.99);
    summarizeGeneration(report, gen);
    return report;
}

void
finalizeEnergy(ServingReport &report, const EnergyBreakdown &energy)
{
    report.hasEnergy = true;
    report.energy = energy;
    if (!report.hasGeneration)
        return;
    GenerationReport &g = report.generation;
    double gen_joules = g.prefill.energy.total() + g.decode.energy.total();
    g.joulesPerToken =
        g.tokens ? gen_joules / static_cast<double>(g.tokens) : 0.0;
    // Prefill emits each sequence's first token; decode emits the
    // rest. Tokens from sequences dropped mid-generation keep the
    // decode denominator conservative, never negative.
    g.prefillJoulesPerToken =
        g.requests ? g.prefill.energy.total() /
                         static_cast<double>(g.requests)
                   : 0.0;
    std::uint64_t decode_tokens =
        g.tokens > g.requests ? g.tokens - g.requests : 0;
    g.decodeJoulesPerToken =
        decode_tokens ? g.decode.energy.total() /
                            static_cast<double>(decode_tokens)
                      : 0.0;
}

void
writeJson(const ServingReport &report, std::ostream &os,
          bool per_request)
{
    JsonWriter json(os);
    writeJson(report, json, per_request);
    os << "\n";
}

namespace
{

void
writePhaseJson(JsonWriter &json, const char *key,
               const PhaseBreakdown &phase, bool with_energy)
{
    json.key(key).beginObject();
    json.field("issue_ticks", phase.issueTicks)
        .field("dma_ticks", phase.dmaTicks)
        .field("other_ticks", phase.otherTicks)
        .field("macs", phase.macs)
        .field("bytes", phase.bytes)
        .field("intensity_ops_per_byte", phase.intensityOpsPerByte())
        .field("dominant", phase.dominant());
    if (with_energy) {
        json.key("energy");
        writeEnergyBreakdownJson(phase.energy, json);
    }
    json.endObject();
}

} // namespace

void
writeJson(const ServingReport &report, JsonWriter &json,
          bool per_request)
{
    json.beginObject();
    json.field("submitted", report.submitted)
        .field("requests", report.requests)
        .field("batches", report.batches)
        .field("mean_batch_size", report.meanBatchSize)
        .field("makespan_ms", ticksToMilliSeconds(report.makespan))
        .field("offered_qps", report.offeredQps)
        .field("achieved_qps", report.achievedQps)
        .field("goodput_qps", report.goodputQps)
        .field("deadline_misses", report.deadlineMisses)
        .field("miss_rate", report.missRate)
        .field("latency_p50_ms", report.p50Ms)
        .field("latency_p95_ms", report.p95Ms)
        .field("latency_p99_ms", report.p99Ms)
        .field("latency_mean_ms", report.meanMs)
        .field("latency_max_ms", report.maxMs)
        .field("queue_wait_mean_ms", report.meanQueueMs)
        .field("exec_mean_ms", report.meanExecMs)
        .field("joules", report.joules)
        .field("joules_per_request", report.joulesPerRequest)
        .field("group_utilization", report.groupUtilization)
        .field("availability", report.availability)
        .field("shed_requests", report.shedRequests)
        .field("timed_out_requests", report.timedOutRequests)
        .field("rejected_requests", report.rejectedRequests)
        .field("failed_requests", report.failedRequests)
        .field("batch_retries", report.batchRetries)
        .field("faults_injected", report.faultsInjected);

    // Like the generation section, the energy section exists only
    // when a monitor attributed the run — energy-disabled reports
    // stay byte-identical to the pre-energy goldens.
    if (report.hasEnergy) {
        json.key("energy");
        writeEnergyBreakdownJson(report.energy, json);
    }

    // The generation section exists only for runs that generated, so
    // a one-shot run's JSON is byte-identical to the pre-generation
    // format (the checked-in goldens pin that).
    if (report.hasGeneration) {
        const GenerationReport &g = report.generation;
        json.key("generation").beginObject();
        json.field("requests", g.requests)
            .field("tokens", g.tokens)
            .field("prefill_batches", g.prefillBatches)
            .field("decode_steps", g.decodeSteps)
            .field("tokens_per_second", g.tokensPerSecond)
            .field("ttft_p50_ms", g.ttftP50Ms)
            .field("ttft_p95_ms", g.ttftP95Ms)
            .field("ttft_p99_ms", g.ttftP99Ms)
            .field("ttft_mean_ms", g.ttftMeanMs)
            .field("ttft_max_ms", g.ttftMaxMs)
            .field("itl_p50_ms", g.itlP50Ms)
            .field("itl_p95_ms", g.itlP95Ms)
            .field("itl_p99_ms", g.itlP99Ms)
            .field("itl_mean_ms", g.itlMeanMs)
            .field("itl_max_ms", g.itlMaxMs);
        if (report.hasEnergy) {
            json.field("joules_per_token", g.joulesPerToken)
                .field("prefill_joules_per_token",
                       g.prefillJoulesPerToken)
                .field("decode_joules_per_token",
                       g.decodeJoulesPerToken);
        }
        json.key("kv_cache").beginObject();
        json.field("page_bytes", g.kvPageBytes)
            .field("page_budget", g.kvPageBudget)
            .field("peak_pages", g.kvPeakPages)
            .field("peak_reserved_pages", g.kvPeakReservedPages)
            .field("pages_allocated", g.kvPagesAllocated)
            .field("pages_freed", g.kvPagesFreed)
            .field("pages_in_use_at_end", g.kvPagesInUseAtEnd)
            .field("peak_occupancy", g.kvPeakOccupancy);
        json.endObject();
        writePhaseJson(json, "prefill", g.prefill, report.hasEnergy);
        writePhaseJson(json, "decode", g.decode, report.hasEnergy);
        json.endObject();
    }

    json.key("missed_ids").beginArray();
    for (std::uint64_t id : report.missedIds)
        json.value(id);
    json.endArray();

    const Histogram &h = report.latencyMsHistogram;
    json.key("latency_histogram_ms").beginObject();
    json.field("lo", h.lo()).field("hi", h.hi());
    json.key("buckets").beginArray();
    for (std::uint64_t c : h.buckets())
        json.value(c);
    json.endArray();
    json.endObject();

    if (per_request) {
        json.key("requests_detail").beginArray();
        for (const RequestOutcome &r : report.outcomes) {
            if (!r.completedOk())
                continue;
            json.beginObject()
                .field("id", r.request.id)
                .field("model", r.request.model)
                .field("arrival_ms",
                       ticksToMilliSeconds(r.request.arrival))
                .field("deadline_ms",
                       ticksToMilliSeconds(r.request.deadline))
                .field("dispatched_ms",
                       ticksToMilliSeconds(r.dispatched))
                .field("completed_ms",
                       ticksToMilliSeconds(r.completed))
                .field("latency_ms", ticksToMilliSeconds(r.latency()))
                .field("queue_wait_ms",
                       ticksToMilliSeconds(r.queueWait()))
                .field("batch_size", r.batchSize)
                .field("missed", r.missedDeadline());
            if (r.request.generative()) {
                json.field("prompt_len", r.request.gen.promptLen)
                    .field("tokens_emitted", r.tokensEmitted)
                    .field("ttft_ms", ticksToMilliSeconds(r.ttft()))
                    .field("decode_span_ms",
                           ticksToMilliSeconds(r.decodeSpan()));
            }
            json.endObject();
        }
        json.endArray();

        json.key("dropped_detail").beginArray();
        for (const RequestOutcome &r : report.outcomes) {
            if (r.completedOk())
                continue;
            json.beginObject()
                .field("id", r.request.id)
                .field("model", r.request.model)
                .field("arrival_ms",
                       ticksToMilliSeconds(r.request.arrival))
                .field("deadline_ms",
                       ticksToMilliSeconds(r.request.deadline))
                .field("dropped_ms", ticksToMilliSeconds(r.completed))
                .field("reason", dropReasonName(r.dropReason))
                .endObject();
        }
        json.endArray();
    }
    json.endObject();
}

} // namespace serve
} // namespace dtu
