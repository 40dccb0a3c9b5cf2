/**
 * @file
 * The SLO-centric outcome of one serving run.
 *
 * Aggregates what a cloud operator actually watches: tail latency
 * (p50/p95/p99 from the sim/stats.hh Histogram), queue-wait vs
 * execution breakdown, goodput vs deadline misses, sustained QPS,
 * chip occupancy, and energy per request. Exports as JSON via
 * JsonWriter so CI can diff serving behaviour across commits the
 * same way it diffs the figure benches.
 */

#ifndef DTU_SERVE_REPORT_HH
#define DTU_SERVE_REPORT_HH

#include <cstdint>
#include <ostream>
#include <vector>

#include "power/power_model.hh"
#include "serve/request.hh"
#include "sim/stats.hh"

namespace dtu
{

class JsonWriter;
struct OpTrace;

namespace serve
{

/** One operator's window split into PhaseBreakdown's categories. */
struct OpTickMix
{
    double issue = 0.0;
    double dma = 0.0;
    double other = 0.0;
};

/**
 * The top-down split of @p op's window: issue = compute, dma =
 * weight-stream stalls, DMA the pipeline could not hide, and
 * activation DMA overhanging the compute it was double-buffered
 * against, other = launch and kernel-load stalls. Phase breakdowns
 * and the energy corpus both use it.
 */
OpTickMix opTickMix(const OpTrace &op);

/**
 * Where one generation phase's simulated time went, summed over the
 * operators of every execution in that phase. A coarse top-down
 * split (obs/topdown.hh does the per-core version): issue = the
 * tensor/vector engines were the limiter, dma = weight/KV streaming
 * or activation DMA was, other = launch + kernel-load overheads.
 */
struct PhaseBreakdown
{
    double issueTicks = 0.0;
    double dmaTicks = 0.0;
    double otherTicks = 0.0;
    /** MACs and DRAM-level bytes, for the roofline placement. */
    double macs = 0.0;
    double bytes = 0.0;
    /**
     * Per-component energy of the phase's operators (filled only
     * when the run attributes energy: an observer's
     * ServingObserver::attributesEnergy(), see serve/observer.hh).
     */
    EnergyBreakdown energy;

    double totalTicks() const
    {
        return issueTicks + dmaTicks + otherTicks;
    }
    /** Arithmetic intensity in ops/byte (2 ops per MAC). */
    double intensityOpsPerByte() const
    {
        return bytes > 0.0 ? 2.0 * macs / bytes : 0.0;
    }
    /** "issue", "dma", or "other" — the dominant category. */
    const char *dominant() const;

    void add(const PhaseBreakdown &other);
};

/**
 * Raw per-run generation bookkeeping the scheduler hands to
 * summarize() alongside the outcome log: inter-token-latency samples
 * (one per emitted decode token; per-request percentiles would hide
 * the cross-batch distribution), phase counters, KV-cache gauges,
 * and the per-phase time split.
 */
struct GenerationLog
{
    /** One sample per decode-step token emission, in ms. */
    std::vector<double> itlMs;
    std::uint64_t prefillBatches = 0;
    std::uint64_t decodeSteps = 0;
    /** Tokens emitted across all sequences (first tokens included). */
    std::uint64_t tokens = 0;

    //
    // KV-cache occupancy (pages of the device pool).
    //
    std::uint64_t kvPageBudget = 0;
    std::uint64_t kvPageBytes = 0;
    std::uint64_t kvPeakPages = 0;
    std::uint64_t kvPeakReservedPages = 0;
    std::uint64_t kvPagesAllocated = 0;
    std::uint64_t kvPagesFreed = 0;
    /** Pages still held when the run drained (0 == no leak). */
    std::uint64_t kvPagesInUseAtEnd = 0;

    PhaseBreakdown prefill;
    PhaseBreakdown decode;

    bool any() const { return prefillBatches || decodeSteps; }
    /** Fleet aggregation: fold another device's log into this one. */
    void merge(const GenerationLog &other);
};

/** Generation-phase metrics (present when the run generated). */
struct GenerationReport
{
    /** Generative requests completed. */
    std::uint64_t requests = 0;
    /** Tokens emitted by completed generative requests. */
    std::uint64_t tokens = 0;
    std::uint64_t prefillBatches = 0;
    std::uint64_t decodeSteps = 0;
    /** Emitted tokens per second of serving makespan. */
    double tokensPerSecond = 0.0;

    /** Time-to-first-token over completed generative requests. */
    Histogram ttftMsHistogram;
    double ttftP50Ms = 0.0;
    double ttftP95Ms = 0.0;
    double ttftP99Ms = 0.0;
    double ttftMeanMs = 0.0;
    double ttftMaxMs = 0.0;

    /** Inter-token latency over every emitted decode token. */
    Histogram itlMsHistogram;
    double itlP50Ms = 0.0;
    double itlP95Ms = 0.0;
    double itlP99Ms = 0.0;
    double itlMeanMs = 0.0;
    double itlMaxMs = 0.0;

    //
    // KV-cache occupancy.
    //
    std::uint64_t kvPageBudget = 0;
    std::uint64_t kvPageBytes = 0;
    std::uint64_t kvPeakPages = 0;
    std::uint64_t kvPeakReservedPages = 0;
    std::uint64_t kvPagesAllocated = 0;
    std::uint64_t kvPagesFreed = 0;
    std::uint64_t kvPagesInUseAtEnd = 0;
    /** kvPeakPages / kvPageBudget. */
    double kvPeakOccupancy = 0.0;

    /** Prefill-vs-decode top-down split (the roofline contrast). */
    PhaseBreakdown prefill;
    PhaseBreakdown decode;

    //
    // Energy per token (filled by finalizeEnergy when an energy
    // monitor is attached; zero otherwise). Decode J/token is the
    // marginal serving cost the capacity planner cares about;
    // prefill J/token is the first-token surcharge.
    //
    double joulesPerToken = 0.0;
    double prefillJoulesPerToken = 0.0;
    double decodeJoulesPerToken = 0.0;
};

/** Aggregated serving metrics over one drained request trace. */
struct ServingReport
{
    /** Requests the trace submitted (completed + dropped). */
    std::uint64_t submitted = 0;
    /** Completed requests. */
    std::uint64_t requests = 0;
    /** Dynamic batches launched. */
    std::uint64_t batches = 0;
    /** Mean requests per launched batch. */
    double meanBatchSize = 0.0;
    /** Last completion time (the serving makespan). */
    Tick makespan = 0;

    /** Arrival rate the trace offered. */
    double offeredQps = 0.0;
    /** Completions per second of makespan (sustained throughput). */
    double achievedQps = 0.0;
    /** In-deadline completions per second of makespan. */
    double goodputQps = 0.0;

    /** Requests that finished after their deadline. */
    std::uint64_t deadlineMisses = 0;
    /** deadlineMisses / requests. */
    double missRate = 0.0;
    /** Ids of the missed requests, ascending (the SLO miss set). */
    std::vector<std::uint64_t> missedIds;

    /** End-to-end latency distribution in milliseconds. */
    Histogram latencyMsHistogram;
    /**
     * Tail percentiles of the latency distribution. NaN when zero
     * requests completed (there is no distribution); the JSON writer
     * renders non-finite values as null.
     */
    double p50Ms = 0.0;
    double p95Ms = 0.0;
    double p99Ms = 0.0;
    double meanMs = 0.0;
    double maxMs = 0.0;

    /** Mean time spent waiting in the arrival queue. */
    double meanQueueMs = 0.0;
    /** Mean time spent executing on the chip. */
    double meanExecMs = 0.0;

    /** Energy drawn over the run and its per-request share. */
    double joules = 0.0;
    double joulesPerRequest = 0.0;
    /** Time-weighted fraction of processing groups leased. */
    double groupUtilization = 0.0;

    //
    // Degradation and fault outcome (all zero on a fault-free run
    // with degradation off).
    //

    /** Queued requests shed because their deadline expired. */
    std::uint64_t shedRequests = 0;
    /** Queued requests dropped by the per-request timeout. */
    std::uint64_t timedOutRequests = 0;
    /** Arrivals bounced by admission control. */
    std::uint64_t rejectedRequests = 0;
    /** Requests whose batch stayed poisoned after every retry. */
    std::uint64_t failedRequests = 0;
    /** Batch re-executions after poisoned runs. */
    std::uint64_t batchRetries = 0;
    /** Faults the injector scheduled during the run. */
    std::uint64_t faultsInjected = 0;
    /** completed / submitted; 1.0 when nothing was submitted. */
    double availability = 1.0;

    /**
     * Every request's terminal record — completions and drops in one
     * log, ordered by terminal time then id.
     */
    std::vector<RequestOutcome> outcomes;

    /** True when the run served at least one generative request. */
    bool hasGeneration = false;
    /** Generation metrics; meaningful only when hasGeneration. */
    GenerationReport generation;

    /**
     * True when an energy monitor attributed the run's joules; the
     * JSON energy sections exist only then, keeping energy-disabled
     * reports byte-identical to the pre-energy format.
     */
    bool hasEnergy = false;
    /** Per-component split of `joules`; meaningful when hasEnergy. */
    EnergyBreakdown energy;
};

/**
 * Build a report from the scheduler's raw outcome log.
 * @param outcomes per-request terminal records (any order).
 * @param offered_qps the trace's offered load.
 * @param batches dynamic batches launched.
 * @param joules energy drawn between serve start and last completion.
 * @param group_utilization lease occupancy from the ResourceManager.
 * @param batch_retries poisoned-batch re-executions.
 * @param faults_injected faults scheduled during the run.
 * @param gen generation bookkeeping (ignored when gen.any() is false).
 *
 * Every ratio is guarded: a run that completes zero requests (all
 * shed, timed out, or failed) reports zero QPS/means instead of
 * dividing by zero.
 */
ServingReport summarize(std::vector<RequestOutcome> outcomes,
                        double offered_qps, std::uint64_t batches,
                        double joules, double group_utilization,
                        std::uint64_t batch_retries = 0,
                        std::uint64_t faults_injected = 0,
                        GenerationLog gen = {});

/**
 * Attach per-component energy attribution to a summarized report:
 * stores @p energy (the meter's bucket delta over the run), marks
 * hasEnergy, and derives the generation J/token figures from the
 * phase energy the scheduler folded into the GenerationLog. All
 * divisions are guarded — zero tokens or zero completions yield
 * zeros, never non-finite values.
 */
void finalizeEnergy(ServingReport &report, const EnergyBreakdown &energy);

/**
 * Serialize a report as JSON: the summary scalars, the miss set,
 * the latency histogram buckets, and one record per request.
 * @param per_request include the full per-request log.
 */
void writeJson(const ServingReport &report, std::ostream &os,
               bool per_request = true);

/**
 * Emit the report object into an already-open JsonWriter (as the
 * next value), so composite documents — e.g. the fleet report's
 * per-device sections — can embed it.
 */
void writeJson(const ServingReport &report, JsonWriter &json,
               bool per_request = true);

} // namespace serve
} // namespace dtu

#endif // DTU_SERVE_REPORT_HH
