/**
 * @file
 * The plan executor: TopsRuntime's analogue.
 *
 * Runs a compiled ExecutionPlan on a simulated DTU. Operators execute
 * in sequence; within an operator the executor drives the real
 * engine models:
 *
 *  - kernel code loads through the per-group instruction caches
 *    (with optional prefetch of the next operator's kernel),
 *  - weights stream L3 -> L2, broadcast across the processing groups
 *    of a cluster when the hardware supports it,
 *  - activations stream through the per-group DMA engines with
 *    sparse compression, layout transforms, and repeat mode,
 *  - compute time follows the matrix/vector/SPU throughput at the
 *    current DVFS frequency and tensorization utilization,
 *  - the CPME/LPME stack observes every operator as a window:
 *    integrity throttling and the 4-stage DVFS loop feed back into
 *    subsequent operators,
 *  - the energy meter integrates activity into joules.
 *
 * Double buffering overlaps compute with data movement: an operator
 * costs max(compute, dma) plus the unhidden first-tile fill.
 */

#ifndef DTU_RUNTIME_EXECUTOR_HH
#define DTU_RUNTIME_EXECUTOR_HH

#include <ostream>
#include <string>
#include <vector>

#include "compiler/plan.hh"
#include "soc/dtu.hh"

namespace dtu
{

/** Runtime switches (ablation knobs for Table II features). */
struct ExecOptions
{
    /** CPME/LPME active: DVFS + integrity. Off pins max frequency. */
    bool powerManagement = true;
    /** Use sparse DMA compression when the data is sparse enough. */
    bool useSparse = true;
    /** Broadcast shared weights across a cluster's L2 slices. */
    bool useBroadcast = true;
    /** Use repeat-mode DMA for regular tile streams. */
    bool useRepeat = true;
    /** Prefetch the next operator's kernel during the current one. */
    bool usePrefetch = true;
    /** Keep inter-operator activations resident in L2 when they fit. */
    bool useL2Residency = true;
    /**
     * Include host-side PCIe transfers: the input sample uploads to
     * L3 before the first operator and the outputs download after
     * the last (the CUDA-style host/device flow of Section V-B).
     */
    bool hostTransfers = true;
    /** Record a per-operator trace. */
    bool trace = false;
    /**
     * Emit timeline events into the chip's Tracer: operator and
     * per-phase spans plus frequency/power/bandwidth/throttle counter
     * tracks (see sim/tracer.hh). Enabling it here switches the chip
     * tracer on; it stays on for subsequent runs on the same chip so
     * back-to-back executions land on one timeline.
     */
    bool timeline = false;
    /**
     * When non-empty, write the chip's Chrome trace-event JSON here
     * after run() completes (implies timeline). Open the file in
     * https://ui.perfetto.dev or chrome://tracing.
     */
    std::string timelinePath{};
};

/** Per-operator execution record. */
struct OpTrace
{
    std::string name;
    OpKind anchor = OpKind::Conv2d;
    Tick start = 0;
    Tick end = 0;
    Tick computeTicks = 0;
    Tick dmaTicks = 0;
    Tick kernelStallTicks = 0;
    double frequencyGHz = 0.0;
    double throttle = 0.0;
    /** Inbound activation stream span (from code-ready). */
    Tick dmaInTicks = 0;
    /** Outbound activation stream span (from code-ready). */
    Tick dmaOutTicks = 0;
    /** Wait for this op's prefetched weights beyond the kernel load. */
    Tick weightStallTicks = 0;
    /** First-tile fill + last-tile drain that double buffering
     *  cannot hide. */
    Tick unhiddenTicks = 0;
    /** Driver launch overhead charged to this operator. */
    Tick launchTicks = 0;
    /** MAC operations the operator performed (all cores). */
    double macs = 0.0;
    /** Logical bytes the operator moved (in + out + weights),
     *  before sparse compression — the roofline denominator. */
    double bytes = 0.0;
    /**
     * Per-component energy this operator consumed. HBM joules are
     * attributed analytically from the L3 bytes the operator's window
     * moved (the meter batches L3 energy at end of run); the other
     * buckets are exact meter deltas.
     */
    EnergyBreakdown energy;
};

/** Outcome of one plan execution. */
struct ExecResult
{
    Tick start = 0;
    Tick end = 0;
    /** End-to-end latency in ticks. */
    Tick latency = 0;
    /** Energy consumed by the run. */
    double joules = 0.0;
    /** Average power over the run. */
    double watts = 0.0;
    /** Samples per second (batch / latency). */
    double throughput = 0.0;
    /** L3 bytes actually moved (after sparse compression). */
    double l3Bytes = 0.0;
    /** Mean core frequency over the run (time-weighted, GHz). */
    double meanFrequencyGHz = 0.0;
    /** Per-component attribution of joules (buckets sum to it). */
    EnergyBreakdown energy;
    std::vector<OpTrace> trace;

    double latencyMs() const { return ticksToMilliSeconds(latency); }
};

/**
 * Serialize an ExecResult as JSON: the summary scalars plus, when the
 * run recorded a per-operator trace, one record per operator.
 */
void writeJson(const ExecResult &result, std::ostream &os);

/** Executes plans on a leased set of processing groups. */
class Executor
{
  public:
    /**
     * @param dtu the chip.
     * @param groups global ids of the processing groups this tenant
     *        leased (see ResourceManager); all cores of these groups
     *        cooperate on each operator.
     */
    Executor(Dtu &dtu, std::vector<unsigned> groups,
             ExecOptions options = {});

    /** Execute a plan starting no earlier than @p start. */
    ExecResult run(const ExecutionPlan &plan, Tick start = 0);

    /**
     * A lower bound on run(plan, t).end - t on this lease, whatever
     * the chip's state, power management, throttling or faults: the
     * sum of every operator's launch overhead and its compute ticks at
     * the chip's peak clock with no throttle. A pure function of the
     * plan, the chip config and the lease size.
     */
    Tick minLatency(const ExecutionPlan &plan) const;

    const ExecOptions &options() const { return options_; }
    unsigned cores() const;

  private:
    Dtu &dtu_;
    std::vector<unsigned> groups_;
    ExecOptions options_;
};

} // namespace dtu

#endif // DTU_RUNTIME_EXECUTOR_HH
