#include "runtime/executor.hh"

#include <algorithm>
#include <cmath>

#include "core/matrix_engine.hh"
#include "core/register_file.hh"
#include "core/spu.hh"
#include "graph/graph.hh"
#include "obs/perf_monitor.hh"
#include "power/power_event.hh"
#include "sim/json.hh"
#include "sim/logging.hh"
#include "sim/tracer.hh"

namespace dtu
{

namespace
{

/**
 * Core cycles operator @p op needs with its work split over
 * @p cores cores, before throttle bubbles: the matrix engine at the
 * tensorized utilization, co-issued with the vector and SPU engines on
 * the VLIW pipeline.
 */
double
computeCycles(const PlannedOp &op, DType dtype, bool dtu2,
              unsigned cores)
{
    double macs_per_core = op.macs / cores;
    double spu_per_core = op.spuOps / cores;
    double vec_per_core = op.vecOps / cores;
    double matrix_cycles =
        macs_per_core / (MatrixEngine::macsPerCycle(dtype, dtu2) *
                         std::max(0.05, op.utilization));
    double spu_cycles = spu_per_core / Spu::resultsPerCycle(dtype, dtu2);
    double vec_cycles = vec_per_core / vectorLanes(dtype);
    return std::max(matrix_cycles, spu_cycles + vec_cycles) + 256.0;
}

/** @p cycles at @p hz, rounded to the nearest tick. */
Tick
cyclesToTicks(double cycles, double hz)
{
    return static_cast<Tick>(
        cycles * static_cast<double>(ticksPerSecond) / hz + 0.5);
}

} // namespace

Executor::Executor(Dtu &dtu, std::vector<unsigned> groups,
                   ExecOptions options)
    : dtu_(dtu), groups_(std::move(groups)), options_(options)
{
    fatalIf(groups_.empty(), "executor needs at least one group");
    for (unsigned gid : groups_)
        fatalIf(gid >= dtu_.totalGroups(), "group ", gid, " out of range");
}

unsigned
Executor::cores() const
{
    return static_cast<unsigned>(groups_.size()) *
           dtu_.config().coresPerGroup;
}

Tick
Executor::minLatency(const ExecutionPlan &plan) const
{
    // run() charges every operator at least its launch overhead plus
    // its compute ticks. Those are smallest at the fastest clock the
    // chip can run (the pinned maxHz with power management off, the
    // DVFS ladder top with it on; thermal caps only lower it) and with
    // no throttle bubbles; cyclesToTicks is monotone in both.
    const DtuConfig &config = dtu_.config();
    const double peak_hz =
        std::max(config.maxHz, dtu_.cpme().peakFrequency());
    Tick floor = 0;
    for (const PlannedOp &op : plan.ops) {
        floor += config.opLaunchOverheadTicks +
                 cyclesToTicks(computeCycles(op, plan.dtype, config.dtu2,
                                             cores()),
                               peak_hz);
    }
    return floor;
}

ExecResult
Executor::run(const ExecutionPlan &plan, Tick start)
{
    const DtuConfig &config = dtu_.config();
    const unsigned ngroups = static_cast<unsigned>(groups_.size());
    const unsigned total_cores = cores();
    EnergyMeter &meter = dtu_.energy();
    double joules_before = meter.joules();
    EnergyBreakdown energy_before = meter.breakdown();

    // Power management: OFF pins the clocks at the ladder top for
    // maximal performance (the paper's comparison configuration) and
    // runs the rails at the worst-case voltage guard-band instead of
    // the LPMEs' closed-loop setpoint.
    bool pm = options_.powerManagement && config.dvfs.enabled;
    if (!pm)
        dtu_.setCoreFrequency(config.maxHz);
    meter.setVoltageMargin(pm ? 1.0 : meter.params().avsMarginOff);

    ExecResult result;
    result.start = start;
    Tick cursor = start;
    double freq_ticks_weighted = 0.0;
    double l3_bytes = 0.0;

    //
    // Timeline tracing: operator spans and the per-phase breakdown
    // live on "runtime" tracks; the engines (DMA, icache, sync)
    // contribute their own spans on the hardware track hierarchy,
    // and counter tracks show the DVFS loop next to the operators
    // that triggered it.
    //
    Tracer &tracer = dtu_.tracer();
    if (options_.timeline || !options_.timelinePath.empty())
        tracer.setEnabled(true);
    const bool tl = tracer.enabled();
    TrackId op_track, kernel_track, weights_track, dma_in_track,
        dma_out_track, compute_track;
    if (tl) {
        op_track = tracer.track("runtime", "operators");
        kernel_track = tracer.track("runtime", "phase.kernel-load");
        weights_track = tracer.track("runtime", "phase.weight-stream");
        dma_in_track = tracer.track("runtime", "phase.activation-in");
        dma_out_track = tracer.track("runtime", "phase.activation-out");
        compute_track = tracer.track("runtime", "phase.compute");
    }

    // Does the previous operator's output stay resident in L2, and
    // how sparse did the previous operator leave it?
    bool input_in_l2 = false;
    double upstream_density = 1.0;
    double throttle = 0.0;

    //
    // Weight streaming: multiple buffering fetches the *next*
    // operator's weights into L2 while the current operator runs
    // (Section III "Memory v.s. ALUs"), so weight loads only stall
    // when they outlast the previous operator's execution. With
    // broadcast, one engine per cluster writes every L2 slice at
    // once; otherwise each group fetches its own copy.
    //
    auto submit_weights = [&](const PlannedOp &op, Tick at) -> Tick {
        if (op.weightBytes == 0)
            return at;
        Tick done = at;
        DmaDescriptor wdesc;
        wdesc.src = MemLevel::L3;
        wdesc.dst = MemLevel::L2;
        wdesc.dtype = plan.dtype;
        wdesc.bytes = op.weightBytes;
        // Background stream: use the L2 fill port, never the
        // core-bonded ports.
        wdesc.useFillPort = true;
        if (op.anchor == OpKind::Embedding && options_.useSparse &&
            config.dmaFeatures.sparseDecompress) {
            wdesc.sparse = true;
            wdesc.density = std::min(1.0, op.inputDensity + 0.2);
        }
        bool bcast = options_.useBroadcast &&
                     config.dmaFeatures.broadcast && ngroups > 1;
        if (bcast) {
            // One broadcast per cluster covered by the lease.
            std::vector<unsigned> leads;
            for (unsigned gid : groups_) {
                unsigned cl = gid / config.groupsPerCluster;
                if (leads.size() <= cl)
                    leads.resize(cl + 1, ~0u);
                leads[cl] = std::min(leads[cl], gid);
            }
            wdesc.broadcast = true;
            for (unsigned lead : leads) {
                if (lead == ~0u)
                    continue;
                DmaResult r = dtu_.group(lead).dma().submitAt(at, wdesc);
                done = std::max(done, r.done);
                l3_bytes += static_cast<double>(r.srcBytes);
            }
        } else {
            for (unsigned gid : groups_) {
                DmaResult r = dtu_.group(gid).dma().submitAt(at, wdesc);
                done = std::max(done, r.done);
                l3_bytes += static_cast<double>(r.srcBytes);
            }
        }
        if (tl && done > at) {
            tracer.span(weights_track, "weights " + op.name,
                        "weight-stream", at, done,
                        {{"bytes",
                          static_cast<double>(op.weightBytes)}});
        }
        return done;
    };

    // Activation tiles of @p op moving @p per_group bytes per group:
    // one transaction per tile per core, the engine replaying the same
    // strided slice into or out of each core's L1 (Fig. 6).
    auto tiled_desc = [&](const PlannedOp &op, std::uint64_t per_group) {
        DmaDescriptor desc;
        desc.dtype = plan.dtype;
        desc.repeatCount = std::max(1u, op.tiles) * config.coresPerGroup;
        desc.repeatMode = options_.useRepeat &&
                          config.dmaFeatures.repeatMode &&
                          (op.repeatEligible || desc.repeatCount >= 3);
        desc.bytes = per_group / desc.repeatCount;
        desc.repeatStride = desc.bytes;
        if (desc.bytes == 0) {
            desc.bytes = per_group;
            desc.repeatCount = 1;
        }
        return desc;
    };

    // Host transfers: the input sample crosses PCIe into L3 before
    // anything can start (outputs download at the end).
    if (options_.hostTransfers && !plan.ops.empty() &&
        plan.ops.front().inputBytes > 0) {
        DmaDescriptor h2d;
        h2d.src = MemLevel::Host;
        h2d.dst = MemLevel::L3;
        h2d.dtype = plan.dtype;
        h2d.bytes = plan.ops.front().inputBytes;
        cursor = dtu_.group(groups_[0]).dma().submitAt(cursor, h2d).done;
    }

    Tick weights_ready = plan.ops.empty()
                             ? cursor
                             : submit_weights(plan.ops.front(), cursor);

    for (std::size_t oi = 0; oi < plan.ops.size(); ++oi) {
        const PlannedOp &op = plan.ops[oi];
        double freq = dtu_.coreFrequency();
        Tick op_start = cursor;
        double op_joules_before = meter.joules();
        EnergyBreakdown op_energy_before = meter.breakdown();
        double op_l3_before = l3_bytes;

        //
        // 1. Kernel code. Each group's lead core owns the fetch; the
        // group's cores share the loaded image. Prefetch for the
        // *next* operator is issued further down.
        //
        Tick code_ready = cursor;
        if (op.kernelId >= 0) {
            for (unsigned gi = 0; gi < ngroups; ++gi) {
                InstructionCache &icache =
                    dtu_.group(groups_[gi]).icache(0);
                code_ready = std::max(
                    code_ready,
                    icache.fetchAt(cursor, op.kernelId, op.kernelBytes));
            }
        }
        Tick kernel_stall = code_ready - cursor;
        if (tl && kernel_stall > 0) {
            tracer.span(kernel_track, "kernel " + op.name,
                        "kernel-load", op_start, code_ready,
                        {{"bytes",
                          static_cast<double>(op.kernelBytes)}});
        }

        //
        // 2. Wait for this operator's (prefetched) weights, then
        // start streaming the next operator's.
        //
        Tick weights_stall =
            weights_ready > code_ready ? weights_ready - code_ready : 0;
        code_ready = std::max(code_ready, weights_ready);

        //
        // 3. Activations in: (L2 or L3) -> L1 tiles, per group, with
        // transform / sparse / repeat properties from the plan.
        //
        Tick dma_in_done = code_ready;
        std::uint64_t in_per_group =
            op.inputBytes / std::max(1u, ngroups);
        if (in_per_group > 0) {
            DmaDescriptor desc = tiled_desc(op, in_per_group);
            desc.src = input_in_l2 ? MemLevel::L2 : MemLevel::L3;
            desc.dst = MemLevel::L1;
            desc.transform = op.loadTransform;
            double density = std::min(op.inputDensity, upstream_density);
            if (!input_in_l2 && options_.useSparse &&
                config.dmaFeatures.sparseDecompress && density < 0.75) {
                desc.sparse = true;
                desc.density = density;
            }
            for (unsigned gid : groups_) {
                DmaResult r =
                    dtu_.group(gid).dma().submitAt(code_ready, desc);
                dma_in_done = std::max(dma_in_done, r.done);
                if (!input_in_l2)
                    l3_bytes += static_cast<double>(r.srcBytes);
            }
            if (tl && dma_in_done > code_ready) {
                tracer.span(dma_in_track, "in " + op.name,
                            "activation-dma", code_ready, dma_in_done,
                            {{"bytes",
                              static_cast<double>(op.inputBytes)}});
            }
        }

        //
        // 4. Output: L1 -> L2 (if the next op can consume from L2)
        // or L3. Issued concurrently — double buffering drains tiles
        // as they finish.
        //
        std::uint64_t l2_capacity =
            static_cast<std::uint64_t>(ngroups) * config.l2BytesPerGroup;
        bool output_fits_l2 =
            options_.useL2Residency && op.outputBytes * 2 <= l2_capacity;
        Tick dma_out_done = code_ready;
        std::uint64_t out_per_group =
            op.outputBytes / std::max(1u, ngroups);
        if (out_per_group > 0) {
            DmaDescriptor desc = tiled_desc(op, out_per_group);
            desc.src = MemLevel::L1;
            desc.dst = output_fits_l2 ? MemLevel::L2 : MemLevel::L3;
            for (unsigned gid : groups_) {
                DmaResult r =
                    dtu_.group(gid).dma().submitAt(code_ready, desc);
                dma_out_done = std::max(dma_out_done, r.done);
                if (!output_fits_l2)
                    l3_bytes += static_cast<double>(r.dstBytes);
            }
            if (tl && dma_out_done > code_ready) {
                tracer.span(dma_out_track, "out " + op.name,
                            "activation-dma", code_ready, dma_out_done,
                            {{"bytes",
                              static_cast<double>(op.outputBytes)}});
            }
        }

        //
        // 4b. Start streaming the next operator's weights now that
        // this operator's transfers are queued (they take priority on
        // the shared engines; weights use the L2 fill port).
        //
        if (oi + 1 < plan.ops.size())
            weights_ready = submit_weights(plan.ops[oi + 1], code_ready);

        //
        // 5. Compute. Work is data-parallel across all leased cores;
        // the matrix engine runs at the tensorized utilization and
        // the vector/SPU engines co-issue on the VLIW pipeline.
        //
        double macs_per_core = op.macs / total_cores;
        double compute_cycles =
            computeCycles(op, plan.dtype, config.dtu2, total_cores);
        compute_cycles *= 1.0 + throttle;

        Tick dma_in_ticks = dma_in_done - code_ready;
        Tick dma_out_ticks = dma_out_done - code_ready;
        // Memory character of this window: tile traffic plus any
        // weight-stream stall (a weight-bound window is L3-bound).
        Tick dma_span = std::max({dma_in_ticks, dma_out_ticks,
                                  weights_stall});

        //
        // 5b. DVFS (Fig. 10): the LPMEs report the lowest frequency
        // that keeps compute hidden under this window's memory
        // phases; the CPME rate-limits the clocks one ladder step per
        // window toward it. Bandwidth-bound windows coast down and
        // cost (almost) nothing; compute-bound windows climb back.
        //
        dtu_.cpme().beginTraceWindow(op_start);
        if (options_.powerManagement && config.dvfs.enabled) {
            double desired_hz = config.maxHz;
            if (dma_span > 0) {
                // Keep a 25% compute headroom under the memory phase
                // so jitter never turns a hidden compute phase into
                // the critical path.
                desired_hz = 1.25 * compute_cycles *
                             static_cast<double>(ticksPerSecond) /
                             static_cast<double>(dma_span);
            }
            double busy_at_max = std::min(
                1.0, compute_cycles * ticksPerSecond / config.maxHz /
                         static_cast<double>(std::max<Tick>(1, dma_span)));
            ActivitySample probe{busy_at_max,
                                 busy_at_max < 0.7 ? 1.0 - busy_at_max
                                                   : 0.0,
                                 0.0};
            double new_freq = dtu_.cpme().regulate(probe, desired_hz);
            if (new_freq != freq) {
                dtu_.setCoreFrequency(new_freq);
                freq = new_freq;
            }
        }
        // Thermal-throttle episodes (fault injection) cap the clock
        // this window actually runs at, below whatever DVFS picked.
        // The ladder state is untouched: the cap lifts by itself when
        // the episode ends.
        freq = dtu_.cpme().thermalCappedHz(op_start, freq);
        const Tick compute_ticks = cyclesToTicks(compute_cycles, freq);
        // Deposit this window's analytic activity into the per-core
        // PMU counters (compute_cycles already carries the throttle
        // bubbles, so split the bubble share back out).
        double throttle_cycles =
            compute_cycles * throttle / (1.0 + throttle);
        for (unsigned gid : groups_) {
            for (unsigned ci = 0; ci < config.coresPerGroup; ++ci) {
                dtu_.group(gid).core(ci).creditStats(
                    compute_cycles, macs_per_core, throttle_cycles);
            }
        }
        if (tl && compute_ticks > 0) {
            tracer.span(compute_track, op.name, "compute", code_ready,
                        code_ready + compute_ticks,
                        {{"macs", op.macs},
                         {"utilization", op.utilization},
                         {"ghz", freq / 1e9}});
        }

        //
        // 6. Operator latency: pipelined phases overlap; the fill of
        // the first tile and the drain of the last cannot hide.
        //
        Tick steady = std::max({compute_ticks, dma_in_ticks,
                                dma_out_ticks});
        // Fill/drain: with T tiles in flight, roughly one tile's
        // worth of inbound and outbound transfer cannot overlap.
        Tick unhidden = (dma_in_ticks + dma_out_ticks) / (op.tiles + 1);
        Tick op_ticks = config.opLaunchOverheadTicks + kernel_stall +
                        weights_stall + steady + unhidden;
        Tick op_end = op_start + op_ticks;

        //
        // 7. Prefetch the next operator's kernel while this one runs.
        //
        if (options_.usePrefetch && oi + 1 < plan.ops.size()) {
            const PlannedOp &next = plan.ops[oi + 1];
            if (next.kernelId >= 0) {
                for (unsigned gid : groups_) {
                    dtu_.group(gid).icache(0).prefetchAt(
                        op_start, next.kernelId, next.kernelBytes);
                }
            }
        }

        //
        // 8. Power: the operator is one observation window.
        //
        double op_seconds = ticksToSeconds(op_ticks == 0 ? 1 : op_ticks);
        double compute_joules =
            meter.params().voltageScale(freq) *
            (op.macs * meter.params().joulesPerMac(plan.dtype) +
             (op.spuOps + op.vecOps) * meter.params().joulesPerLaneOp);
        double core_watts =
            compute_joules / op_seconds / total_cores +
            meter.params().coreStaticWatts;
        // Ratios are measured over the steady (pipelined) phase, the
        // part of the window the engines actually contend in — the
        // hardware's observation counters see duty cycles, not the
        // driver's launch overhead.
        Tick steady_span = std::max<Tick>(1, steady + unhidden);
        double busy_ratio =
            std::min(1.0, static_cast<double>(compute_ticks) /
                              static_cast<double>(steady_span));
        double l3_stall_ratio = 0.0;
        if (dma_span > compute_ticks) {
            l3_stall_ratio =
                static_cast<double>(dma_span - compute_ticks) /
                static_cast<double>(steady_span);
        }
        ActivitySample sample{busy_ratio, std::min(1.0, l3_stall_ratio),
                              core_watts};
        if (options_.powerManagement && config.dvfs.enabled) {
            // Integrity: one representative core LPME per lease
            // enforces the power budget with throttle bubbles.
            throttle = dtu_.cpme().serviceWindow(
                dtu_.group(groups_[0]).coreLpme(0), sample);
        } else {
            throttle = 0.0;
        }

        //
        // 9. Energy accounting.
        //
        meter.addCompute(op.macs, plan.dtype, op.spuOps + op.vecOps,
                         freq);
        meter.addTraffic(
            /*l1=*/static_cast<double>(op.inputBytes + op.outputBytes),
            /*l2=*/static_cast<double>(op.weightBytes) +
                (input_in_l2 ? static_cast<double>(op.inputBytes) : 0.0) +
                (output_fits_l2 ? static_cast<double>(op.outputBytes)
                                : 0.0),
            /*l3=*/0.0, // accumulated precisely below from l3_bytes
            /*dma=*/static_cast<double>(op.inputBytes + op.outputBytes +
                                        op.weightBytes));
        meter.addStatic(op_ticks,
                        total_cores,
                        ngroups, freq);

        if (options_.trace) {
            OpTrace ot;
            ot.name = op.name;
            ot.anchor = op.anchor;
            ot.start = op_start;
            ot.end = op_end;
            ot.computeTicks = compute_ticks;
            ot.dmaTicks = std::max(dma_in_ticks, dma_out_ticks);
            ot.kernelStallTicks = kernel_stall;
            ot.frequencyGHz = freq / 1e9;
            ot.throttle = throttle;
            ot.dmaInTicks = dma_in_ticks;
            ot.dmaOutTicks = dma_out_ticks;
            ot.weightStallTicks = weights_stall;
            ot.unhiddenTicks = unhidden;
            ot.launchTicks = config.opLaunchOverheadTicks;
            ot.macs = op.macs;
            ot.bytes = static_cast<double>(op.inputBytes) +
                       static_cast<double>(op.outputBytes) +
                       static_cast<double>(op.weightBytes);
            // Per-component attribution: exact meter deltas for the
            // voltage-scaled buckets; HBM joules analytically from
            // this window's L3 bytes (the meter batches the L3 term
            // at end of run, but byte energy carries no voltage
            // scaling, so the product is identical either way).
            ot.energy = meter.breakdown().minus(op_energy_before);
            ot.energy.hbmJoules = (l3_bytes - op_l3_before) *
                                  meter.params().joulesPerByteL3;
            result.trace.push_back(std::move(ot));
        }

        if (tl) {
            tracer.span(op_track, op.name, opKindName(op.anchor),
                        op_start, op_end,
                        {{"ghz", freq / 1e9},
                         {"throttle", throttle},
                         {"macs", op.macs},
                         {"compute_us",
                          ticksToMicroSeconds(compute_ticks)},
                         {"dma_us", ticksToMicroSeconds(dma_span)}});
            // Counter tracks: the DVFS loop and the power/bandwidth
            // picture, sampled once per operator window.
            tracer.counter("core_frequency_ghz", "GHz", op_start,
                           freq / 1e9);
            tracer.counter("power_watts", "W", op_start,
                           (meter.joules() - op_joules_before) /
                               op_seconds);
            double hbm_bw = dtu_.hbm().totalBandwidth();
            tracer.counter("hbm_bw_util", "ratio", op_start,
                           hbm_bw > 0.0 ? (l3_bytes - op_l3_before) /
                                              op_seconds / hbm_bw
                                        : 0.0);
            tracer.counter("throttle_level", "level", op_end, throttle);
        }

        freq_ticks_weighted +=
            freq / 1e9 * static_cast<double>(op_ticks);
        input_in_l2 = output_fits_l2;
        upstream_density = op.outputDensity;
        cursor = op_end;

        // Let the performance sampler materialize any period
        // boundaries this operator advanced time across (there is no
        // event loop driving it; see obs/perf_monitor.hh).
        if (obs::PerfMonitor *pm = dtu_.perfMonitor())
            pm->sampleUpTo(cursor);
    }

    // Output download to the host.
    if (options_.hostTransfers && !plan.ops.empty() &&
        plan.ops.back().outputBytes > 0) {
        DmaDescriptor d2h;
        d2h.src = MemLevel::L3;
        d2h.dst = MemLevel::Host;
        d2h.dtype = plan.dtype;
        d2h.bytes = plan.ops.back().outputBytes;
        cursor = dtu_.group(groups_[0]).dma().submitAt(cursor, d2h).done;
    }

    // L3 energy from the bytes that actually crossed the HBM pins
    // (after sparse compression).
    meter.addTraffic(0.0, 0.0, l3_bytes, 0.0);

    if (obs::PerfMonitor *pm = dtu_.perfMonitor())
        pm->sampleUpTo(cursor);

    result.end = cursor;
    result.latency = cursor - start;
    result.l3Bytes = l3_bytes;
    result.joules = meter.joules() - joules_before;
    result.energy = meter.breakdown().minus(energy_before);
    result.watts =
        result.latency > 0
            ? result.joules / ticksToSeconds(result.latency)
            : 0.0;
    result.throughput =
        result.latency > 0
            ? plan.batch / ticksToSeconds(result.latency)
            : 0.0;
    result.meanFrequencyGHz =
        result.latency > 0
            ? freq_ticks_weighted / static_cast<double>(result.latency)
            : 0.0;

    if (!options_.timelinePath.empty())
        tracer.writeChromeTrace(options_.timelinePath);
    return result;
}

void
writeJson(const ExecResult &result, std::ostream &os)
{
    JsonWriter json(os);
    json.beginObject();
    json.field("start_ticks", result.start)
        .field("end_ticks", result.end)
        .field("latency_ticks", result.latency)
        .field("latency_ms", result.latencyMs())
        .field("joules", result.joules)
        .field("watts", result.watts)
        .field("throughput_per_s", result.throughput)
        .field("l3_bytes", result.l3Bytes)
        .field("mean_frequency_ghz", result.meanFrequencyGHz);
    json.key("energy");
    writeEnergyBreakdownJson(result.energy, json);
    json.key("operators").beginArray();
    for (const OpTrace &op : result.trace) {
        json.beginObject()
            .field("name", op.name)
            .field("kind", opKindName(op.anchor))
            .field("start_ticks", op.start)
            .field("end_ticks", op.end)
            .field("compute_ticks", op.computeTicks)
            .field("dma_ticks", op.dmaTicks)
            .field("dma_in_ticks", op.dmaInTicks)
            .field("dma_out_ticks", op.dmaOutTicks)
            .field("kernel_stall_ticks", op.kernelStallTicks)
            .field("weight_stall_ticks", op.weightStallTicks)
            .field("unhidden_ticks", op.unhiddenTicks)
            .field("launch_ticks", op.launchTicks)
            .field("macs", op.macs)
            .field("bytes", op.bytes)
            .field("frequency_ghz", op.frequencyGHz)
            .field("throttle", op.throttle);
        json.key("energy");
        writeEnergyBreakdownJson(op.energy, json);
        json.endObject();
    }
    json.endArray();
    json.endObject();
    os << "\n";
}

} // namespace dtu
