/**
 * @file
 * The VLIW compute core (Section IV-A).
 *
 * The core issues one VLIW packet per cycle, in order. Slots drive
 * the scalar unit, the 512-bit vector engine, the matrix (VMM)
 * engine, the SPU, the L1 memory port, DMA configuration, and the
 * synchronization engine. Stalls come from:
 *  - vector register bank conflicts (the compiler's register
 *    allocator exists to avoid them),
 *  - matrix/SPU structural occupancy (multi-cycle operations),
 *  - kernel-code loads (instruction buffer misses and oversized
 *    kernels),
 *  - synchronization waits,
 *  - power-integrity throttling bubbles inserted by the LPME.
 *
 * Kernels are executed functionally (real values flow through the
 * register files and L1), so the same run yields both timing and
 * numerics. That functional state (a 2 MiB L1 array and the register
 * file) is built on first use: serving credits analytic activity
 * through creditStats() and never runs the ISA, so a serving chip
 * holds none of it.
 */

#ifndef DTU_CORE_COMPUTE_CORE_HH
#define DTU_CORE_COMPUTE_CORE_HH

#include <memory>
#include <vector>

#include "core/icache.hh"
#include "core/matrix_engine.hh"
#include "core/register_file.hh"
#include "core/spu.hh"
#include "dma/dma_engine.hh"
#include "isa/instruction.hh"
#include "mem/mem_types.hh"
#include "sim/clocked.hh"
#include "sim/sim_object.hh"
#include "sync/sync_engine.hh"

namespace dtu
{

/** Static configuration of one compute core. */
struct CoreConfig
{
    RegFileGeometry regs;
    /** DTU 2.0 core (two VMM units, full-rate SPU) vs DTU 1.0. */
    bool dtu2 = true;
    /** L1 data buffer capacity in bytes (functional + accounting). */
    std::uint64_t l1Bytes = 1_MiB;
    /** Safety bound on packets executed per kernel run. */
    std::uint64_t maxPackets = 50'000'000;
};

/** Timing and activity outcome of one kernel run. */
struct RunResult
{
    Tick startTick = 0;
    Tick endTick = 0;
    Cycles cycles = 0;
    Cycles issueCycles = 0;
    Cycles bankStallCycles = 0;
    Cycles structuralStallCycles = 0;
    Cycles throttleCycles = 0;
    Tick icacheStallTicks = 0;
    Tick syncStallTicks = 0;
    std::uint64_t packets = 0;
    std::uint64_t instructions = 0;
    /** Multiply-accumulates retired (activity proxy for power). */
    double macs = 0.0;
    /** Vector/SPU lane operations retired. */
    double laneOps = 0.0;

    /** Wall time of the run. */
    Tick ticks() const { return endTick - startTick; }
};

/** One VLIW compute core. */
class ComputeCore : public SimObject
{
  public:
    ComputeCore(std::string name, StatRegistry *stats, ClockDomain &clock,
                CoreConfig config,
                InstructionCache *icache = nullptr,
                SyncEngine *sync = nullptr, DmaEngine *dma = nullptr);

    /**
     * Execute @p kernel starting no earlier than @p start.
     * @param kernel_id identity used by the instruction cache; runs
     *        of the same id hit in cache mode.
     */
    RunResult run(const Kernel &kernel, int kernel_id = 0, Tick start = 0);

    /** Register state (inspectable by tests and examples). */
    RegisterFile &regs() { return materialize(); }

    /**
     * Functional L1 word access (element-granular addressing). A word
     * never written reads 0.0 without building the L1 array.
     */
    double l1Word(std::uint64_t index) const;
    void setL1Word(std::uint64_t index, double value);

    /** True once run(), regs() or setL1Word() built the state. */
    bool materialized() const { return regs_ != nullptr; }

    /** Descriptor table DmaConfig/DmaLaunch instructions index. */
    void setDescriptorTable(std::vector<DmaDescriptor> descriptors);

    /**
     * Power-integrity throttle: fraction of extra bubble cycles the
     * LPME inserts per issued cycle (0 = unthrottled).
     */
    void setThrottle(double bubble_fraction);
    double throttle() const { return throttle_; }

    /**
     * Credit activity computed analytically (the plan executor models
     * compute time arithmetically rather than driving run(), so it
     * deposits each operator's share here to keep the PMU counters —
     * .cycles, .macs, .throttle_cycles, .issue_cycles — live for the
     * performance sampler).
     */
    void creditStats(double cycles, double macs, double throttle_cycles);

    const CoreConfig &config() const { return config_; }
    const MatrixEngine &matrixEngine() const { return matrix_; }
    const Spu &spu() const { return spu_; }
    ClockDomain &clock() { return clock_; }

  private:
    /** Build the register file and L1 array if not yet built. */
    RegisterFile &materialize();

    ClockDomain &clock_;
    CoreConfig config_;
    /** Functional state, null until materialize(). */
    std::unique_ptr<RegisterFile> regs_;
    std::vector<double> l1Data_;
    MatrixEngine matrix_;
    Spu spu_;
    InstructionCache *icache_;
    SyncEngine *sync_;
    DmaEngine *dma_;
    std::vector<DmaDescriptor> descriptors_;
    double throttle_ = 0.0;

    /** Fractional-cycle occupancy horizons for multi-cycle units. */
    double matrixBusyUntil_ = 0.0;
    double spuBusyUntil_ = 0.0;

    Stat statPackets_;
    Stat statInstructions_;
    Stat statCycles_;
    Stat statIssueCycles_;
    Stat statBankStalls_;
    Stat statStructStalls_;
    Stat statThrottleCycles_;
    Stat statSyncStallTicks_;
    Stat statMacs_;
};

} // namespace dtu

#endif // DTU_CORE_COMPUTE_CORE_HH
