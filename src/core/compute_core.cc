#include "core/compute_core.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace dtu
{

namespace
{

/** Semaphore namespace for DMA-completion signals. */
constexpr int dmaCompletionSemBase = 1000;

} // namespace

ComputeCore::ComputeCore(std::string name, EventQueue &queue,
                         StatRegistry *stats, ClockDomain &clock,
                         CoreConfig config, InstructionCache *icache,
                         SyncEngine *sync, DmaEngine *dma)
    : SimObject(std::move(name), queue, stats), clock_(clock),
      config_(config), matrix_(!config.dtu2), icache_(icache),
      sync_(sync), dma_(dma)
{
    if (stats) {
        statPackets_.init(*stats, childName("packets"),
                          "VLIW packets issued");
        statInstructions_.init(*stats, childName("instructions"),
                               "instructions retired");
        statCycles_.init(*stats, childName("cycles"),
                         "total execution cycles");
        statIssueCycles_.init(*stats, childName("issue_cycles"),
                              "productive VLIW issue cycles");
        statBankStalls_.init(*stats, childName("bank_stalls"),
                             "register bank conflict stall cycles");
        statStructStalls_.init(*stats, childName("struct_stalls"),
                               "structural (unit busy) stall cycles");
        statThrottleCycles_.init(*stats, childName("throttle_cycles"),
                                 "LPME-inserted bubble cycles");
        statSyncStallTicks_.init(*stats, childName("sync_stall_ticks"),
                                 "ticks blocked on the sync engine");
        statMacs_.init(*stats, childName("macs"),
                       "multiply-accumulates retired");
    }
}

RegisterFile &
ComputeCore::materialize()
{
    if (!regs_) {
        regs_ = std::make_unique<RegisterFile>(config_.regs);
        l1Data_.assign(config_.l1Bytes / 4, 0.0);
    }
    return *regs_;
}

double
ComputeCore::l1Word(std::uint64_t index) const
{
    panicIf(index >= config_.l1Bytes / 4, "L1 word index out of range");
    return l1Data_.empty() ? 0.0 : l1Data_[index];
}

void
ComputeCore::setL1Word(std::uint64_t index, double value)
{
    panicIf(index >= config_.l1Bytes / 4, "L1 word index out of range");
    materialize();
    l1Data_[index] = value;
}

void
ComputeCore::setDescriptorTable(std::vector<DmaDescriptor> descriptors)
{
    descriptors_ = std::move(descriptors);
}

void
ComputeCore::setThrottle(double bubble_fraction)
{
    fatalIf(bubble_fraction < 0.0, "negative throttle");
    throttle_ = bubble_fraction;
}

RunResult
ComputeCore::run(const Kernel &kernel, int kernel_id, Tick start)
{
    RegisterFile &regs = materialize();
    RunResult result;
    result.startTick = start;

    Tick code_ready = start;
    if (icache_) {
        code_ready = icache_->fetchAt(start, kernel_id,
                                      kernel.codeBytes());
        result.icacheStallTicks = code_ready - start;
    }

    const Tick period = clock_.period();
    double cycle = 0.0; // relative to code_ready
    matrixBusyUntil_ = 0.0;
    spuBusyUntil_ = 0.0;

    auto abs_tick = [&](double c) {
        return code_ready + static_cast<Tick>(c * period + 0.5);
    };

    std::size_t pc = 0;
    bool halted = false;
    while (!halted && pc < kernel.size()) {
        fatalIf(result.packets >= config_.maxPackets,
                "kernel '", kernel.name(), "' exceeded ",
                config_.maxPackets, " packets; runaway loop?");
        const Packet &packet = kernel.packet(pc);
        ++result.packets;
        result.instructions += packet.width();
        cycle += 1.0;
        ++result.issueCycles;

        unsigned bank_stalls = regs.bankConflictStalls(packet);
        cycle += bank_stalls;
        result.bankStallCycles += bank_stalls;

        std::size_t next_pc = pc + 1;
        for (const Instruction &inst : packet.slots) {
            // Structural occupancy of multi-cycle units.
            if (inst.unit() == UnitKind::Matrix) {
                if (matrixBusyUntil_ > cycle) {
                    double stall = matrixBusyUntil_ - cycle;
                    cycle = matrixBusyUntil_;
                    result.structuralStallCycles +=
                        static_cast<Cycles>(stall + 0.5);
                }
            } else if (inst.unit() == UnitKind::Spu) {
                if (spuBusyUntil_ > cycle) {
                    double stall = spuBusyUntil_ - cycle;
                    cycle = spuBusyUntil_;
                    result.structuralStallCycles +=
                        static_cast<Cycles>(stall + 0.5);
                }
            }

            unsigned lanes = vectorLanes(inst.dtype);
            switch (inst.op) {
              case Opcode::Nop:
                break;
              case Opcode::SLoadImm:
                regs.setSreg(inst.dst, inst.imm);
                break;
              case Opcode::SAdd:
                regs.setSreg(inst.dst,
                             regs.sreg(inst.a) + regs.sreg(inst.b));
                break;
              case Opcode::SSub:
                regs.setSreg(inst.dst,
                             regs.sreg(inst.a) - regs.sreg(inst.b));
                break;
              case Opcode::SMul:
                regs.setSreg(inst.dst,
                             regs.sreg(inst.a) * regs.sreg(inst.b));
                break;
              case Opcode::SAddImm:
                regs.setSreg(inst.dst, regs.sreg(inst.a) + inst.imm);
                break;
              case Opcode::VLoadImm:
                for (unsigned l = 0; l < lanes; ++l)
                    regs.setVlane(inst.dst, l,
                                  dtypeQuantize(inst.dtype, inst.imm));
                result.laneOps += lanes;
                break;
              case Opcode::VLoad: {
                auto base = static_cast<std::uint64_t>(
                    regs.sreg(inst.a));
                panicIf(base + lanes > l1Data_.size(),
                        "vload beyond L1 on '", name(), "'");
                for (unsigned l = 0; l < lanes; ++l)
                    regs.setVlane(inst.dst, l, l1Data_[base + l]);
                break;
              }
              case Opcode::VStore: {
                auto base = static_cast<std::uint64_t>(
                    regs.sreg(inst.a));
                panicIf(base + lanes > l1Data_.size(),
                        "vstore beyond L1 on '", name(), "'");
                for (unsigned l = 0; l < lanes; ++l)
                    l1Data_[base + l] = dtypeQuantize(
                        inst.dtype, regs.vlane(inst.b, l));
                break;
              }
              case Opcode::VAdd:
              case Opcode::VSub:
              case Opcode::VMul:
              case Opcode::VMax:
              case Opcode::VMin:
                for (unsigned l = 0; l < lanes; ++l) {
                    double x = regs.vlane(inst.a, l);
                    double y = regs.vlane(inst.b, l);
                    double r = 0.0;
                    switch (inst.op) {
                      case Opcode::VAdd: r = x + y; break;
                      case Opcode::VSub: r = x - y; break;
                      case Opcode::VMul: r = x * y; break;
                      case Opcode::VMax: r = std::max(x, y); break;
                      default: r = std::min(x, y); break;
                    }
                    regs.setVlane(inst.dst, l,
                                  dtypeQuantize(inst.dtype, r));
                }
                result.laneOps += lanes;
                break;
              case Opcode::VMac:
                for (unsigned l = 0; l < lanes; ++l) {
                    double r = regs.vlane(inst.dst, l) +
                               regs.vlane(inst.a, l) *
                                   regs.vlane(inst.b, l);
                    regs.setVlane(inst.dst, l,
                                  dtypeQuantize(inst.dtype, r));
                }
                result.laneOps += lanes;
                result.macs += lanes;
                break;
              case Opcode::VRelu:
                for (unsigned l = 0; l < lanes; ++l)
                    regs.setVlane(inst.dst, l,
                                  std::max(0.0, regs.vlane(inst.a, l)));
                result.laneOps += lanes;
                break;
              case Opcode::VRedSum: {
                double sum = 0.0;
                for (unsigned l = 0; l < lanes; ++l)
                    sum += regs.vlane(inst.a, l);
                regs.setSreg(inst.dst, dtypeQuantize(inst.dtype, sum));
                result.laneOps += lanes;
                break;
              }
              case Opcode::SpuApply: {
                for (unsigned l = 0; l < lanes; ++l)
                    regs.setVlane(inst.dst, l,
                                  spu_.evaluate(inst.spuFunc,
                                                regs.vlane(inst.a, l),
                                                inst.dtype));
                result.laneOps += lanes;
                double per_cycle =
                    Spu::resultsPerCycle(inst.dtype, config_.dtu2);
                spuBusyUntil_ =
                    cycle + static_cast<double>(lanes) / per_cycle;
                break;
              }
              case Opcode::MLoadRow: {
                auto row = static_cast<unsigned>(regs.sreg(inst.b));
                regs.mloadRow(inst.dst, row,
                              regs.vread(inst.a,
                                         regs.geometry().maxLanes));
                break;
              }
              case Opcode::MZeroAcc:
                regs.accZero(inst.dst);
                break;
              case Opcode::Vmm: {
                matrix_.executeVmm(regs, inst);
                double op_cycles = matrix_.vmmCycles(
                    static_cast<unsigned>(inst.vmmRows), inst.dtype);
                matrixBusyUntil_ = cycle + op_cycles;
                result.macs += static_cast<double>(inst.vmmRows) * lanes;
                break;
              }
              case Opcode::MReadAcc:
                for (unsigned l = 0; l < regs.geometry().maxLanes; ++l)
                    regs.setVlane(inst.dst, l, regs.aclane(inst.a, l));
                break;
              case Opcode::MRelMatrix: {
                std::vector<double> input = regs.vread(inst.a, lanes);
                auto rel = MatrixEngine::relationshipMatrix(input);
                for (unsigned r = 0; r < lanes; ++r)
                    for (unsigned c = 0; c < lanes; ++c)
                        regs.setMelem(inst.dst, r, c, rel[r][c]);
                matrixBusyUntil_ =
                    cycle + matrix_.vmmCycles(std::min(lanes, 16u),
                                              inst.dtype);
                break;
              }
              case Opcode::MOrderVec: {
                // Lane i receives the rank of input element i: the
                // count of elements that precede it, i.e. the sum of
                // relationship-matrix row i.
                for (unsigned r = 0; r < lanes; ++r) {
                    double sum = 0.0;
                    for (unsigned c = 0; c < lanes; ++c)
                        sum += regs.melem(inst.a, r, c);
                    regs.setVlane(inst.dst, r, sum);
                }
                break;
              }
              case Opcode::MPermMatrix: {
                std::vector<double> order = regs.vread(inst.a, lanes);
                auto perm = MatrixEngine::permutationMatrix(order);
                for (unsigned r = 0; r < lanes; ++r)
                    for (unsigned c = 0; c < lanes; ++c)
                        regs.setMelem(inst.dst, r, c, perm[r][c]);
                break;
              }
              case Opcode::Prefetch:
                if (icache_) {
                    // Size is resolved by the runtime's kernel table
                    // in operator-phase mode; standalone kernels
                    // prefetch a buffer-sized block.
                    icache_->prefetchAt(abs_tick(cycle),
                                        static_cast<int>(inst.imm),
                                        icache_->capacity());
                }
                break;
              case Opcode::DmaConfig:
                // Configuration cost is charged by the engine when
                // the transaction launches.
                break;
              case Opcode::DmaLaunch: {
                fatalIf(!dma_, "DmaLaunch on core '", name(),
                        "' without a DMA engine");
                auto id = static_cast<std::size_t>(inst.imm);
                fatalIf(id >= descriptors_.size(),
                        "DMA descriptor ", id, " out of range");
                DmaResult dres =
                    dma_->submitAt(abs_tick(cycle), descriptors_[id]);
                if (sync_) {
                    sync_->signalAt(dmaCompletionSemBase +
                                        static_cast<int>(id),
                                    dres.done);
                }
                break;
              }
              case Opcode::SyncSet:
                fatalIf(!sync_, "SyncSet without a sync engine");
                sync_->signalAt(static_cast<int>(inst.imm),
                                abs_tick(cycle));
                break;
              case Opcode::SyncWait: {
                fatalIf(!sync_, "SyncWait without a sync engine");
                Tick now = abs_tick(cycle);
                Tick released = sync_->waitUntil(
                    static_cast<int>(inst.imm),
                    static_cast<unsigned>(inst.a), now);
                result.syncStallTicks += released - now;
                cycle += static_cast<double>(released - now) /
                         static_cast<double>(period);
                break;
              }
              case Opcode::BranchNe:
                if (regs.sreg(inst.a) != regs.sreg(inst.b))
                    next_pc = static_cast<std::size_t>(inst.imm);
                break;
              case Opcode::Halt:
                halted = true;
                break;
            }
        }
        pc = next_pc;
    }

    // Power-integrity throttling: the LPME inserts bubbles
    // proportionally to issued cycles.
    if (throttle_ > 0.0) {
        auto bubbles = static_cast<Cycles>(cycle * throttle_ + 0.5);
        cycle += static_cast<double>(bubbles);
        result.throttleCycles = bubbles;
    }

    result.cycles = static_cast<Cycles>(std::ceil(cycle));
    Tick refill = icache_ ? icache_->refillStall(kernel.codeBytes()) : 0;
    result.endTick = code_ready + result.cycles * period + refill;

    statPackets_ += static_cast<double>(result.packets);
    statInstructions_ += static_cast<double>(result.instructions);
    statCycles_ += static_cast<double>(result.cycles);
    statIssueCycles_ += static_cast<double>(result.issueCycles);
    statBankStalls_ += static_cast<double>(result.bankStallCycles);
    statStructStalls_ += static_cast<double>(result.structuralStallCycles);
    statThrottleCycles_ += static_cast<double>(result.throttleCycles);
    statSyncStallTicks_ += static_cast<double>(result.syncStallTicks);
    statMacs_ += result.macs;
    return result;
}

void
ComputeCore::creditStats(double cycles, double macs, double throttle_cycles)
{
    statCycles_ += cycles;
    statIssueCycles_ += std::max(0.0, cycles - throttle_cycles);
    statThrottleCycles_ += throttle_cycles;
    statMacs_ += macs;
}

} // namespace dtu
