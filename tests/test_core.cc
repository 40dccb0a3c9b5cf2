/**
 * @file
 * Tests for the compute core: register files and bank conflicts, the
 * VLIW pipeline executing microkernels, the matrix engine's VMM and
 * sorting facilities, and the SPU's accuracy on all supported
 * transcendental functions.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "api/server.hh"
#include "core/compute_core.hh"
#include "core/matrix_engine.hh"
#include "core/register_file.hh"
#include "core/spu.hh"
#include "isa/assembler.hh"
#include "serve/arrival.hh"
#include "sim/random.hh"

namespace dtu
{

/** Reads which table set a Spu evaluates from. */
struct SpuProbe
{
    static const void *tables(const Spu &spu) { return spu.tables_; }
};

} // namespace dtu

namespace
{

using namespace dtu;

//
// Register file
//

TEST(RegisterFile, GeometryMatchesPaper)
{
    RegFileGeometry g;
    EXPECT_EQ(g.vectorRegs, 32u);   // 32 x 512-bit vector registers
    EXPECT_EQ(g.matrixRegs, 2u);    // 2 matrix registers 32x512-bit
    EXPECT_EQ(g.matrixRows, 32u);
    EXPECT_EQ(g.accRegs, 1024u);    // 1024 accumulation registers
}

TEST(RegisterFile, VectorLanesPerDtype)
{
    EXPECT_EQ(vectorLanes(DType::FP32), 16u);
    EXPECT_EQ(vectorLanes(DType::FP16), 32u);
    EXPECT_EQ(vectorLanes(DType::INT8), 64u);
}

TEST(RegisterFile, ScalarAndVectorStorage)
{
    RegisterFile regs;
    regs.setSreg(3, 42.5);
    EXPECT_DOUBLE_EQ(regs.sreg(3), 42.5);
    regs.setVlane(7, 15, -1.25);
    EXPECT_DOUBLE_EQ(regs.vlane(7, 15), -1.25);
    EXPECT_THROW(regs.sreg(64), PanicError);
    EXPECT_THROW(regs.vlane(32, 0), PanicError);
}

TEST(RegisterFile, AccZeroClears)
{
    RegisterFile regs;
    regs.setAclane(1000, 5, 9.0);
    regs.accZero(1000);
    EXPECT_DOUBLE_EQ(regs.aclane(1000, 5), 0.0);
    EXPECT_THROW(regs.accZero(1024), PanicError);
}

TEST(RegisterFile, BankConflictDetection)
{
    RegisterFile regs; // 4 banks: reg % 4
    Packet conflict;
    conflict.slots.push_back({.op = Opcode::VAdd, .dst = 2, .a = 0, .b = 4});
    EXPECT_EQ(regs.bankConflictStalls(conflict), 1u); // v0,v4 same bank

    Packet clean;
    clean.slots.push_back({.op = Opcode::VAdd, .dst = 2, .a = 0, .b = 1});
    EXPECT_EQ(regs.bankConflictStalls(clean), 0u);
}

TEST(RegisterFile, ConflictAcrossSlots)
{
    RegisterFile regs;
    Packet packet;
    packet.slots.push_back({.op = Opcode::VRelu, .dst = 2, .a = 0});
    packet.slots.push_back(
        {.op = Opcode::SpuApply, .dst = 3, .a = 8}); // v8: bank 0 again
    EXPECT_EQ(regs.bankConflictStalls(packet), 1u);
}

//
// SPU
//

class SpuAccuracy : public ::testing::TestWithParam<SpuFunc>
{};

TEST_P(SpuAccuracy, WithinInferenceTolerance)
{
    Spu spu;
    SpuFunc f = GetParam();
    double lo = -6.0, hi = 6.0;
    if (f == SpuFunc::Log || f == SpuFunc::Rsqrt) {
        lo = 0.05;
        hi = 100.0;
    } else if (f == SpuFunc::Gelu) {
        // The deep negative tail underflows toward zero through the
        // cancellation x*(1+erf(x/sqrt2)); relative error there is
        // meaningless at FP16 scale, so measure the active region.
        lo = -4.0;
        hi = 6.0;
    }
    // FP16 inference needs ~1e-3 relative accuracy; the LUT+Taylor
    // path must be far better than that so accumulation stays clean.
    EXPECT_LT(spu.maxRelativeError(f, lo, hi, 4000), 5e-4)
        << "function " << spuFuncName(f);
}

INSTANTIATE_TEST_SUITE_P(
    AllFunctions, SpuAccuracy,
    ::testing::Values(SpuFunc::Exp, SpuFunc::Log, SpuFunc::Tanh,
                      SpuFunc::Sigmoid, SpuFunc::Gelu, SpuFunc::Swish,
                      SpuFunc::Softplus, SpuFunc::Erf, SpuFunc::Rsqrt,
                      SpuFunc::Sin),
    [](const ::testing::TestParamInfo<SpuFunc> &info) {
        return spuFuncName(info.param);
    });

TEST(Spu, SaturationBehaviour)
{
    Spu spu;
    EXPECT_DOUBLE_EQ(spu.evaluate(SpuFunc::Tanh, 50.0), 1.0);
    EXPECT_DOUBLE_EQ(spu.evaluate(SpuFunc::Tanh, -50.0), -1.0);
    EXPECT_DOUBLE_EQ(spu.evaluate(SpuFunc::Sigmoid, 40.0), 1.0);
    EXPECT_DOUBLE_EQ(spu.evaluate(SpuFunc::Sigmoid, -40.0), 0.0);
    EXPECT_DOUBLE_EQ(spu.evaluate(SpuFunc::Softplus, 30.0), 30.0);
}

TEST(Spu, ExpRangeReductionCoversWideRange)
{
    Spu spu;
    for (double x : {-20.0, -3.7, 0.0, 1.0, 12.5, 30.0}) {
        double want = std::exp(x);
        EXPECT_NEAR(spu.evaluate(SpuFunc::Exp, x) / want, 1.0, 1e-4)
            << "x=" << x;
    }
}

TEST(Spu, RejectsInvalidDomain)
{
    Spu spu;
    EXPECT_THROW(spu.evaluate(SpuFunc::Log, -1.0), FatalError);
    EXPECT_THROW(spu.evaluate(SpuFunc::Rsqrt, 0.0), FatalError);
}

TEST(Spu, ThroughputImprovedOnDtu2)
{
    // Table II: "The throughput of the SFU is improved."
    EXPECT_GT(Spu::resultsPerCycle(DType::FP32, true),
              Spu::resultsPerCycle(DType::FP32, false));
    EXPECT_EQ(Spu::resultsPerCycle(DType::FP16, true), 32u);
}

TEST(Spu, QuantizedEvaluationRoundsToDtype)
{
    Spu spu;
    double full = spu.evaluate(SpuFunc::Tanh, 0.73);
    double half = spu.evaluate(SpuFunc::Tanh, 0.73, DType::FP16);
    EXPECT_NEAR(half, full, 1e-3);
    EXPECT_DOUBLE_EQ(half, dtypeQuantize(DType::FP16, half));
}

//
// Matrix engine
//

TEST(MatrixEngine, SupportedShapesPerPaper)
{
    MatrixEngine vmm(false);
    // FP32: 16x16, 8x16, 4x16 (Section IV-A1).
    EXPECT_TRUE(vmm.supports(16, DType::FP32));
    EXPECT_TRUE(vmm.supports(8, DType::FP32));
    EXPECT_TRUE(vmm.supports(4, DType::FP32));
    EXPECT_FALSE(vmm.supports(32, DType::FP32));
    EXPECT_TRUE(vmm.supports(32, DType::FP16));
    EXPECT_FALSE(vmm.supports(5, DType::FP32));
}

TEST(MatrixEngine, MoreThan40Patterns)
{
    // Table II: "More than 40 VMM patterns supported."
    EXPECT_GT(MatrixEngine::supportedPatterns().size(), 40u);
}

TEST(MatrixEngine, GemmModeOnlySupportsFullTiles)
{
    MatrixEngine gemm(true);
    EXPECT_TRUE(gemm.supports(16, DType::FP32));
    EXPECT_FALSE(gemm.supports(4, DType::FP32));
}

TEST(MatrixEngine, SkinnyShapesCheaperWithVmm)
{
    MatrixEngine vmm(false);
    MatrixEngine gemm(true);
    // A 4-row VMM costs a quarter of a full tile on DTU 2.0 but a
    // full tile on the DTU 1.0 GEMM engine (normalizing away the
    // 2x throughput difference between the engines).
    double vmm_ratio = vmm.vmmCycles(4, DType::FP32) /
                       vmm.vmmCycles(16, DType::FP32);
    double gemm_ratio = gemm.vmmCycles(4, DType::FP32) /
                        gemm.vmmCycles(16, DType::FP32);
    EXPECT_DOUBLE_EQ(vmm_ratio, 0.25);
    EXPECT_DOUBLE_EQ(gemm_ratio, 1.0);
}

TEST(MatrixEngine, MacThroughputMatchesTableI)
{
    // 24 cores x macs/cycle x 2 flops x 1.3 GHz ~= Table I peaks.
    double fp32 = 24 * MatrixEngine::macsPerCycle(DType::FP32, true) * 2 *
                  1.3e9;
    double fp16 = 24 * MatrixEngine::macsPerCycle(DType::FP16, true) * 2 *
                  1.3e9;
    double int8 = 24 * MatrixEngine::macsPerCycle(DType::INT8, true) * 2 *
                  1.3e9;
    EXPECT_NEAR(fp32 / 32e12, 1.0, 0.02);
    EXPECT_NEAR(fp16 / 128e12, 1.0, 0.02);
    EXPECT_NEAR(int8 / 256e12, 1.0, 0.02);
}

TEST(MatrixEngine, VmmMatchesReferenceGemv)
{
    RegisterFile regs;
    MatrixEngine engine(false);
    Random rng(5);
    const unsigned rows = 8, lanes = 16;
    std::vector<double> vec(rows), mat(rows * lanes);
    for (auto &v : vec)
        v = rng.uniform(-1, 1);
    for (auto &m : mat)
        m = rng.uniform(-1, 1);
    for (unsigned r = 0; r < rows; ++r) {
        regs.setVlane(0, r, vec[r]);
        for (unsigned c = 0; c < lanes; ++c)
            regs.setMelem(0, r, c, mat[r * lanes + c]);
    }
    regs.accZero(0);
    Instruction inst{.op = Opcode::Vmm, .dst = 0, .a = 0, .b = 0,
                     .vmmRows = rows, .accumulate = true,
                     .dtype = DType::FP32};
    engine.executeVmm(regs, inst);
    for (unsigned c = 0; c < lanes; ++c) {
        double want = 0.0;
        for (unsigned r = 0; r < rows; ++r)
            want += vec[r] * mat[r * lanes + c];
        EXPECT_NEAR(regs.aclane(0, c), want, 1e-5) << "lane " << c;
    }
}

TEST(MatrixEngine, VmmAccumulatesAcrossCalls)
{
    RegisterFile regs;
    MatrixEngine engine(false);
    regs.setVlane(0, 0, 2.0);
    regs.setMelem(0, 0, 0, 3.0);
    regs.accZero(0);
    Instruction inst{.op = Opcode::Vmm, .dst = 0, .a = 0, .b = 0,
                     .vmmRows = 4, .accumulate = true,
                     .dtype = DType::FP32};
    engine.executeVmm(regs, inst);
    engine.executeVmm(regs, inst);
    EXPECT_DOUBLE_EQ(regs.aclane(0, 0), 12.0);
    inst.accumulate = false; // overwrite mode
    engine.executeVmm(regs, inst);
    EXPECT_DOUBLE_EQ(regs.aclane(0, 0), 6.0);
}

//
// Sorting facility (Fig. 4)
//

TEST(Sorting, RelationshipMatrixCountsPredecessors)
{
    // Paper example-style vector with a duplicate.
    std::vector<double> input = {3, 1, 2, 1};
    auto rel = MatrixEngine::relationshipMatrix(input);
    auto order = MatrixEngine::orderVector(rel);
    // Ranks: 3 -> 3, first 1 -> 0, 2 -> 2, second 1 -> 1.
    EXPECT_EQ(order, (std::vector<double>{3, 0, 2, 1}));
}

TEST(Sorting, PermutationMatrixHasOneHotRows)
{
    std::vector<double> order = {2, 0, 1};
    auto perm = MatrixEngine::permutationMatrix(order);
    for (std::size_t i = 0; i < 3; ++i) {
        double sum = 0.0;
        for (std::size_t j = 0; j < 3; ++j)
            sum += perm[i][j];
        EXPECT_DOUBLE_EQ(sum, 1.0);
        EXPECT_DOUBLE_EQ(perm[i][static_cast<std::size_t>(order[i])], 1.0);
    }
}

TEST(Sorting, SortsAscending)
{
    std::vector<double> input = {5, -2, 9, 0, 3.5};
    auto sorted = MatrixEngine::sortVector(input);
    auto want = input;
    std::sort(want.begin(), want.end());
    EXPECT_EQ(sorted, want);
}

TEST(Sorting, HandlesAllEqualElements)
{
    std::vector<double> input(16, 7.0);
    auto sorted = MatrixEngine::sortVector(input);
    EXPECT_EQ(sorted, input);
}

TEST(Sorting, TopKDescending)
{
    std::vector<double> input = {1, 9, 4, 7, 2};
    auto top3 = MatrixEngine::topK(input, 3);
    EXPECT_EQ(top3, (std::vector<double>{9, 7, 4}));
    EXPECT_THROW(MatrixEngine::topK(input, 6), FatalError);
}

class SortingProperty : public ::testing::TestWithParam<int>
{};

TEST_P(SortingProperty, MatchesStdSort)
{
    Random rng(static_cast<std::uint64_t>(GetParam()));
    auto n = static_cast<std::size_t>(rng.between(1, 32));
    std::vector<double> input(n);
    for (auto &v : input)
        v = rng.between(-4, 4); // small domain forces duplicates
    auto sorted = MatrixEngine::sortVector(input);
    auto want = input;
    std::sort(want.begin(), want.end());
    EXPECT_EQ(sorted, want);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SortingProperty, ::testing::Range(0, 25));

//
// Compute core running microkernels
//

struct CoreHarness
{
    EventQueue queue;
    StatRegistry stats;
    ClockDomain clock{queue, 1.3e9};
    CoreConfig config;
    ComputeCore core;

    explicit CoreHarness(bool dtu2 = true)
        : config{.regs = {}, .dtu2 = dtu2, .l1Bytes = 1_MiB},
          core("test.core", queue, &stats, clock, config)
    {}
};

TEST(ComputeCore, VectorAddKernel)
{
    CoreHarness h;
    for (unsigned i = 0; i < 16; ++i) {
        h.core.setL1Word(i, i);
        h.core.setL1Word(100 + i, 2.0 * i);
    }
    Assembler as("vadd16");
    as.sli(0, 0).sli(1, 100).sli(2, 200);
    as.vload(10, 0).vload(11, 1);
    as.vadd(12, 10, 11);
    as.vstore(12, 2);
    Kernel kernel = as.finish();
    RunResult r = h.core.run(kernel);
    for (unsigned i = 0; i < 16; ++i)
        EXPECT_DOUBLE_EQ(h.core.l1Word(200 + i), 3.0 * i);
    EXPECT_GT(r.cycles, 0u);
    EXPECT_EQ(r.packets, 8u); // 7 + halt
}

TEST(ComputeCore, LoopWithBranch)
{
    CoreHarness h;
    // Sum 1..10 in s2 via a bne loop.
    Assembler as("loop");
    as.sli(0, 0);   // i
    as.sli(1, 10);  // limit
    as.sli(2, 0);   // acc
    auto top = as.here();
    as.saddi(0, 0, 1);
    as.sadd(2, 2, 0);
    as.bne(0, 1, top);
    Kernel kernel = as.finish();
    h.core.run(kernel);
    EXPECT_DOUBLE_EQ(h.core.regs().sreg(2), 55.0);
}

TEST(ComputeCore, RunawayLoopIsCaught)
{
    CoreHarness h;
    h.core.run(Assembler("ok").finish()); // sanity
    CoreConfig tight = h.config;
    tight.maxPackets = 100;
    ComputeCore small("test.small", h.queue, nullptr, h.clock, tight);
    Assembler as("forever");
    as.sli(0, 0).sli(1, 1);
    auto top = as.here();
    as.bne(0, 1, top); // never equal
    EXPECT_THROW(small.run(as.finish()), FatalError);
}

TEST(ComputeCore, SpuKernelComputesTanh)
{
    CoreHarness h;
    for (unsigned i = 0; i < 16; ++i)
        h.core.setL1Word(i, -2.0 + 0.25 * i);
    Assembler as("tanh");
    as.sli(0, 0).vload(1, 0).spu(SpuFunc::Tanh, 2, 1).sli(3, 50)
        .vstore(2, 3);
    h.core.run(as.finish());
    for (unsigned i = 0; i < 16; ++i) {
        EXPECT_NEAR(h.core.l1Word(50 + i), std::tanh(-2.0 + 0.25 * i),
                    1e-3);
    }
}

TEST(ComputeCore, VmmKernelEndToEnd)
{
    CoreHarness h;
    // v0 = input vector (4 lanes used), m0 rows via mloadrow.
    Assembler as("vmm");
    as.vli(0, 2.0); // all lanes 2.0
    as.vli(1, 0.5); // matrix rows all 0.5
    for (int row = 0; row < 4; ++row)
        as.sli(4, row).mloadrow(0, 1, 4);
    as.mzeroacc(7);
    as.vmm(7, 0, 0, 4, true, DType::FP32);
    as.mreadacc(9, 7);
    Kernel kernel = as.finish();
    h.core.run(kernel);
    // Each output lane: sum over 4 rows of 2.0 * 0.5 = 4.0.
    for (unsigned c = 0; c < 16; ++c)
        EXPECT_DOUBLE_EQ(h.core.regs().vlane(9, c), 4.0);
}

TEST(ComputeCore, BankConflictsCostCycles)
{
    CoreHarness h;
    Assembler conflict("conflict");
    conflict.vli(0, 1.0).vli(4, 2.0);
    for (int i = 0; i < 50; ++i)
        conflict.vadd(2, 0, 4); // v0 and v4 share bank 0
    RunResult bad = h.core.run(conflict.finish());

    Assembler clean("clean");
    clean.vli(0, 1.0).vli(1, 2.0);
    for (int i = 0; i < 50; ++i)
        clean.vadd(2, 0, 1);
    RunResult good = h.core.run(clean.finish());

    EXPECT_EQ(bad.bankStallCycles, 50u);
    EXPECT_EQ(good.bankStallCycles, 0u);
    EXPECT_GT(bad.cycles, good.cycles);
}

TEST(ComputeCore, ThrottleStretchesExecution)
{
    CoreHarness h;
    Assembler as("work");
    for (int i = 0; i < 100; ++i)
        as.vadd(2, 0, 1);
    Kernel kernel = as.finish();
    RunResult base = h.core.run(kernel);
    h.core.setThrottle(0.5);
    RunResult throttled = h.core.run(kernel);
    EXPECT_NEAR(static_cast<double>(throttled.cycles),
                1.5 * static_cast<double>(base.cycles), 2.0);
    EXPECT_GT(throttled.throttleCycles, 0u);
}

TEST(ComputeCore, SortingKernelViaMatrixOps)
{
    CoreHarness h;
    std::vector<double> input = {4, 1, 3, 2, 8, 6, 5, 7,
                                 12, 9, 11, 10, 16, 13, 15, 14};
    for (unsigned i = 0; i < 16; ++i)
        h.core.setL1Word(i, input[i]);
    Assembler as("sort16");
    as.sli(0, 0).vload(1, 0);
    as.mrel(0, 1);      // relationship matrix
    as.morder(2, 0);    // order vector
    as.mperm(1, 2);     // permutation matrix
    as.mzeroacc(0);
    as.vmm(0, 1, 1, 16, true, DType::FP32);
    as.mreadacc(3, 0);
    as.sli(4, 32).vstore(3, 4);
    h.core.run(as.finish());
    for (unsigned i = 0; i < 16; ++i)
        EXPECT_DOUBLE_EQ(h.core.l1Word(32 + i), i + 1.0);
}

//
// Functional state is built on first use
//

TEST(ComputeCore, FreshCoreReadsZeroWithoutMaterializing)
{
    CoreHarness h;
    const std::uint64_t words = h.config.l1Bytes / 4;
    EXPECT_FALSE(h.core.materialized());
    EXPECT_EQ(h.core.l1Word(0), 0.0);
    EXPECT_EQ(h.core.l1Word(words - 1), 0.0);
    EXPECT_THROW(h.core.l1Word(words), PanicError);
    EXPECT_THROW(h.core.setL1Word(words, 1.0), PanicError);
    EXPECT_FALSE(h.core.materialized());

    h.core.setL1Word(words - 1, 2.5);
    EXPECT_TRUE(h.core.materialized());
    EXPECT_EQ(h.core.l1Word(words - 1), 2.5);
    EXPECT_EQ(h.core.l1Word(0), 0.0);
    EXPECT_EQ(h.core.regs().sreg(0), 0.0);
}

TEST(ComputeCore, RunOnServedChipMatchesFreshChip)
{
    serve::FleetConfig config;
    config.devices = 2;
    config.threads = 2;
    FleetServer fleet(config);
    fleet.submit(serve::poissonTrace("resnet50", 4000.0, 32, /*seed=*/5));
    ASSERT_EQ(fleet.serveFleet().fleet.requests, 32u);
    // Serving models compute analytically: no core built ISA state.
    for (unsigned d = 0; d < fleet.size(); ++d) {
        Dtu &chip = fleet.device(d).chip();
        for (unsigned c = 0; c < chip.totalCores(); ++c)
            EXPECT_FALSE(chip.core(c).materialized()) << "core " << c;
    }

    // L1, vector, SPU and matrix work, started after the serve's
    // watermark so its instruction fetch books in the open timeline.
    Dtu &served = fleet.device(0).chip();
    const Tick start = secondsToTicks(1.0);
    ASSERT_LT(served.eventQueue().ledgerWatermark(), start);
    auto run = [](ComputeCore &core, Tick at) {
        for (unsigned i = 0; i < 16; ++i)
            core.setL1Word(i, -2.0 + 0.25 * i);
        Assembler as("mixed");
        as.sli(0, 0).vload(1, 0).spu(SpuFunc::Tanh, 2, 1);
        as.vli(3, 0.5).vmac(2, 1, 3);
        for (int row = 0; row < 4; ++row)
            as.sli(4, row).mloadrow(0, 2, 4);
        as.mzeroacc(5).vmm(5, 1, 0, 4, true, DType::FP32).mreadacc(6, 5);
        as.sli(7, 64).vstore(6, 7);
        RunResult r = core.run(as.finish(), 0, at);
        std::vector<double> out;
        for (unsigned i = 0; i < 16; ++i)
            out.push_back(core.l1Word(64 + i));
        return std::make_pair(r, out);
    };
    Dtu fresh(dtu2Config());
    const auto [want, want_out] = run(fresh.core(0), start);
    const auto [got, got_out] = run(served.core(0), start);
    EXPECT_EQ(got.startTick, want.startTick);
    EXPECT_EQ(got.endTick, want.endTick);
    EXPECT_EQ(got.cycles, want.cycles);
    EXPECT_EQ(got.issueCycles, want.issueCycles);
    EXPECT_EQ(got.bankStallCycles, want.bankStallCycles);
    EXPECT_EQ(got.structuralStallCycles, want.structuralStallCycles);
    EXPECT_EQ(got.throttleCycles, want.throttleCycles);
    EXPECT_EQ(got.icacheStallTicks, want.icacheStallTicks);
    EXPECT_EQ(got.syncStallTicks, want.syncStallTicks);
    EXPECT_EQ(got.packets, want.packets);
    EXPECT_EQ(got.instructions, want.instructions);
    EXPECT_EQ(got.macs, want.macs);
    EXPECT_EQ(got.laneOps, want.laneOps);
    EXPECT_EQ(got_out, want_out);
    EXPECT_NE(want_out, std::vector<double>(16, 0.0));

    // From tick 0 the same run waits for the watermark on its first
    // instruction fetch, and computes the same values.
    const auto [late, late_out] = run(served.core(1), 0);
    EXPECT_GT(late.endTick, served.eventQueue().ledgerWatermark());
    EXPECT_EQ(late.instructions, want.instructions);
    EXPECT_EQ(late_out, want_out);
}

TEST(Spu, InstancesShareOneTableSet)
{
    const Spu a;
    const Spu b;
    const Spu coarse(16);
    const Spu coarse_too(16);
    // One immutable set per table size, shared by every instance.
    EXPECT_EQ(SpuProbe::tables(a), SpuProbe::tables(b));
    EXPECT_EQ(SpuProbe::tables(coarse), SpuProbe::tables(coarse_too));
    EXPECT_NE(SpuProbe::tables(a), SpuProbe::tables(coarse));
}

} // namespace
