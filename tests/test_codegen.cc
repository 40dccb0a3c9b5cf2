/**
 * @file
 * Tests for the microkernel code generator: functional correctness
 * of generated elementwise chains against the host reference, and
 * the measurable benefit of the VLIW packetizer and the bank-aware
 * register allocator.
 */

#include <gtest/gtest.h>

#include "sim/logging.hh"

#include <cmath>

#include "compiler/codegen.hh"
#include "core/compute_core.hh"
#include "sim/random.hh"

namespace
{

using namespace dtu;

struct CodegenRig
{
    ClockDomain clock{1.3e9};
    CoreConfig config;
    ComputeCore core{"codegen.core", nullptr, clock, config};
    Random rng{314};

    /** Fill a/b streams, run the kernel, and validate every lane. */
    RunResult
    runAndCheck(const std::vector<ElementwiseStage> &stages,
                CodegenOptions options, unsigned tiles = 8)
    {
        ElementwiseLayout layout;
        layout.tiles = tiles;
        std::vector<double> a(tiles * 16), b(tiles * 16);
        for (unsigned i = 0; i < tiles * 16; ++i) {
            a[i] = rng.uniform(-2, 2);
            b[i] = rng.uniform(-2, 2);
            core.setL1Word(layout.aBase + i, a[i]);
            core.setL1Word(layout.bBase + i, b[i]);
        }
        Kernel kernel =
            generateElementwiseKernel("chain", stages, layout, options);
        RunResult result = core.run(kernel);
        for (unsigned i = 0; i < tiles * 16; ++i) {
            double want = elementwiseReference(stages, a[i], b[i]);
            // The core rounds every intermediate to FP32 while the
            // reference chains in double; LUT inputs shifted by one
            // FP32 ulp move SPU outputs by ~f' x eps x |x|.
            EXPECT_NEAR(core.l1Word(layout.outBase + i), want,
                        2e-6 + std::fabs(want) * 2e-6)
                << "lane " << i;
        }
        return result;
    }
};

TEST(Codegen, SingleReluChain)
{
    CodegenRig rig;
    rig.runAndCheck({{ElementwiseStage::Kind::Relu}}, {});
}

TEST(Codegen, FusedMulAddGeluChain)
{
    CodegenRig rig;
    std::vector<ElementwiseStage> chain = {
        {ElementwiseStage::Kind::MulAux},
        {ElementwiseStage::Kind::AddAux},
        {ElementwiseStage::Kind::Spu, SpuFunc::Gelu},
    };
    rig.runAndCheck(chain, {});
}

TEST(Codegen, AuxFreeChainSkipsBStream)
{
    CodegenRig rig;
    std::vector<ElementwiseStage> chain = {
        {ElementwiseStage::Kind::Spu, SpuFunc::Tanh},
        {ElementwiseStage::Kind::Relu},
    };
    rig.runAndCheck(chain, {});
}

TEST(Codegen, CorrectWithEveryOptionCombination)
{
    std::vector<ElementwiseStage> chain = {
        {ElementwiseStage::Kind::AddAux},
        {ElementwiseStage::Kind::Relu},
        {ElementwiseStage::Kind::Spu, SpuFunc::Sigmoid},
        {ElementwiseStage::Kind::MulAux},
    };
    for (bool pack : {false, true}) {
        for (bool banks : {false, true}) {
            CodegenRig rig;
            rig.runAndCheck(chain,
                            {.packetize = pack,
                             .avoidBankConflicts = banks});
        }
    }
}

TEST(Codegen, PacketizerSavesCycles)
{
    std::vector<ElementwiseStage> chain = {
        {ElementwiseStage::Kind::MulAux},
        {ElementwiseStage::Kind::AddAux},
        {ElementwiseStage::Kind::Relu},
    };
    CodegenRig packed_rig, unpacked_rig;
    RunResult packed = packed_rig.runAndCheck(
        chain, {.packetize = true, .avoidBankConflicts = true}, 32);
    RunResult unpacked = unpacked_rig.runAndCheck(
        chain, {.packetize = false, .avoidBankConflicts = true}, 32);
    EXPECT_LT(packed.cycles, unpacked.cycles);
    EXPECT_LT(packed.packets, unpacked.packets);
}

TEST(Codegen, RegisterAllocatorAvoidsBankStalls)
{
    std::vector<ElementwiseStage> chain = {
        {ElementwiseStage::Kind::MulAux},
        {ElementwiseStage::Kind::AddAux},
    };
    CodegenRig clean_rig, naive_rig;
    RunResult clean = clean_rig.runAndCheck(
        chain, {.packetize = true, .avoidBankConflicts = true}, 32);
    RunResult naive = naive_rig.runAndCheck(
        chain, {.packetize = true, .avoidBankConflicts = false}, 32);
    EXPECT_EQ(clean.bankStallCycles, 0u);
    EXPECT_GT(naive.bankStallCycles, 0u);
    EXPECT_LT(clean.cycles, naive.cycles);
}

TEST(Codegen, KernelCodeIsCompactLoop)
{
    // The generated kernel loops rather than unrolling: code size is
    // independent of the tile count.
    std::vector<ElementwiseStage> chain = {
        {ElementwiseStage::Kind::Relu}};
    ElementwiseLayout few, many;
    few.tiles = 2;
    many.tiles = 2000;
    Kernel small = generateElementwiseKernel("few", chain, few);
    Kernel large = generateElementwiseKernel("many", chain, many);
    EXPECT_EQ(small.codeBytes(), large.codeBytes());
}

TEST(Codegen, RejectsBadChains)
{
    EXPECT_THROW(generateElementwiseKernel("x", {}, {}), FatalError);
    std::vector<ElementwiseStage> huge(
        25, {ElementwiseStage::Kind::Relu});
    EXPECT_THROW(generateElementwiseKernel("x", huge, {}), FatalError);
    ElementwiseLayout layout;
    layout.tiles = 0;
    EXPECT_THROW(generateElementwiseKernel(
                     "x", {{ElementwiseStage::Kind::Relu}}, layout),
                 FatalError);
}

} // namespace
