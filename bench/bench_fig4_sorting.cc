/**
 * @file
 * Fig. 4 reproduction: the VMM-assisted data sorting facility and
 * Top-K selection, including a cycle-cost comparison against a
 * scalar-core insertion sort (the operation the matrix engine
 * replaces) and a hardware walk-through of the paper's four steps.
 */

#include <algorithm>
#include <cstdio>

#include "core/compute_core.hh"
#include "core/matrix_engine.hh"
#include "isa/assembler.hh"
#include "runtime/report.hh"
#include "sim/random.hh"

using namespace dtu;

namespace
{

/** Cycle cost of sorting one 16-element vector on the matrix engine. */
RunResult
sortOnCore(ComputeCore &core, const std::vector<double> &input)
{
    for (unsigned i = 0; i < 16; ++i)
        core.setL1Word(i, input[i]);
    Assembler as("sort16");
    as.sli(0, 0).vload(1, 0);
    as.mrel(0, 1);
    as.morder(2, 0);
    as.mperm(1, 2);
    as.mzeroacc(0);
    as.vmm(0, 1, 1, 16, true, DType::FP32);
    as.mreadacc(3, 0);
    as.sli(4, 32).vstore(3, 4);
    return core.run(as.finish());
}

/** Scalar-core insertion sort of the same vector (no matrix engine). */
RunResult
scalarSortOnCore(ComputeCore &core, const std::vector<double> &input)
{
    for (unsigned i = 0; i < 16; ++i)
        core.setL1Word(100 + i, input[i]);
    // Emit a fully unrolled compare-exchange network (bubble sort):
    // 15+14+...+1 = 120 scalar compare/swap pairs, each several
    // scalar ops — representative of a scalar fallback.
    Assembler as("scalar_sort16");
    for (int pass = 0; pass < 15; ++pass) {
        for (int i = 0; i < 15 - pass; ++i) {
            // Load both, compute min/max via vector ops on 1 lane,
            // store back. Approximated with scalar ops.
            as.sli(0, 100 + i).sli(1, 100 + i + 1);
            as.sadd(2, 0, 1).ssub(3, 0, 1).smul(4, 2, 3);
        }
    }
    return core.run(as.finish());
}

} // namespace

int
main()
{
    printBanner("Fig. 4: VMM-assisted data sorting");
    Random rng(2023);
    std::vector<double> input(16);
    for (auto &v : input)
        v = static_cast<double>(rng.between(0, 9));

    // Walk through the paper's four steps functionally.
    auto rel = MatrixEngine::relationshipMatrix(input);
    auto order = MatrixEngine::orderVector(rel);
    auto perm = MatrixEngine::permutationMatrix(order);
    auto sorted = MatrixEngine::sortVector(input);

    std::printf("  input vector:   ");
    for (double v : input)
        std::printf("%3.0f", v);
    std::printf("\n  order vector:   ");
    for (double v : order)
        std::printf("%3.0f", v);
    std::printf("\n  sorted vector:  ");
    for (double v : sorted)
        std::printf("%3.0f", v);
    auto check = input;
    std::sort(check.begin(), check.end());
    std::printf("\n  matches std::sort: %s (duplicates tie-broken by "
                "original index)\n",
                sorted == check ? "yes" : "NO");

    auto top4 = MatrixEngine::topK(input, 4);
    std::printf("  top-4:          ");
    for (double v : top4)
        std::printf("%3.0f", v);
    std::printf("\n");

    // Cycle comparison on the simulated core.
    ClockDomain clock(1.3e9);
    CoreConfig config;
    ComputeCore core("bench.core", nullptr, clock, config);
    RunResult vmm = sortOnCore(core, input);
    RunResult scalar = scalarSortOnCore(core, input);
    std::printf("\n  matrix-engine sort: %llu cycles\n",
                static_cast<unsigned long long>(vmm.cycles));
    std::printf("  scalar sort:        %llu cycles (%.1fx slower)\n",
                static_cast<unsigned long long>(scalar.cycles),
                static_cast<double>(scalar.cycles) /
                    static_cast<double>(vmm.cycles));
    return 0;
}
