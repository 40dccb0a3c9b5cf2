/**
 * @file
 * Writing a custom operator with the low-level DSL (the TopsEngine
 * story from Section V-B): a fused "scaled residual GELU" kernel
 *
 *     out[i] = gelu(a[i] * scale + b[i])
 *
 * written directly against the architecture — vector registers, the
 * SPU, VLIW packets — assembled with the Assembler, executed
 * functionally on a simulated compute core, and validated against a
 * host reference. Also demonstrates what the register allocator is
 * for: the same kernel with conflicting vector-register banks pays
 * measurable stall cycles.
 */

#include <cmath>
#include <cstdio>

#include "core/compute_core.hh"
#include "isa/assembler.hh"
#include "sim/random.hh"

using namespace dtu;

namespace
{

/** The custom kernel; @p conflicting picks same-bank registers. */
Kernel
scaledResidualGelu(unsigned vectors, bool conflicting)
{
    // Register plan: v1 = a-tile, b-tile in v6, scale in v2 — or in
    // v5, which shares a bank with v1 (5 % 4 == 1 % 4): the "bad
    // allocator" choice that makes vmul read two operands from one
    // bank in the same cycle.
    int vscale = conflicting ? 5 : 2;
    int vb = 6;
    Assembler as(conflicting ? "gelu_conflict" : "gelu");
    as.vli(vscale, 1.5); // broadcast scale
    as.sli(0, 0).sli(1, 4096).sli(2, 8192); // a, b, out pointers
    as.sli(3, 16); // pointer stride (one fp32 vector)
    for (unsigned i = 0; i < vectors; ++i) {
        as.vload(1, 0);
        as.vload(vb, 1);
        // One VLIW packet: multiply co-issued with pointer bump.
        as.pack().vmul(3, 1, vscale).sadd(0, 0, 3).endPack();
        // Co-issue pointer bumps with vector/SPU/store slots — one
        // instruction per functional unit per packet.
        as.pack().vadd(3, 3, vb).sadd(1, 1, 3).endPack();
        as.spu(SpuFunc::Gelu, 4, 3);
        as.pack().vstore(4, 2).sadd(2, 2, 3).endPack();
    }
    return as.finish();
}

} // namespace

int
main()
{
    StatRegistry stats;
    ClockDomain clock(1.3e9);
    CoreConfig config;
    ComputeCore core("example.core", &stats, clock, config);

    // Input tiles in L1: a at word 0, b at word 4096, out at 8192.
    constexpr unsigned vectors = 64; // 64 x 16 = 1024 elements
    Random rng(99);
    std::vector<double> a(vectors * 16), b(vectors * 16);
    for (unsigned i = 0; i < vectors * 16; ++i) {
        a[i] = rng.uniform(-2, 2);
        b[i] = rng.uniform(-2, 2);
        core.setL1Word(i, a[i]);
        core.setL1Word(4096 + i, b[i]);
    }

    Kernel kernel = scaledResidualGelu(vectors, false);
    std::printf("kernel '%s': %zu packets, %zu bytes of code\n",
                kernel.name().c_str(), kernel.size(),
                kernel.codeBytes());
    RunResult run = core.run(kernel);

    // Validate against the host reference.
    double worst = 0.0;
    for (unsigned i = 0; i < vectors * 16; ++i) {
        double x = a[i] * 1.5 + b[i];
        double want = 0.5 * x * (1.0 + std::erf(x / std::sqrt(2.0)));
        worst = std::max(worst,
                         std::fabs(core.l1Word(8192 + i) - want));
    }
    std::printf("max abs error vs host reference: %.2e "
                "(LUT + quadratic Taylor SPU)\n",
                worst);
    std::printf("execution: %llu cycles, %llu instructions, "
                "%llu bank-conflict stalls\n",
                static_cast<unsigned long long>(run.cycles),
                static_cast<unsigned long long>(run.instructions),
                static_cast<unsigned long long>(run.bankStallCycles));

    // The same kernel with a bank-conflicting register choice: this
    // is the pipeline stall the compiler's register allocator avoids
    // (Section V-B, "Register allocator").
    RunResult bad = core.run(scaledResidualGelu(vectors, true), 1);
    std::printf("\nwith conflicting registers (v1/v5 share a bank): "
                "%llu cycles (+%llu stalls)\n",
                static_cast<unsigned long long>(bad.cycles),
                static_cast<unsigned long long>(bad.bankStallCycles));
    std::printf("the register allocator buys %.1f%% here\n",
                100.0 * (static_cast<double>(bad.cycles) /
                             static_cast<double>(run.cycles) -
                         1.0));
    return 0;
}
