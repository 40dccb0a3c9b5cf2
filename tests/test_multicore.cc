/**
 * @file
 * Multi-core co-simulation through the synchronization engine and
 * kernel-level DMA: a producer core computes a tile, hands it off
 * through the sync engine; a consumer core waits, and DMA launched
 * from kernel code signals its completion semaphore.
 *
 * Cores are simulated sequentially in dependence order; the sync
 * engine's timestamped semaphores replay the timing interaction
 * (Section IV-D's 1-to-1 pattern at instruction granularity).
 */

#include <gtest/gtest.h>

#include "sim/logging.hh"

#include "isa/assembler.hh"
#include "soc/dtu.hh"

namespace
{

using namespace dtu;

TEST(MultiCore, ProducerConsumerThroughSyncEngine)
{
    Dtu chip(dtu2Config());
    ProcessingGroup &pg = chip.group(0);
    ComputeCore &producer = pg.core(0);
    ComputeCore &consumer = pg.core(1);

    // Producer: compute 100 vector adds, then signal semaphore 5.
    Assembler p("producer");
    p.vli(0, 1.0).vli(1, 2.0);
    for (int i = 0; i < 100; ++i)
        p.vadd(2, 0, 1);
    p.syncset(5);
    RunResult pr = producer.run(p.finish(), /*kernel_id=*/1, /*start=*/0);

    // Consumer: wait on semaphore 5, then do its own work.
    Assembler c("consumer");
    c.syncwait(5, 1);
    c.vli(0, 3.0);
    RunResult cr = consumer.run(c.finish(), /*kernel_id=*/2, /*start=*/0);

    // The consumer was released only after the producer signalled.
    EXPECT_GT(cr.syncStallTicks, 0u);
    EXPECT_GT(cr.endTick, pr.endTick - pg.sync().signalLatency());
    EXPECT_EQ(pg.sync().signalCount(5), 1u);
}

TEST(MultiCore, ConsumerStartedLateDoesNotStall)
{
    Dtu chip(dtu2Config());
    ProcessingGroup &pg = chip.group(0);
    Assembler p("producer");
    p.syncset(9);
    pg.core(0).run(p.finish(), 1, 0);

    Assembler c("consumer");
    c.syncwait(9, 1);
    RunResult cr = pg.core(1).run(c.finish(), 2, /*start=*/1'000'000);
    EXPECT_EQ(cr.syncStallTicks, 0u);
}

TEST(MultiCore, MissingSignalIsDeadlock)
{
    Dtu chip(dtu2Config());
    Assembler c("consumer");
    c.syncwait(42, 1);
    EXPECT_THROW(chip.group(0).core(0).run(c.finish()), FatalError);
}

TEST(MultiCore, NToOneJoinAcrossCores)
{
    Dtu chip(dtu2Config());
    ProcessingGroup &pg = chip.group(0);
    // Three producers of different lengths signal semaphore 7.
    Tick latest = 0;
    for (int core = 0; core < 3; ++core) {
        Assembler p("producer" + std::to_string(core));
        for (int i = 0; i < 50 * (core + 1); ++i)
            p.vadd(2, 0, 1);
        p.syncset(7);
        RunResult r = pg.core(static_cast<unsigned>(core))
                          .run(p.finish(), core, 0);
        latest = std::max(latest, r.endTick);
    }
    // The joiner waits for all three.
    Assembler c("joiner");
    c.syncwait(7, 3);
    RunResult jr = pg.core(3).run(c.finish(), 99, 0);
    EXPECT_GE(jr.endTick, latest);
}

TEST(MultiCore, KernelLaunchedDmaSignalsCompletion)
{
    Dtu chip(dtu2Config());
    ProcessingGroup &pg = chip.group(0);
    ComputeCore &core = pg.core(0);

    // Descriptor 0: pull 64 KiB from L3 into this core's L1.
    DmaDescriptor desc;
    desc.src = MemLevel::L3;
    desc.dst = MemLevel::L1;
    desc.dstPort = 0;
    desc.bytes = 64_KiB;
    core.setDescriptorTable({desc});

    // Kernel: launch the DMA, then block on its completion semaphore
    // (1000 + descriptor id) before consuming the data.
    Assembler as("load_then_use");
    as.dmacfg(0).dmago(0);
    as.syncwait(1000, 1);
    as.sli(0, 0).vload(1, 0);
    RunResult r = core.run(as.finish());
    // The wait must cover the DMA's transfer time.
    EXPECT_GT(r.syncStallTicks, 0u);
}

TEST(MultiCore, PrefetchFromKernelWarmsIcache)
{
    Dtu chip(dtu2Config());
    ProcessingGroup &pg = chip.group(0);
    ComputeCore &core = pg.core(0);

    // Kernel 3 prefetches kernel 4 early; a later run of kernel 4
    // hits without a cold load.
    Assembler warm("warm");
    warm.prefetch(4);
    for (int i = 0; i < 2000; ++i)
        warm.vadd(2, 0, 1); // give the prefetch time to land
    RunResult w = core.run(warm.finish(), 3, 0);

    Assembler next("next");
    next.vli(0, 1.0);
    RunResult n = core.run(next.finish(), 4, w.endTick);
    EXPECT_EQ(n.icacheStallTicks, 0u);
}

} // namespace
