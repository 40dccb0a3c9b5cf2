/**
 * @file
 * Tests for the instruction buffer: cache mode (DTU 2.0) vs plain
 * buffer (DTU 1.0), user-controlled prefetch, LRU retention, and
 * oversized-kernel streaming.
 */

#include <gtest/gtest.h>

#include "sim/logging.hh"

#include "core/icache.hh"

namespace
{

using namespace dtu;

struct IcacheRig
{
    Tick watermark = 0;
    StatRegistry stats;
    Hbm hbm{"hbm", watermark, &stats, 16_GiB, 819e9, 8, 120'000};

    InstructionCache
    make(std::uint64_t capacity, bool cache_mode)
    {
        static int id = 0;
        return InstructionCache("icache" + std::to_string(id++), &stats,
                                hbm, capacity, cache_mode);
    }
};

TEST(InstructionCache, FirstFetchPaysLoadLatency)
{
    IcacheRig rig;
    auto icache = rig.make(64_KiB, true);
    Tick ready = icache.fetchAt(0, /*kernel=*/1, 32_KiB);
    EXPECT_GT(ready, 0u);
    EXPECT_DOUBLE_EQ(icache.misses(), 1.0);
}

TEST(InstructionCache, CacheModeHitsOnRepeat)
{
    IcacheRig rig;
    auto icache = rig.make(64_KiB, true);
    Tick first = icache.fetchAt(0, 1, 32_KiB);
    Tick second = icache.fetchAt(first, 1, 32_KiB);
    EXPECT_EQ(second, first); // resident: no stall
    EXPECT_DOUBLE_EQ(icache.hits(), 1.0);
}

TEST(InstructionCache, PlainBufferAlwaysReloads)
{
    IcacheRig rig;
    auto icache = rig.make(32_KiB, false); // DTU 1.0 instruction buffer
    Tick first = icache.fetchAt(0, 1, 16_KiB);
    Tick second = icache.fetchAt(first, 1, 16_KiB);
    EXPECT_GT(second, first);
    EXPECT_DOUBLE_EQ(icache.hits(), 0.0);
    EXPECT_DOUBLE_EQ(icache.misses(), 2.0);
}

TEST(InstructionCache, LruEvictsOldest)
{
    IcacheRig rig;
    auto icache = rig.make(64_KiB, true);
    Tick t = icache.fetchAt(0, 1, 30_KiB);
    t = icache.fetchAt(t, 2, 30_KiB);
    EXPECT_TRUE(icache.resident(1));
    EXPECT_TRUE(icache.resident(2));
    // Touch kernel 1 so kernel 2 becomes LRU, then overflow.
    t = icache.fetchAt(t, 1, 30_KiB);
    t = icache.fetchAt(t, 3, 30_KiB);
    EXPECT_TRUE(icache.resident(1));
    EXPECT_FALSE(icache.resident(2));
    EXPECT_TRUE(icache.resident(3));
}

TEST(InstructionCache, PrefetchHidesLoadLatency)
{
    IcacheRig rig;
    auto icache = rig.make(64_KiB, true);
    icache.prefetchAt(0, 7, 48_KiB);
    // Fetch long after the prefetch completed: zero stall.
    Tick ready = icache.fetchAt(1'000'000, 7, 48_KiB);
    EXPECT_EQ(ready, 1'000'000u);
}

TEST(InstructionCache, EarlyFetchAbsorbsPartialPrefetch)
{
    IcacheRig rig;
    auto icache = rig.make(64_KiB, true);
    icache.prefetchAt(0, 7, 48_KiB);
    // Fetch immediately: waits only for the in-flight load.
    Tick ready = icache.fetchAt(100, 7, 48_KiB);
    EXPECT_GT(ready, 100u);
    auto direct = rig.make(64_KiB, true);
    Tick cold = direct.fetchAt(100, 7, 48_KiB);
    EXPECT_LE(ready, cold);
}

TEST(InstructionCache, OversizedKernelsStreamWithRefills)
{
    IcacheRig rig;
    auto icache = rig.make(64_KiB, true);
    // A fused kernel bigger than the buffer cannot be retained and
    // pays refill stalls while the tail streams in.
    EXPECT_GT(icache.refillStall(256_KiB), 0u);
    EXPECT_EQ(icache.refillStall(32_KiB), 0u);
    Tick t = icache.fetchAt(0, 1, 256_KiB);
    EXPECT_FALSE(icache.resident(1)); // too big to keep
    EXPECT_GT(t, 0u);
}

TEST(InstructionCache, PrefetchIsIdempotent)
{
    IcacheRig rig;
    auto icache = rig.make(64_KiB, true);
    icache.prefetchAt(0, 1, 16_KiB);
    icache.prefetchAt(10, 1, 16_KiB); // already in flight: no-op
    Tick t = icache.fetchAt(1'000'000, 1, 16_KiB);
    icache.prefetchAt(t, 1, 16_KiB); // already resident: no-op
    EXPECT_DOUBLE_EQ(rig.stats.lookup(icache.name() + ".prefetches"),
                     1.0);
}

} // namespace
