/**
 * @file
 * Tests for the instruction buffer: cache mode (DTU 2.0) vs plain
 * buffer (DTU 1.0), user-controlled prefetch, LRU retention, and
 * oversized-kernel streaming.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <unordered_map>

#include "sim/logging.hh"
#include "sim/random.hh"

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

/**
 * The list-plus-maps LRU buffer the flat InstructionCache replaced,
 * kept as the reference for its decisions. A kernel id reloaded at
 * a new size replaces its old image.
 */
struct ReferenceIcache
{
    Hbm &hbm;
    std::uint64_t capacity;
    bool cacheMode;
    std::uint64_t used = 0;
    double hits = 0, misses = 0, stall = 0;
    std::list<int> lru{}; ///< most recent first
    struct Entry
    {
        std::uint64_t bytes;
        std::list<int>::iterator lruIt;
    };
    std::unordered_map<int, Entry> resident{};
    std::unordered_map<int, Tick> inflight{};

    Tick
    load(Tick at, std::uint64_t bytes)
    {
        return hbm.accessAt(at, 0x4000'0000, bytes);
    }

    void
    insert(int id, std::uint64_t bytes)
    {
        if (bytes > capacity)
            return;
        if (auto old = resident.find(id); old != resident.end()) {
            used -= old->second.bytes;
            lru.erase(old->second.lruIt);
            resident.erase(old);
        }
        while (used + bytes > capacity) {
            auto victim = resident.find(lru.back());
            used -= victim->second.bytes;
            resident.erase(victim);
            lru.pop_back();
        }
        lru.push_front(id);
        resident[id] = Entry{bytes, lru.begin()};
        used += bytes;
    }

    void
    prefetch(Tick at, int id, std::uint64_t bytes)
    {
        if (resident.count(id) || inflight.count(id))
            return;
        inflight[id] = load(at, std::min(bytes, capacity));
    }

    Tick
    fetch(Tick at, int id, std::uint64_t bytes)
    {
        if (cacheMode) {
            auto it = resident.find(id);
            if (it != resident.end() &&
                it->second.bytes >= std::min(bytes, capacity)) {
                lru.erase(it->second.lruIt);
                lru.push_front(id);
                it->second.lruIt = lru.begin();
                ++hits;
                return at;
            }
        }
        if (auto p = inflight.find(id); p != inflight.end()) {
            Tick ready = std::max(at, p->second);
            inflight.erase(p);
            if (cacheMode)
                insert(id, bytes);
            stall += static_cast<double>(ready - at);
            ++hits;
            return ready;
        }
        ++misses;
        Tick ready = load(at, std::min(bytes, capacity));
        stall += static_cast<double>(ready - at);
        if (cacheMode)
            insert(id, bytes);
        return ready;
    }
};

TEST(InstructionCacheProperty, MatchesListMapReferenceOnRandomSequences)
{
    constexpr int kKernels = 8;
    for (std::uint64_t seed = 1; seed <= 64; ++seed) {
        Random rng(seed);
        const std::uint64_t capacity =
            std::uint64_t{16_KiB} * (1 + rng.below(6));
        const bool cache_mode = seed % 4 != 0;
        // Each id mostly keeps one size; now and then it is fetched
        // at another (plans number their kernels from 0, so two
        // models can share an id), and some sizes exceed the buffer.
        std::uint64_t sizes[kKernels];
        for (std::uint64_t &b : sizes)
            b = 4_KiB + rng.below(std::uint64_t{72_KiB});

        IcacheRig rig;
        Tick ref_watermark = 0;
        StatRegistry ref_stats;
        Hbm ref_hbm{"ref_hbm", ref_watermark, &ref_stats, 16_GiB,
                    819e9, 8, 120'000};
        auto icache = rig.make(capacity, cache_mode);
        ReferenceIcache ref{ref_hbm, capacity, cache_mode};

        Tick t = 0;
        for (int step = 0; step < 400; ++step) {
            const int id = static_cast<int>(rng.below(kKernels));
            const std::uint64_t bytes =
                rng.chance(0.1) ? 4_KiB + rng.below(std::uint64_t{72_KiB})
                                : sizes[id];
            t += rng.below(200'000);
            if (rng.chance(0.4)) {
                icache.prefetchAt(t, id, bytes);
                ref.prefetch(t, id, bytes);
            } else {
                const Tick got = icache.fetchAt(t, id, bytes);
                ASSERT_EQ(got, ref.fetch(t, id, bytes))
                    << "seed " << seed << " step " << step;
                if (rng.chance(0.5))
                    t = got;
            }
            ASSERT_EQ(icache.hits(), ref.hits) << "seed " << seed;
            ASSERT_EQ(icache.misses(), ref.misses) << "seed " << seed;
            ASSERT_EQ(icache.stallTicks(), ref.stall) << "seed " << seed;
            for (int k = 0; k < kKernels; ++k)
                ASSERT_EQ(icache.resident(k), ref.resident.count(k) != 0)
                    << "seed " << seed << " step " << step << " kernel "
                    << k;
        }
    }
}

} // namespace
