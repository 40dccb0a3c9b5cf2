/**
 * @file
 * Tests for the memory hierarchy: bandwidth resources, multi-port
 * SRAM with affinity, HBM channel striping, the lane ledgers they
 * share, and the affinity-aware scratchpad allocator.
 */

#include <gtest/gtest.h>

#include "sim/logging.hh"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "mem/allocator.hh"
#include "mem/bandwidth.hh"
#include "mem/hbm.hh"
#include "mem/sram.hh"
#include "sim/random.hh"
#include "soc/config.hh"
#include "soc/dtu.hh"

namespace
{

using namespace dtu;

struct MemHarness
{
    Tick watermark = 0;
    StatRegistry stats;
};

TEST(Bandwidth, ServiceTimeMatchesRate)
{
    MemHarness h;
    BandwidthResource pipe("pipe", h.watermark, &h.stats, 1e9); // 1 GB/s
    // 1000 bytes at 1 GB/s = 1 us = 1e6 ticks.
    EXPECT_EQ(pipe.serviceTime(1000), 1'000'000u);
}

TEST(Bandwidth, AccessLatencyAdds)
{
    MemHarness h;
    BandwidthResource pipe("pipe", h.watermark, &h.stats, 1e9, 500);
    EXPECT_EQ(pipe.serviceTime(1000), 1'000'500u);
}

TEST(Bandwidth, BackToBackRequestsQueue)
{
    MemHarness h;
    BandwidthResource pipe("pipe", h.watermark, &h.stats, 1e9);
    Tick first = pipe.transferAt(0, 1000);
    Tick second = pipe.transferAt(0, 1000);
    EXPECT_EQ(first, 1'000'000u);
    EXPECT_EQ(second, 2'000'000u); // queued behind the first
    EXPECT_DOUBLE_EQ(pipe.totalBytes(), 2000.0);
    EXPECT_GT(pipe.totalWait(), 0.0);
}

TEST(Bandwidth, FutureTransfersDoNotQueueBehindNothing)
{
    MemHarness h;
    BandwidthResource pipe("pipe", h.watermark, &h.stats, 1e9);
    Tick done = pipe.transferAt(5'000'000, 1000);
    EXPECT_EQ(done, 6'000'000u);
}

TEST(Bandwidth, CompletionSaturatesNearMaxTick)
{
    MemHarness h;
    BandwidthResource pipe("edge", h.watermark, &h.stats, 1e9, 1000);
    // 1 GiB at 1 GB/s needs ~1 s; with 10 us of headroom left the
    // transfer must clamp to maxTick instead of wrapping to "done in
    // 1 ns".
    const Tick done = pipe.transferAt(maxTick - 10'000'000, 1ull << 30);
    EXPECT_EQ(done, maxTick);
    EXPECT_EQ(pipe.freeAt(), maxTick);
}

TEST(Sram, RemoteCompletionSaturatesNearMaxTick)
{
    MemHarness h;
    Sram l2("l2", h.watermark, &h.stats, MemLevel::L2, 1_MiB, 4, 1e9, 1000,
            5000);
    // The port's completion already saturates; the remote-port penalty
    // on top of it must not wrap it round to "done at tick 4999".
    EXPECT_EQ(l2.accessAt(maxTick - 10'000'000, 1, 0, 1ull << 30), maxTick);
}

TEST(Bandwidth, RejectsNonPositiveRate)
{
    MemHarness h;
    auto make_bad = [&h] {
        BandwidthResource bad("x", h.watermark, nullptr, 0.0);
    };
    EXPECT_THROW(make_bad(), FatalError);
}

TEST(Sram, ParallelPortsDoNotInterfere)
{
    MemHarness h;
    // 4-port L2 slice: simultaneous accesses on different ports
    // finish at the same time; on one port they serialize.
    Sram l2("l2", h.watermark, &h.stats, MemLevel::L2, 8_MiB, 4, 1e9, 0);
    Tick a = l2.accessAt(0, 0, 0, 1000);
    Tick b = l2.accessAt(0, 1, 1, 1000);
    EXPECT_EQ(a, b);
    Tick c = l2.accessAt(0, 0, 0, 1000); // contends with a
    EXPECT_GT(c, a);
}

TEST(Sram, RemotePortPaysPenalty)
{
    MemHarness h;
    Sram l2("l2", h.watermark, &h.stats, MemLevel::L2, 8_MiB, 4, 1e9, 100,
            5000);
    Tick local = l2.accessAt(0, 0, 0, 1000);
    Tick remote = l2.accessAt(0, 1, 0, 1000); // affine to port 0, used port 1
    EXPECT_EQ(remote, local + 5000);
    EXPECT_DOUBLE_EQ(h.stats.lookup("l2.remote_accesses"), 1.0);
    EXPECT_DOUBLE_EQ(h.stats.lookup("l2.local_accesses"), 1.0);
}

TEST(Sram, LeastLoadedPortTracksTraffic)
{
    MemHarness h;
    Sram l2("l2", h.watermark, &h.stats, MemLevel::L2, 8_MiB, 2, 1e9, 0);
    EXPECT_EQ(l2.leastLoadedPort(), 0u);
    l2.accessAt(0, 0, 0, 10000);
    EXPECT_EQ(l2.leastLoadedPort(), 1u);
}

TEST(Hbm, LargeRequestsAggregateChannels)
{
    MemHarness h;
    // 8 channels, 800 GB/s total, no latency.
    Hbm hbm("hbm", h.watermark, &h.stats, 16_GiB, 800e9, 8, 0);
    // 1 MiB striped over all channels: each channel moves 128 KiB at
    // 100 GB/s -> ~1.31 us.
    Tick done = hbm.accessAt(0, 0, 1_MiB);
    double seconds = ticksToSeconds(done);
    EXPECT_NEAR(seconds, (1024.0 * 1024.0) / 800e9, 1e-8);
}

TEST(Hbm, SmallRequestStaysOnOneChannel)
{
    MemHarness h;
    Hbm hbm("hbm", h.watermark, &h.stats, 16_GiB, 800e9, 8, 0);
    // 256 bytes = one stripe: single channel at 100 GB/s.
    Tick done = hbm.accessAt(0, 0, 256);
    EXPECT_NEAR(ticksToSeconds(done), 256.0 / 100e9, 1e-10);
}

TEST(Hbm, ConcurrentStreamsShareBandwidth)
{
    MemHarness h;
    Hbm hbm("hbm", h.watermark, &h.stats, 16_GiB, 800e9, 8, 0);
    Tick one = hbm.accessAt(0, 0, 8_MiB);
    // A second stream issued at the same instant roughly doubles the
    // completion time of the later finisher.
    Tick two = hbm.accessAt(0, 8_MiB, 8_MiB);
    EXPECT_GT(two, one);
    EXPECT_NEAR(static_cast<double>(two) / static_cast<double>(one), 2.0,
                0.1);
}

TEST(Hbm, AccessLatencyAppliesPerRequest)
{
    MemHarness h;
    Hbm fast("fast", h.watermark, &h.stats, 16_GiB, 800e9, 8, 0);
    Hbm slow("slow", h.watermark, &h.stats, 16_GiB, 800e9, 8, 120'000);
    EXPECT_EQ(slow.accessAt(0, 0, 256) - fast.accessAt(0, 0, 256), 120'000u);
}

/** @p n stand-alone pipes named @p prefix + index, one ledger each. */
std::vector<std::unique_ptr<BandwidthResource>>
independentPipes(const std::string &prefix, MemHarness &h, unsigned n,
                 double bytes_per_second, Tick latency)
{
    std::vector<std::unique_ptr<BandwidthResource>> pipes;
    for (unsigned i = 0; i < n; ++i)
        pipes.push_back(std::make_unique<BandwidthResource>(
            prefix + std::to_string(i), h.watermark, &h.stats,
            bytes_per_second, latency));
    return pipes;
}

TEST(Sram, SharedPortLedgerMatchesIndependentPorts)
{
    // The core ports share one lane ledger; striped and pinned traffic
    // must leave every port's completions and stats as four separate
    // pipes would, with the stripe booked port by port as before.
    MemHarness h;
    MemHarness ref;
    constexpr Tick kLatency = 1'500;
    constexpr Tick kPenalty = 5'000;
    Sram l2("l2", h.watermark, &h.stats, MemLevel::L2, 8_MiB, 4, 83.2e9,
            kLatency, kPenalty);
    auto ports = independentPipes("l2.port", ref, 4, 83.2e9, kLatency);
    double local = 0.0;
    double remote = 0.0;
    Random rng(17);
    Tick window = 0;
    std::vector<Tick> starts;
    std::vector<Tick> done;
    std::vector<Tick> expect;
    std::vector<Tick> port_done;
    for (unsigned i = 0; i < 3'000; ++i) {
        window += rng.below(400'000);
        starts.assign(1, window + rng.below(200'000));
        const std::uint64_t n = 1 + rng.below(20);
        for (std::uint64_t t = 1; t < n; ++t)
            starts.push_back(starts.back() + rng.below(60'000));
        const std::uint64_t bytes =
            rng.uniform() < 0.1 ? rng.below(4) : 1 + rng.below(40'000);
        done.assign(n, 0);
        expect.assign(starts.begin(), starts.end());
        port_done.assign(n, 0);
        if (rng.uniform() < 0.7) {
            l2.stripeSeries(starts.data(), n, bytes, done.data());
            for (unsigned p = 0; p < 4; ++p) {
                const std::uint64_t b = bytes / 4 + (p < bytes % 4);
                if (!b)
                    continue;
                local += static_cast<double>(n);
                ports[p]->transferSeries(starts.data(), n, b,
                                         port_done.data());
                for (std::uint64_t t = 0; t < n; ++t)
                    expect[t] = std::max(expect[t], port_done[t]);
            }
        } else {
            const auto port = static_cast<unsigned>(rng.below(4));
            const auto affine = static_cast<unsigned>(rng.below(4));
            l2.accessSeries(starts.data(), n, port, affine, bytes,
                            done.data());
            (port == affine ? local : remote) += static_cast<double>(n);
            ports[port]->transferSeries(starts.data(), n, bytes,
                                        expect.data());
            if (port != affine)
                for (Tick &t : expect)
                    t += kPenalty;
        }
        ASSERT_EQ(done, expect) << "request " << i;
        unsigned least = 0;
        for (unsigned p = 1; p < 4; ++p)
            if (ports[p]->freeAt() < ports[least]->freeAt())
                least = p;
        ASSERT_EQ(l2.leastLoadedPort(), least);
    }
    for (unsigned p = 0; p < 4; ++p) {
        const std::string name = "l2.port" + std::to_string(p);
        for (const char *stat : {".bytes", ".transfers", ".wait_ticks"})
            EXPECT_EQ(h.stats.lookup(name + stat),
                      ref.stats.lookup(name + stat))
                << name << stat;
        EXPECT_EQ(l2.port(p).freeAt(), ports[p]->freeAt());
    }
    EXPECT_GT(ref.stats.lookup("l2.port3.wait_ticks"), 0.0);
    EXPECT_EQ(h.stats.lookup("l2.local_accesses"), local);
    EXPECT_EQ(h.stats.lookup("l2.remote_accesses"), remote);
}

TEST(Hbm, SharedChannelLedgerMatchesIndependentChannels)
{
    // The channels share one lane ledger; each access books all of
    // them at once and must match the per-channel bookings it replaced.
    MemHarness h;
    MemHarness ref;
    constexpr Tick kLatency = 120'000;
    Hbm hbm("hbm", h.watermark, &h.stats, 16_GiB, 819e9, 8, kLatency);
    auto channels = independentPipes("hbm.ch", ref, 8, 819e9 / 8, kLatency);
    Random rng(29);
    Tick window = 0;
    for (unsigned i = 0; i < 20'000; ++i) {
        window += rng.below(100'000);
        const Tick at = window + rng.below(400'000);
        const Addr addr = rng.below(1 << 20) * 64;
        const double size = rng.uniform();
        const std::uint64_t bytes = size < 0.5   ? 1 + rng.below(2'048)
                                    : size < 0.9 ? 1 + rng.below(64'000)
                                                 : 1 + rng.below(2 << 20);
        const std::uint64_t stripes = (bytes + 255) / 256;
        Tick expect = at;
        for (unsigned c = 0; c < std::min<std::uint64_t>(8, stripes); ++c) {
            const std::uint64_t ch_stripes = stripes / 8 + (c < stripes % 8);
            expect = std::max(
                expect, channels[(addr / 256 + c) % 8]->transferAt(
                            at, std::min(ch_stripes * 256, bytes)));
        }
        ASSERT_EQ(hbm.accessAt(at, addr, bytes), expect) << "access " << i;
    }
    double total = 0.0;
    for (unsigned c = 0; c < 8; ++c) {
        const std::string name = "hbm.ch" + std::to_string(c);
        for (const char *stat : {".bytes", ".transfers", ".wait_ticks"})
            EXPECT_EQ(h.stats.lookup(name + stat),
                      ref.stats.lookup(name + stat))
                << name << stat;
        total += channels[c]->totalBytes();
    }
    EXPECT_GT(ref.stats.lookup("hbm.ch0.wait_ticks"), 0.0);
    EXPECT_EQ(hbm.totalBytes(), total);
}

TEST(Dtu, SharedLedgersCountAndRestartOnce)
{
    // An HBM access over all eight channels and an L2 stripe over four
    // ports each touch one page of one shared ledger.
    Dtu chip(dtu2Config());
    ASSERT_EQ(chip.ledgerPages(), 0u);
    chip.hbm().accessAt(0, 0, 1_MiB);
    EXPECT_EQ(chip.ledgerPages(), 1u);
    Sram &l2 = chip.group(0).l2();
    const Tick start = 0;
    Tick done = 0;
    l2.stripeSeries(&start, 1, 64_KiB, &done);
    EXPECT_EQ(chip.ledgerPages(), 2u);

    // Restarted, the chip books as a fresh one does.
    chip.restartLedgers();
    EXPECT_EQ(chip.ledgerPages(), 0u);
    Dtu fresh(dtu2Config());
    EXPECT_EQ(chip.hbm().accessAt(0, 4_KiB, 1_MiB),
              fresh.hbm().accessAt(0, 4_KiB, 1_MiB));
    Tick fresh_done = 0;
    fresh.group(0).l2().stripeSeries(&start, 1, 64_KiB, &fresh_done);
    l2.stripeSeries(&start, 1, 64_KiB, &done);
    EXPECT_EQ(done, fresh_done);
    EXPECT_EQ(l2.leastLoadedPort(), fresh.group(0).l2().leastLoadedPort());
    EXPECT_EQ(chip.ledgerPages(), 2u);
}

TEST(Dtu, WatermarkReachesEveryPipe)
{
    // Every pipe of the chip books behind the chip's one watermark: a
    // booking at tick 0 waits for it and counts the wait.
    Dtu chip(dtu2Config());
    const Tick watermark = secondsToTicks(1e-3);
    chip.raiseLedgerWatermark(watermark);
    ASSERT_EQ(chip.ledgerWatermark(), watermark);
    const std::string &name = chip.config().name;
    ProcessingGroup &pg = chip.group(0);
    const Tick start = 0;
    std::vector<std::pair<std::string, Tick>> booked;
    booked.emplace_back(pg.dma().pipe().name(),
                        pg.dma().pipe().transferAt(start, 4_KiB));
    booked.emplace_back(pg.l1(0).port(0).name(),
                        pg.l1(0).accessAt(start, 0, 0, 4_KiB));
    Tick done = 0;
    pg.l2().stripeSeries(&start, 1, 64_KiB, &done);
    for (unsigned p = 0; p < pg.l2().numPorts(); ++p)
        booked.emplace_back(pg.l2().port(p).name(), done);
    booked.emplace_back(pg.l2().name() + ".dma_port",
                        pg.l2().dmaAccessAt(start, 4_KiB));
    done = chip.hbm().accessAt(start, 0, 1_MiB);
    for (unsigned c = 0; c < chip.hbm().numChannels(); ++c)
        booked.emplace_back(name + ".hbm.ch" + std::to_string(c), done);
    booked.emplace_back(chip.pcie().name(),
                        chip.pcie().transferAt(start, 4_KiB));
    for (const auto &[pipe, completion] : booked) {
        EXPECT_GE(completion, watermark) << pipe;
        EXPECT_NEAR(chip.stats().lookup(pipe + ".wait_ticks"),
                    static_cast<double>(watermark), 1.0)
            << pipe;
    }
}

TEST(Allocator, PrefersRequestedBank)
{
    ScratchpadAllocator alloc("l2", MemLevel::L2, 8_MiB, 4);
    auto a = alloc.allocate(1024, 2);
    ASSERT_TRUE(a.has_value());
    EXPECT_EQ(a->port, 2u);
    EXPECT_EQ(alloc.bankUsed(2), 1024u);
    EXPECT_EQ(alloc.remoteAllocations(), 0u);
}

TEST(Allocator, FallsBackWhenBankFull)
{
    ScratchpadAllocator alloc("l2", MemLevel::L2, 4096, 4); // 1 KiB/bank
    ASSERT_TRUE(alloc.allocate(1024, 0).has_value());
    auto spill = alloc.allocate(512, 0);
    ASSERT_TRUE(spill.has_value());
    EXPECT_NE(spill->port, 0u);
    EXPECT_EQ(alloc.remoteAllocations(), 1u);
}

TEST(Allocator, FailsWhenEverythingFull)
{
    ScratchpadAllocator alloc("l2", MemLevel::L2, 4096, 4);
    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(alloc.allocate(1024, static_cast<unsigned>(i)));
    EXPECT_FALSE(alloc.allocate(1, 0).has_value());
    alloc.releaseAll();
    EXPECT_TRUE(alloc.allocate(1, 0).has_value());
}

TEST(Allocator, AddressesAreBankDisjoint)
{
    ScratchpadAllocator alloc("l2", MemLevel::L2, 4096, 4);
    auto a = alloc.allocate(100, 0);
    auto b = alloc.allocate(100, 1);
    ASSERT_TRUE(a && b);
    // Bank 1 starts at its bank base, not after bank 0's usage.
    EXPECT_EQ(b->base, 1024u);
    EXPECT_EQ(a->base, 0u);
}

TEST(Allocator, TracksBytesInUse)
{
    ScratchpadAllocator alloc("l2", MemLevel::L2, 8_MiB, 4);
    alloc.allocate(1000, 0);
    alloc.allocate(2000, 1);
    EXPECT_EQ(alloc.bytesInUse(), 3000u);
    EXPECT_EQ(alloc.bytesFree(), 8_MiB - 3000u);
}

} // namespace
