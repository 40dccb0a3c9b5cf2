/**
 * @file
 * Tests for the DMA subsystem: the sparse codec, on-the-fly layout
 * transforms, repeat mode (Fig. 6), broadcast, the DTU 1.0 vs
 * DTU 2.0 routing differences (L1<->L3 direct path), and repeat runs
 * booked as one series per pipe against transaction-by-transaction
 * booking.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "dma/dma_engine.hh"
#include "dma/sparse_codec.hh"
#include "json_test_util.hh"
#include "sim/fault.hh"
#include "sim/random.hh"
#include "soc/dtu.hh"

namespace
{

using namespace dtu;

//
// Sparse codec
//

TEST(SparseCodec, RoundTripDense)
{
    Random rng(1);
    Tensor t(Shape({40, 9}), DType::FP16);
    t.fillRandom(rng);
    auto blob = sparseCompress(t);
    Tensor back = sparseDecompress(blob);
    EXPECT_DOUBLE_EQ(back.maxAbsDiff(t), 0.0);
}

TEST(SparseCodec, RoundTripAllZero)
{
    Tensor t(Shape({100}), DType::FP16);
    auto blob = sparseCompress(t);
    EXPECT_TRUE(blob.values.empty());
    EXPECT_EQ(blob.bytes(), 2u * 8u); // two mask words only
    Tensor back = sparseDecompress(blob);
    EXPECT_DOUBLE_EQ(back.maxAbsDiff(t), 0.0);
}

TEST(SparseCodec, EncodedBytesShrinkWithSparsity)
{
    // 10% density FP16: ~0.1 * 2 B/elem + 1 bit/elem of mask.
    auto dense = sparseEncodedBytes(6400, 1.0, DType::FP16);
    auto sparse = sparseEncodedBytes(6400, 0.1, DType::FP16);
    EXPECT_GT(dense, 6400u * 2u);             // mask overhead on dense
    EXPECT_LT(sparse, 6400u * 2u / 4u);       // big win at 10%
    EXPECT_LT(sparseRatio(6400, 0.25, DType::FP16), 0.5);
    EXPECT_GT(sparseRatio(6400, 1.0, DType::FP16), 1.0);
}

class SparseRoundTrip : public ::testing::TestWithParam<int>
{};

TEST_P(SparseRoundTrip, ExactAtAnyDensity)
{
    Random rng(static_cast<std::uint64_t>(GetParam()));
    double density = rng.uniform();
    Tensor t(Shape({rng.between(1, 500)}), DType::FP32);
    t.fillSparse(rng, density);
    Tensor back = sparseDecompress(sparseCompress(t));
    EXPECT_DOUBLE_EQ(back.maxAbsDiff(t), 0.0);
    EXPECT_EQ(back.shape(), t.shape());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SparseRoundTrip, ::testing::Range(0, 20));

//
// DMA engine timing
//

struct DmaHarness
{
    Tick watermark = 0;
    StatRegistry stats;
    ClockDomain dmaClock{1.0e9};
    Hbm hbm; // initialized in the constructor (bandwidth varies)
    Sram l2a{"l2a", watermark, &stats, MemLevel::L2, 8_MiB, 4, 83e9, 0};
    Sram l2b{"l2b", watermark, &stats, MemLevel::L2, 8_MiB, 4, 83e9, 0};
    Sram l2c{"l2c", watermark, &stats, MemLevel::L2, 8_MiB, 4, 83e9, 0};
    Sram l1{"l1", watermark, &stats, MemLevel::L1, 1_MiB, 1, 166e9, 0};
    std::unique_ptr<DmaEngine> dma;

    explicit DmaHarness(DmaFeatures features = {},
                        double hbm_bw = 819e9)
        : hbm{"hbm", watermark, &stats, 16_GiB, hbm_bw, 8, 0}
    {
        DmaFabric fabric;
        fabric.hbm = &hbm;
        fabric.localL2 = &l2a;
        fabric.clusterL2 = {&l2a, &l2b, &l2c};
        fabric.coreL1 = {&l1};
        dma = std::make_unique<DmaEngine>("dma", watermark, &stats, dmaClock,
                                          fabric, features);
    }
};

TEST(DmaEngine, SimpleL3ToL2Transfer)
{
    DmaHarness h;
    DmaDescriptor desc;
    desc.src = MemLevel::L3;
    desc.dst = MemLevel::L2;
    desc.bytes = 1_MiB;
    DmaResult r = h.dma->submitAt(0, desc);
    EXPECT_EQ(r.configs, 1u);
    EXPECT_EQ(r.srcBytes, 1_MiB);
    EXPECT_EQ(r.dstBytes, 1_MiB);
    EXPECT_GT(r.done, 0u);
}

TEST(DmaEngine, RepeatModeEliminatesConfigs)
{
    // Fig. 6: N slices without repeat mode need N configurations;
    // with repeat mode one configuration covers all N.
    DmaDescriptor desc;
    desc.src = MemLevel::L3;
    desc.dst = MemLevel::L2;
    desc.bytes = 4096;
    desc.repeatCount = 9;
    desc.repeatStride = 8192;

    DmaHarness normal;
    desc.repeatMode = false;
    DmaResult n = normal.dma->submitAt(0, desc);

    DmaHarness repeat;
    desc.repeatMode = true;
    DmaResult r = repeat.dma->submitAt(0, desc);

    EXPECT_EQ(n.configs, 9u);
    EXPECT_EQ(r.configs, 1u);
    EXPECT_LT(r.done, n.done);
    // Saved time ~= 8 configurations' worth.
    Tick config_ticks = repeat.dmaClock.ticksFor(repeat.dma->configCycles());
    EXPECT_NEAR(static_cast<double>(n.done - r.done),
                8.0 * static_cast<double>(config_ticks),
                static_cast<double>(config_ticks));
}

TEST(DmaEngine, RepeatModeRequiresFeature)
{
    DmaFeatures dtu1{false, false, false, false};
    DmaHarness h(dtu1);
    DmaDescriptor desc;
    desc.src = MemLevel::L3;
    desc.dst = MemLevel::L2;
    desc.bytes = 4096;
    desc.repeatCount = 4;
    desc.repeatMode = true; // requested but unsupported: falls back
    DmaResult r = h.dma->submitAt(0, desc);
    EXPECT_EQ(r.configs, 4u);
}

TEST(DmaEngine, BroadcastWritesAllSlicesOnce)
{
    DmaHarness h;
    DmaDescriptor desc;
    desc.src = MemLevel::L3;
    desc.dst = MemLevel::L2;
    desc.bytes = 64_KiB;
    desc.broadcast = true;
    DmaResult r = h.dma->submitAt(0, desc);
    EXPECT_EQ(r.srcBytes, 64_KiB);          // read once
    EXPECT_EQ(r.dstBytes, 3u * 64_KiB);     // three copies
    EXPECT_DOUBLE_EQ(h.l2a.totalBytes(), 64.0 * 1024.0);
    EXPECT_DOUBLE_EQ(h.l2b.totalBytes(), 64.0 * 1024.0);
    EXPECT_DOUBLE_EQ(h.l2c.totalBytes(), 64.0 * 1024.0);
}

TEST(DmaEngine, BroadcastFasterThanThreeTransfers)
{
    DmaDescriptor desc;
    desc.src = MemLevel::L3;
    desc.dst = MemLevel::L2;
    desc.bytes = 1_MiB;

    DmaHarness bcast;
    desc.broadcast = true;
    Tick one = bcast.dma->submitAt(0, desc).done;

    DmaHarness three;
    desc.broadcast = false;
    Tick last = 0;
    for (int i = 0; i < 3; ++i)
        last = three.dma->submitAt(0, desc).done;
    EXPECT_LT(one, last);
}

TEST(DmaEngine, BroadcastRejectedWithoutFeature)
{
    DmaFeatures dtu1{false, false, false, false};
    DmaHarness h(dtu1);
    DmaDescriptor desc;
    desc.src = MemLevel::L3;
    desc.dst = MemLevel::L2;
    desc.bytes = 4096;
    desc.broadcast = true;
    EXPECT_THROW(h.dma->submitAt(0, desc), FatalError);
}

TEST(DmaEngine, SparseTransferMovesFewerL3Bytes)
{
    // Under load every processing group sees only its share of HBM
    // bandwidth (819/6 GB/s); that contended share is where sparse
    // compression pays off.
    double contended = 819e9 / 6.0;
    DmaHarness h({}, contended);
    DmaDescriptor desc;
    desc.src = MemLevel::L3;
    desc.dst = MemLevel::L2;
    desc.dtype = DType::FP16;
    desc.bytes = 2_MiB;
    desc.sparse = true;
    desc.density = 0.2;
    DmaResult r = h.dma->submitAt(0, desc);
    EXPECT_LT(r.srcBytes, desc.bytes / 3);  // compressed on the wire
    EXPECT_EQ(r.dstBytes, desc.bytes);      // dense at the destination

    DmaHarness dense({}, contended);
    desc.sparse = false;
    DmaResult d = dense.dma->submitAt(0, desc);
    EXPECT_LT(r.done, d.done); // bandwidth saved = time saved
}

TEST(DmaEngine, SparseNeverExpandsDenseData)
{
    DmaHarness h;
    DmaDescriptor desc;
    desc.src = MemLevel::L3;
    desc.dst = MemLevel::L2;
    desc.dtype = DType::FP16;
    desc.bytes = 1_MiB;
    desc.sparse = true;
    desc.density = 1.0; // fully dense: mask would add overhead
    DmaResult r = h.dma->submitAt(0, desc);
    EXPECT_LE(r.srcBytes, desc.bytes);
}

TEST(DmaEngine, L1L3DirectBeatsStaging)
{
    DmaDescriptor desc;
    desc.src = MemLevel::L3;
    desc.dst = MemLevel::L1;
    desc.bytes = 256_KiB;

    DmaHarness direct; // DTU 2.0 features
    DmaResult d = direct.dma->submitAt(0, desc);

    DmaFeatures dtu1{false, false, false, false};
    DmaHarness staged(dtu1);
    DmaResult s = staged.dma->submitAt(0, desc);

    EXPECT_LT(d.done, s.done);
    // Staged routing burns L2 bandwidth; direct leaves L2 untouched.
    EXPECT_DOUBLE_EQ(direct.l2a.totalBytes(), 0.0);
    EXPECT_GT(staged.l2a.totalBytes(), 0.0);
    EXPECT_EQ(s.configs, 2u); // two hops, two configurations
}

TEST(DmaEngine, TransposeRunsBelowStreamingRate)
{
    DmaDescriptor desc;
    desc.src = MemLevel::L3;
    desc.dst = MemLevel::L2;
    desc.bytes = 4_MiB;

    DmaHarness stream;
    DmaResult a = stream.dma->submitAt(0, desc);

    DmaHarness transposed;
    desc.transform = TransformKind::Transpose;
    DmaResult b = transposed.dma->submitAt(0, desc);
    EXPECT_GT(b.done, a.done);
}

TEST(DmaEngine, ZeroRepeatCountRejected)
{
    DmaHarness h;
    DmaDescriptor desc;
    desc.repeatCount = 0;
    EXPECT_THROW(h.dma->submitAt(0, desc), FatalError);
}

TEST(DmaEngine, SameLevelDescriptorRejected)
{
    DmaHarness h;
    DmaDescriptor desc;
    desc.bytes = 4096;
    for (MemLevel level :
         {MemLevel::L1, MemLevel::L2, MemLevel::L3, MemLevel::Host}) {
        desc.src = desc.dst = level;
        EXPECT_THROW(h.dma->submitAt(0, desc), FatalError);
    }
    // Broadcast from L2 writes the slice it reads from.
    desc.src = desc.dst = MemLevel::L2;
    desc.broadcast = true;
    EXPECT_THROW(h.dma->submitAt(0, desc), FatalError);
}

//
// Repeat runs as series. The engine books a run's transactions on the
// pipe one at a time, then each endpoint's whole series. Replaying the
// transaction-major loop through the public pipe and memory calls on a
// twin chip must give the same result and the same stats.
//

/** One L2 access of the transaction-major loop. */
Tick
interleavedL2(Sram &l2, Tick at, unsigned port, std::uint64_t bytes,
              bool fill_port)
{
    if (port < l2.numPorts())
        return l2.accessAt(at, port, port, bytes);
    if (fill_port && l2.hasDmaPort())
        return l2.dmaAccessAt(at, bytes);
    const unsigned nports = l2.numPorts();
    Tick done = at;
    for (unsigned p = 0; p < nports; ++p) {
        const std::uint64_t b = bytes / nports + (p < bytes % nports ? 1 : 0);
        if (b)
            done = std::max(done, l2.accessAt(at, p, p, b));
    }
    return done;
}

/** One endpoint access of the transaction-major loop, on group 0. */
Tick
interleavedEndpoint(Dtu &chip, Tick at, MemLevel level, Addr addr,
                    unsigned port, std::uint64_t bytes, bool fill_port)
{
    switch (level) {
      case MemLevel::L3:
        return chip.hbm().accessAt(at, addr, bytes);
      case MemLevel::L2:
        return interleavedL2(chip.group(0).l2(), at, port, bytes, fill_port);
      case MemLevel::L1:
        return chip.group(0)
            .l1(port == DmaDescriptor::anyPort ? 0 : port)
            .accessAt(at, 0, 0, bytes);
      case MemLevel::Host:
        return chip.pcie().transferAt(at, bytes);
    }
    return 0;
}

/** Group 0's engine issuing @p desc transaction by transaction. */
DmaResult
submitInterleaved(Dtu &chip, Tick at, const DmaDescriptor &desc)
{
    DmaEngine &dma = chip.group(0).dma();
    ClockDomain clock(chip.config().dmaHz);
    const Tick config_ticks = clock.ticksFor(dma.configCycles());
    const bool use_repeat = desc.repeatMode && desc.repeatCount > 1;
    const auto pipe_bytes = static_cast<std::uint64_t>(
        static_cast<double>(desc.bytes) /
            transformRateFactor(desc.transform) +
        0.5);
    DmaResult result;
    Tick t = at;
    for (unsigned i = 0; i < desc.repeatCount; ++i) {
        if (i == 0 || !use_repeat) {
            t += config_ticks;
            ++result.configs;
        }
        const Tick engine_done = dma.pipe().transferAt(t, pipe_bytes);
        const Tick src_done = interleavedEndpoint(
            chip, t, desc.src, desc.srcAddr + i * desc.repeatStride,
            desc.srcPort, desc.bytes, desc.useFillPort);
        Tick dst_done = 0;
        if (desc.broadcast) {
            for (unsigned g = 0; g < chip.config().groupsPerCluster; ++g) {
                dst_done = std::max(
                    dst_done,
                    interleavedL2(chip.group(g).l2(), t,
                                  DmaDescriptor::anyPort, desc.bytes,
                                  desc.useFillPort));
                result.dstBytes += desc.bytes;
            }
        } else {
            dst_done = interleavedEndpoint(
                chip, t, desc.dst, desc.dstAddr + i * desc.repeatStride,
                desc.dstPort, desc.bytes, desc.useFillPort);
            result.dstBytes += desc.bytes;
        }
        result.srcBytes += desc.bytes;
        result.done = std::max({engine_done, src_done, dst_done});
        t = std::max(engine_done, t);
    }
    return result;
}

/**
 * Every scalar stat of @p chip, exact, except the counters group 0's
 * engine keeps for itself (the twin replays around the engine).
 */
std::vector<std::pair<std::string, double>>
statsBesideTheEngine(Dtu &chip)
{
    const std::string engine = chip.group(0).dma().name();
    const std::set<std::string> own = {
        engine + ".transactions", engine + ".configs",
        engine + ".config_ticks", engine + ".sparse_saved_bytes",
        engine + ".broadcast_copies"};
    std::ostringstream os;
    chip.stats().dumpJson(os);
    test::JsonParser parser(os.str());
    const test::JValue doc = parser.parse();
    EXPECT_TRUE(parser.ok()) << parser.error();
    std::vector<std::pair<std::string, double>> out;
    if (const test::JValue *scalars = doc.find("scalars")) {
        for (const auto &[name, stat] : scalars->members)
            if (!own.count(name))
                out.emplace_back(name, stat.num("value"));
    }
    return out;
}

TEST(DmaEngine, RepeatRunSeriesMatchesTransactionByTransactionBooking)
{
    struct Case
    {
        const char *label;
        DmaDescriptor desc;
    };
    auto make = [](MemLevel src, MemLevel dst, std::uint64_t bytes,
                   unsigned repeats) {
        DmaDescriptor desc;
        desc.src = src;
        desc.dst = dst;
        desc.bytes = bytes;
        desc.repeatCount = repeats;
        desc.repeatMode = true;
        desc.repeatStride = bytes;
        desc.srcAddr = 3 * 4096 + 64;
        desc.dstAddr = 7 * 4096;
        return desc;
    };
    std::vector<Case> cases;
    cases.push_back({"L3->L2 fill port",
                     make(MemLevel::L3, MemLevel::L2, 6'000, 24)});
    cases.back().desc.useFillPort = true;
    cases.push_back({"L2->L1 striped, transposed",
                     make(MemLevel::L2, MemLevel::L1, 4'099, 32)});
    cases.back().desc.dstPort = 2;
    cases.back().desc.transform = TransformKind::Transpose;
    cases.push_back({"L1->L2 pinned, no repeat mode",
                     make(MemLevel::L1, MemLevel::L2, 2'048, 16)});
    cases.back().desc.srcPort = 1;
    cases.back().desc.dstPort = 3;
    cases.back().desc.repeatMode = false;
    cases.push_back({"L1->L3", make(MemLevel::L1, MemLevel::L3, 9'000, 20)});
    cases.push_back(
        {"Host->L3", make(MemLevel::Host, MemLevel::L3, 65'536, 8)});
    cases.push_back(
        {"L3->L2 broadcast", make(MemLevel::L3, MemLevel::L2, 5'000, 12)});
    cases.back().desc.broadcast = true;

    for (const Case &c : cases) {
        SCOPED_TRACE(c.label);
        Dtu series(dtu2Config());
        Dtu twin(dtu2Config());
        // Frequent correctable ECC errors: HBM accesses draw from the
        // fault stream, so they must also happen in the same order.
        FaultConfig faults;
        faults.eccCorrectablePerGiB = 2e4;
        faults.eccScrubTicks = 3'000;
        series.installFaults(faults);
        twin.installFaults(faults);
        // Overlapping requests, so each run queues behind the last.
        for (Tick at : {Tick{0}, Tick{0}, Tick{37'000}, Tick{2'000'000}}) {
            const DmaResult got = series.group(0).dma().submitAt(at, c.desc);
            const DmaResult want = submitInterleaved(twin, at, c.desc);
            EXPECT_EQ(got.done, want.done) << "at " << at;
            EXPECT_EQ(got.srcBytes, want.srcBytes);
            EXPECT_EQ(got.dstBytes, want.dstBytes);
            EXPECT_EQ(got.configs, want.configs);
            EXPECT_EQ(got.retries, 0u);
        }
        EXPECT_EQ(statsBesideTheEngine(series), statsBesideTheEngine(twin));
        EXPECT_EQ(series.faults()->log().size(), twin.faults()->log().size());
        if (c.desc.src == MemLevel::L3 || c.desc.dst == MemLevel::L3)
            EXPECT_GT(series.faults()->log().size(), 0u);
        EXPECT_DOUBLE_EQ(
            series.stats().lookup(series.group(0).dma().name() +
                                  ".transactions"),
            4.0 * c.desc.repeatCount);
    }
}

TEST(TransformKind, RateFactorsSane)
{
    EXPECT_DOUBLE_EQ(transformRateFactor(TransformKind::None), 1.0);
    EXPECT_LT(transformRateFactor(TransformKind::Transpose), 1.0);
    EXPECT_EQ(transformName(TransformKind::Transpose), "transpose");
}

} // namespace
