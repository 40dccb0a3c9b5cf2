/**
 * @file
 * Cross-cutting property tests: functional VMM against a host
 * reference over every (dtype, rows) pattern, sparse-codec and DMA
 * monotonicity, bandwidth-ledger conservation under out-of-order
 * arrival, executor scaling laws, and the capacity ledger against the
 * per-bucket walk it replaced, with its pages retired, and with its
 * lanes against independent ledgers.
 */

#include <gtest/gtest.h>

#include "sim/logging.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <memory>
#include <unordered_map>
#include <vector>

#include "compiler/lowering.hh"
#include "core/matrix_engine.hh"
#include "dma/dma_engine.hh"
#include "dma/sparse_codec.hh"
#include "fabric/fabric.hh"
#include "mem/bandwidth.hh"
#include "mem/capacity_ledger.hh"
#include "models/model_zoo.hh"
#include "runtime/executor.hh"
#include "serve/arrival.hh"
#include "sim/random.hh"
#include "sim/stats.hh"

namespace dtu
{

/** Reads a CapacityLedger's buckets back, as its reference model sees them. */
struct CapacityLedgerProbe
{
    /**
     * Bytes booked on @p lane in each bucket of page @p page_no; +inf
     * once saturated there.
     */
    static std::vector<double>
    pageBytes(const CapacityLedger &ledger, std::uint64_t page_no,
              unsigned lane = 0)
    {
        std::vector<double> bytes(CapacityLedger::kPageBuckets, 0.0);
        const auto it = std::find_if(
            ledger.pages_.begin(), ledger.pages_.end(),
            [page_no](const auto &live) { return live.no == page_no; });
        if (it == ledger.pages_.end())
            return bytes;
        const CapacityLedger::Page &page = *it->page;
        for (std::uint64_t slot = 0; slot < bytes.size(); ++slot) {
            const std::uint64_t bit = std::uint64_t{1} << (slot % 64);
            if (page.saturated[slot / 64] & bit)
                bytes[slot] = std::numeric_limits<double>::infinity();
            else if (page.occupied[slot / 64] & bit)
                bytes[slot] = std::numeric_limits<double>::quiet_NaN();
        }
        for (std::size_t i = 0; i < page.partialSlots.size(); ++i) {
            // NaN, which matches nothing, marks a lost or stray entry.
            const std::uint16_t slot = page.partialSlots[i];
            const double used = page.partialUsed[i * ledger.lanes() + lane];
            bytes[slot] = !std::isnan(bytes[slot])
                              ? std::numeric_limits<double>::quiet_NaN()
                          : ledger.cap_ - used > 1e-12
                              ? used
                              : std::numeric_limits<double>::infinity();
            if (!page.index.empty() && page.index[slot] != i + 1)
                bytes[slot] = std::numeric_limits<double>::quiet_NaN();
        }
        return bytes;
    }

    /**
     * The numbers of the pages @p ledger holds, in the order its table
     * keeps them, which must be ascending.
     */
    static std::vector<std::uint64_t>
    pages(const CapacityLedger &ledger)
    {
        std::vector<std::uint64_t> numbers;
        for (const auto &live : ledger.pages_)
            numbers.push_back(live.no);
        return numbers;
    }

    /**
     * Whether every page in @p pool holds no index, and partial lists
     * with room for at most PagePool::kKeptPartials entries each.
     */
    static bool
    poolTrimmed(const CapacityLedger::PagePool &pool)
    {
        constexpr std::size_t kKept = CapacityLedger::PagePool::kKeptPartials;
        return std::all_of(
            pool.pages_.begin(), pool.pages_.end(), [](const auto &page) {
                return page->index.capacity() == 0 &&
                       page->partialSlots.capacity() <= kKept &&
                       page->partialUsed.capacity() <= kKept;
            });
    }
};

} // namespace dtu

namespace
{

using namespace dtu;

//
// Functional VMM across every supported pattern.
//

class VmmPatternProperty
    : public ::testing::TestWithParam<std::tuple<int, unsigned>>
{};

TEST_P(VmmPatternProperty, MatchesHostReference)
{
    auto dtype = static_cast<DType>(std::get<0>(GetParam()));
    unsigned rows = std::get<1>(GetParam());
    MatrixEngine engine(false);
    if (!engine.supports(rows, dtype))
        GTEST_SKIP() << "unsupported pattern";

    RegisterFile regs;
    Random rng(static_cast<std::uint64_t>(rows) * 31 +
               static_cast<std::uint64_t>(dtype));
    unsigned lanes = vectorLanes(dtype);
    double lo = dtypeIsFloat(dtype) ? -1.0 : -8.0;
    double hi = dtypeIsFloat(dtype) ? 1.0 : 8.0;
    std::vector<double> vec(rows), mat(rows * lanes);
    for (unsigned r = 0; r < rows; ++r) {
        vec[r] = dtypeQuantize(dtype, rng.uniform(lo, hi));
        regs.setVlane(0, r, vec[r]);
        for (unsigned c = 0; c < lanes; ++c) {
            mat[r * lanes + c] =
                dtypeQuantize(dtype, rng.uniform(lo, hi));
            regs.setMelem(0, r, c, mat[r * lanes + c]);
        }
    }
    regs.accZero(0);
    Instruction inst{.op = Opcode::Vmm, .dst = 0, .a = 0, .b = 0,
                     .vmmRows = static_cast<int>(rows),
                     .accumulate = true, .dtype = dtype};
    engine.executeVmm(regs, inst);
    // Tolerance scales with the dtype's precision and the reduction
    // length (accumulation happens in FP32-class registers).
    double eps = dtypeIsFloat(dtype)
                     ? rows * std::pow(2.0, -dtypeMantissaBits(dtype)) *
                           4.0
                     : 1e-9;
    for (unsigned c = 0; c < lanes; ++c) {
        double want = 0.0;
        for (unsigned r = 0; r < rows; ++r)
            want += vec[r] * mat[r * lanes + c];
        EXPECT_NEAR(regs.aclane(0, c), want,
                    std::max(eps, std::fabs(want) * eps))
            << dtypeName(dtype) << " rows=" << rows << " lane=" << c;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllPatterns, VmmPatternProperty,
    ::testing::Combine(::testing::Range(0, numDTypes),
                       ::testing::Values(4u, 8u, 16u, 32u)),
    [](const ::testing::TestParamInfo<std::tuple<int, unsigned>> &info) {
        return dtypeName(static_cast<DType>(std::get<0>(info.param))) +
               "_rows" + std::to_string(std::get<1>(info.param));
    });

TEST(VmmPatternProperty, PatternCountMatchesSupports)
{
    // supportedPatterns() and supports() must agree exactly.
    MatrixEngine engine(false);
    auto patterns = MatrixEngine::supportedPatterns();
    for (const VmmPattern &p : patterns)
        EXPECT_TRUE(engine.supports(p.rows, p.dtype));
    std::size_t count = 0;
    for (int d = 0; d < numDTypes; ++d) {
        for (unsigned rows : {4u, 8u, 16u, 32u}) {
            if (engine.supports(rows, static_cast<DType>(d)))
                count += 2; // accumulate + overwrite
        }
    }
    EXPECT_EQ(patterns.size(), count);
}

//
// Sparse codec / DMA monotonicity.
//

class SparseMonotonicity : public ::testing::TestWithParam<int>
{};

TEST_P(SparseMonotonicity, EncodedBytesGrowWithDensity)
{
    auto numel = static_cast<std::uint64_t>(1000 + 517 * GetParam());
    std::uint64_t prev = 0;
    for (double density = 0.0; density <= 1.0; density += 0.1) {
        std::uint64_t bytes =
            sparseEncodedBytes(numel, density, DType::FP16);
        EXPECT_GE(bytes, prev);
        prev = bytes;
    }
    // Floor: the mask alone; ceiling: dense + mask.
    EXPECT_EQ(sparseEncodedBytes(numel, 0.0, DType::FP16),
              (numel + 63) / 64 * 8);
    EXPECT_EQ(sparseEncodedBytes(numel, 1.0, DType::FP16),
              (numel + 63) / 64 * 8 + numel * 2);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SparseMonotonicity,
                         ::testing::Range(0, 8));

TEST(DmaProperty, CompletionMonotoneInBytes)
{
    Tick watermark = 0;
    StatRegistry stats;
    ClockDomain clock(1.0e9);
    Hbm hbm("hbm", watermark, &stats, 16_GiB, 819e9, 8, 0);
    Sram l2("l2", watermark, &stats, MemLevel::L2, 8_MiB, 4, 83e9, 0, 0,
            333e9);
    Sram l1("l1", watermark, &stats, MemLevel::L1, 1_MiB, 1, 166e9, 0);
    DmaFabric fabric;
    fabric.hbm = &hbm;
    fabric.localL2 = &l2;
    fabric.clusterL2 = {&l2};
    fabric.coreL1 = {&l1};
    DmaEngine dma("dma", watermark, &stats, clock, fabric, DmaFeatures{});
    // Back-to-back transfers on one engine: completion never goes
    // backwards, and an order of magnitude more data takes strictly
    // longer (small sizes may tie within one ledger bucket).
    Tick prev = 0;
    Tick first = 0, last = 0;
    for (std::uint64_t kib = 1; kib <= 1024; kib *= 4) {
        DmaDescriptor desc;
        desc.src = MemLevel::L3;
        desc.dst = MemLevel::L2;
        desc.bytes = kib * 1024;
        DmaResult r = dma.submitAt(0, desc);
        EXPECT_GE(r.done, prev);
        prev = r.done;
        if (kib == 1)
            first = r.done;
        last = r.done;
    }
    EXPECT_GT(last, 4 * first);
}

TEST(BandwidthProperty, OutOfOrderArrivalsConserveCapacity)
{
    // Submit a late request for an early time: it must use the idle
    // capacity of the past, not queue behind already-finished work.
    Tick watermark = 0;
    StatRegistry stats;
    BandwidthResource pipe("pipe", watermark, &stats, 1e9); // 1 GB/s
    Tick far = pipe.transferAt(10'000'000, 1000);       // at t=10us
    Tick early = pipe.transferAt(0, 1000);              // at t=0
    EXPECT_GT(far, 10'000'000u);
    EXPECT_LE(early, 2'100'000u); // finishes long before the late one
}

TEST(BandwidthProperty, SimultaneousRequestsSumToSerialTime)
{
    Tick watermark = 0;
    StatRegistry stats;
    BandwidthResource pipe("pipe", watermark, &stats, 1e9);
    Tick a = pipe.transferAt(0, 500'000);
    Tick b = pipe.transferAt(0, 500'000);
    // Together they need 1 MB / 1 GB/s = 1 ms of capacity.
    EXPECT_NEAR(static_cast<double>(std::max(a, b)), 1e9, 1e9 * 0.01);
}

//
// Executor scaling laws.
//

TEST(ExecutorProperty, LatencyMonotoneInBatch)
{
    DtuConfig config = dtu2Config();
    Tick prev = 0;
    for (int batch : {1, 2, 4}) {
        Dtu chip(config);
        ExecutionPlan plan =
            compile(models::buildResnet50(batch), config, DType::FP16,
                    6, {}, batch);
        Executor executor(chip, {0, 1, 2, 3, 4, 5},
                          {.powerManagement = false});
        Tick latency = executor.run(plan).latency;
        EXPECT_GT(latency, prev);
        prev = latency;
    }
}

TEST(ExecutorProperty, FasterDtypeNeverSlower)
{
    DtuConfig config = dtu2Config();
    Graph g = models::buildVgg16();
    Tick prev = maxTick;
    for (DType t : {DType::FP32, DType::FP16, DType::INT8}) {
        Dtu chip(config);
        ExecutionPlan plan = compile(g, config, t, 6);
        Executor executor(chip, {0, 1, 2, 3, 4, 5},
                          {.powerManagement = false});
        Tick latency = executor.run(plan).latency;
        EXPECT_LE(latency, prev) << dtypeName(t);
        prev = latency;
    }
}

TEST(ExecutorProperty, EveryFeatureOffNeverFaster)
{
    DtuConfig config = dtu2Config();
    Graph g = models::buildResnet50();
    ExecutionPlan plan = compile(g, config, DType::FP16, 6);
    auto run_with = [&](ExecOptions options) {
        Dtu chip(config);
        Executor executor(chip, {0, 1, 2, 3, 4, 5}, options);
        return executor.run(plan).latency;
    };
    ExecOptions base{.powerManagement = false};
    Tick baseline = run_with(base);
    for (int feature = 0; feature < 5; ++feature) {
        ExecOptions options = base;
        switch (feature) {
          case 0: options.useSparse = false; break;
          case 1: options.useBroadcast = false; break;
          case 2: options.useRepeat = false; break;
          case 3: options.usePrefetch = false; break;
          case 4: options.useL2Residency = false; break;
        }
        EXPECT_GE(run_with(options) + 1000, baseline)
            << "feature " << feature;
    }
}

//
// Arrival-generator properties (serve/arrival.hh).
//

TEST(ArrivalProperty, PoissonEmpiricalMeanNearNominalRate)
{
    // The empirical rate of a long Poisson trace converges on the
    // nominal qps: with n = 4096 gaps the sample mean sits within a
    // few percent of 1/qps w.h.p.; 15% is a safely loose band that
    // still catches an inverted or mis-scaled inverse-CDF.
    for (std::uint64_t seed : {1ull, 77ull, 4096ull}) {
        double qps = 2500.0;
        auto trace =
            serve::poissonTrace("resnet50", qps, 4096, seed);
        double measured = serve::offeredQps(trace);
        EXPECT_GT(measured, qps * 0.85) << "seed " << seed;
        EXPECT_LT(measured, qps * 1.15) << "seed " << seed;
    }
}

TEST(ArrivalProperty, GeneratorsEmitStrictlyIncreasingTimestamps)
{
    // Strictly increasing, not merely monotone: exponential gaps
    // are clamped to >= 1 tick, so no two arrivals of one stream
    // ever collide on a timestamp.
    for (std::uint64_t seed : {2ull, 31ull, 999ull}) {
        for (const auto &trace :
             {serve::poissonTrace("a", 3000.0, 512, seed),
              serve::burstyTrace("a", 3000.0, 512, seed)}) {
            for (std::size_t i = 1; i < trace.size(); ++i) {
                ASSERT_GT(trace[i].arrival, trace[i - 1].arrival)
                    << "seed " << seed << " index " << i;
            }
        }
    }
}

TEST(ArrivalProperty, ExtremeRatesStillTickForward)
{
    // Regression: at rates where the mean gap is well under one
    // picosecond (here 10^13 qps, mean gap 0.1 ticks), expGap used
    // to round most gaps to 0 and stack whole traces on duplicate
    // timestamps. The clamp degrades such a trace to one arrival
    // per tick instead.
    for (std::uint64_t seed : {7ull, 1234ull}) {
        auto trace = serve::poissonTrace("a", 1e13, 256, seed);
        for (std::size_t i = 1; i < trace.size(); ++i) {
            ASSERT_GT(trace[i].arrival, trace[i - 1].arrival)
                << "seed " << seed << " index " << i;
        }
    }
}

TEST(ArrivalProperty, DeadlineIsArrivalPlusSlo)
{
    Tick slo = secondsToTicks(7e-3);
    for (const auto &trace :
         {serve::fixedRateTrace("a", 1000.0, 64, slo),
          serve::poissonTrace("a", 1000.0, 64, /*seed=*/5, slo),
          serve::burstyTrace("a", 1000.0, 64, /*seed=*/5, 8, 4.0,
                             slo)}) {
        for (const serve::Request &r : trace)
            ASSERT_EQ(r.deadline, r.arrival + slo);
    }
}

TEST(ArrivalProperty, ZeroSloLeavesDeadlineUnset)
{
    for (const serve::Request &r :
         serve::poissonTrace("a", 1000.0, 64, /*seed=*/9))
        ASSERT_EQ(r.deadline, 0u);
}

//
// Histogram percentile properties (sim/stats.hh).
//

TEST(HistogramProperty, PercentilesAreMonotoneOnRandomSamples)
{
    // p50 <= p95 <= p99 must hold for any sample set; sweep several
    // seeded random shapes (uniform, heavy-tailed, near-constant).
    Random rng(2024);
    for (int trial = 0; trial < 20; ++trial) {
        Histogram h;
        h.init(0.0, 100.0, 64);
        int samples = 50 + static_cast<int>(rng.below(500));
        for (int i = 0; i < samples; ++i) {
            double v = rng.uniform(0.0, 100.0);
            if (trial % 3 == 1)
                v = v * v / 100.0; // heavy tail toward 0
            if (trial % 3 == 2)
                v = 50.0 + v / 100.0; // near-constant
            h.sample(v);
        }
        double p50 = h.percentile(0.50);
        double p95 = h.percentile(0.95);
        double p99 = h.percentile(0.99);
        ASSERT_LE(p50, p95) << "trial " << trial;
        ASSERT_LE(p95, p99) << "trial " << trial;
        ASSERT_GE(p50, h.min()) << "trial " << trial;
        ASSERT_LE(p99, h.max()) << "trial " << trial;
    }
}

//
// The capacity ledger against the per-bucket walk it replaced.
//
// CapacityLedger skips saturated buckets a word at a time and stores
// only partial buckets, but must book every transfer exactly as the
// original dense, one-bucket-at-a-time ledger did: same completion
// tick, same freeAt, same wait ticks, with no tolerance.
//

/**
 * The original ledger, kept as the reference model: dense pages of
 * per-bucket byte counts and the walk verbatim, plus the wait
 * accounting of both of its callers.
 */
struct RefLedger
{
    static constexpr std::uint64_t kPageBuckets = 4096;
    using Page = std::array<double, kPageBuckets>;

    explicit RefLedger(double bytes_per_second)
        : bytesPerSecond_(bytes_per_second)
    {}

    double
    bucketBytes() const
    {
        return bytesPerSecond_ * ticksToSeconds(bucketTicks_);
    }

    double &
    usedAt(std::uint64_t idx)
    {
        std::uint64_t page_no = idx / kPageBuckets;
        if (page_no != cachedPageNo_) {
            std::unique_ptr<Page> &page = pages_[page_no];
            if (!page)
                page = std::make_unique<Page>();
            cachedPageNo_ = page_no;
            cachedPage_ = page.get();
        }
        return (*cachedPage_)[idx % kPageBuckets];
    }

    /** The walk: the tick the last byte lands, as the ledger returns. */
    Tick
    book(Tick at, std::uint64_t bytes)
    {
        if (bytes == 0)
            return at;
        const std::uint64_t max_bucket = maxTick / bucketTicks_;
        const double cap = bucketBytes();
        double remaining = static_cast<double>(bytes);
        std::uint64_t idx = at / bucketTicks_;
        double first_frac =
            1.0 - static_cast<double>(at - idx * bucketTicks_) /
                      static_cast<double>(bucketTicks_);
        Tick done = at;
        while (remaining > 0.0) {
            if (idx >= max_bucket) {
                done = maxTick;
                break;
            }
            double bucket_cap = cap * (idx == at / bucketTicks_ ? first_frac
                                                                : 1.0);
            double &used = usedAt(idx);
            double avail = bucket_cap - used;
            if (avail > 1e-12) {
                double take = std::min(avail, remaining);
                used += take;
                remaining -= take;
                double filled_frac = used / cap;
                done = saturatingAddTicks(
                    idx * bucketTicks_,
                    static_cast<Tick>(filled_frac *
                                          static_cast<double>(bucketTicks_) +
                                      0.5));
            }
            if (remaining > 0.0)
                ++idx;
        }
        done = std::max(done, at);
        freeAt_ = std::max(freeAt_, done);
        return done;
    }

    /** fabric::Link's accounting around the walk. */
    Tick
    linkTransferAt(Tick at, std::uint64_t bytes)
    {
        Tick done = book(at, bytes);
        if (bytes == 0)
            return done;
        Tick pure = secondsToTicks(static_cast<double>(bytes) /
                                   bytesPerSecond_);
        Tick unqueued = saturatingAddTicks(at, pure);
        if (done > unqueued)
            linkWait_ = saturatingAddTicks(linkWait_, done - unqueued);
        return done;
    }

    /** BandwidthResource's accounting, given the walk's result. */
    Tick
    pipeCompletion(Tick at, std::uint64_t bytes, Tick done, Tick latency)
    {
        if (bytes == 0)
            return at + latency;
        Tick completion = done + latency;
        double ticks = static_cast<double>(bytes) *
                       static_cast<double>(ticksPerSecond) / bytesPerSecond_;
        Tick pure = latency + static_cast<Tick>(ticks + 0.5);
        if (completion > at + pure)
            pipeWait_ += static_cast<double>(completion - at - pure);
        return completion;
    }

    double bytesPerSecond_;
    Tick bucketTicks_ = 50'000; // 50 ns
    std::unordered_map<std::uint64_t, std::unique_ptr<Page>> pages_;
    std::uint64_t cachedPageNo_ = ~std::uint64_t{0};
    Page *cachedPage_ = nullptr;
    Tick freeAt_ = 0;
    Tick linkWait_ = 0;
    double pipeWait_ = 0.0;
};

TEST(CapacityLedgerProperty, RandomOutOfOrderTransfersMatchPerBucketWalk)
{
    constexpr Tick kBucket = CapacityLedger::kBucketTicks;
    constexpr Tick kPage = RefLedger::kPageBuckets * kBucket;
    constexpr Tick kLatency = 1'500;
    // An i20 L2 port (64 B/cycle at 1.3 GHz), one of eight HBM2E
    // channels (819 GB/s total), a 32 GB/s fabric link, and an uneven
    // rate: the first three hold a dyadic number of bytes per bucket,
    // so subtracting whole buckets is exact; 100/3 GB/s is not, so the
    // walk's per-bucket rounding must be replayed step by step.
    for (double gbps : {83.2, 819.0 / 8, 32.0, 100.0 / 3}) {
        for (std::uint64_t seed : {1u, 7u, 42u}) {
            SCOPED_TRACE(testing::Message()
                         << gbps << " GB/s, seed " << seed);
            const double bps = gbps * 1e9;
            RefLedger ref(bps);
            CapacityLedger ledger(bps);
            fabric::Link link("prop.link", gbps);
            Tick watermark = 0;
            StatRegistry stats;
            BandwidthResource pipe("prop.pipe", watermark, &stats, bps,
                                   kLatency);
            const double cap = ref.bucketBytes();
            std::uint64_t transfers = 0;
            auto check = [&](Tick at, std::uint64_t bytes) {
                ++transfers;
                const Tick done = ref.linkTransferAt(at, bytes);
                EXPECT_EQ(ledger.book(at, bytes), done)
                    << "at " << at << " bytes " << bytes;
                EXPECT_EQ(link.transferAt(at, bytes), done)
                    << "at " << at << " bytes " << bytes;
                EXPECT_EQ(pipe.transferAt(at, bytes),
                          ref.pipeCompletion(at, bytes, done, kLatency))
                    << "at " << at << " bytes " << bytes;
                EXPECT_EQ(ledger.freeAt(), ref.freeAt_);
                EXPECT_EQ(link.freeAt(), ref.freeAt_);
                EXPECT_EQ(pipe.freeAt(), ref.freeAt_);
            };
            auto bucketsOf = [&](double n) {
                return static_cast<std::uint64_t>(n * cap);
            };

            // Directed edges first. A mid-page start whose empty run
            // ends exactly at the page edge, against an occupied first
            // bucket of the next page:
            check(kPage, 10);
            check(kPage - 3 * kBucket - 7, bucketsOf(2.5));
            check(kPage - 70 * kBucket + 123, bucketsOf(80.25));
            // ...a saturated run of 200 buckets walked from inside:
            check(0, bucketsOf(200));
            check(5 * kBucket + 17'000, 99);
            check(0, 1);
            // ...one transfer spanning three whole pages.
            check(2 * kPage + 1, bucketsOf(3.5 * RefLedger::kPageBuckets));
            ASSERT_FALSE(HasFailure());

            // Then random out-of-order traffic behind a window that
            // advances ~30 buckets per transfer, at ~0.6 offered load.
            Random rng(seed);
            Tick window = 6 * kPage;
            for (unsigned i = 0; i < 100'000; ++i) {
                window += rng.below(60 * kBucket);
                Tick at = window + rng.below(64 * kBucket);
                const double where = rng.uniform();
                if (where < 0.15)
                    at -= at % kBucket; // bucket-aligned
                else if (where < 0.20)
                    at += kPage - at % kPage; // page-aligned
                else if (where < 0.30)
                    at = window - rng.below(300 * kBucket); // behind
                else if (where < 0.40)
                    at = window + rng.below(kPage); // far ahead

                const double size = rng.uniform();
                std::uint64_t bytes;
                if (size < 0.05)
                    bytes = 0;
                else if (size < 0.65)
                    bytes = 1 + rng.below(bucketsOf(1));
                else if (size < 0.90)
                    bytes = 1 + rng.below(bucketsOf(64));
                else if (size < 0.99995)
                    bytes = 1 + rng.below(bucketsOf(150));
                else // several pages
                    bytes = bucketsOf(RefLedger::kPageBuckets *
                                      rng.uniform(1.0, 3.0));
                check(at, bytes);
                if (HasFailure())
                    return;
            }
            // Bucket for bucket, the compact ledger holds what the dense
            // one does: the same exact bytes in every partial bucket.
            std::uint64_t mismatched = 0;
            for (const auto &[page_no, page] : ref.pages_) {
                const std::vector<double> booked =
                    CapacityLedgerProbe::pageBytes(ledger, page_no);
                for (std::uint64_t slot = 0; slot < RefLedger::kPageBuckets;
                     ++slot) {
                    const double used = (*page)[slot];
                    const double expect =
                        cap - used > 1e-12
                            ? used
                            : std::numeric_limits<double>::infinity();
                    if (booked[slot] != expect)
                        ++mismatched;
                }
            }
            EXPECT_EQ(mismatched, 0u);
            EXPECT_EQ(link.totalWaitTicks(), ref.linkWait_);
            EXPECT_EQ(pipe.totalWait(), ref.pipeWait_);
            EXPECT_GT(ref.linkWait_, 0u);
            EXPECT_EQ(transfers, 100'007u);
        }
    }
}

//
// Series booking. A repeat-DMA run books its transactions on each pipe
// as one bookSeries()/transferSeries() call; that must equal booking
// them one at a time, in order, on the reference walk. The series here
// hold long empty runs (the walk's closed-form fill), cross word and
// page edges, start below a rising watermark, and run into maxTick.
//

TEST(CapacityLedgerProperty, SeriesMatchesOneBookingAtATime)
{
    constexpr Tick kBucket = CapacityLedger::kBucketTicks;
    constexpr Tick kPage = CapacityLedger::kPageTicks;
    constexpr Tick kLatency = 1'500;
    for (double gbps : {83.2, 819.0 / 8, 32.0, 100.0 / 3}) {
        for (bool rising : {false, true}) {
            for (std::uint64_t seed : {5u, 9u}) {
                SCOPED_TRACE(testing::Message()
                             << gbps << " GB/s, seed " << seed
                             << (rising ? ", rising watermark" : ""));
                const double bps = gbps * 1e9;
                RefLedger ref(bps);
                CapacityLedger ledger(bps);
                Tick watermark = 0;
                BandwidthResource pipe("prop.pipe", watermark, nullptr, bps,
                                       kLatency);
                const double cap = ref.bucketBytes();
                auto bucketsOf = [&](double n) {
                    return static_cast<std::uint64_t>(n * cap);
                };
                std::vector<Tick> starts;
                std::vector<Tick> done;
                std::vector<Tick> pipe_done;
                // Book `starts` as one series on the ledger and the
                // pipe, and one at a time on the reference.
                auto series = [&](std::uint64_t bytes) {
                    done.assign(starts.size(), 0);
                    pipe_done.assign(starts.size(), 0);
                    ledger.bookSeries(starts.data(), starts.size(), bytes,
                                      watermark, done.data());
                    pipe.transferSeries(starts.data(), starts.size(), bytes,
                                        pipe_done.data());
                    for (std::size_t i = 0; i < starts.size(); ++i) {
                        const Tick expect =
                            ref.book(std::max(starts[i], watermark), bytes);
                        EXPECT_EQ(done[i], expect)
                            << "at " << starts[i] << " bytes " << bytes;
                        if (expect == maxTick)
                            EXPECT_EQ(pipe_done[i], maxTick);
                        else
                            EXPECT_EQ(pipe_done[i],
                                      ref.pipeCompletion(starts[i], bytes,
                                                         expect, kLatency))
                                << "at " << starts[i] << " bytes " << bytes;
                    }
                    EXPECT_EQ(ledger.freeAt(), ref.freeAt_);
                    EXPECT_EQ(pipe.freeAt(), ref.freeAt_);
                };

                Random rng(seed);
                Tick window = 2 * kPage;
                for (unsigned s = 0; s < 2'000; ++s) {
                    const double size = rng.uniform();
                    std::uint64_t bytes;
                    if (size < 0.03)
                        bytes = 0;
                    else if (size < 0.4)
                        bytes = 1 + rng.below(bucketsOf(1));
                    else if (size < 0.8)
                        bytes = 1 + rng.below(bucketsOf(64));
                    else if (size < 0.999)
                        bytes = 1 + rng.below(bucketsOf(300));
                    else // several pages
                        bytes = bucketsOf(CapacityLedger::kPageBuckets *
                                          rng.uniform(1.0, 2.0));
                    const std::uint64_t n =
                        1 + rng.below(bytes > bucketsOf(8)       ? 6
                                      : rng.uniform() < 0.5 ? 8
                                                            : 80);
                    if (rising && rng.uniform() < 0.3)
                        watermark = std::max(
                            watermark, window - rng.below(200 * kBucket));
                    Tick at = window + rng.below(64 * kBucket);
                    const double where = rng.uniform();
                    if (where < 0.1)
                        at += kPage - at % kPage - rng.below(8 * kBucket);
                    else if (where < 0.2)
                        at = window + kPage + rng.below(kPage); // fresh
                    else if (where < 0.3 && watermark)
                        at = watermark - rng.below(std::min(
                                             watermark, 16 * kBucket));
                    starts.assign(1, at);
                    for (std::uint64_t i = 1; i < n; ++i) {
                        const double gap = rng.uniform();
                        at += gap < 0.3   ? 0
                              : gap < 0.9 ? rng.below(2 * kBucket)
                                          : rng.below(40 * kBucket);
                        starts.push_back(at);
                    }
                    series(bytes);
                    if (HasFailure())
                        return;
                    // Keep the offered load near 0.6 so the backlog,
                    // which the reference walks bucket by bucket,
                    // stays short.
                    window += rng.below(40 * kBucket) +
                              static_cast<Tick>(
                                  1.6 * static_cast<double>(n * bytes) /
                                  cap * static_cast<double>(kBucket));
                }
                EXPECT_EQ(pipe.totalWait(), ref.pipeWait_);
                EXPECT_GT(ref.pipeWait_, 0.0);

                // Bucket for bucket, every live page holds what the
                // dense reference does; pages below the watermark are
                // retired.
                std::uint64_t mismatched = 0;
                for (const auto &[page_no, page] : ref.pages_) {
                    if (page_no < watermark / kPage)
                        continue;
                    const std::vector<double> booked =
                        CapacityLedgerProbe::pageBytes(ledger, page_no);
                    for (std::uint64_t slot = 0;
                         slot < RefLedger::kPageBuckets; ++slot) {
                        const double used = (*page)[slot];
                        const double expect =
                            cap - used > 1e-12
                                ? used
                                : std::numeric_limits<double>::infinity();
                        if (booked[slot] != expect)
                            ++mismatched;
                    }
                }
                EXPECT_EQ(mismatched, 0u);

                // A series that runs past the last bucket completing
                // before maxTick saturates there, booking for booking.
                const Tick end = (maxTick / kBucket - 3) * kBucket;
                starts = {end + 7, end + 7, end + kBucket, end + 3 * kBucket};
                series(bucketsOf(2.5));
                EXPECT_EQ(done.back(), maxTick);
            }
        }
    }
}

//
// Lanes. The core ports of an L2 slice and the channels of an HBM
// stack share one lane ledger, and a striped transfer books all of
// them in one walk; every lane must book exactly as its own one-lane
// ledger would, down to the exact bytes of every bucket.
//

TEST(CapacityLedgerProperty, LanesMatchIndependentLedgers)
{
    constexpr Tick kBucket = CapacityLedger::kBucketTicks;
    constexpr Tick kPage = CapacityLedger::kPageTicks;
    constexpr std::uint64_t kStripe = 256;
    for (unsigned lanes : {1u, 2u, 4u, 8u}) {
        for (double gbps : {83.2, 819.0 / 8, 100.0 / 3}) {
            for (std::uint64_t seed : {4u, 21u}) {
                SCOPED_TRACE(testing::Message()
                             << lanes << " lanes, " << gbps
                             << " GB/s, seed " << seed);
                const double bps = gbps * 1e9;
                CapacityLedger shared(bps, lanes);
                std::vector<CapacityLedger> solo;
                for (unsigned l = 0; l < lanes; ++l)
                    solo.emplace_back(bps);
                const double cap = bps * ticksToSeconds(kBucket);
                auto bucketsOf = [&](double n) {
                    return static_cast<std::uint64_t>(n * cap);
                };
                Random rng(seed);
                Tick window = 2 * kPage;
                Tick watermark = 0;
                std::vector<std::uint64_t> bytes(lanes);
                std::vector<Tick> done(lanes);
                std::uint64_t striped = 0;
                std::uint64_t pinned = 0;
                for (unsigned i = 0; i < 20'000; ++i) {
                    // A monotone watermark that retires pages now and
                    // then; starts out of order, at page edges, far
                    // ahead, and below the watermark.
                    if (rng.uniform() < 0.02)
                        watermark = std::max(
                            watermark, window - rng.below(300 * kBucket));
                    window += rng.below(24 * kBucket);
                    Tick at = window + rng.below(64 * kBucket);
                    const double where = rng.uniform();
                    if (where < 0.1)
                        at -= at % kBucket;
                    else if (where < 0.15)
                        at += kPage - at % kPage - rng.below(4 * kBucket);
                    else if (where < 0.25)
                        at = window - rng.below(200 * kBucket);
                    else if (where < 0.3)
                        at = window + rng.below(kPage);
                    else if (where < 0.33 && watermark)
                        at = watermark - rng.below(
                                             std::min(watermark, kPage));

                    const double size = rng.uniform();
                    const std::uint64_t base =
                        size < 0.6    ? 1 + rng.below(bucketsOf(1))
                        : size < 0.95 ? 1 + rng.below(bucketsOf(24))
                                      : 1 + rng.below(bucketsOf(400));
                    if (rng.uniform() < 0.2) {
                        // One lane alone: a pinned port.
                        const auto lane =
                            static_cast<unsigned>(rng.below(lanes));
                        ++pinned;
                        ASSERT_EQ(shared.book(at, base, watermark, lane),
                                  solo[lane].book(at, base, watermark))
                            << "lane " << lane << " at " << at
                            << " bytes " << base;
                    } else {
                        // A stripe: every lane the same bytes, one byte
                        // apart (a port stripe), or one 256-byte stripe
                        // apart (HBM channels); some lanes idle.
                        const double shape = rng.uniform();
                        const auto rem =
                            static_cast<unsigned>(rng.below(lanes));
                        for (unsigned l = 0; l < lanes; ++l) {
                            bytes[l] = shape < 0.3   ? base
                                       : shape < 0.7 ? base + (l < rem)
                                       : (base / kStripe + (l < rem)) *
                                             kStripe;
                            if (rng.uniform() < 0.15)
                                bytes[l] = 0;
                        }
                        ++striped;
                        shared.bookLanes(at, bytes.data(), watermark,
                                         done.data());
                        for (unsigned l = 0; l < lanes; ++l)
                            ASSERT_EQ(done[l],
                                      solo[l].book(at, bytes[l], watermark))
                                << "lane " << l << " at " << at
                                << " bytes " << bytes[l];
                    }
                    for (unsigned l = 0; l < lanes; ++l)
                        ASSERT_EQ(shared.freeAt(l), solo[l].freeAt());
                }
                EXPECT_GT(striped, 15'000u);
                EXPECT_GT(pinned, 3'000u);

                // Every ledger retires below the last watermark; then the
                // shared ledger holds exactly the pages its lanes hold,
                // and, bucket for bucket and lane for lane, their bytes.
                shared.book(0, 0, watermark);
                std::vector<std::uint64_t> union_pages;
                for (unsigned l = 0; l < lanes; ++l) {
                    solo[l].book(0, 0, watermark);
                    for (std::uint64_t page_no :
                         CapacityLedgerProbe::pages(solo[l]))
                        union_pages.push_back(page_no);
                }
                std::sort(union_pages.begin(), union_pages.end());
                union_pages.erase(
                    std::unique(union_pages.begin(), union_pages.end()),
                    union_pages.end());
                ASSERT_EQ(CapacityLedgerProbe::pages(shared), union_pages);
                std::uint64_t mismatched = 0;
                std::uint64_t partial = 0;
                for (std::uint64_t page_no : union_pages) {
                    for (unsigned l = 0; l < lanes; ++l) {
                        const std::vector<double> expect =
                            CapacityLedgerProbe::pageBytes(solo[l], page_no);
                        const std::vector<double> got =
                            CapacityLedgerProbe::pageBytes(shared, page_no,
                                                           l);
                        for (std::size_t slot = 0; slot < got.size();
                             ++slot) {
                            // NaN (a lost partial) matches nothing.
                            mismatched += !(got[slot] == expect[slot]);
                            partial += expect[slot] > 0.0 &&
                                       expect[slot] < cap;
                        }
                    }
                }
                EXPECT_EQ(mismatched, 0u);
                EXPECT_GT(partial, 0u);
            }
        }
    }
}

//
// Page retirement behind a watermark. A booking reads only buckets at
// or after its own start, so dropping the pages wholly below a bound
// on every later start must leave every result as it was.
//

TEST(CapacityLedgerProperty, RetirementBehindWatermarkChangesNoBooking)
{
    constexpr Tick kBucket = CapacityLedger::kBucketTicks;
    constexpr Tick kPage = CapacityLedger::kPageTicks;
    for (double gbps : {83.2, 100.0 / 3}) {
        for (std::uint64_t seed : {3u, 11u}) {
            SCOPED_TRACE(testing::Message()
                         << gbps << " GB/s, seed " << seed);
            const double bps = gbps * 1e9;
            CapacityLedger kept(bps);
            CapacityLedger retired(bps);
            fabric::Link kept_link("prop.kept", gbps);
            fabric::Link link("prop.link", gbps);
            const Tick kept_watermark = 0;
            Tick watermark = 0;
            BandwidthResource kept_pipe("prop.kept", kept_watermark,
                                        nullptr, bps, 1'500);
            BandwidthResource pipe("prop.pipe", watermark, nullptr, bps,
                                   1'500);
            const double cap = bps * ticksToSeconds(kBucket);
            Random rng(seed);
            std::size_t max_live = 0;
            for (unsigned i = 0; i < 100'000; ++i) {
                // A monotone watermark, sometimes idle, sometimes
                // jumping whole pages; bookings start out of order, at
                // page and bucket edges, and a few below it.
                const double step = rng.uniform();
                if (step < 0.5)
                    watermark += rng.below(60 * kBucket);
                else if (step < 0.501)
                    watermark += kPage * (1 + rng.below(20));
                link.raiseWatermark(watermark);
                Tick at = watermark + rng.below(64 * kBucket);
                const double where = rng.uniform();
                if (where < 0.1)
                    at = watermark;
                else if (where < 0.2)
                    at += kPage - at % kPage;
                else if (where < 0.3)
                    at = watermark + rng.below(2 * kPage);
                // Late work, issued below the watermark, starts at it.
                const bool late = where >= 0.3 && where < 0.35 && watermark;
                if (late)
                    at = watermark - 1 -
                         rng.below(std::min(watermark, 2 * kPage));
                const std::uint64_t bytes =
                    rng.uniform() < 0.05
                        ? 0
                        : 1 + rng.below(static_cast<std::uint64_t>(
                                  cap * (rng.uniform() < 0.8 ? 1 : 150)));
                ASSERT_EQ(retired.book(at, bytes, watermark),
                          kept.book(std::max(at, watermark), bytes))
                    << "at " << at << " bytes " << bytes << " watermark "
                    << watermark;
                ASSERT_EQ(retired.freeAt(), kept.freeAt());
                max_live = std::max(max_live, retired.livePages());
                // Waiting for the watermark counts as queueing, so the
                // wait totals below compare only on-time transfers.
                if (late)
                    continue;
                ASSERT_EQ(link.transferAt(at, bytes),
                          kept_link.transferAt(at, bytes));
                ASSERT_EQ(pipe.transferAt(at, bytes),
                          kept_pipe.transferAt(at, bytes));
            }
            EXPECT_EQ(link.totalWaitTicks(), kept_link.totalWaitTicks());
            EXPECT_GT(link.totalWaitTicks(), 0u);
            EXPECT_EQ(pipe.totalWait(), kept_pipe.totalWait());
            // Live pages span only the watermark to the booking horizon,
            // while the unretired ledger keeps every page it touched.
            EXPECT_LE(max_live, 8u);
            EXPECT_LE(link.ledgerPages(), 8u);
            EXPECT_LE(pipe.ledgerPages(), 8u);
            EXPECT_GT(kept.livePages(), 200u);
        }
    }
}

//
// One page pool shared by ledgers of several lane counts, as a chip's
// ledgers share theirs. A pooled page may come back to a ledger of
// another lane count, and the shared ledgers retire eagerly, at each
// watermark raise, while the ledgers with pools of their own retire at
// their next booking; neither may change a booking.
//

TEST(CapacityLedgerProperty, SharedPoolChangesNoBooking)
{
    constexpr Tick kBucket = CapacityLedger::kBucketTicks;
    constexpr Tick kPage = CapacityLedger::kPageTicks;
    const std::vector<unsigned> lane_counts = {1, 4, 8, 1, 4, 8};
    for (double gbps : {83.2, 100.0 / 3}) {
        for (std::uint64_t seed : {6u, 17u}) {
            SCOPED_TRACE(testing::Message()
                         << gbps << " GB/s, seed " << seed);
            const double bps = gbps * 1e9;
            const double cap = bps * ticksToSeconds(kBucket);
            const std::size_t n = lane_counts.size();
            CapacityLedger::PagePool pool;
            std::vector<CapacityLedger> pooled;
            std::vector<CapacityLedger> own;
            std::vector<CapacityLedger> kept;
            for (unsigned lanes : lane_counts) {
                pooled.emplace_back(bps, lanes);
                pooled.back().sharePool(pool);
                own.emplace_back(bps, lanes);
                kept.emplace_back(bps, lanes);
            }
            // Lane 0 of every pooled and own ledger is also a pipe, whose
            // wait ticks must match.
            Tick watermark = 0;
            std::vector<std::unique_ptr<BandwidthResource>> pooled_pipes;
            std::vector<std::unique_ptr<BandwidthResource>> own_pipes;
            for (std::size_t k = 0; k < n; ++k) {
                pooled_pipes.push_back(std::make_unique<BandwidthResource>(
                    "prop.pooled", watermark, nullptr, pooled[k], 0u));
                own_pipes.push_back(std::make_unique<BandwidthResource>(
                    "prop.own", watermark, nullptr, own[k], 0u));
            }
            Random rng(seed);
            std::array<std::uint64_t, CapacityLedger::kMaxLanes> bytes{};
            std::array<Tick, CapacityLedger::kMaxLanes> done{};
            std::array<Tick, CapacityLedger::kMaxLanes> own_done{};
            std::array<Tick, CapacityLedger::kMaxLanes> kept_done{};
            std::vector<Tick> starts;
            std::vector<Tick> series_done;
            std::vector<Tick> own_series;
            std::vector<Tick> kept_series;
            // Ledgers booked in this stretch; the rest stay idle while
            // the watermark passes them by.
            std::vector<std::size_t> busy;
            std::size_t raises = 0;
            std::size_t max_pooled = 0;
            for (unsigned i = 0; i < 30'000; ++i) {
                if (i % 2'000 == 0) {
                    busy.clear();
                    for (std::size_t k = 0; k < n; ++k)
                        if (rng.uniform() < 0.5)
                            busy.push_back(k);
                    if (busy.empty())
                        busy.push_back(rng.below(n));
                }
                // A rising watermark, sometimes jumping whole pages. The
                // pooled ledgers retire at once, as a chip's do; the
                // others at their next booking.
                const double step = rng.uniform();
                const Tick before = watermark;
                if (step < 0.5)
                    watermark += rng.below(60 * kBucket);
                else if (step < 0.502)
                    watermark += kPage * (1 + rng.below(6));
                if (watermark / kPage > before / kPage) {
                    ++raises;
                    for (CapacityLedger &l : pooled)
                        l.raiseWatermark(watermark);
                }

                const std::size_t k = busy[rng.below(busy.size())];
                const unsigned lanes = lane_counts[k];
                Tick at = watermark + rng.below(64 * kBucket);
                const double where = rng.uniform();
                if (where < 0.1)
                    at = watermark;
                else if (where < 0.2)
                    at += kPage - at % kPage;
                else if (where < 0.3)
                    at = watermark + rng.below(2 * kPage);
                else if (where < 0.35 && watermark)
                    at = watermark - 1 -
                         rng.below(std::min(watermark, 2 * kPage));
                const Tick kept_at = std::max(at, watermark);
                auto size = [&] {
                    return rng.uniform() < 0.05
                               ? std::uint64_t{0}
                               : 1 + rng.below(static_cast<std::uint64_t>(
                                         cap * (rng.uniform() < 0.8 ? 1
                                                                    : 150)));
                };

                const double kind = rng.uniform();
                if (kind < 0.4 && lanes > 1) {
                    // A stripe, some lanes idle.
                    for (unsigned l = 0; l < lanes; ++l)
                        bytes[l] = rng.uniform() < 0.2 ? 0 : size();
                    pooled[k].bookLanes(at, bytes.data(), watermark,
                                        done.data());
                    own[k].bookLanes(at, bytes.data(), watermark,
                                     own_done.data());
                    kept[k].bookLanes(kept_at, bytes.data(), 0,
                                      kept_done.data());
                    for (unsigned l = 0; l < lanes; ++l) {
                        ASSERT_EQ(done[l], kept_done[l])
                            << "ledger " << k << " lane " << l << " at "
                            << at << " bytes " << bytes[l];
                        ASSERT_EQ(own_done[l], kept_done[l]);
                    }
                } else if (kind < 0.6) {
                    // A series on one lane, from a start that may be late.
                    const auto lane =
                        static_cast<unsigned>(rng.below(lanes));
                    const std::uint64_t b = size();
                    starts.assign(1, at);
                    for (std::uint64_t s = rng.below(8); s > 0; --s)
                        starts.push_back(starts.back() +
                                         rng.below(3 * kBucket));
                    series_done.assign(starts.size(), 0);
                    own_series.assign(starts.size(), 0);
                    kept_series.assign(starts.size(), 0);
                    pooled[k].bookSeries(starts.data(), starts.size(), b,
                                         watermark, series_done.data(),
                                         lane);
                    own[k].bookSeries(starts.data(), starts.size(), b,
                                      watermark, own_series.data(), lane);
                    for (Tick &s : starts)
                        s = std::max(s, watermark);
                    kept[k].bookSeries(starts.data(), starts.size(), b, 0,
                                       kept_series.data(), lane);
                    ASSERT_EQ(series_done, kept_series)
                        << "ledger " << k << " lane " << lane << " at "
                        << at << " bytes " << b;
                    ASSERT_EQ(own_series, kept_series);
                } else {
                    // One transfer on lane 0, through the pipes.
                    const std::uint64_t b = size();
                    const Tick pooled_done =
                        pooled_pipes[k]->transferAt(at, b);
                    ASSERT_EQ(pooled_done, own_pipes[k]->transferAt(at, b))
                        << "ledger " << k << " at " << at << " bytes " << b;
                    // The pipes add no latency: they complete with the
                    // ledger, and an empty transfer where it started.
                    const Tick kept_done_at = kept[k].book(kept_at, b);
                    ASSERT_EQ(pooled_done, b ? kept_done_at : at);
                }
                for (unsigned l = 0; l < lanes; ++l) {
                    ASSERT_EQ(pooled[k].freeAt(l), kept[k].freeAt(l));
                    ASSERT_EQ(own[k].freeAt(l), kept[k].freeAt(l));
                }
                max_pooled = std::max(max_pooled, pool.pages());
                if (i % 1'000 == 0)
                    ASSERT_TRUE(CapacityLedgerProbe::poolTrimmed(pool));
            }
            for (std::size_t k = 0; k < n; ++k) {
                EXPECT_EQ(pooled_pipes[k]->totalWait(),
                          own_pipes[k]->totalWait())
                    << "ledger " << k;
                // Idle or not, no pooled ledger holds a page wholly
                // below the watermark.
                const std::vector<std::uint64_t> live =
                    CapacityLedgerProbe::pages(pooled[k]);
                EXPECT_TRUE(std::is_sorted(live.begin(), live.end()));
                if (!live.empty())
                    EXPECT_GE(live.front(), watermark / kPage)
                        << "ledger " << k;
                EXPECT_GT(kept[k].livePages(), pooled[k].livePages());
            }
            EXPECT_GT(raises, 50u);
            EXPECT_GT(max_pooled, 0u);
            EXPECT_TRUE(CapacityLedgerProbe::poolTrimmed(pool));
        }
    }
}

TEST(CapacityLedgerProperty, LateBookingWaitsForTheWatermark)
{
    constexpr Tick kPage = CapacityLedger::kPageTicks;
    const Tick watermark = kPage + 1;
    CapacityLedger ledger(32e9);
    CapacityLedger kept(32e9);
    ledger.book(kPage / 2, 1'000);
    kept.book(kPage / 2, 1'000);
    // Starting in the retired page 0, or in the live page 1 below the
    // watermark, both book as if started at the watermark. The ledger
    // keeps the highest watermark it has seen.
    EXPECT_EQ(ledger.book(kPage - 1, 1'000, watermark),
              kept.book(watermark, 1'000));
    EXPECT_EQ(ledger.book(kPage, 1'000, watermark),
              kept.book(watermark, 1'000));
    EXPECT_EQ(ledger.book(0, 0), watermark);
    EXPECT_EQ(ledger.freeAt(), kept.freeAt());
    EXPECT_EQ(ledger.livePages(), 1u);

    // Pipes and links count the wait for the watermark as queueing.
    const Tick pipe_watermark = 3 * kPage;
    const Tick fresh_watermark = 0;
    BandwidthResource pipe("pipe", pipe_watermark, nullptr, 32e9);
    BandwidthResource fresh_pipe("fresh", fresh_watermark, nullptr, 32e9);
    EXPECT_EQ(pipe.transferAt(2 * kPage, 64),
              fresh_pipe.transferAt(3 * kPage, 64));
    EXPECT_NEAR(pipe.totalWait(), static_cast<double>(kPage), 1.0);
    fabric::Link link("link", 32.0);
    fabric::Link fresh_link("fresh", 32.0);
    link.raiseWatermark(3 * kPage);
    EXPECT_EQ(link.transferAt(2 * kPage, 64),
              fresh_link.transferAt(3 * kPage, 64));
    EXPECT_NEAR(static_cast<double>(link.totalWaitTicks()),
                static_cast<double>(kPage), 1.0);
}

} // namespace
