/**
 * @file
 * The capacity ledger every contended pipe books on: BandwidthResource
 * (L2 ports, HBM channels, DMA datapaths, PCIe) and fabric::Link.
 */

#ifndef DTU_MEM_CAPACITY_LEDGER_HH
#define DTU_MEM_CAPACITY_LEDGER_HH

#include <array>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/ticks.hh"

namespace dtu
{

/**
 * Time is divided into fixed buckets of rate x width bytes. A transfer
 * starting at tick t consumes idle capacity from bucket(t) forward, so
 * a request submitted out of simulation order uses the capacity still
 * idle at its start instead of queueing behind finished traffic.
 *
 * Empty buckets cost no storage, saturated ones one bit, and only
 * partial ones keep their exact double; DESIGN.md §4b says why this
 * books bit-identically to a dense one-bucket-at-a-time walk. The rate
 * is fixed at construction and must be positive (callers validate it).
 *
 * Time below a caller-supplied, monotone watermark is closed: a
 * booking that starts before it starts at it instead, and pages
 * wholly below it are retired. A walk reads only buckets at or after
 * its own start, so dropping them changes no booking that starts at
 * or after the watermark (DESIGN.md §4b).
 */
class CapacityLedger
{
  public:
    static constexpr Tick kBucketTicks = 50'000; // 50 ns
    static constexpr std::uint64_t kPageBuckets = 4096;
    static constexpr Tick kPageTicks = kPageBuckets * kBucketTicks;

    explicit CapacityLedger(double bytes_per_second);

    /**
     * Book @p bytes starting no earlier than @p at or the highest
     * @p watermark seen, first retiring the pages wholly below that
     * watermark (0 retires nothing).
     * @return the tick the last byte lands, saturating at maxTick
     *         (the start for zero bytes, which books nothing).
     */
    Tick book(Tick at, std::uint64_t bytes, Tick watermark = 0);

    /**
     * Book @p n transfers of @p bytes each, at the non-decreasing
     * @p starts in order, exactly as n book() calls with the same
     * @p watermark would, and write each completion to @p done.
     */
    void bookSeries(const Tick *starts, std::size_t n, std::uint64_t bytes,
                    Tick watermark, Tick *done);

    double bytesPerSecond() const { return bytesPerSecond_; }

    /** Latest completion booked so far. */
    Tick freeAt() const { return freeAt_; }

    /** Pages held: touched by a booking and not yet retired. */
    std::size_t livePages() const { return pages_.size(); }

  private:
    /** Reads buckets back for the reference-model property test. */
    friend struct CapacityLedgerProbe;

    /**
     * Retired page nodes kept for reuse; the rest are freed. A launch
     * books its whole timeline at once, tens of pages past the
     * watermark, so pages are created and retired in bursts. A spare
     * keeps the capacity of its partial list (at most kPageBuckets
     * entries), so a reused page does not grow it again.
     */
    static constexpr std::size_t kSparePages = 64;

    /** A bucket in neither bitmap is empty (0.0 bytes booked). */
    struct Page
    {
        std::array<std::uint64_t, kPageBuckets / 64> saturated{};
        /** Saturated or partial. */
        std::array<std::uint64_t, kPageBuckets / 64> occupied{};
        /** (slot, exact bytes booked) of each partial bucket. */
        std::vector<std::pair<std::uint16_t, double>> partials;
    };

    using PageMap = std::unordered_map<std::uint64_t, Page>;

    /** The live page @p page_no, made (from a spare) if new. */
    Page &pageFor(std::uint64_t page_no);

    /** Retire every page below @p page_no. */
    void retireBelow(std::uint64_t page_no);

    /** Keep the highest watermark, retiring the pages it passed. */
    void raiseWatermark(Tick watermark);

    /** One booking at or after the watermark (see book()). */
    Tick walk(Tick at, std::uint64_t bytes);

    double bytesPerSecond_;
    /** Capacity of one bucket in bytes. */
    double cap_;
    /**
     * Below this many bytes, `remaining - k * cap_` is exactly k
     * repeated `remaining -= cap_` (DESIGN.md §4b): 2^(q+53), where
     * 2^q is the lowest set bit of cap_.
     */
    double exactBelow_;
    PageMap pages_;
    /** Retired page nodes, reset on reuse; at most kSparePages. */
    std::vector<PageMap::node_type> spares_;
    /**
     * Highest watermark seen: pages wholly below it are retired, and
     * no booking starts before it.
     */
    Tick watermark_ = 0;
    /** Last page touched: walks are local, so this is the fast path. */
    std::uint64_t cachedPageNo_ = ~std::uint64_t{0};
    Page *cachedPage_ = nullptr;
    Tick freeAt_ = 0;
};

} // namespace dtu

#endif // DTU_MEM_CAPACITY_LEDGER_HH
