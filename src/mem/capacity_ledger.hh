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
 *
 * A ledger has one or more lanes: parallel pipes of one rate, such as
 * the core ports of an L2 slice or the channels of an HBM stack. Each
 * lane books exactly as its own one-lane ledger would, but the lanes
 * share one set of pages, and bookLanes() books a striped transfer on
 * every lane in one walk (DESIGN.md §4b, "Lanes").
 */
class CapacityLedger
{
  public:
    static constexpr Tick kBucketTicks = 50'000; // 50 ns
    static constexpr std::uint64_t kPageBuckets = 4096;
    static constexpr Tick kPageTicks = kPageBuckets * kBucketTicks;

    /** Most lanes one ledger holds: a walk keeps them in one mask. */
    static constexpr unsigned kMaxLanes = 64;

    /** @p lanes pipes of @p bytes_per_second each (1..kMaxLanes). */
    explicit CapacityLedger(double bytes_per_second, unsigned lanes = 1);

    /**
     * Book @p bytes on @p lane starting no earlier than @p at or the
     * highest @p watermark seen, first retiring the pages wholly below
     * that watermark (0 retires nothing).
     * @return the tick the last byte lands, saturating at maxTick
     *         (the start for zero bytes, which books nothing).
     */
    Tick book(Tick at, std::uint64_t bytes, Tick watermark = 0,
              unsigned lane = 0);

    /**
     * Book @p n transfers of @p bytes each on @p lane, at the
     * non-decreasing @p starts in order, exactly as n book() calls with
     * the same @p watermark would, and write each completion to
     * @p done.
     */
    void bookSeries(const Tick *starts, std::size_t n, std::uint64_t bytes,
                    Tick watermark, Tick *done, unsigned lane = 0);

    /**
     * Book @p bytes[l] on every lane l at @p at in one walk, exactly as
     * one book() per lane would, and write lane l's completion to
     * @p done[l]. Both arrays hold lanes() entries; a lane with zero
     * bytes books nothing.
     */
    void bookLanes(Tick at, const std::uint64_t *bytes, Tick watermark,
                   Tick *done);

    unsigned lanes() const { return lanes_; }

    double bytesPerSecond() const { return bytesPerSecond_; }

    /** Latest completion booked so far on @p lane. */
    Tick freeAt(unsigned lane = 0) const { return freeAt_[lane]; }

    /** Pages held: touched by a booking and not yet retired. */
    std::size_t livePages() const { return pages_.size(); }

    /** Drop every booking and the watermark: idle from tick 0 again. */
    void restart() { *this = CapacityLedger(bytesPerSecond_, lanes_); }

  private:
    /** Reads buckets back for the reference-model property test. */
    friend struct CapacityLedgerProbe;

    /**
     * Retired page nodes kept for reuse; the rest are freed. A launch
     * books its whole timeline at once, tens of pages past the
     * watermark, so pages are created and retired in bursts. A spare
     * keeps the capacity of its partial lists (at most kPageBuckets
     * entries), so a reused page does not grow them again.
     */
    static constexpr std::size_t kSparePages = 64;

    /**
     * A bucket in neither bitmap is empty on every lane (0.0 bytes
     * booked); one in the saturated bitmap is saturated on every lane.
     * Any other occupied bucket is partial and keeps the exact bytes
     * booked on each of its lanes, 0.0 on a lane it left empty.
     */
    struct Page
    {
        /** Saturated on every lane. */
        std::array<std::uint64_t, kPageBuckets / 64> saturated{};
        /** Saturated or partial: occupied on some lane. */
        std::array<std::uint64_t, kPageBuckets / 64> occupied{};
        /** The slot of each partial bucket. */
        std::vector<std::uint16_t> partialSlots;
        /** Its bytes booked per lane: lanes_ entries per slot, in order. */
        std::vector<double> partialUsed;
        /**
         * Entry number + 1 of each slot's partial bucket (0: none).
         * A lane ledger keeps one once a page holds more than
         * kIndexAbove partial buckets, so a long list is not searched;
         * empty until then, and always in a one-lane ledger.
         */
        std::vector<std::uint16_t> index;
    };

    /**
     * Partial buckets a lane ledger's page searches before it keeps
     * an index. A one-lane ledger's partial buckets are where its
     * bookings ended, few per page; a lane ledger also keeps those some
     * lanes saturated or left empty and others did not (HBM channels
     * of small accesses, pinned ports), which can fill a page.
     */
    static constexpr std::size_t kIndexAbove = 32;

    using PageMap = std::unordered_map<std::uint64_t, Page>;

    /** The live page @p page_no, made (from a spare) if new. */
    Page &pageFor(std::uint64_t page_no);

    /** Retire every page below @p page_no. */
    void retireBelow(std::uint64_t page_no);

    /** Keep the highest watermark, retiring the pages it passed. */
    void raiseWatermark(Tick watermark);

    /**
     * One booking of @p bytes[l] on each lane l, at or after the
     * watermark (see bookLanes()). @p kLanes is lanes_, or 0 to read
     * it at run time.
     */
    template <unsigned kLanes>
    void walk(Tick at, const std::uint64_t *bytes, Tick *done);

    /** walk() at this ledger's lane count. */
    void walkLanes(Tick at, const std::uint64_t *bytes, Tick *done);

    double bytesPerSecond_;
    unsigned lanes_;
    /** Capacity of one bucket of one lane in bytes. */
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
    /** Latest completion booked on each lane. */
    std::vector<Tick> freeAt_;
};

} // namespace dtu

#endif // DTU_MEM_CAPACITY_LEDGER_HH
