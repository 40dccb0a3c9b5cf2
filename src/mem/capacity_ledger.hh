/**
 * @file
 * The capacity ledger every contended pipe books on: BandwidthResource
 * (L2 ports, HBM channels, DMA datapaths, PCIe) and fabric::Link.
 */

#ifndef DTU_MEM_CAPACITY_LEDGER_HH
#define DTU_MEM_CAPACITY_LEDGER_HH

#include <array>
#include <cstdint>
#include <memory>
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
 *
 * Retired pages go to a PagePool and new pages come from it. A ledger
 * keeps its own pool unless it is given a shared one (sharePool()).
 */
class CapacityLedger
{
  public:
    class PagePool;

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

    /**
     * Keep the highest watermark seen, retiring the pages wholly below
     * it, as a booking with @p watermark does first. Nothing booked
     * changes.
     */
    void raiseWatermark(Tick watermark);

    /**
     * Draw pages from @p pool and retire them to it from now on, in
     * place of this ledger's own pool. Every ledger sharing a pool
     * must be booked on one thread, and @p pool must outlive them.
     * Only a ledger that holds no page can switch.
     */
    void sharePool(PagePool &pool);

    /**
     * Drop every booking and the watermark: idle from tick 0 again.
     * The pages held go to the pool.
     */
    void restart();

  private:
    /** Reads buckets back for the reference-model property test. */
    friend struct CapacityLedgerProbe;

    /** Most pages a ledger's own pool keeps. */
    static constexpr std::size_t kOwnPoolPages = 64;

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

    /** A live page and its number. */
    struct LivePage
    {
        std::uint64_t no;
        std::unique_ptr<Page> page;
    };

    /** The first live page numbered @p page_no or higher. */
    std::vector<LivePage>::iterator firstPageFrom(std::uint64_t page_no);

    /** The live page @p page_no, made (from the pool) if new. */
    Page &pageFor(std::uint64_t page_no);

    /** Retire every page below @p page_no to the pool. */
    void retireBelow(std::uint64_t page_no);

    /** The pool pages come from, made on first use if not shared. */
    PagePool &pool();

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
    /**
     * The live pages, by ascending number: a walk mostly moves
     * forward, so a new page is usually appended, and retirement
     * takes a prefix.
     */
    std::vector<LivePage> pages_;
    /** The shared pool or ownPool_; null until first needed. */
    PagePool *pool_ = nullptr;
    std::unique_ptr<PagePool> ownPool_;
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

/**
 * Retired pages kept for reuse. A launch books its whole timeline at
 * once, tens of pages past the watermark, so pages are made and retired
 * in bursts. A chip's ledgers share one pool (Dtu), so the pages one
 * ledger retires serve the next burst of any other.
 *
 * A pooled page keeps its bitmaps and its partial lists untouched
 * until reuse, except that it frees its index and any partial list
 * with room for more than kKeptPartials entries: few pages grow them,
 * and a pool whose pages kept them would soon hold the largest list
 * every ledger ever grew (DESIGN.md §4b).
 */
class CapacityLedger::PagePool
{
  public:
    /** Most entries a pooled page's partial lists keep room for. */
    static constexpr std::size_t kKeptPartials = 256;

    /** Keep at most @p max_pages pages and free the rest. */
    explicit PagePool(std::size_t max_pages = ~std::size_t{0})
        : maxPages_(max_pages)
    {}

    /** Pages held for reuse. */
    std::size_t pages() const { return pages_.size(); }

  private:
    friend class CapacityLedger;
    friend struct CapacityLedgerProbe;

    /** A page for reuse, not yet reset, or null if none is held. */
    std::unique_ptr<Page> take();

    /** Keep @p page for reuse, or free it if the pool is full. */
    void give(std::unique_ptr<Page> page);

    std::size_t maxPages_;
    std::vector<std::unique_ptr<Page>> pages_;
};

} // namespace dtu

#endif // DTU_MEM_CAPACITY_LEDGER_HH
