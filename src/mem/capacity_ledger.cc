#include "mem/capacity_ledger.hh"

#include <algorithm>
#include <bit>
#include <cmath>

#include "sim/logging.hh"

namespace dtu
{

namespace
{

/** A bucket with no more than this many bytes left is saturated. */
constexpr double kMinAvail = 1e-12;

/** Buckets from here on would complete past maxTick. */
constexpr std::uint64_t kMaxBucket = maxTick / CapacityLedger::kBucketTicks;

} // namespace

CapacityLedger::CapacityLedger(double bytes_per_second, unsigned lanes)
    : bytesPerSecond_(bytes_per_second), lanes_(lanes),
      cap_(bytes_per_second * ticksToSeconds(kBucketTicks)),
      freeAt_(lanes, 0)
{
    fatalIf(lanes == 0 || lanes > kMaxLanes, "a capacity ledger holds 1 to ",
            kMaxLanes, " lanes, not ", lanes);
    // cap_ = sig * 2^(exp - 53) with an integer significand sig, so
    // its lowest set bit is 2^(exp - 53 + ctz(sig)).
    int exp = 0;
    const auto sig = static_cast<std::uint64_t>(
        std::ldexp(std::frexp(cap_, &exp), 53));
    exactBelow_ = sig ? std::ldexp(1.0, exp + std::countr_zero(sig)) : 0.0;
}

CapacityLedger::PagePool &
CapacityLedger::pool()
{
    if (!pool_) {
        ownPool_ = std::make_unique<PagePool>(kOwnPoolPages);
        pool_ = ownPool_.get();
    }
    return *pool_;
}

void
CapacityLedger::sharePool(PagePool &pool)
{
    fatalIf(!pages_.empty(), "a capacity ledger holding ", pages_.size(),
            " pages cannot switch page pools");
    ownPool_.reset();
    pool_ = &pool;
}

std::vector<CapacityLedger::LivePage>::iterator
CapacityLedger::firstPageFrom(std::uint64_t page_no)
{
    return std::lower_bound(
        pages_.begin(), pages_.end(), page_no,
        [](const LivePage &p, std::uint64_t no) { return p.no < no; });
}

CapacityLedger::Page &
CapacityLedger::pageFor(std::uint64_t page_no)
{
    auto it = pages_.end();
    if (!pages_.empty() && pages_.back().no >= page_no) {
        it = firstPageFrom(page_no);
        if (it->no == page_no)
            return *it->page;
    }
    std::unique_ptr<Page> page = pool().take();
    if (!page) {
        page = std::make_unique<Page>();
    } else {
        // A pooled page is reset here rather than as it retires: its
        // memory is about to be written, and its partial lists keep
        // their capacity.
        page->saturated.fill(0);
        page->occupied.fill(0);
        page->partialSlots.clear();
        page->partialUsed.clear();
    }
    return *pages_.insert(it, LivePage{page_no, std::move(page)})->page;
}

void
CapacityLedger::retireBelow(std::uint64_t page_no)
{
    if (pages_.empty() || pages_.front().no >= page_no)
        return;
    const auto end = firstPageFrom(page_no);
    PagePool &to = pool();
    for (auto it = pages_.begin(); it != end; ++it)
        to.give(std::move(it->page));
    pages_.erase(pages_.begin(), end);
    if (cachedPageNo_ < page_no) {
        cachedPageNo_ = ~std::uint64_t{0};
        cachedPage_ = nullptr;
    }
}

void
CapacityLedger::raiseWatermark(Tick watermark)
{
    if (watermark > watermark_) {
        if (watermark / kPageTicks > watermark_ / kPageTicks)
            retireBelow(watermark / kPageTicks);
        watermark_ = watermark;
    }
}

void
CapacityLedger::restart()
{
    retireBelow(~std::uint64_t{0});
    watermark_ = 0;
    std::fill(freeAt_.begin(), freeAt_.end(), Tick{0});
}

std::unique_ptr<CapacityLedger::Page>
CapacityLedger::PagePool::take()
{
    if (pages_.empty())
        return nullptr;
    std::unique_ptr<Page> page = std::move(pages_.back());
    pages_.pop_back();
    return page;
}

void
CapacityLedger::PagePool::give(std::unique_ptr<Page> page)
{
    if (pages_.size() >= maxPages_)
        return;
    // Only the list headers are read: the bitmaps stay cold until reuse.
    // (Assigning a temporary frees the buffer; `= {}` would keep it.)
    page->index = std::vector<std::uint16_t>();
    if (page->partialSlots.capacity() > kKeptPartials)
        page->partialSlots = std::vector<std::uint16_t>();
    if (page->partialUsed.capacity() > kKeptPartials)
        page->partialUsed = std::vector<double>();
    pages_.push_back(std::move(page));
}

Tick
CapacityLedger::book(Tick at, std::uint64_t bytes, Tick watermark,
                     unsigned lane)
{
    Tick done = 0;
    bookSeries(&at, 1, bytes, watermark, &done, lane);
    return done;
}

void
CapacityLedger::bookSeries(const Tick *starts, std::size_t n,
                           std::uint64_t bytes, Tick watermark, Tick *done,
                           unsigned lane)
{
    raiseWatermark(watermark);
    if (lanes_ == 1) {
        for (std::size_t i = 0; i < n; ++i)
            walk<1>(starts[i], &bytes, &done[i]);
        return;
    }
    // One lane of several: the others book nothing.
    std::array<std::uint64_t, kMaxLanes> lane_bytes{};
    std::array<Tick, kMaxLanes> lane_done{};
    lane_bytes[lane] = bytes;
    for (std::size_t i = 0; i < n; ++i) {
        walkLanes(starts[i], lane_bytes.data(), lane_done.data());
        done[i] = lane_done[lane];
    }
}

void
CapacityLedger::bookLanes(Tick at, const std::uint64_t *bytes,
                          Tick watermark, Tick *done)
{
    raiseWatermark(watermark);
    walkLanes(at, bytes, done);
}

void
CapacityLedger::walkLanes(Tick at, const std::uint64_t *bytes, Tick *done)
{
    switch (lanes_) {
      case 1: return walk<1>(at, bytes, done);
      case 4: return walk<4>(at, bytes, done);
      case 8: return walk<8>(at, bytes, done);
      default: return walk<0>(at, bytes, done);
    }
}

template <unsigned kLanes>
void
CapacityLedger::walk(Tick at, const std::uint64_t *bytes, Tick *done)
{
    constexpr unsigned kSize = kLanes ? kLanes : kMaxLanes;
    const unsigned lanes = kLanes ? kLanes : lanes_;
    // Time below the watermark is closed: late work waits for it.
    at = std::max(at, watermark_);
    const std::uint64_t all_lanes = ~std::uint64_t{0} >> (64 - lanes);
    // Lanes with bytes still to book, and those bytes.
    std::uint64_t active = 0;
    std::array<double, kSize> remaining;
    // Each lane's last bucket booked and the bytes it left there.
    std::array<std::uint64_t, kSize> end_idx;
    std::array<double, kSize> end_used;
    for (unsigned l = 0; l < lanes; ++l) {
        remaining[l] = static_cast<double>(bytes[l]);
        if (bytes[l])
            active |= std::uint64_t{1} << l;
    }
    const std::uint64_t first = at / kBucketTicks;
    // Within the first bucket only the fraction after `at` is usable.
    const double first_frac =
        1.0 - static_cast<double>(at - first * kBucketTicks) /
                  static_cast<double>(kBucketTicks);
    std::uint64_t idx = first;
    // Every active lane sits at idx: in each step a lane books the
    // whole bucket or run, skips it, or finishes inside it.
    while (active) {
        if (idx >= kMaxBucket)
            break;
        if (idx / kPageBuckets != cachedPageNo_) {
            cachedPageNo_ = idx / kPageBuckets;
            cachedPage_ = &pageFor(cachedPageNo_);
        }
        Page &page = *cachedPage_;
        const auto slot = static_cast<std::uint16_t>(idx % kPageBuckets);
        std::uint64_t &saturated = page.saturated[slot / 64];
        std::uint64_t &occupied = page.occupied[slot / 64];
        const unsigned shift = slot % 64;

        // Saturated buckets take nothing: skip to the next open one,
        // through the page's following all-saturated words in one go.
        const std::uint64_t open = ~saturated >> shift;
        if (!(open & 1)) {
            if (open) {
                idx += std::countr_zero(open);
                continue;
            }
            std::size_t word = slot / 64 + 1;
            while (word < page.saturated.size() &&
                   !~page.saturated[word])
                ++word;
            idx += word * 64 - slot;
            if (word < page.saturated.size())
                idx += std::countr_zero(~page.saturated[word]);
            continue;
        }

        // The first bucket and a partial one are booked alone, an empty
        // run up to the next occupied bucket (or word end) at once.
        const std::uint64_t ahead = occupied >> shift;
        std::size_t entry = 0;
        double *partial = nullptr;
        if (ahead & 1) {
            if (!page.index.empty()) {
                entry = page.index[slot] - 1u;
            } else {
                entry = page.partialSlots.size();
                while (page.partialSlots[--entry] != slot) {
                }
            }
            partial = &page.partialUsed[entry * lanes];
        }
        const std::uint64_t run =
            idx == first || partial
                ? 1
                : std::min<std::uint64_t>(
                      ahead ? std::countr_zero(ahead) : 64 - shift,
                      kMaxBucket - idx);
        const double bucket_cap = cap_ * (idx == first ? first_frac : 1.0);
        // The lanes that booked in this step, the buckets each booked,
        // the bytes it left in the last of them, and the most buckets
        // any lane booked.
        std::uint64_t booked = 0;
        std::array<std::uint64_t, kSize> filled;
        std::array<double, kSize> last_used;
        std::uint64_t most = 0;
        for (unsigned l = 0; l < lanes; ++l) {
            if (!(active >> l & 1))
                continue;
            double used = partial ? partial[l] : 0.0;
            const double avail = bucket_cap - used;
            if (!(avail > kMinAvail))
                continue;
            // Every bucket of the run but the last takes a whole cap_:
            // `remaining` must round as k repeated `remaining -= cap_`,
            // for the largest k < run with k * cap_ < remaining. Below
            // exactBelow_ each of those subtractions is exact, so one
            // subtraction of k * cap_ (itself exact) gives the same
            // double.
            double rem = remaining[l];
            std::uint64_t n = 1;
            if (run > 1 && rem < exactBelow_) {
                auto k = std::min<std::uint64_t>(
                    run - 1, static_cast<std::uint64_t>(rem / cap_));
                // The quotient can round across an integer; the
                // products are exact, so these compares settle k.
                if (k > 0 && static_cast<double>(k) * cap_ >= rem)
                    --k;
                else if (k < run - 1 &&
                         static_cast<double>(k + 1) * cap_ < rem)
                    ++k;
                rem -= static_cast<double>(k) * cap_;
                n += k;
            } else {
                for (; n < run && rem > cap_; ++n)
                    rem -= cap_;
            }
            const double take = std::min(avail, rem);
            used += take;
            rem -= take;
            remaining[l] = rem;
            booked |= std::uint64_t{1} << l;
            filled[l] = n;
            last_used[l] = used;
            most = std::max(most, n);
            if (rem > 0.0)
                continue;
            // A lane that stops short of the run ends here.
            active &= ~(std::uint64_t{1} << l);
            end_idx[l] = idx + n - 1;
            end_used[l] = used;
        }

        if (!booked) {
            // Nothing changes: every lane skipped the bucket.
        } else if (partial) {
            // A partial bucket saturated on every lane joins the bitmap.
            for (unsigned l = 0; l < lanes; ++l)
                if (booked >> l & 1)
                    partial[l] = last_used[l];
            bool full = true;
            for (unsigned l = 0; l < lanes && full; ++l)
                full = !(cap_ - partial[l] > kMinAvail);
            if (full) {
                saturated |= std::uint64_t{1} << shift;
                if (entry + 1 < page.partialSlots.size()) {
                    page.partialSlots[entry] = page.partialSlots.back();
                    std::copy_n(page.partialUsed.end() - lanes, lanes,
                                partial);
                    if (!page.index.empty())
                        page.index[page.partialSlots[entry]] =
                            static_cast<std::uint16_t>(entry + 1);
                }
                if (!page.index.empty())
                    page.index[slot] = 0;
                page.partialSlots.pop_back();
                page.partialUsed.resize(page.partialUsed.size() - lanes);
            }
        } else {
            // The buckets were empty on every lane. Lane l saturated
            // the first filled[l] - 1 of them, and the last too unless
            // it kept room there; the ones every lane saturated join
            // the bitmap, the rest become partial.
            std::uint64_t full = 0;
            if (booked == all_lanes) {
                full = most;
                for (unsigned l = 0; l < lanes; ++l)
                    full = std::min<std::uint64_t>(
                        full, filled[l] - 1 +
                                  !(cap_ - last_used[l] > kMinAvail));
            }
            const std::uint64_t from = std::uint64_t{1} << shift;
            occupied |= ((from << (most - 1)) << 1) - from;
            if (full)
                saturated |= ((from << (full - 1)) << 1) - from;
            for (std::uint64_t j = full; j < most; ++j) {
                page.partialSlots.push_back(
                    static_cast<std::uint16_t>(slot + j));
                if (!page.index.empty())
                    page.index[slot + j] = static_cast<std::uint16_t>(
                        page.partialSlots.size());
                for (unsigned l = 0; l < lanes; ++l)
                    page.partialUsed.push_back(
                        !(booked >> l & 1)   ? 0.0
                        : j + 1 < filled[l]  ? cap_
                        : j + 1 == filled[l] ? last_used[l]
                                             : 0.0);
            }
            if (lanes > 1 && page.index.empty() &&
                page.partialSlots.size() > kIndexAbove) {
                page.index.assign(kPageBuckets, 0);
                for (std::size_t e = 0; e < page.partialSlots.size(); ++e)
                    page.index[page.partialSlots[e]] =
                        static_cast<std::uint16_t>(e + 1);
            }
        }
        idx += run;
    }
    // Buckets drain front-to-back: the last byte lands at the filled
    // fraction of the last bucket booked. Lanes still booking ran past
    // the last bucket that completes before maxTick.
    for (unsigned l = 0; l < lanes; ++l) {
        if (!bytes[l]) {
            done[l] = at;
            continue;
        }
        done[l] = active >> l & 1
                      ? maxTick
                      : std::max(at, saturatingAddTicks(
                                         end_idx[l] * kBucketTicks,
                                         static_cast<Tick>(
                                             end_used[l] / cap_ *
                                                 static_cast<double>(
                                                     kBucketTicks) +
                                             0.5)));
        freeAt_[l] = std::max(freeAt_[l], done[l]);
    }
}

} // namespace dtu
