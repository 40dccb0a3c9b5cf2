#include "mem/capacity_ledger.hh"

#include <algorithm>
#include <bit>
#include <cmath>

namespace dtu
{

namespace
{

/** A bucket with no more than this many bytes left is saturated. */
constexpr double kMinAvail = 1e-12;

/** Buckets from here on would complete past maxTick. */
constexpr std::uint64_t kMaxBucket = maxTick / CapacityLedger::kBucketTicks;

} // namespace

CapacityLedger::CapacityLedger(double bytes_per_second)
    : bytesPerSecond_(bytes_per_second),
      cap_(bytes_per_second * ticksToSeconds(kBucketTicks))
{
    // cap_ = sig * 2^(exp - 53) with an integer significand sig, so
    // its lowest set bit is 2^(exp - 53 + ctz(sig)).
    int exp = 0;
    const auto sig = static_cast<std::uint64_t>(
        std::ldexp(std::frexp(cap_, &exp), 53));
    exactBelow_ = sig ? std::ldexp(1.0, exp + std::countr_zero(sig)) : 0.0;
}

CapacityLedger::Page &
CapacityLedger::pageFor(std::uint64_t page_no)
{
    if (auto it = pages_.find(page_no); it != pages_.end())
        return it->second;
    if (spares_.empty())
        return pages_[page_no];
    // A spare is reset here rather than as it retires: its memory is
    // about to be written, and its partial list keeps its capacity.
    PageMap::node_type node = std::move(spares_.back());
    spares_.pop_back();
    node.key() = page_no;
    Page &page = node.mapped();
    page.saturated.fill(0);
    page.occupied.fill(0);
    page.partials.clear();
    return pages_.insert(std::move(node)).position->second;
}

void
CapacityLedger::retireBelow(std::uint64_t page_no)
{
    for (auto it = pages_.begin(); it != pages_.end();) {
        if (it->first >= page_no) {
            ++it;
            continue;
        }
        PageMap::node_type node = pages_.extract(it++);
        if (spares_.size() < kSparePages)
            spares_.push_back(std::move(node));
    }
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

Tick
CapacityLedger::book(Tick at, std::uint64_t bytes, Tick watermark)
{
    raiseWatermark(watermark);
    return walk(at, bytes);
}

void
CapacityLedger::bookSeries(const Tick *starts, std::size_t n,
                           std::uint64_t bytes, Tick watermark, Tick *done)
{
    raiseWatermark(watermark);
    for (std::size_t i = 0; i < n; ++i)
        done[i] = walk(starts[i], bytes);
}

Tick
CapacityLedger::walk(Tick at, std::uint64_t bytes)
{
    // Time below the watermark is closed: late work waits for it.
    at = std::max(at, watermark_);
    if (bytes == 0)
        return at;
    double remaining = static_cast<double>(bytes);
    const std::uint64_t first = at / kBucketTicks;
    // Within the first bucket only the fraction after `at` is usable.
    const double first_frac =
        1.0 - static_cast<double>(at - first * kBucketTicks) /
                  static_cast<double>(kBucketTicks);
    std::uint64_t idx = first;
    // Bytes booked in the last bucket filled so far.
    double last_used = 0.0;
    while (remaining > 0.0) {
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
        std::pair<std::uint16_t, double> *partial = nullptr;
        if (ahead & 1)
            partial = &*std::find_if(
                page.partials.rbegin(), page.partials.rend(),
                [slot](const auto &p) { return p.first == slot; });
        const std::uint64_t run =
            idx == first || partial
                ? 1
                : std::min<std::uint64_t>(
                      ahead ? std::countr_zero(ahead) : 64 - shift,
                      kMaxBucket - idx);
        double used = partial ? partial->second : 0.0;
        const double avail = cap_ * (idx == first ? first_frac : 1.0) - used;
        if (!(avail > kMinAvail)) {
            ++idx;
            continue;
        }
        // Every bucket of the run but the last takes a whole cap_:
        // `remaining` must round as k repeated `remaining -= cap_`, for
        // the largest k < run with k * cap_ < remaining. Below
        // exactBelow_ each of those subtractions is exact, so one
        // subtraction of k * cap_ (itself exact) gives the same double.
        std::uint64_t n = 1;
        if (run > 1 && remaining < exactBelow_) {
            auto k = std::min<std::uint64_t>(
                run - 1, static_cast<std::uint64_t>(remaining / cap_));
            // The quotient can round across an integer; the products
            // are exact, so these compares settle k.
            if (k > 0 && static_cast<double>(k) * cap_ >= remaining)
                --k;
            else if (k < run - 1 &&
                     static_cast<double>(k + 1) * cap_ < remaining)
                ++k;
            remaining -= static_cast<double>(k) * cap_;
            n += k;
        } else {
            for (; n < run && remaining > cap_; ++n)
                remaining -= cap_;
        }
        const double take = std::min(avail, remaining);
        used += take;
        remaining -= take;

        const std::uint64_t last = std::uint64_t{1} << (shift + n - 1);
        occupied |= (last << 1) - (std::uint64_t{1} << shift);
        saturated |= last - (std::uint64_t{1} << shift);
        if (cap_ - used > kMinAvail) {
            if (partial)
                partial->second = used;
            else
                page.partials.emplace_back(slot + n - 1, used);
        } else {
            saturated |= last;
            if (partial) {
                *partial = page.partials.back();
                page.partials.pop_back();
            }
        }
        idx += n;
        last_used = used;
    }
    // Buckets drain front-to-back: the last byte lands at the filled
    // fraction of the last bucket, idx - 1. Bytes still unbooked ran
    // past the last bucket that completes before maxTick.
    const Tick done =
        remaining > 0.0
            ? maxTick
            : std::max(at, saturatingAddTicks(
                               (idx - 1) * kBucketTicks,
                               static_cast<Tick>(
                                   last_used / cap_ *
                                       static_cast<double>(kBucketTicks) +
                                   0.5)));
    freeAt_ = std::max(freeAt_, done);
    return done;
}

} // namespace dtu
