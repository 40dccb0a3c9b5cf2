#include "core/icache.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/tracer.hh"

namespace dtu
{

namespace
{

/** The entry for @p kernel_id in @p entries, or entries.end(). */
template <typename Entries>
auto
findKernel(Entries &entries, int kernel_id)
{
    return std::find_if(entries.begin(), entries.end(),
                        [&](const auto &e) { return e.kernel == kernel_id; });
}

} // namespace

InstructionCache::InstructionCache(std::string name, StatRegistry *stats,
                                   Hbm &hbm, std::uint64_t capacity,
                                   bool cache_mode)
    : SimObject(std::move(name), stats), hbm_(hbm),
      capacity_(capacity), cacheMode_(cache_mode)
{
    if (stats) {
        hits_.init(*stats, childName("hits"), "kernel fetch hits");
        misses_.init(*stats, childName("misses"),
                     "kernel fetch misses");
        stallTicks_.init(*stats, childName("stall_ticks"),
                         "ticks stalled on kernel code loads");
        prefetches_.init(*stats, childName("prefetches"),
                         "kernel prefetches issued");
    }
}

Tick
InstructionCache::loadTime(Tick at, std::uint64_t bytes)
{
    // Kernel code streams from L3 through the code-load port.
    return hbm_.accessAt(at, /*addr=*/0x4000'0000, bytes);
}

void
InstructionCache::insert(int kernel_id, std::uint64_t bytes)
{
    if (bytes > capacity_)
        return; // oversized kernels stream; nothing is retained
    // A kernel id reloaded at a new size replaces its old image.
    if (auto old = findKernel(lru_, kernel_id); old != lru_.end()) {
        used_ -= old->bytes;
        lru_.erase(old);
    }
    auto victims = lru_.begin();
    while (used_ + bytes > capacity_) {
        used_ -= victims->bytes;
        ++victims;
    }
    lru_.erase(lru_.begin(), victims);
    lru_.push_back({kernel_id, bytes});
    used_ += bytes;
}

bool
InstructionCache::resident(int kernel_id) const
{
    return findKernel(lru_, kernel_id) != lru_.end();
}

void
InstructionCache::prefetchAt(Tick at, int kernel_id, std::uint64_t bytes)
{
    if (resident(kernel_id) ||
        findKernel(inflight_, kernel_id) != inflight_.end())
        return;
    ++prefetches_;
    const Tick done = loadTime(at, std::min(bytes, capacity_));
    inflight_.push_back({kernel_id, done});
    if (Tracer *tr = tracer(); tr && tr->enabled()) {
        tr->span(traceTrack(),
                 "prefetch kernel" + std::to_string(kernel_id),
                 "kernel-load", at, done,
                 {{"bytes", static_cast<double>(bytes)}});
    }
}

Tick
InstructionCache::fetchAt(Tick at, int kernel_id, std::uint64_t bytes)
{
    if (cacheMode_) {
        auto it = findKernel(lru_, kernel_id);
        if (it != lru_.end() && it->bytes >= std::min(bytes, capacity_)) {
            // Refresh LRU position: move to the most-recent end.
            std::rotate(it, it + 1, lru_.end());
            ++hits_;
            return at;
        }
    }
    // A pending prefetch absorbs part or all of the load latency.
    auto pending = findKernel(inflight_, kernel_id);
    if (pending != inflight_.end()) {
        Tick ready = std::max(at, pending->ready);
        inflight_.erase(pending);
        if (cacheMode_)
            insert(kernel_id, bytes);
        stallTicks_ += static_cast<double>(ready - at);
        ++hits_; // prefetch made it (at least partially) resident
        return ready;
    }
    ++misses_;
    // Execution can begin once the first buffer-full has landed.
    std::uint64_t head = std::min(bytes, capacity_);
    Tick ready = loadTime(at, head);
    stallTicks_ += static_cast<double>(ready - at);
    if (cacheMode_)
        insert(kernel_id, bytes);
    if (Tracer *tr = tracer(); tr && tr->enabled()) {
        tr->span(traceTrack(),
                 "load kernel" + std::to_string(kernel_id),
                 "kernel-load", at, ready,
                 {{"bytes", static_cast<double>(head)}});
    }
    return ready;
}

Tick
InstructionCache::refillStall(std::uint64_t bytes) const
{
    if (bytes <= capacity_)
        return 0;
    // The tail beyond the buffer streams in chunk by chunk during
    // execution; we charge its pure service time as stall, an upper
    // bound the prefetcher cannot hide.
    std::uint64_t tail = bytes - capacity_;
    double seconds = static_cast<double>(tail) /
                     (hbm_.totalBandwidth() / hbm_.numChannels());
    return secondsToTicks(seconds);
}

} // namespace dtu
