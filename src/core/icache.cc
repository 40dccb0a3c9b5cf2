#include "core/icache.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/tracer.hh"

namespace dtu
{

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
    std::uint64_t keep = bytes;
    while (used_ + keep > capacity_ && !lru_.empty()) {
        int victim = lru_.back();
        lru_.pop_back();
        auto it = resident_.find(victim);
        used_ -= it->second.bytes;
        resident_.erase(it);
    }
    if (used_ + keep > capacity_)
        return; // kernel larger than the whole buffer: nothing retained
    lru_.push_front(kernel_id);
    resident_[kernel_id] = Entry{keep, lru_.begin()};
    used_ += keep;
}

bool
InstructionCache::resident(int kernel_id) const
{
    return resident_.count(kernel_id) != 0;
}

void
InstructionCache::prefetchAt(Tick at, int kernel_id, std::uint64_t bytes)
{
    if (resident(kernel_id) || inflight_.count(kernel_id))
        return;
    ++prefetches_;
    inflight_[kernel_id] = loadTime(at, std::min(bytes, capacity_));
    if (Tracer *tr = tracer(); tr && tr->enabled()) {
        tr->span(tr->trackFor(name()),
                 "prefetch kernel" + std::to_string(kernel_id),
                 "kernel-load", at, inflight_[kernel_id],
                 {{"bytes", static_cast<double>(bytes)}});
    }
}

Tick
InstructionCache::fetchAt(Tick at, int kernel_id, std::uint64_t bytes)
{
    if (cacheMode_) {
        auto it = resident_.find(kernel_id);
        if (it != resident_.end() && it->second.bytes >= std::min(
                                         bytes, capacity_)) {
            // Refresh LRU position.
            lru_.erase(it->second.lruIt);
            lru_.push_front(kernel_id);
            it->second.lruIt = lru_.begin();
            ++hits_;
            return at;
        }
    }
    // A pending prefetch absorbs part or all of the load latency.
    auto pending = inflight_.find(kernel_id);
    if (pending != inflight_.end()) {
        Tick ready = std::max(at, pending->second);
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
        tr->span(tr->trackFor(name()),
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
