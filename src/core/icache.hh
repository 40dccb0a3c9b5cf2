/**
 * @file
 * The instruction buffer with cache mode and kernel prefetch
 * (Sections III "Kernel code loading matters" and IV-B).
 *
 * A compute core only starts running once its kernel code sits in the
 * instruction buffer. DTU 1.0 reloaded the buffer from L3 for every
 * kernel launch. DTU 2.0 adds:
 *  - cache mode: recently used kernels stay resident (LRU),
 *  - user-controlled prefetch: a prefetch instruction starts loading
 *    the next operator's kernel in the background,
 *  - automatic chunked loading for kernels bigger than the buffer.
 */

#ifndef DTU_CORE_ICACHE_HH
#define DTU_CORE_ICACHE_HH

#include <cstdint>
#include <vector>

#include "mem/hbm.hh"
#include "sim/sim_object.hh"
#include "sim/stats.hh"

namespace dtu
{

/** Per-core instruction buffer / cache. */
class InstructionCache : public SimObject
{
  public:
    /**
     * @param hbm L3 memory kernels load from.
     * @param capacity instruction buffer bytes.
     * @param cache_mode retain kernels across launches (DTU 2.0).
     */
    InstructionCache(std::string name, StatRegistry *stats, Hbm &hbm,
                     std::uint64_t capacity, bool cache_mode);

    /**
     * Ensure kernel @p kernel_id of @p bytes is resident, starting at
     * tick @p at.
     * @return the tick at which execution may begin. For oversized
     * kernels this is when the first buffer-full is in; the remainder
     * streams during execution and is charged as refill stalls by the
     * core.
     */
    Tick fetchAt(Tick at, int kernel_id, std::uint64_t bytes);

    /**
     * Start loading a kernel in the background (the user-controlled
     * prefetch instruction). A later fetchAt() overlaps with it.
     */
    void prefetchAt(Tick at, int kernel_id, std::uint64_t bytes);

    /** True when the kernel is fully resident now. */
    bool resident(int kernel_id) const;

    /**
     * Extra stall ticks a run of an oversized kernel pays while the
     * tail streams in (0 when the kernel fits).
     */
    Tick refillStall(std::uint64_t bytes) const;

    std::uint64_t capacity() const { return capacity_; }
    bool cacheMode() const { return cacheMode_; }

    double hits() const { return hits_.value(); }
    double misses() const { return misses_.value(); }
    double stallTicks() const { return stallTicks_.value(); }

  private:
    /** Service time to pull @p bytes of code from L3. */
    Tick loadTime(Tick at, std::uint64_t bytes);

    /** Insert a kernel, evicting LRU entries to make room. */
    void insert(int kernel_id, std::uint64_t bytes);

    /** A kernel image held in the buffer. */
    struct Entry
    {
        int kernel = 0;
        std::uint64_t bytes = 0;
    };

    /** A background load in flight. */
    struct Pending
    {
        int kernel = 0;
        Tick ready = 0;
    };

    Hbm &hbm_;
    std::uint64_t capacity_;
    bool cacheMode_;
    std::uint64_t used_ = 0;

    /**
     * Resident kernels, least recently used first. A buffer holds a
     * handful of kernels, so a flat scan beats a list plus a map and
     * allocates nothing per operator.
     */
    std::vector<Entry> lru_;

    /** In-flight background loads. */
    std::vector<Pending> inflight_;

    Stat hits_;
    Stat misses_;
    Stat stallTicks_;
    Stat prefetches_;
};

} // namespace dtu

#endif // DTU_CORE_ICACHE_HH
