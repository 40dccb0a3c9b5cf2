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
 */
class CapacityLedger
{
  public:
    static constexpr Tick kBucketTicks = 50'000; // 50 ns

    explicit CapacityLedger(double bytes_per_second)
        : bytesPerSecond_(bytes_per_second),
          cap_(bytes_per_second * ticksToSeconds(kBucketTicks))
    {}

    /**
     * Book @p bytes starting no earlier than @p at.
     * @return the tick the last byte lands, saturating at maxTick
     *         (@p at for zero bytes, which books nothing).
     */
    Tick book(Tick at, std::uint64_t bytes);

    double bytesPerSecond() const { return bytesPerSecond_; }

    /** Latest completion booked so far. */
    Tick freeAt() const { return freeAt_; }

  private:
    /** Reads buckets back for the reference-model property test. */
    friend struct CapacityLedgerProbe;

    static constexpr std::uint64_t kPageBuckets = 4096;

    /** A bucket in neither bitmap is empty (0.0 bytes booked). */
    struct Page
    {
        std::array<std::uint64_t, kPageBuckets / 64> saturated{};
        /** Saturated or partial. */
        std::array<std::uint64_t, kPageBuckets / 64> occupied{};
        /** (slot, exact bytes booked) of each partial bucket. */
        std::vector<std::pair<std::uint16_t, double>> partials;
    };

    double bytesPerSecond_;
    /** Capacity of one bucket in bytes. */
    double cap_;
    std::unordered_map<std::uint64_t, Page> pages_;
    /** Last page touched: walks are local, so this is the fast path. */
    std::uint64_t cachedPageNo_ = ~std::uint64_t{0};
    Page *cachedPage_ = nullptr;
    Tick freeAt_ = 0;
};

} // namespace dtu

#endif // DTU_MEM_CAPACITY_LEDGER_HH
