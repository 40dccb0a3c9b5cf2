#include "mem/bandwidth.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace dtu
{

BandwidthResource::BandwidthResource(std::string name, EventQueue &queue,
                                     StatRegistry *stats,
                                     double bytes_per_second,
                                     Tick access_latency)
    : SimObject(std::move(name), queue, stats),
      own_(std::in_place, bytes_per_second), ledger_(&*own_), lane_(0),
      accessLatency_(access_latency)
{
    fatalIf(bytes_per_second <= 0.0, "bandwidth of '", this->name(),
            "' must be positive");
    initStats();
}

BandwidthResource::BandwidthResource(std::string name, EventQueue &queue,
                                     StatRegistry *stats,
                                     CapacityLedger &ledger, unsigned lane,
                                     Tick access_latency)
    : SimObject(std::move(name), queue, stats), ledger_(&ledger),
      lane_(lane), accessLatency_(access_latency)
{
    initStats();
}

void
BandwidthResource::initStats()
{
    if (StatRegistry *stats = statRegistry()) {
        bytesMoved_.init(*stats, childName("bytes"), "bytes transferred");
        transfers_.init(*stats, childName("transfers"),
                        "transfer requests served");
        waitTicks_.init(*stats, childName("wait_ticks"),
                        "ticks spent queued behind earlier traffic");
    }
}

Tick
BandwidthResource::serviceTime(std::uint64_t bytes) const
{
    double ticks = static_cast<double>(bytes) *
                   static_cast<double>(ticksPerSecond) / bytesPerSecond();
    return accessLatency_ + static_cast<Tick>(ticks + 0.5);
}

Tick
BandwidthResource::transfer(std::uint64_t bytes)
{
    return transferAt(curTick(), bytes);
}

Tick
BandwidthResource::transferAt(Tick at, std::uint64_t bytes)
{
    Tick done = 0;
    transferSeries(&at, 1, bytes, &done);
    return done;
}

void
BandwidthResource::transferSeries(const Tick *starts, std::size_t n,
                                  std::uint64_t bytes, Tick *done)
{
    if (n == 0)
        return;
    panicIf(starts[0] < curTick(), "transfer in the past on '", name(),
            "'");
    ledger_->bookSeries(starts, n, bytes, eventQueue().ledgerWatermark(),
                        done, lane_);
    const Tick service = serviceTime(bytes);
    for (std::size_t i = 0; i < n; ++i)
        done[i] = settle(starts[i], bytes, service, done[i]);
}

Tick
BandwidthResource::settle(Tick start, std::uint64_t bytes, Tick service,
                          Tick done)
{
    bytesMoved_ += static_cast<double>(bytes);
    ++transfers_;
    if (bytes == 0)
        return saturatingAddTicks(start, accessLatency_);
    const Tick completion = saturatingAddTicks(done, accessLatency_);
    const Tick unqueued = saturatingAddTicks(start, service);
    if (completion > unqueued)
        waitTicks_ += static_cast<double>(completion - unqueued);
    return completion;
}

BandwidthLanes::BandwidthLanes(const std::string &prefix, EventQueue &queue,
                               StatRegistry *stats, unsigned lanes,
                               double bytes_per_second, Tick access_latency)
    : ledger_(bytes_per_second, lanes)
{
    fatalIf(bytes_per_second <= 0.0, "bandwidth of '", prefix,
            "*' must be positive");
    lanes_.reserve(lanes);
    for (unsigned i = 0; i < lanes; ++i)
        lanes_.push_back(std::make_unique<BandwidthResource>(
            prefix + std::to_string(i), queue, stats, ledger_, i,
            access_latency));
}

void
BandwidthLanes::transferSeries(const Tick *starts, std::size_t n,
                               const std::uint64_t *bytes, Tick *done)
{
    if (n == 0)
        return;
    const BandwidthResource &head = *lanes_[0];
    panicIf(starts[0] < head.curTick(), "transfer in the past on '",
            head.name(), "'");
    const Tick watermark = head.eventQueue().ledgerWatermark();
    // Per-lane service times and one transfer's lane completions.
    Tick service[CapacityLedger::kMaxLanes];
    Tick lane_done[CapacityLedger::kMaxLanes];
    for (unsigned l = 0; l < size(); ++l)
        service[l] = lanes_[l]->serviceTime(bytes[l]);
    for (std::size_t i = 0; i < n; ++i) {
        ledger_.bookLanes(starts[i], bytes, watermark, lane_done);
        done[i] = starts[i];
        for (unsigned l = 0; l < size(); ++l) {
            if (bytes[l])
                done[i] = std::max(done[i],
                                   lanes_[l]->settle(starts[i], bytes[l],
                                                     service[l],
                                                     lane_done[l]));
        }
    }
}

} // namespace dtu
