#include "mem/bandwidth.hh"

#include "sim/logging.hh"

namespace dtu
{

BandwidthResource::BandwidthResource(std::string name, EventQueue &queue,
                                     StatRegistry *stats,
                                     double bytes_per_second,
                                     Tick access_latency)
    : SimObject(std::move(name), queue, stats),
      ledger_(bytes_per_second), accessLatency_(access_latency)
{
    fatalIf(bytes_per_second <= 0.0, "bandwidth of '", this->name(),
            "' must be positive");
    if (stats) {
        bytesMoved_.init(*stats, this->name() + ".bytes",
                         "bytes transferred");
        transfers_.init(*stats, this->name() + ".transfers",
                        "transfer requests served");
        waitTicks_.init(*stats, this->name() + ".wait_ticks",
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
    panicIf(at < curTick(), "transferAt in the past on '", name(), "'");
    bytesMoved_ += static_cast<double>(bytes);
    ++transfers_;
    Tick done =
        ledger_.book(at, bytes, eventQueue().ledgerWatermark());
    if (bytes == 0)
        return saturatingAddTicks(at, accessLatency_);
    Tick completion = saturatingAddTicks(done, accessLatency_);
    Tick unqueued = saturatingAddTicks(at, serviceTime(bytes));
    if (completion > unqueued)
        waitTicks_ += static_cast<double>(completion - unqueued);
    return completion;
}

} // namespace dtu
