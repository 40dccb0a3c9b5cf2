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
    ledger_.bookSeries(starts, n, bytes, eventQueue().ledgerWatermark(),
                       done);
    const Tick service = serviceTime(bytes);
    for (std::size_t i = 0; i < n; ++i) {
        bytesMoved_ += static_cast<double>(bytes);
        ++transfers_;
        if (bytes == 0) {
            done[i] = saturatingAddTicks(starts[i], accessLatency_);
            continue;
        }
        const Tick completion = saturatingAddTicks(done[i], accessLatency_);
        const Tick unqueued = saturatingAddTicks(starts[i], service);
        if (completion > unqueued)
            waitTicks_ += static_cast<double>(completion - unqueued);
        done[i] = completion;
    }
}

} // namespace dtu
