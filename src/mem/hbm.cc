#include "mem/hbm.hh"

#include <algorithm>

#include "sim/fault.hh"
#include "sim/logging.hh"

namespace dtu
{

Hbm::Hbm(std::string name, const Tick &watermark, StatRegistry *stats,
         std::uint64_t capacity, double total_bytes_per_second,
         unsigned channels, Tick access_latency)
    : SimObject(std::move(name), stats), capacity_(capacity),
      totalBandwidth_(total_bytes_per_second),
      channels_(childName("ch"), watermark, stats, channels,
                total_bytes_per_second / channels, access_latency),
      channelBytes_(channels)
{}

Tick
Hbm::accessAt(Tick at, Addr addr, std::uint64_t bytes)
{
    if (bytes == 0)
        return at;
    // Stripe the request across channels in stripeBytes_ units,
    // starting at the channel owning the base address. For requests
    // much larger than one stripe this aggregates the full device
    // bandwidth; small requests stay on one channel. A channel moves
    // whole stripes, so the channels together can book up to one
    // stripe more than the request.
    unsigned nch = numChannels();
    unsigned first = static_cast<unsigned>((addr / stripeBytes_) % nch);
    std::uint64_t stripes = (bytes + stripeBytes_ - 1) / stripeBytes_;
    std::uint64_t per_channel_stripes = stripes / nch;
    std::uint64_t extra = stripes % nch;
    for (unsigned i = 0; i < nch; ++i) {
        std::uint64_t ch_stripes = per_channel_stripes + (i < extra ? 1 : 0);
        channelBytes_[(first + i) % nch] =
            std::min(ch_stripes * stripeBytes_, bytes);
    }
    Tick done = at;
    channels_.transferSeries(&at, 1, channelBytes_.data(), &done);
    if (faults_)
        done = saturatingAddTicks(done,
                                  faults_->eccAccess(done, name(), bytes));
    return done;
}

double
Hbm::totalBytes() const
{
    double total = 0.0;
    for (unsigned i = 0; i < channels_.size(); ++i)
        total += channels_[i].totalBytes();
    return total;
}

} // namespace dtu
