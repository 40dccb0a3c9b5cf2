#include "mem/hbm.hh"

#include <algorithm>

#include "sim/fault.hh"
#include "sim/logging.hh"

namespace dtu
{

Hbm::Hbm(std::string name, EventQueue &queue, StatRegistry *stats,
         std::uint64_t capacity, double total_bytes_per_second,
         unsigned channels, Tick access_latency)
    : SimObject(std::move(name), queue, stats), capacity_(capacity),
      totalBandwidth_(total_bytes_per_second)
{
    fatalIf(channels == 0, "HBM '", this->name(),
            "' needs at least one channel");
    double per_channel = total_bytes_per_second / channels;
    channels_.reserve(channels);
    for (unsigned i = 0; i < channels; ++i) {
        channels_.push_back(std::make_unique<BandwidthResource>(
            this->name() + ".ch" + std::to_string(i), queue, stats,
            per_channel, access_latency));
    }
}

Tick
Hbm::accessAt(Tick at, Addr addr, std::uint64_t bytes)
{
    if (bytes == 0)
        return at;
    // Stripe the request across channels in stripeBytes_ units,
    // starting at the channel owning the base address. For requests
    // much larger than one stripe this aggregates the full device
    // bandwidth; small requests stay on one channel.
    unsigned nch = numChannels();
    unsigned first = static_cast<unsigned>((addr / stripeBytes_) % nch);
    std::uint64_t stripes = (bytes + stripeBytes_ - 1) / stripeBytes_;
    std::uint64_t per_channel_stripes = stripes / nch;
    std::uint64_t extra = stripes % nch;
    Tick done = at;
    for (unsigned i = 0; i < std::min<std::uint64_t>(nch, stripes); ++i) {
        unsigned ch = (first + i) % nch;
        std::uint64_t ch_stripes = per_channel_stripes + (i < extra ? 1 : 0);
        if (ch_stripes == 0)
            continue;
        std::uint64_t ch_bytes =
            std::min(ch_stripes * stripeBytes_, bytes);
        done = std::max(done, channels_[ch]->transferAt(at, ch_bytes));
    }
    if (faults_)
        done = saturatingAddTicks(done,
                                  faults_->eccAccess(done, name(), bytes));
    return done;
}

Tick
Hbm::access(Addr addr, std::uint64_t bytes)
{
    return accessAt(curTick(), addr, bytes);
}

double
Hbm::totalBytes() const
{
    double total = 0.0;
    for (const auto &ch : channels_)
        total += ch->totalBytes();
    return total;
}

void
Hbm::forEachPipe(const std::function<void(BandwidthResource &)> &f)
{
    for (auto &ch : channels_)
        f(*ch);
}

} // namespace dtu
