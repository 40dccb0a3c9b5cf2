#include "mem/sram.hh"

#include "sim/logging.hh"

namespace dtu
{

Sram::Sram(std::string name, EventQueue &queue, StatRegistry *stats,
           MemLevel level, std::uint64_t capacity, unsigned ports,
           double port_bytes_per_second, Tick access_latency,
           Tick remote_penalty, double dma_port_bytes_per_second)
    : SimObject(std::move(name), queue, stats), level_(level),
      capacity_(capacity), remotePenalty_(remote_penalty)
{
    fatalIf(ports == 0, "SRAM '", this->name(), "' needs at least one port");
    ports_.reserve(ports);
    for (unsigned i = 0; i < ports; ++i) {
        ports_.push_back(std::make_unique<BandwidthResource>(
            this->name() + ".port" + std::to_string(i), queue, stats,
            port_bytes_per_second, access_latency));
    }
    if (dma_port_bytes_per_second > 0.0) {
        dmaPort_ = std::make_unique<BandwidthResource>(
            this->name() + ".dma_port", queue, stats,
            dma_port_bytes_per_second, access_latency);
    }
    if (stats) {
        remoteAccesses_.init(*stats, this->name() + ".remote_accesses",
                             "accesses through a non-affine port");
        localAccesses_.init(*stats, this->name() + ".local_accesses",
                            "accesses through the affine port");
    }
}

Tick
Sram::access(unsigned port, unsigned affine_port, std::uint64_t bytes)
{
    return accessAt(curTick(), port, affine_port, bytes);
}

Tick
Sram::accessAt(Tick at, unsigned port, unsigned affine_port,
               std::uint64_t bytes)
{
    Tick done = 0;
    accessSeries(&at, 1, port, affine_port, bytes, &done);
    return done;
}

void
Sram::accessSeries(const Tick *starts, std::size_t n, unsigned port,
                   unsigned affine_port, std::uint64_t bytes, Tick *done)
{
    panicIf(port >= ports_.size(), "port ", port, " out of range on '",
            name(), "'");
    bool remote = port != affine_port;
    (remote ? remoteAccesses_ : localAccesses_) += static_cast<double>(n);
    ports_[port]->transferSeries(starts, n, bytes, done);
    if (remote) {
        for (std::size_t i = 0; i < n; ++i)
            done[i] = saturatingAddTicks(done[i], remotePenalty_);
    }
}

Tick
Sram::dmaAccessAt(Tick at, std::uint64_t bytes)
{
    Tick done = 0;
    dmaAccessSeries(&at, 1, bytes, &done);
    return done;
}

void
Sram::dmaAccessSeries(const Tick *starts, std::size_t n,
                      std::uint64_t bytes, Tick *done)
{
    panicIf(!dmaPort_, "SRAM '", name(), "' has no DMA fill port");
    dmaPort_->transferSeries(starts, n, bytes, done);
}

unsigned
Sram::leastLoadedPort() const
{
    unsigned best = 0;
    for (unsigned i = 1; i < ports_.size(); ++i) {
        if (ports_[i]->freeAt() < ports_[best]->freeAt())
            best = i;
    }
    return best;
}

double
Sram::totalBytes() const
{
    double total = 0.0;
    for (const auto &port : ports_)
        total += port->totalBytes();
    return total;
}

void
Sram::forEachPipe(const std::function<void(BandwidthResource &)> &f)
{
    for (auto &port : ports_)
        f(*port);
    if (dmaPort_)
        f(*dmaPort_);
}

} // namespace dtu
