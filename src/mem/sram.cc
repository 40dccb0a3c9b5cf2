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
    panicIf(port >= ports_.size(), "port ", port, " out of range on '",
            name(), "'");
    bool remote = port != affine_port;
    if (remote)
        ++remoteAccesses_;
    else
        ++localAccesses_;
    Tick done = ports_[port]->transferAt(at, bytes);
    return remote ? saturatingAddTicks(done, remotePenalty_) : done;
}

Tick
Sram::dmaAccessAt(Tick at, std::uint64_t bytes)
{
    panicIf(!dmaPort_, "SRAM '", name(), "' has no DMA fill port");
    return dmaPort_->transferAt(at, bytes);
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
