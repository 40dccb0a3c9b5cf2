#include "mem/sram.hh"

#include "sim/logging.hh"

namespace dtu
{

Sram::Sram(std::string name, const Tick &watermark, StatRegistry *stats,
           MemLevel level, std::uint64_t capacity, unsigned ports,
           double port_bytes_per_second, Tick access_latency,
           Tick remote_penalty, double dma_port_bytes_per_second)
    : SimObject(std::move(name), stats), level_(level),
      capacity_(capacity), remotePenalty_(remote_penalty),
      ports_(childName("port"), watermark, stats, ports,
             port_bytes_per_second, access_latency)
{
    if (dma_port_bytes_per_second > 0.0) {
        dmaPort_ = std::make_unique<BandwidthResource>(
            childName("dma_port"), watermark, stats,
            dma_port_bytes_per_second, access_latency);
    }
    if (stats) {
        remoteAccesses_.init(*stats, childName("remote_accesses"),
                             "accesses through a non-affine port");
        localAccesses_.init(*stats, childName("local_accesses"),
                            "accesses through the affine port");
    }
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
    ports_[port].transferSeries(starts, n, bytes, done);
    if (remote) {
        for (std::size_t i = 0; i < n; ++i)
            done[i] = saturatingAddTicks(done[i], remotePenalty_);
    }
}

void
Sram::stripeSeries(const Tick *starts, std::size_t n, std::uint64_t bytes,
                   Tick *done)
{
    // Each port moving bytes counts one local access per transaction.
    const unsigned nports = numPorts();
    std::uint64_t stripe_bytes[CapacityLedger::kMaxLanes];
    unsigned busy = 0;
    for (unsigned p = 0; p < nports; ++p) {
        stripe_bytes[p] = bytes / nports + (p < bytes % nports ? 1 : 0);
        busy += stripe_bytes[p] ? 1 : 0;
    }
    localAccesses_ += static_cast<double>(n * busy);
    ports_.transferSeries(starts, n, stripe_bytes, done);
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
        if (ports_[i].freeAt() < ports_[best].freeAt())
            best = i;
    }
    return best;
}

double
Sram::totalBytes() const
{
    double total = 0.0;
    for (unsigned i = 0; i < ports_.size(); ++i)
        total += ports_[i].totalBytes();
    return total;
}

void
Sram::forEachLedger(const std::function<void(CapacityLedger &)> &f)
{
    f(ports_.ledger());
    if (dmaPort_)
        f(dmaPort_->ledger());
}

} // namespace dtu
