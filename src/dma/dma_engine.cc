#include "dma/dma_engine.hh"

#include <algorithm>

#include "dma/sparse_codec.hh"
#include "sim/fault.hh"
#include "sim/logging.hh"
#include "sim/tracer.hh"

namespace dtu
{

std::string
transformName(TransformKind kind)
{
    switch (kind) {
      case TransformKind::None: return "none";
      case TransformKind::Pad: return "pad";
      case TransformKind::Slice: return "slice";
      case TransformKind::Transpose: return "transpose";
      case TransformKind::Concat: return "concat";
    }
    return "?";
}

double
transformRateFactor(TransformKind kind)
{
    switch (kind) {
      case TransformKind::None:
      case TransformKind::Concat:
        return 1.0;
      case TransformKind::Pad:
      case TransformKind::Slice:
        return 0.9; // address generation gaps on row boundaries
      case TransformKind::Transpose:
        return 0.5; // strided gather/scatter halves streaming rate
    }
    return 1.0;
}

DmaEngine::DmaEngine(std::string name, const Tick &watermark,
                     StatRegistry *stats, ClockDomain &clock,
                     DmaFabric fabric, DmaFeatures features,
                     unsigned datapath_bytes_per_cycle,
                     unsigned config_cycles)
    : SimObject(std::move(name), stats), clock_(clock),
      fabric_(std::move(fabric)), features_(features),
      configCycles_(config_cycles)
{
    double bytes_per_second =
        static_cast<double>(datapath_bytes_per_cycle) * clock.frequency();
    pipe_ = std::make_unique<BandwidthResource>(
        childName("pipe"), watermark, stats, bytes_per_second);
    if (stats) {
        transactions_.init(*stats, childName("transactions"),
                           "DMA transactions completed");
        configOps_.init(*stats, childName("configs"),
                        "descriptor configurations performed");
        configTicks_.init(*stats, childName("config_ticks"),
                          "ticks spent on configuration");
        sparseSavedBytes_.init(*stats, childName("sparse_saved_bytes"),
                               "bytes saved by sparse compression");
        broadcastCopies_.init(*stats, childName("broadcast_copies"),
                              "extra L2 copies written by broadcast");
    }
}

Tick
DmaEngine::l2Series(Sram &l2, unsigned port, std::uint64_t bytes,
                    bool fill_port)
{
    // When the caller pins a port (core-affine data) the engine
    // honours it. Background streams (weight prefetch) take the
    // dedicated DMA-side fill port so they never steal core-bonded
    // port cycles; other unpinned traffic stripes the core ports.
    const std::size_t n = starts_.size();
    if (port < l2.numPorts()) {
        l2.accessSeries(starts_.data(), n, port, port, bytes,
                        seriesDone_.data());
        return seriesDone_.back();
    }
    if (fill_port && l2.hasDmaPort()) {
        l2.dmaAccessSeries(starts_.data(), n, bytes, seriesDone_.data());
        return seriesDone_.back();
    }
    l2.stripeSeries(starts_.data(), n, bytes, seriesDone_.data());
    return seriesDone_.back();
}

Tick
DmaEngine::endpointSeries(MemLevel level, Addr addr, std::uint64_t stride,
                          unsigned port, std::uint64_t bytes,
                          bool fill_port)
{
    const std::size_t n = starts_.size();
    switch (level) {
      case MemLevel::L3: {
        panicIf(!fabric_.hbm, "DMA '", name(), "' has no L3 endpoint");
        // One access per transaction, in order: each draws its ECC
        // outcome from the chip's fault stream.
        Tick done = 0;
        for (std::size_t i = 0; i < n; ++i)
            done = fabric_.hbm->accessAt(starts_[i], addr + i * stride,
                                         bytes);
        return done;
      }
      case MemLevel::L2:
        panicIf(!fabric_.localL2, "DMA '", name(), "' has no L2 endpoint");
        return l2Series(*fabric_.localL2, port, bytes, fill_port);
      case MemLevel::L1: {
        if (port == DmaDescriptor::anyPort)
            port = 0;
        panicIf(port >= fabric_.coreL1.size(), "DMA '", name(),
                "' L1 port ", port, " out of range");
        fabric_.coreL1[port]->accessSeries(starts_.data(), n, 0, 0, bytes,
                                           seriesDone_.data());
        return seriesDone_.back();
      }
      case MemLevel::Host:
        panicIf(!fabric_.pcie, "DMA '", name(), "' has no host link");
        fabric_.pcie->transferSeries(starts_.data(), n, bytes,
                                     seriesDone_.data());
        return seriesDone_.back();
    }
    panic("unreachable DMA endpoint");
}

DmaResult
DmaEngine::submitAt(Tick at, const DmaDescriptor &desc)
{
    if (!faults_ || !faults_->dmaEnabled())
        return submitOnce(at, desc);

    // Each attempt is one full pass through the engine; a transient
    // fault discards the attempt's data (but not the time and wire
    // traffic it burned) and the engine retries after an exponential
    // backoff. Exhausted retries poison the execution that issued the
    // request — the serving layer decides whether to rerun the batch.
    DmaResult total;
    Tick t = at;
    unsigned attempt = 0;
    for (;;) {
        DmaResult r = submitOnce(t, desc);
        total.done = r.done;
        total.srcBytes += r.srcBytes;
        total.dstBytes += r.dstBytes;
        total.configs += r.configs;
        if (!faults_->dmaTransient(r.done, name()))
            break;
        if (attempt >= faults_->dmaMaxRetries()) {
            faults_->recordDmaExhausted(r.done, name());
            break;
        }
        t = saturatingAddTicks(r.done, faults_->dmaBackoff(attempt));
        ++attempt;
        total.retries = attempt;
        faults_->recordDmaRetry();
    }
    return total;
}

DmaResult
DmaEngine::submitOnce(Tick at, const DmaDescriptor &desc)
{
    fatalIf(desc.repeatCount == 0, "DMA repeatCount must be >= 1");
    fatalIf(desc.broadcast && desc.dst != MemLevel::L2,
            "DMA broadcast destination must be L2");
    fatalIf(desc.broadcast && !features_.broadcast,
            "broadcast requested but not supported by this DMA engine");
    fatalIf(desc.sparse && !features_.sparseDecompress,
            "sparse transfer requested but not supported");
    // Endpoints on one level would share a ledger, which the
    // per-endpoint series booking below does not interleave.
    fatalIf(desc.src == desc.dst, "DMA source and destination are both ",
            memLevelName(desc.src));

    bool use_repeat = desc.repeatMode && features_.repeatMode &&
                      desc.repeatCount > 1;
    Tick config_ticks = clock_.ticksFor(configCycles_);

    // Indirect routing on DTU 1.0: L1 <-> L3 must stage through L2.
    if (!features_.l1L3Direct &&
        ((desc.src == MemLevel::L1 && desc.dst == MemLevel::L3) ||
         (desc.src == MemLevel::L3 && desc.dst == MemLevel::L1))) {
        DmaDescriptor hop1 = desc;
        DmaDescriptor hop2 = desc;
        hop1.dst = MemLevel::L2;
        hop1.dstPort = desc.src == MemLevel::L1 ? desc.srcPort
                                                : desc.dstPort;
        hop2.src = MemLevel::L2;
        hop2.srcPort = hop1.dstPort;
        // Hops stay inside this attempt: the fault wrapper draws once
        // per submitted request, not once per staging hop.
        DmaResult first = submitOnce(at, hop1);
        DmaResult second = submitOnce(first.done, hop2);
        second.srcBytes += first.srcBytes;
        second.dstBytes += first.dstBytes;
        second.configs += first.configs;
        return second;
    }

    // Effective wire bytes per transaction on each side. Sparse data
    // travels compressed on the L3 side and is expanded on the fly.
    std::uint64_t elem = dtypeBytes(desc.dtype);
    std::uint64_t numel = elem ? desc.bytes / elem : desc.bytes;
    std::uint64_t compressed =
        desc.sparse ? sparseEncodedBytes(numel, desc.density, desc.dtype)
                    : desc.bytes;
    // The engine never sends a compressed stream bigger than dense.
    compressed = std::min<std::uint64_t>(compressed, desc.bytes);

    std::uint64_t src_bytes =
        desc.sparse && desc.src == MemLevel::L3 ? compressed : desc.bytes;
    std::uint64_t dst_bytes =
        desc.sparse && desc.dst == MemLevel::L3 ? compressed : desc.bytes;

    // The engine datapath sits upstream of the (de)compressor at the
    // destination port, so it carries the source-side byte stream.
    double rate_factor = transformRateFactor(desc.transform);
    auto pipe_bytes = static_cast<std::uint64_t>(
        static_cast<double>(src_bytes) / rate_factor + 0.5);

    // The engine datapath chains the transactions: each starts once
    // its predecessor has cleared the pipe, so the pipe is booked one
    // transaction at a time and fixes every start tick. Back-to-back
    // transactions pipeline behind it; memory-side stalls surface
    // through the endpoints' own queues on the next transaction.
    DmaResult result;
    const unsigned n = desc.repeatCount;
    starts_.resize(n);
    seriesDone_.resize(n);
    Tick t = at;
    Tick engine_done = t;
    for (unsigned i = 0; i < n; ++i) {
        if (i == 0 || !use_repeat) {
            t = saturatingAddTicks(t, config_ticks);
            ++result.configs;
            ++configOps_;
            configTicks_ += static_cast<double>(config_ticks);
        }
        starts_[i] = t;
        engine_done = pipe_->transferAt(t, pipe_bytes);
        t = std::max(engine_done, t);
        ++transactions_;
        if (desc.sparse)
            sparseSavedBytes_ +=
                static_cast<double>(desc.bytes - compressed);
        if (desc.broadcast)
            broadcastCopies_ += static_cast<double>(
                fabric_.clusterL2.size() > 0 ? fabric_.clusterL2.size() - 1
                                             : 0);
    }

    // Source and destination share no ledger with the pipe or each
    // other, so booking each endpoint's whole series in turn leaves
    // every ledger's booking order as transaction-major booking would.
    Tick src_done = endpointSeries(desc.src, desc.srcAddr, desc.repeatStride,
                                   desc.srcPort, src_bytes,
                                   desc.useFillPort);
    Tick dst_done = 0;
    if (desc.broadcast) {
        for (Sram *slice : fabric_.clusterL2)
            dst_done = std::max(dst_done,
                                l2Series(*slice, DmaDescriptor::anyPort,
                                         dst_bytes, desc.useFillPort));
    } else {
        dst_done = endpointSeries(desc.dst, desc.dstAddr, desc.repeatStride,
                                  desc.dstPort, dst_bytes,
                                  desc.useFillPort);
    }
    const std::uint64_t copies =
        desc.broadcast ? fabric_.clusterL2.size() : 1;
    result.srcBytes = src_bytes * n;
    result.dstBytes = dst_bytes * copies * n;
    result.done = std::max({engine_done, src_done, dst_done});

    // One span covers the whole request (all repeat transactions);
    // per-transaction spans would swamp the timeline at no insight.
    if (Tracer *tr = tracer(); tr && tr->enabled()) {
        std::string label = memLevelName(desc.src);
        label += "->";
        label += memLevelName(desc.dst);
        if (desc.broadcast)
            label += " bcast";
        if (desc.sparse)
            label += " sparse";
        if (desc.transform != TransformKind::None) {
            label += " ";
            label += transformName(desc.transform);
        }
        tr->span(traceTrack(), label, "dma", at, result.done,
                 {{"bytes", static_cast<double>(desc.bytes *
                                               desc.repeatCount)},
                  {"src_bytes", static_cast<double>(result.srcBytes)},
                  {"dst_bytes", static_cast<double>(result.dstBytes)},
                  {"repeats", static_cast<double>(desc.repeatCount)},
                  {"configs", static_cast<double>(result.configs)}});
    }
    return result;
}

} // namespace dtu
