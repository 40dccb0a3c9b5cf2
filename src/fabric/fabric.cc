#include "fabric/fabric.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace dtu
{
namespace fabric
{

const char *
topologyName(Topology t)
{
    switch (t) {
      case Topology::SharedRoot:
        return "shared-root";
      case Topology::Ring:
        return "ring";
      case Topology::FullMesh:
        return "full-mesh";
    }
    return "unknown";
}

Topology
parseTopology(const std::string &name)
{
    if (name == "shared-root")
        return Topology::SharedRoot;
    if (name == "ring")
        return Topology::Ring;
    if (name == "full-mesh")
        return Topology::FullMesh;
    fatal("unknown fabric topology '", name,
          "' (expected shared-root, ring, or full-mesh)");
    return Topology::SharedRoot;
}

void
FabricConfig::validate() const
{
    fatalIf(linkGbps <= 0.0, "fabric link bandwidth must be positive (got ",
            linkGbps, " GB/s)");
    fatalIf(hostGbps <= 0.0,
            "fabric host root-complex bandwidth must be positive (got ",
            hostGbps, " GB/s)");
    fatalIf(!std::isfinite(linkGbps) || !std::isfinite(hostGbps),
            "fabric bandwidth must be finite");
}

Link::Link(std::string name, double gbps)
    : name_(std::move(name)), gbps_(gbps), ledger_(gbps * 1e9)
{
    fatalIf(gbps <= 0.0 || !std::isfinite(gbps), "bandwidth of fabric link '",
            name_, "' must be positive (got ", gbps, " GB/s)");
}

Tick
Link::transferAt(Tick at, std::uint64_t bytes)
{
    bytesMoved_ += static_cast<double>(bytes);
    ++transfers_;
    Tick done = ledger_.book(at, bytes, watermark_);
    if (bytes == 0)
        return done;
    Tick pure = secondsToTicks(static_cast<double>(bytes) /
                               ledger_.bytesPerSecond());
    Tick unqueued = saturatingAddTicks(at, pure);
    if (done > unqueued)
        waitTicks_ = saturatingAddTicks(waitTicks_, done - unqueued);
    return done;
}

double
Link::utilizationAt(Tick now) const
{
    Tick horizon = std::max(now, freeAt());
    if (horizon == 0)
        return 0.0;
    double capacity = ledger_.bytesPerSecond() * ticksToSeconds(horizon);
    return capacity > 0.0 ? std::min(1.0, bytesMoved_ / capacity) : 0.0;
}

Fabric::Fabric(const FabricConfig &config, unsigned devices,
               unsigned group_size)
    : config_(config), groupSize_(group_size),
      groups_(group_size ? devices / group_size : 0),
      root_("fabric.root", config.hostGbps)
{
    config_.validate();
    fatalIf(group_size == 0, "fabric placement group size must be > 0");
    fatalIf(devices % group_size != 0, "fleet of ", devices,
            " devices cannot be split into groups of ", group_size);
    peer_.resize(groups_);
    if (groupSize_ < 2)
        return;
    for (unsigned g = 0; g < groups_; ++g) {
        Group &grp = peer_[g];
        const std::string prefix = "fabric.g" + std::to_string(g);
        switch (config_.topology) {
          case Topology::SharedRoot:
            // Peer traffic rides the shared root link; no private links.
            break;
          case Topology::Ring:
            for (unsigned i = 0; i < groupSize_; ++i)
                grp.links.push_back(std::make_unique<Link>(
                    prefix + ".ring" + std::to_string(i),
                    config_.linkGbps));
            break;
          case Topology::FullMesh:
            for (unsigned a = 0; a < groupSize_; ++a)
                for (unsigned b = a + 1; b < groupSize_; ++b)
                    grp.links.push_back(std::make_unique<Link>(
                        prefix + ".d" + std::to_string(a) + "d" +
                            std::to_string(b),
                        config_.linkGbps));
            break;
        }
    }
}

Link &
Fabric::pairLink(Group &g, unsigned a, unsigned b)
{
    if (a > b)
        std::swap(a, b);
    // Upper-triangular pair index for d devices.
    const std::uint64_t d = groupSize_;
    std::uint64_t idx = a * (2 * d - a - 1) / 2 + (b - a - 1);
    return *g.links[idx];
}

Tick
Fabric::hostLoadAt(Tick at, std::uint64_t bytes)
{
    ++weightLoads_;
    weightLoadBytes_ += static_cast<double>(bytes);
    Tick done = root_.transferAt(at, bytes);
    return saturatingAddTicks(done, config_.linkLatency);
}

Tick
Fabric::allReduceAt(unsigned group, Tick at, std::uint64_t bytes)
{
    panicIf(group >= groups_, "fabric group out of range");
    if (groupSize_ < 2)
        return at;
    Group &grp = peer_[group];
    ++grp.collectives;
    grp.collectiveBytes += static_cast<double>(bytes);
    const double d = static_cast<double>(groupSize_);
    Tick done = at;
    Tick hops = 0;
    switch (config_.topology) {
      case Topology::SharedRoot: {
        // Reduce-scatter then all-gather, every shard crossing the
        // root complex twice: 2(d-1) x payload on the shared link.
        std::uint64_t wire = static_cast<std::uint64_t>(
            2.0 * (d - 1.0) * static_cast<double>(bytes) + 0.5);
        done = root_.transferAt(at, wire);
        hops = 4; // up + down per phase
        break;
      }
      case Topology::Ring: {
        // Ring algorithm: every link carries 2(d-1)/d of the payload.
        std::uint64_t wire = static_cast<std::uint64_t>(
            2.0 * (d - 1.0) / d * static_cast<double>(bytes) + 0.5);
        for (auto &link : grp.links)
            done = std::max(done, link->transferAt(at, wire));
        hops = 2 * (groupSize_ - 1);
        break;
      }
      case Topology::FullMesh: {
        // Direct algorithm: each pair exchanges its shard in both
        // phases and both directions: 4/d x payload per pair link.
        std::uint64_t wire = static_cast<std::uint64_t>(
            4.0 / d * static_cast<double>(bytes) + 0.5);
        for (auto &link : grp.links)
            done = std::max(done, link->transferAt(at, wire));
        hops = 2;
        break;
      }
    }
    return saturatingAddTicks(done, hops * config_.linkLatency);
}

Tick
Fabric::sendAt(unsigned group, unsigned from_stage, Tick at,
               std::uint64_t bytes)
{
    panicIf(group >= groups_, "fabric group out of range");
    panicIf(groupSize_ < 2 || from_stage + 1 >= groupSize_,
            "fabric activation send needs a downstream stage");
    Group &grp = peer_[group];
    ++grp.sends;
    grp.sendBytes += static_cast<double>(bytes);
    Tick done = at;
    Tick hops = 1;
    switch (config_.topology) {
      case Topology::SharedRoot:
        done = root_.transferAt(at, bytes);
        hops = 2; // up through the root complex and back down
        break;
      case Topology::Ring:
        done = grp.links[from_stage]->transferAt(at, bytes);
        break;
      case Topology::FullMesh:
        done = pairLink(grp, from_stage, from_stage + 1)
                   .transferAt(at, bytes);
        break;
    }
    return saturatingAddTicks(done, hops * config_.linkLatency);
}

void
Fabric::raiseGroupWatermark(unsigned group, Tick at)
{
    for (auto &link : peer_.at(group).links)
        link->raiseWatermark(at);
}

std::size_t
Fabric::ledgerPages() const
{
    std::size_t pages = root_.ledgerPages();
    for (const Group &g : peer_)
        for (const auto &link : g.links)
            pages += link->ledgerPages();
    return pages;
}

std::vector<LinkStats>
Fabric::linkStats(Tick now) const
{
    auto snap = [now](const Link &l) {
        LinkStats s;
        s.name = l.name();
        s.gbps = l.gbps();
        s.bytes = l.totalBytes();
        s.transfers = l.transfers();
        s.waitMs = ticksToMilliSeconds(l.totalWaitTicks());
        s.utilization = l.utilizationAt(now);
        return s;
    };
    std::vector<LinkStats> out;
    out.push_back(snap(root_));
    for (const Group &g : peer_)
        for (const auto &link : g.links)
            out.push_back(snap(*link));
    return out;
}

FabricTotals
Fabric::totals() const
{
    FabricTotals t;
    t.weightLoads = weightLoads_;
    t.weightLoadBytes = weightLoadBytes_;
    for (const Group &g : peer_) {
        t.collectives += g.collectives;
        t.collectiveBytes += g.collectiveBytes;
        t.activationSends += g.sends;
        t.activationBytes += g.sendBytes;
    }
    return t;
}

} // namespace fabric
} // namespace dtu
