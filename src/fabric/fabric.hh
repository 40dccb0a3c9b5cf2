/**
 * @file
 * Simulated multi-chip interconnect fabric.
 *
 * The fleet's devices talk to the host and to each other over PCIe-class
 * links modelled as first-class discrete-event resources: every link books
 * its traffic on a CapacityLedger (the one mem/bandwidth uses) at a fixed
 * byte rate plus a per-hop propagation latency, so concurrent transfers
 * on a shared link contend instead of each enjoying full bandwidth.
 *
 * Three topologies are supported per fleet:
 *  - SharedRoot: all devices hang off one host root complex; every
 *    transfer (weight loads, collectives, activations) crosses the one
 *    shared root link.
 *  - Ring: each placement group gets a unidirectional ring of peer
 *    links (the classic ring all-reduce substrate).
 *  - FullMesh: each placement group gets a dedicated link per device
 *    pair.
 * Host-side weight loads always cross the shared root-complex link,
 * regardless of topology — that is what makes concurrent placements
 * contend (and what the scalar weightLoadGbps cost model got wrong).
 *
 * Thread-safety contract (mirrors the conservative time-window fleet
 * loop): the root-complex link is only touched from the fleet thread
 * (admission barriers). Peer links belong to exactly one placement
 * group, and each group is driven by exactly one scheduler, i.e. one
 * worker thread. Under SharedRoot, peer traffic from group schedulers
 * would hit the shared root link from worker threads, so the fleet
 * falls back to serial execution for that combination.
 */

#ifndef DTU_FABRIC_FABRIC_HH
#define DTU_FABRIC_FABRIC_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mem/capacity_ledger.hh"
#include "sim/ticks.hh"

namespace dtu
{
namespace fabric
{

/** How a fleet's devices are wired together. */
enum class Topology
{
    /** Every device behind one host root complex; all traffic shares it. */
    SharedRoot,
    /** Per-group unidirectional ring of peer links. */
    Ring,
    /** Per-group dedicated link for every device pair. */
    FullMesh,
};

const char *topologyName(Topology t);

/** Parse a topology name ("shared-root", "ring", "full-mesh"). */
Topology parseTopology(const std::string &name);

/** Per-fleet interconnect configuration. */
struct FabricConfig
{
    /** Model the interconnect at all. Off keeps the scalar cost model. */
    bool enabled = false;

    Topology topology = Topology::SharedRoot;

    /** Peer (device-to-device) link bandwidth, GB/s. */
    double linkGbps = 64.0;

    /** Host root-complex bandwidth, GB/s (weight-load DMA path). */
    double hostGbps = 64.0;

    /** Per-hop propagation latency in ticks (default 500 ns). */
    Tick linkLatency = 500'000;

    /** Fatal on non-physical settings (zero/negative bandwidth). */
    void validate() const;
};

/**
 * One interconnect link: a CapacityLedger plus per-link stats.
 *
 * Same fair-sharing ledger as BandwidthResource, but with no
 * SimObject/EventQueue dependency, because fabric links are
 * fleet-level resources that outlive any single device timeline.
 * All completion arithmetic saturates at maxTick instead of wrapping.
 */
class Link
{
  public:
    Link(std::string name, double gbps);

    /**
     * Occupy the link for @p bytes starting no earlier than @p at.
     * @return the tick the last byte is delivered (no hop latency).
     */
    Tick transferAt(Tick at, std::uint64_t bytes);

    /**
     * Close the link's timeline below @p at: a later transfer that
     * starts earlier waits for it, and ledger pages wholly below it
     * are retired (see CapacityLedger).
     */
    void raiseWatermark(Tick at) { watermark_ = std::max(watermark_, at); }

    /** Ledger pages held (see CapacityLedger::livePages). */
    std::size_t ledgerPages() const { return ledger_.livePages(); }

    const std::string &name() const { return name_; }

    /** Configured bandwidth in GB/s. */
    double gbps() const { return gbps_; }

    /** Tick at which the link next becomes idle. */
    Tick freeAt() const { return ledger_.freeAt(); }

    double totalBytes() const { return bytesMoved_; }
    std::uint64_t transfers() const { return transfers_; }

    /** Ticks transfers spent queued behind earlier traffic. */
    Tick totalWaitTicks() const { return waitTicks_; }

    /** Busy time as a fraction of [0, max(now, freeAt)]. */
    double utilizationAt(Tick now) const;

  private:
    std::string name_;
    double gbps_;
    CapacityLedger ledger_;
    Tick watermark_ = 0;
    double bytesMoved_ = 0.0;
    std::uint64_t transfers_ = 0;
    Tick waitTicks_ = 0;
};

/** Read-only per-link snapshot for reports and Prometheus export. */
struct LinkStats
{
    std::string name;
    double gbps = 0.0;
    double bytes = 0.0;
    std::uint64_t transfers = 0;
    double waitMs = 0.0;
    double utilization = 0.0;
};

/** Aggregate fabric traffic (summed over groups + the host link). */
struct FabricTotals
{
    std::uint64_t collectives = 0;
    double collectiveBytes = 0.0;
    std::uint64_t activationSends = 0;
    double activationBytes = 0.0;
    std::uint64_t weightLoads = 0;
    double weightLoadBytes = 0.0;
};

/**
 * The fleet interconnect: one shared host root-complex link plus
 * per-placement-group peer links laid out by the configured topology.
 */
class Fabric
{
  public:
    /**
     * @param config validated fabric configuration.
     * @param devices total physical devices in the fleet.
     * @param group_size devices per placement group (1 = data parallel).
     */
    Fabric(const FabricConfig &config, unsigned devices,
           unsigned group_size);

    const FabricConfig &config() const { return config_; }
    unsigned groups() const { return groups_; }
    unsigned groupSize() const { return groupSize_; }

    /**
     * Host-to-device weight-load DMA over the shared root complex.
     * Fleet-thread only (called from admission barriers).
     * @return delivery tick including one hop of latency.
     */
    Tick hostLoadAt(Tick at, std::uint64_t bytes);

    /**
     * Ring all-reduce of @p bytes across group @p group's devices.
     * Each device pushes 2(d-1)/d of the payload around the ring
     * (reduce-scatter + all-gather), paying 2(d-1) latency hops.
     * @return the tick the reduced tensor is resident everywhere.
     */
    Tick allReduceAt(unsigned group, Tick at, std::uint64_t bytes);

    /**
     * Point-to-point activation send from pipeline stage @p from_stage
     * to stage from_stage+1 within @p group.
     */
    Tick sendAt(unsigned group, unsigned from_stage, Tick at,
                std::uint64_t bytes);

    /**
     * True when group peer traffic would cross the shared root link
     * from worker threads — the fleet must then run serially.
     */
    bool peerTrafficSharesRoot() const
    {
        return config_.topology == Topology::SharedRoot && groupSize_ > 1;
    }

    /**
     * Promise that no later transfer on the root link starts before
     * @p at. Fleet-thread only, like every other root-link access.
     */
    void raiseRootWatermark(Tick at) { root_.raiseWatermark(at); }

    /**
     * Promise that no later transfer on group @p group's peer links
     * starts before @p at. Called by the group's own scheduler.
     */
    void raiseGroupWatermark(unsigned group, Tick at);

    /** Ledger pages held across every link. */
    std::size_t ledgerPages() const;

    std::vector<LinkStats> linkStats(Tick now) const;
    FabricTotals totals() const;

  private:
    /** Peer links owned by one placement group (worker-thread private). */
    struct Group
    {
        std::vector<std::unique_ptr<Link>> links;
        std::uint64_t collectives = 0;
        double collectiveBytes = 0.0;
        std::uint64_t sends = 0;
        double sendBytes = 0.0;
    };

    Link &pairLink(Group &g, unsigned a, unsigned b);

    FabricConfig config_;
    unsigned groupSize_;
    unsigned groups_;
    Link root_;
    std::vector<Group> peer_;
    std::uint64_t weightLoads_ = 0;
    double weightLoadBytes_ = 0.0;
};

} // namespace fabric
} // namespace dtu

#endif // DTU_FABRIC_FABRIC_HH
