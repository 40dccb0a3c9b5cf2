/**
 * @file
 * Tests for the SoC assembly: the DTU 2.0 / DTU 1.0 configurations
 * against the paper's published numbers, chip construction, and the
 * multi-tenancy resource manager.
 */

#include <gtest/gtest.h>

#include "sim/logging.hh"

#include "soc/dtu.hh"
#include "soc/resource_manager.hh"

namespace
{

using namespace dtu;

TEST(Config, Dtu2TopologyMatchesFig2)
{
    DtuConfig c = dtu2Config();
    EXPECT_EQ(c.clusters, 2u);
    EXPECT_EQ(c.groupsPerCluster, 3u);
    EXPECT_EQ(c.coresPerGroup, 4u);
    EXPECT_EQ(c.totalCores(), 24u);
    EXPECT_EQ(c.coresPerCluster(), 12u);
}

TEST(Config, Dtu1TopologyMatchesFig1)
{
    DtuConfig c = dtu1Config();
    EXPECT_EQ(c.clusters, 4u);
    EXPECT_EQ(c.totalCores(), 32u);
}

TEST(Config, Dtu2PeaksMatchTableI)
{
    DtuConfig c = dtu2Config();
    EXPECT_NEAR(c.peakOpsPerSecond(DType::FP32) / 32e12, 1.0, 0.02);
    EXPECT_NEAR(c.peakOpsPerSecond(DType::TF32) / 128e12, 1.0, 0.02);
    EXPECT_NEAR(c.peakOpsPerSecond(DType::FP16) / 128e12, 1.0, 0.02);
    EXPECT_NEAR(c.peakOpsPerSecond(DType::BF16) / 128e12, 1.0, 0.02);
    EXPECT_NEAR(c.peakOpsPerSecond(DType::INT8) / 256e12, 1.0, 0.02);
    EXPECT_EQ(c.l3Bytes, 16_GiB);
    EXPECT_DOUBLE_EQ(c.l3BytesPerSecond, 819e9);
    EXPECT_DOUBLE_EQ(c.tdpWatts, 150.0);
    EXPECT_DOUBLE_EQ(c.pcieBytesPerSecond, 64e9);
}

TEST(Config, Dtu1PeaksMatchSectionII)
{
    DtuConfig c = dtu1Config();
    EXPECT_NEAR(c.peakOpsPerSecond(DType::FP32) / 20e12, 1.0, 0.03);
    EXPECT_NEAR(c.peakOpsPerSecond(DType::FP16) / 80e12, 1.0, 0.03);
    EXPECT_NEAR(c.peakOpsPerSecond(DType::INT8) / 80e12, 1.0, 0.03);
    EXPECT_DOUBLE_EQ(c.l3BytesPerSecond, 512e9);
}

TEST(Config, GenerationalRatiosMatchSectionIV)
{
    DtuConfig d2 = dtu2Config();
    DtuConfig d1 = dtu1Config();
    // "1.6x peak performance on FP32/FP16/... and 3.2x on INT8"
    EXPECT_NEAR(d2.peakOpsPerSecond(DType::FP32) /
                    d1.peakOpsPerSecond(DType::FP32),
                1.6, 0.05);
    EXPECT_NEAR(d2.peakOpsPerSecond(DType::INT8) /
                    d1.peakOpsPerSecond(DType::INT8),
                3.2, 0.1);
    // "Its bandwidth is 1.6x larger" (HBM2E vs HBM2).
    EXPECT_NEAR(d2.l3BytesPerSecond / d1.l3BytesPerSecond, 1.6, 0.01);
    // "the L1/L2 memory per core becomes 4x/6x larger"
    EXPECT_EQ(d2.l1BytesPerCore / d1.l1BytesPerCore, 4u);
    double l2_per_cluster2 = static_cast<double>(d2.l2BytesPerGroup) *
                             d2.groupsPerCluster;
    double l2_per_cluster1 = static_cast<double>(d1.l2BytesPerGroup) *
                             d1.groupsPerCluster;
    EXPECT_DOUBLE_EQ(l2_per_cluster2 / l2_per_cluster1, 6.0);
    // "the overall capacities of L1 and L2 memory are increased by 3x"
    double l1_total2 = static_cast<double>(d2.l1BytesPerCore) *
                       d2.totalCores();
    double l1_total1 = static_cast<double>(d1.l1BytesPerCore) *
                       d1.totalCores();
    EXPECT_DOUBLE_EQ(l1_total2 / l1_total1, 3.0);
    EXPECT_DOUBLE_EQ(l2_per_cluster2 * d2.clusters /
                         (l2_per_cluster1 * d1.clusters),
                     3.0);
}

TEST(Dtu, ConstructsFullChip)
{
    Dtu chip(dtu2Config());
    EXPECT_EQ(chip.numClusters(), 2u);
    EXPECT_EQ(chip.totalGroups(), 6u);
    EXPECT_EQ(chip.totalCores(), 24u);
    EXPECT_EQ(chip.cluster(0).numGroups(), 3u);
    // Flat addressing reaches every core.
    for (unsigned c = 0; c < chip.totalCores(); ++c)
        EXPECT_NE(chip.core(c).name(), "");
    EXPECT_THROW(chip.core(24), FatalError);
    EXPECT_THROW(chip.group(6), FatalError);
}

TEST(Dtu, BootsAtLadderTopAndRetunes)
{
    // Clock periods are integer ticks, so frequencies land within
    // one part in ~700 of the request.
    Dtu chip(dtu2Config());
    EXPECT_NEAR(chip.coreFrequency() / 1.4e9, 1.0, 0.002);
    chip.setCoreFrequency(1.0e9);
    EXPECT_NEAR(chip.coreFrequency() / 1.0e9, 1.0, 0.002);
    EXPECT_NEAR(chip.coreClockOf(0).frequency() / 1.0e9, 1.0, 0.002);
    EXPECT_NEAR(chip.coreClockOf(5).frequency() / 1.0e9, 1.0, 0.002);
}

TEST(Dtu, CpmeReserveAfterBaselines)
{
    Dtu chip(dtu2Config());
    DtuConfig c = dtu2Config();
    double baselines = c.totalCores() * c.coreBaselineWatts +
                       c.totalGroups() * c.dmaBaselineWatts;
    EXPECT_NEAR(chip.cpme().reserveWatts(), c.tdpWatts - baselines, 1e-9);
}

TEST(Dtu, Dtu1ChipAlsoBuilds)
{
    Dtu chip(dtu1Config());
    EXPECT_EQ(chip.totalCores(), 32u);
    EXPECT_EQ(chip.totalGroups(), 4u);
    EXPECT_DOUBLE_EQ(chip.coreFrequency(), 1.25e9);
}

TEST(Dtu, BroadcastReachesSiblingGroups)
{
    Dtu chip(dtu2Config());
    DmaDescriptor desc;
    desc.src = MemLevel::L3;
    desc.dst = MemLevel::L2;
    desc.bytes = 4096;
    desc.broadcast = true;
    DmaResult r = chip.group(0).dma().submitAt(0, desc);
    EXPECT_EQ(r.dstBytes, 3u * 4096u);
}

//
// Resource manager (Fig. 7)
//

TEST(ResourceManager, LeasesAreClusterLocal)
{
    Dtu chip(dtu2Config());
    ResourceManager rm(chip);
    auto big = rm.allocate(1, 3); // a whole cluster
    ASSERT_TRUE(big.has_value());
    EXPECT_EQ(big->groups.size(), 3u);
    EXPECT_EQ(big->cluster, 0u);
    auto medium = rm.allocate(2, 2);
    ASSERT_TRUE(medium.has_value());
    EXPECT_EQ(medium->cluster, 1u);
    auto small = rm.allocate(3, 1);
    ASSERT_TRUE(small.has_value());
    EXPECT_EQ(small->cluster, 1u);
    EXPECT_EQ(rm.activeGroups(), 6u);
    EXPECT_EQ(rm.freeGroups(), 0u);
}

TEST(ResourceManager, IsolationTracksOwners)
{
    Dtu chip(dtu2Config());
    ResourceManager rm(chip);
    auto lease = rm.allocate(7, 2);
    ASSERT_TRUE(lease.has_value());
    for (unsigned gid : lease->groups)
        EXPECT_EQ(rm.tenantOf(gid), 7);
    EXPECT_EQ(rm.tenantOf(5), -1);
}

TEST(ResourceManager, RejectsOversizeAndDoubleLease)
{
    Dtu chip(dtu2Config());
    ResourceManager rm(chip);
    EXPECT_THROW(rm.allocate(1, 4), FatalError); // > groupsPerCluster
    EXPECT_THROW(rm.allocate(1, 0), FatalError);
    ASSERT_TRUE(rm.allocate(1, 1).has_value());
    EXPECT_THROW(rm.allocate(1, 1), FatalError); // same tenant again
}

TEST(ResourceManager, FailsWhenNoClusterFits)
{
    Dtu chip(dtu2Config());
    ResourceManager rm(chip);
    ASSERT_TRUE(rm.allocate(1, 2).has_value()); // cluster 0: 1 free
    ASSERT_TRUE(rm.allocate(2, 2).has_value()); // cluster 1: 1 free
    EXPECT_FALSE(rm.allocate(3, 2).has_value()); // no cluster has 2
    ASSERT_TRUE(rm.allocate(4, 1).has_value());  // but 1 still fits
}

TEST(ResourceManager, ReleaseRecyclesGroups)
{
    Dtu chip(dtu2Config());
    ResourceManager rm(chip);
    ASSERT_TRUE(rm.allocate(1, 3).has_value());
    ASSERT_TRUE(rm.allocate(2, 3).has_value());
    EXPECT_FALSE(rm.allocate(3, 1).has_value());
    rm.release(1);
    EXPECT_EQ(rm.freeGroups(), 3u);
    EXPECT_TRUE(rm.allocate(3, 3).has_value());
    EXPECT_THROW(rm.release(99), FatalError);
}

TEST(ResourceManager, AccountsLeaseChurnAndOccupancy)
{
    Dtu chip(dtu2Config());
    ResourceManager rm(chip);
    // Two timestamped leases: tenant 1 holds 2 groups for 100 ticks,
    // tenant 2 holds 1 group for 50 ticks.
    ASSERT_TRUE(rm.allocate(1, 2, /*now=*/0).has_value());
    ASSERT_TRUE(rm.allocate(2, 1, /*now=*/50).has_value());
    EXPECT_EQ(rm.peakActiveGroups(), 3u);
    rm.release(2, 100);
    rm.release(1, 100);
    ASSERT_TRUE(rm.allocate(3, 3).has_value());
    ASSERT_TRUE(rm.allocate(4, 3).has_value());
    EXPECT_FALSE(rm.allocate(5, 1).has_value()); // denial

    EXPECT_EQ(rm.grants(), 4u);
    EXPECT_EQ(rm.denials(), 1u);
    EXPECT_EQ(rm.releases(), 2u);
    EXPECT_EQ(rm.peakActiveGroups(), 6u);
    // 2 groups x 100 + 1 group x 50 = 250 completed busy ticks; the
    // live tick-0 leases of tenants 3/4 add 6 x now.
    EXPECT_EQ(rm.groupBusyTicks(100), 250u + 6u * 100u);
    EXPECT_DOUBLE_EQ(rm.utilization(100),
                     (250.0 + 600.0) / (100.0 * 6.0));
}

} // namespace
