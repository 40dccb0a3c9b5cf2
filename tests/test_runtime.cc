/**
 * @file
 * Tests for the runtime: the executor's structural behaviours
 * (feature knobs change latency in the right direction, DVFS reacts,
 * energy accumulates), multi-tenancy isolation, and the reporting
 * helpers.
 */

#include <gtest/gtest.h>

#include "sim/logging.hh"

#include <cmath>
#include <sstream>

#include "compiler/lowering.hh"
#include "models/model_zoo.hh"
#include "runtime/report.hh"
#include "runtime/tenancy.hh"

namespace
{

using namespace dtu;

ExecResult
runModel(const std::string &model, ExecOptions options,
         const DtuConfig &config = dtu2Config())
{
    Dtu chip(config);
    ExecutionPlan plan = compile(models::buildModel(model), config,
                                 DType::FP16, config.totalGroups());
    std::vector<unsigned> groups;
    for (unsigned g = 0; g < config.totalGroups(); ++g)
        groups.push_back(g);
    Executor executor(chip, groups, options);
    return executor.run(plan);
}

TEST(Executor, ProducesPositiveResults)
{
    ExecResult r = runModel("resnet50", {.powerManagement = false});
    EXPECT_GT(r.latency, 0u);
    EXPECT_GT(r.joules, 0.0);
    EXPECT_GT(r.watts, 20.0);
    EXPECT_LT(r.watts, 200.0);
    EXPECT_GT(r.throughput, 0.0);
    EXPECT_GT(r.l3Bytes, 0.0);
}

TEST(Executor, TraceCoversEveryOp)
{
    Dtu chip(dtu2Config());
    ExecutionPlan plan = compile(models::buildVgg16(), chip.config(),
                                 DType::FP16, 6);
    Executor executor(chip, {0, 1, 2, 3, 4, 5},
                      {.powerManagement = false, .trace = true});
    ExecResult r = executor.run(plan);
    EXPECT_EQ(r.trace.size(), plan.ops.size());
    Tick prev_end = 0;
    for (const auto &t : r.trace) {
        EXPECT_GE(t.start, prev_end);
        EXPECT_GT(t.end, t.start);
        prev_end = t.end;
    }
}

TEST(Executor, MoreGroupsRunFaster)
{
    Dtu chip(dtu2Config());
    ExecutionPlan wide = compile(models::buildVgg16(), chip.config(),
                                 DType::FP16, 6);
    Executor six(chip, {0, 1, 2, 3, 4, 5}, {.powerManagement = false});
    Tick with_six = six.run(wide).latency;

    Dtu chip2(dtu2Config());
    ExecutionPlan narrow = compile(models::buildVgg16(), chip2.config(),
                                   DType::FP16, 1);
    Executor one(chip2, {0}, {.powerManagement = false});
    Tick with_one = one.run(narrow).latency;
    EXPECT_LT(with_six, with_one);
    // Sublinear scaling: overheads do not parallelize.
    EXPECT_LT(static_cast<double>(with_one) /
                  static_cast<double>(with_six),
              6.0);
}

TEST(Executor, BroadcastReducesHbmTraffic)
{
    ExecResult with_bcast =
        runModel("bert_large", {.powerManagement = false});
    ExecResult without = runModel(
        "bert_large", {.powerManagement = false, .useBroadcast = false});
    // Without broadcast every group streams its own weight copy.
    EXPECT_GT(without.l3Bytes, 2.0 * with_bcast.l3Bytes);
    EXPECT_GT(without.latency, with_bcast.latency);
}

TEST(Executor, PowerManagementTradesLatencyForEnergy)
{
    ExecResult off = runModel("resnet50", {.powerManagement = false});
    ExecResult on = runModel("resnet50", {.powerManagement = true});
    EXPECT_GE(on.latency, off.latency);
    // Less than 5% performance cost...
    EXPECT_LT(static_cast<double>(on.latency) /
                  static_cast<double>(off.latency),
              1.05);
    // ...for a tangible energy saving.
    EXPECT_LT(on.joules, off.joules * 0.97);
    EXPECT_LT(on.meanFrequencyGHz, 1.4);
}

TEST(Executor, Dtu1LacksTheFeatures)
{
    ExecResult i10 = runModel("resnet50", {.powerManagement = false},
                              dtu1Config());
    ExecResult i20 = runModel("resnet50", {.powerManagement = false});
    EXPECT_GT(i10.latency, i20.latency);
}

TEST(Executor, RejectsBadLeases)
{
    Dtu chip(dtu2Config());
    EXPECT_THROW(Executor(chip, {}), FatalError);
    EXPECT_THROW(Executor(chip, {9}), FatalError);
}

TEST(Tenancy, RejectsOverlappingLeases)
{
    Dtu chip(dtu2Config());
    ExecutionPlan plan =
        compile(models::buildResnet50(), chip.config(), DType::FP16, 1);
    std::vector<TenantJob> jobs(2);
    jobs[0].plan = plan;
    jobs[0].groups = {0, 1};
    jobs[1].plan = plan;
    jobs[1].groups = {1, 2}; // overlaps on group 1
    EXPECT_THROW(runTenants(chip, jobs), FatalError);
}

TEST(Tenancy, IsolationKeepsInterferenceSmall)
{
    // Two single-group tenants run concurrently; compute isolation
    // means each finishes close to its solo time.
    Dtu solo_chip(dtu2Config());
    ExecutionPlan plan = compile(models::buildResnet50(),
                                 solo_chip.config(), DType::FP16, 1);
    Executor solo(solo_chip, {0}, {.powerManagement = false});
    Tick alone = solo.run(plan).latency;

    Dtu chip(dtu2Config());
    std::vector<TenantJob> jobs(2);
    jobs[0].plan = plan;
    jobs[0].groups = {0};
    jobs[0].options.powerManagement = false;
    jobs[1].plan = plan;
    jobs[1].groups = {3}; // other cluster
    jobs[1].options.powerManagement = false;
    TenancyResult res = runTenants(chip, jobs);
    for (const auto &tenant : res.tenants) {
        EXPECT_LT(static_cast<double>(tenant.latency),
                  1.25 * static_cast<double>(alone));
    }
    EXPECT_GT(res.throughput, 0.0);
}

TEST(Tenancy, BatchedSplitsFairly)
{
    Dtu chip(dtu2Config());
    auto res = runBatched(
        chip, [](int b) { return models::buildResnet50(b); }, 7, 3, 1,
        {.powerManagement = false});
    ASSERT_EQ(res.tenants.size(), 3u);
    // 7 samples over 3 tenants: shares of 2 or 3. Each tenant's share
    // is its samples/s times its latency.
    long samples = 0;
    for (const auto &t : res.tenants) {
        const long share = std::lround(t.throughput *
                                       ticksToSeconds(t.latency));
        EXPECT_TRUE(share == 2 || share == 3) << "share " << share;
        samples += share;
    }
    EXPECT_EQ(samples, 7);
    EXPECT_GT(res.throughput, 0.0);
    EXPECT_GT(res.makespan, 0u);
}

TEST(Report, GeomeanBasics)
{
    EXPECT_DOUBLE_EQ(geomean({4.0, 1.0}), 2.0);
    EXPECT_DOUBLE_EQ(geomean({3.0}), 3.0);
    EXPECT_THROW(geomean({}), FatalError);
    EXPECT_THROW(geomean({1.0, -1.0}), FatalError);
}

TEST(Report, TableRowsAndCells)
{
    ReportTable t({"model", "a", "b"});
    t.addRow("x", {1.0, 2.0});
    t.addRow("y", {4.0, 8.0});
    t.addGeomeanRow();
    EXPECT_EQ(t.rows(), 3u);
    EXPECT_DOUBLE_EQ(t.cell(2, 0), 2.0);
    EXPECT_DOUBLE_EQ(t.cell(2, 1), 4.0);
    EXPECT_THROW(t.addRow("bad", {1.0}), FatalError);
    std::ostringstream os;
    t.print(os);
    EXPECT_NE(os.str().find("GeoMean"), std::string::npos);
}

} // namespace
