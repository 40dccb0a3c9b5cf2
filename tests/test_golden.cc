/**
 * @file
 * Golden-JSON regression test for the serving report.
 *
 * One fixed-seed serving run is serialized via writeJson() and
 * compared field-by-field (line-by-line: the writer emits one field
 * per line) against tests/golden/serving_report.json. Any change to
 * the scheduler, executor timing model, or report serialization
 * shows up as a precise diff here instead of a silent drift.
 *
 * To regenerate after an intentional change:
 *
 *     DTU_UPDATE_GOLDEN=1 ./build/tests/dtusim_tests \
 *         --gtest_filter='GoldenReport.*'
 *
 * then commit the updated golden file together with the change that
 * moved the numbers.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "serve/arrival.hh"
#include "serve/scheduler.hh"
#include "serve_test_util.hh"

namespace
{

using namespace dtu;
using namespace dtu::serve;
using dtu::test::serveOnChip;

std::string
goldenPath()
{
    return std::string(DTU_TESTS_DIR) + "/golden/serving_report.json";
}

/** The fixed-seed bench_serving-style run the golden file pins. */
std::string
renderReport()
{
    Dtu chip(dtu2Config());
    ResourceManager rm(chip);
    ServingConfig config;
    config.batching.maxBatch = 4;
    config.batching.maxQueueDelay = secondsToTicks(0.5e-3);
    auto trace = finalizeTrace(
        {poissonTrace("conformer", 4000.0, 16, /*seed=*/2718,
                      /*deadline=*/secondsToTicks(5e-3)),
         poissonTrace("resnet50", 300.0, 4, /*seed=*/3141,
                      /*deadline=*/secondsToTicks(20e-3))});
    ServingReport report = serveOnChip(chip, rm, config, trace);
    std::ostringstream os;
    writeJson(report, os);
    return os.str();
}

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line))
        lines.push_back(line);
    return lines;
}

TEST(GoldenReport, MatchesCheckedInJson)
{
    std::string rendered = renderReport();

    if (std::getenv("DTU_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(goldenPath());
        ASSERT_TRUE(out) << "cannot write " << goldenPath();
        out << rendered;
        GTEST_SKIP() << "regenerated " << goldenPath();
    }

    std::ifstream in(goldenPath());
    ASSERT_TRUE(in) << "missing " << goldenPath()
                    << "; regenerate with DTU_UPDATE_GOLDEN=1";
    std::stringstream golden;
    golden << in.rdbuf();

    std::vector<std::string> want = splitLines(golden.str());
    std::vector<std::string> got = splitLines(rendered);
    // Field-by-field: the writer emits one field per line, so a
    // mismatch names the exact field (and line) that moved.
    std::size_t common = std::min(want.size(), got.size());
    for (std::size_t i = 0; i < common; ++i) {
        EXPECT_EQ(got[i], want[i])
            << "serving report diverged from golden at line " << i + 1
            << "; if intentional, regenerate with DTU_UPDATE_GOLDEN=1";
    }
    EXPECT_EQ(got.size(), want.size());
}

TEST(GoldenReport, RunIsReproducibleWithinProcess)
{
    // The golden comparison is only meaningful if the run itself is
    // deterministic; pin that independently of the checked-in file.
    EXPECT_EQ(renderReport(), renderReport());
}

} // namespace
