/**
 * @file
 * Long serving sweeps under injected faults, and a 10^5-request
 * memory soak (ctest label: slow).
 *
 * These mirror bench_fault_tolerance at test scale: they replay a
 * near-saturation mixed trace through the scheduler with the fault
 * injector running hot, and pin the two properties the fast tier
 * cannot afford to check end-to-end — that deadline-aware shedding
 * strictly beats serving everything late under overload faults, and
 * that a long fully-faulted run replays bit-for-bit. The soak checks
 * that ledger pages retire behind the serving watermark, so memory
 * stays flat however long the trace.
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "../serve_test_util.hh"
#include "api/server.hh"
#include "serve/arrival.hh"
#include "serve/scheduler.hh"
#include "sim/fault.hh"

namespace
{

using namespace dtu;
using namespace dtu::serve;
using dtu::test::serveOnChip;

std::vector<Request>
overloadTrace()
{
    const double qps = 3000.0;
    return finalizeTrace(
        {poissonTrace("resnet50", qps * 0.75, 96, /*seed=*/101,
                      /*deadline=*/secondsToTicks(20e-3)),
         poissonTrace("bert_large", qps * 0.25, 32, /*seed=*/202,
                      /*deadline=*/secondsToTicks(80e-3))});
}

FaultConfig
overloadFaults()
{
    FaultConfig config;
    config.seed = 42;
    config.eccCorrectablePerGiB = 200.0;
    config.dmaTransientRate = 0.05;
    config.thermalMeanIntervalS = 5e-3;
    config.thermalMeanDurationS = 20e-3;
    config.thermalCapHz = 0.45e9;
    return config;
}

ServingConfig
servingConfig(bool shed)
{
    ServingConfig config;
    config.batching.maxBatch = 8;
    config.batching.maxQueueDelay = secondsToTicks(2e-3);
    config.batching.perModelMaxBatch["bert_large"] = 1;
    config.groupsPerBatch = 1;
    config.degradation.maxBatchRetries = 2;
    if (shed) {
        config.degradation.shedExpired = true;
        config.degradation.requestTimeout = secondsToTicks(120e-3);
        config.degradation.admissionLimit = 64;
    }
    return config;
}

ServingReport
run(const std::vector<Request> &trace, bool shed)
{
    Dtu chip(dtu2Config());
    chip.installFaults(overloadFaults());
    ResourceManager rm(chip);
    return serveOnChip(chip, rm, servingConfig(shed), trace);
}

TEST(SlowFaultServing, SheddingBeatsNoSheddingUnderOverloadFaults)
{
    std::vector<Request> trace = overloadTrace();
    ServingReport none = run(trace, /*shed=*/false);
    ServingReport shed = run(trace, /*shed=*/true);

    // Under sustained throttling the chip cannot serve the offered
    // load; without shedding, batches keep carrying requests that
    // already missed their deadline, so in-deadline completions per
    // second collapse.
    EXPECT_GT(shed.goodputQps, none.goodputQps);
    EXPECT_GT(shed.shedRequests + shed.timedOutRequests +
                  shed.rejectedRequests,
              0u);
    EXPECT_GT(none.faultsInjected, 0u);
}

TEST(SlowFaultServing, LongFaultedRunReplaysBitForBit)
{
    std::vector<Request> trace = overloadTrace();
    ServingReport a = run(trace, /*shed=*/true);
    ServingReport b = run(trace, /*shed=*/true);

    std::ostringstream ja;
    writeJson(a, ja);
    std::ostringstream jb;
    writeJson(b, jb);
    EXPECT_EQ(ja.str(), jb.str());
    EXPECT_EQ(a.faultsInjected, b.faultsInjected);
}

/**
 * Serve @p count one-shot resnet50 requests on a 2-device fleet at
 * threads=2; check every request terminated exactly once and return
 * the ledger pages the chips still hold, live or pooled for reuse.
 */
std::size_t
soakLedgerPages(unsigned count)
{
    FleetConfig config;
    config.devices = 2;
    config.threads = 2;
    config.serving.batching.maxBatch = 8;
    config.serving.batching.maxQueueDelay = secondsToTicks(2e-3);
    FleetServer fleet(config);
    fleet.submit(poissonTrace("resnet50", 4000.0, count, /*seed=*/9));
    const FleetReport &report = fleet.serveFleet();
    std::set<std::uint64_t> ids;
    for (const RequestOutcome &o : report.fleet.outcomes)
        EXPECT_TRUE(ids.insert(o.request.id).second)
            << "request " << o.request.id << " terminated twice";
    EXPECT_EQ(ids.size(), count);
    EXPECT_EQ(report.fleet.submitted, count);
    std::size_t pages = 0;
    for (unsigned d = 0; d < fleet.size(); ++d)
        pages += fleet.device(d).chip().ledgerPages() +
                 fleet.device(d).chip().ledgerPoolPages();
    return pages;
}

TEST(SlowSoak, LedgerPagesStayFlatOverHundredThousandRequests)
{
    const std::size_t short_run = soakLedgerPages(1'000);
    const std::size_t soak = soakLedgerPages(100'000);
    EXPECT_GT(short_run, 0u);
    EXPECT_LE(soak, 2 * short_run)
        << "pages after 10^3 requests: " << short_run;
}

} // namespace
