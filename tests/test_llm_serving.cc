/**
 * @file
 * Autoregressive LLM serving: the paged KV-cache allocator, the
 * prefill/decode scheduler, continuous batching, and the
 * generation-aware request API (serve/kv_cache.hh, the generative
 * paths of serve/scheduler.hh, api/server.hh).
 *
 * The load-bearing guarantees pinned here:
 *
 *  - The KV page allocator never leaks (pages allocated == pages
 *    freed once every sequence is released), never exceeds its
 *    budget, and turns misuse (duplicate reserve, growth past a
 *    reservation, double release) into fatal errors.
 *  - A generative run drains cleanly: every request reaches a
 *    terminal state, the KV pool returns to zero pages in use, and
 *    TTFT/ITL statistics are populated.
 *  - Continuous batching dominates static batching on token
 *    throughput for ragged-length traffic.
 *  - The RequestSpec redesign is a pure re-skin of the one-shot
 *    path: replaying the fleet golden trace spec-by-spec through
 *    submit(RequestSpec) reproduces tests/golden/fleet_serving.json
 *    byte-for-byte.
 *  - A size-1 FleetServer that owns its device and a Server over a
 *    borrowed one, driven through the same FleetServer handle,
 *    produce identical generative serving reports.
 *
 * The generative golden file regenerates like the serving ones:
 *
 *     DTU_UPDATE_GOLDEN=1 ./build/tests/dtusim_tests \
 *         --gtest_filter='GoldenLlm.*'
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "api/server.hh"
#include "models/model_zoo.hh"
#include "serve/arrival.hh"
#include "serve/kv_cache.hh"
#include "sim/logging.hh"

namespace
{

using namespace dtu;
using namespace dtu::serve;

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

//
// KV-cache page allocator.
//

/** 16 pages of 4 KiB; 512 B/token -> 8 tokens per page. */
KvCacheConfig
tinyPool()
{
    KvCacheConfig config;
    config.budgetBytes = 16 * 4096;
    config.pageBytes = 4096;
    return config;
}

constexpr std::uint64_t kBpt = 512;

TEST(KvPages, Arithmetic)
{
    KvCache kv(tinyPool());
    EXPECT_EQ(kv.pageBudget(), 16u);
    EXPECT_EQ(kv.tokensPerPage(kBpt), 8u);
    EXPECT_EQ(kv.pagesFor(1, kBpt), 1u);
    EXPECT_EQ(kv.pagesFor(8, kBpt), 1u);
    EXPECT_EQ(kv.pagesFor(9, kBpt), 2u);
    EXPECT_TRUE(kv.fitsEver(16 * 8, kBpt));
    EXPECT_FALSE(kv.fitsEver(16 * 8 + 1, kBpt));
}

TEST(KvPages, ReserveGrowReleaseNeverLeaks)
{
    KvCache kv(tinyPool());
    // Three sequences with ragged prompt + generation lengths.
    const unsigned prompts[] = {5, 17, 30};
    const unsigned news[] = {9, 3, 12};
    for (std::uint64_t i = 0; i < 3; ++i) {
        ASSERT_TRUE(kv.reserve(i + 1, prompts[i] + news[i], kBpt));
        // Prefill materializes the prompt tokens at once.
        kv.grow(i + 1, prompts[i]);
    }
    EXPECT_EQ(kv.sequences(), 3u);
    EXPECT_LE(kv.pagesInUse(), kv.pagesReserved());
    // Decode grows token by token up to each reservation.
    for (std::uint64_t i = 0; i < 3; ++i)
        for (unsigned t = 0; t < news[i]; ++t)
            kv.grow(i + 1, prompts[i] + t + 1);
    EXPECT_EQ(kv.pagesInUse(), kv.pagesReserved());
    for (std::uint64_t i = 0; i < 3; ++i)
        kv.release(i + 1);
    EXPECT_EQ(kv.sequences(), 0u);
    EXPECT_EQ(kv.pagesInUse(), 0u);
    EXPECT_EQ(kv.pagesReserved(), 0u);
    EXPECT_EQ(kv.bytesInUse(), 0u);
    EXPECT_EQ(kv.totalPagesAllocated(), kv.totalPagesFreed());
    EXPECT_GT(kv.peakPagesInUse(), 0u);
    EXPECT_LE(kv.peakPagesInUse(), kv.pageBudget());
}

TEST(KvPages, OccupancyNeverExceedsBudget)
{
    KvCache kv(tinyPool());
    // Reserve greedily until the pool refuses; the budget holds.
    std::uint64_t id = 0;
    while (kv.reserve(++id, 3 * 8, kBpt))
        kv.grow(id, 3 * 8);
    EXPECT_GT(id, 1u);
    EXPECT_LE(kv.pagesInUse(), kv.pageBudget());
    EXPECT_LE(kv.occupancy(), 1.0);
    EXPECT_FALSE(kv.fitsNow(3 * 8, kBpt));
    // Still fits in principle once load drains.
    EXPECT_TRUE(kv.fitsEver(3 * 8, kBpt));
    kv.release(1);
    EXPECT_TRUE(kv.fitsNow(3 * 8, kBpt));
}

TEST(KvPages, MisuseIsFatal)
{
    KvCache kv(tinyPool());
    ASSERT_TRUE(kv.reserve(7, 8, kBpt));
    EXPECT_THROW(kv.reserve(7, 8, kBpt), FatalError);
    kv.grow(7, 8);
    EXPECT_THROW(kv.grow(7, 9), FatalError); // past the reservation
    kv.release(7);
    EXPECT_THROW(kv.release(7), FatalError); // double free
    EXPECT_THROW(kv.grow(7, 1), FatalError); // grow after release
}

TEST(KvPages, ZeroBytesPerTokenIsFatal)
{
    KvCache kv(tinyPool());
    EXPECT_THROW(kv.tokensPerPage(0), FatalError);
}

//
// Generative serving scenarios.
//

/** Ragged-length gpt_tiny traffic, deterministic by construction. */
std::vector<RequestSpec>
genSpecs(unsigned n, double qps)
{
    std::vector<RequestSpec> specs;
    Tick gap = secondsToTicks(1.0 / qps);
    for (unsigned i = 0; i < n; ++i) {
        RequestSpec spec;
        spec.model = "gpt_tiny";
        spec.arrival = gap * i;
        spec.gen.promptLen = 24 + 8 * (i % 4);
        spec.gen.maxNewTokens = 6 + (i % 5);
        spec.gen.stop =
            i % 2 ? StopPolicy::EosHash : StopPolicy::MaxTokens;
        specs.push_back(spec);
    }
    return specs;
}

ServingConfig
genConfig(bool continuous = true)
{
    ServingConfig config;
    config.batching.maxBatch = 4;
    config.batching.maxQueueDelay = secondsToTicks(200e-6);
    config.groupsPerBatch = 1;
    config.generation.continuousBatching = continuous;
    config.generation.maxDecodeBatch = 4;
    return config;
}

/** Drive @p n generative requests through any frontend. */
const ServingReport &
driveGenerative(FleetServer &frontend, unsigned n = 24,
                double qps = 3000.0)
{
    for (const RequestSpec &spec : genSpecs(n, qps))
        frontend.submit(spec);
    return frontend.serve();
}

TEST(LlmServing, DrainsCleanlyAndPopulatesGenerationMetrics)
{
    Device device;
    Server server(device, genConfig());
    const ServingReport &report = driveGenerative(server);

    // Every request reached a terminal state, all of them completed.
    EXPECT_EQ(report.submitted, 24u);
    EXPECT_EQ(report.outcomes.size(), 24u);
    EXPECT_EQ(report.requests, 24u);
    for (const RequestOutcome &o : report.outcomes) {
        EXPECT_EQ(o.state, TerminalState::Completed);
        EXPECT_TRUE(o.request.generative());
        EXPECT_EQ(o.tokensEmitted, o.request.targetNewTokens());
        EXPECT_GE(o.firstToken, o.dispatched);
        EXPECT_GE(o.completed, o.firstToken);
    }

    ASSERT_TRUE(report.hasGeneration);
    const GenerationReport &gen = report.generation;
    EXPECT_EQ(gen.requests, 24u);
    EXPECT_GT(gen.tokens, 24u); // more than one token per request
    EXPECT_GT(gen.prefillBatches, 0u);
    EXPECT_GT(gen.decodeSteps, 0u);
    EXPECT_GT(gen.tokensPerSecond, 0.0);
    EXPECT_GT(gen.ttftP50Ms, 0.0);
    EXPECT_GE(gen.ttftP99Ms, gen.ttftP50Ms);
    EXPECT_GT(gen.itlP50Ms, 0.0);
    EXPECT_GE(gen.itlP99Ms, gen.itlP50Ms);

    // The KV pool drained back to zero and never leaked a page.
    EXPECT_GT(gen.kvPeakPages, 0u);
    EXPECT_LE(gen.kvPeakPages, gen.kvPageBudget);
    EXPECT_EQ(gen.kvPagesInUseAtEnd, 0u);
    EXPECT_EQ(gen.kvPagesAllocated, gen.kvPagesFreed);
    EXPECT_GT(gen.kvPeakOccupancy, 0.0);
    EXPECT_LE(gen.kvPeakOccupancy, 1.0);
}

TEST(LlmServing, PhaseSplitMatchesRooflinePlacement)
{
    // Long contexts on the GPT-2-small-class decoder, where each
    // decode step streams megabytes of KV from HBM per sequence.
    Device device;
    Server server(device, genConfig());
    Tick gap = secondsToTicks(1e-3);
    for (unsigned i = 0; i < 6; ++i) {
        RequestSpec spec;
        spec.model = "gpt_small";
        spec.arrival = gap * i;
        spec.gen.promptLen = 256;
        spec.gen.maxNewTokens = 8;
        server.submit(spec);
    }
    const ServingReport &report = server.serve();
    ASSERT_TRUE(report.hasGeneration);

    // Prefill runs a full [batch, prompt] pass: high arithmetic
    // intensity. Decode streams the whole KV-cache for one token:
    // low intensity, DMA-bound.
    const PhaseBreakdown &prefill = report.generation.prefill;
    const PhaseBreakdown &decode = report.generation.decode;
    EXPECT_GT(prefill.totalTicks(), 0.0);
    EXPECT_GT(decode.totalTicks(), 0.0);
    EXPECT_GT(prefill.intensityOpsPerByte(),
              decode.intensityOpsPerByte());
    EXPECT_STREQ(decode.dominant(), "dma");
}

TEST(LlmServing, ContinuousBatchingBeatsStaticOnThroughput)
{
    // A backlogged ragged trace so static batches straggle: under
    // static batching the whole formed batch decodes until its
    // longest member finishes; continuous batching backfills freed
    // slots. EosHash gives the wide length spread, and the burst
    // arrival keeps a queue available to backfill from.
    const unsigned n = 24;
    auto ragged = [](unsigned count) {
        std::vector<RequestSpec> specs;
        for (unsigned i = 0; i < count; ++i) {
            RequestSpec spec;
            spec.model = "gpt_tiny";
            spec.arrival = secondsToTicks(10e-6) * i;
            spec.gen.promptLen = 32;
            spec.gen.maxNewTokens = 32;
            spec.gen.stop = StopPolicy::EosHash;
            specs.push_back(spec);
        }
        return specs;
    };
    Device dev_cont;
    Server cont(dev_cont, genConfig(/*continuous=*/true));
    for (const RequestSpec &spec : ragged(n))
        cont.submit(spec);
    const ServingReport &r_cont = cont.serve();
    double cont_tps = r_cont.generation.tokensPerSecond;

    Device dev_stat;
    Server stat(dev_stat, genConfig(/*continuous=*/false));
    for (const RequestSpec &spec : ragged(n))
        stat.submit(spec);
    const ServingReport &r_stat = stat.serve();
    double stat_tps = r_stat.generation.tokensPerSecond;

    // Same requests, same tokens either way.
    EXPECT_EQ(r_cont.requests, n);
    EXPECT_EQ(r_stat.requests, n);
    EXPECT_EQ(r_cont.generation.tokens, r_stat.generation.tokens);
    EXPECT_GT(cont_tps, stat_tps);
    // Both drain their KV pages.
    EXPECT_EQ(r_cont.generation.kvPagesInUseAtEnd, 0u);
    EXPECT_EQ(r_stat.generation.kvPagesInUseAtEnd, 0u);
}

TEST(LlmServing, OversizedRequestIsRejectedNotWedged)
{
    // Shrink the pool so one request can never fit: admission must
    // reject it (not queue it forever), and everything else drains.
    ServingConfig config = genConfig();
    config.generation.kv.budgetBytes = 64 * 1024;
    config.generation.kv.pageBytes = 4 * 1024;
    Device device;
    Server server(device, config);

    RequestSpec whale;
    whale.model = "gpt_tiny";
    whale.arrival = 0;
    whale.gen.promptLen = 4096;
    whale.gen.maxNewTokens = 4096;
    std::uint64_t whale_id = server.submit(whale);

    RequestSpec minnow;
    minnow.model = "gpt_tiny";
    minnow.arrival = 0;
    minnow.gen.promptLen = 4;
    minnow.gen.maxNewTokens = 2;
    std::uint64_t minnow_id = server.submit(minnow);

    const ServingReport &report = server.serve();
    ASSERT_EQ(report.outcomes.size(), 2u);
    for (const RequestOutcome &o : report.outcomes) {
        if (o.request.id == whale_id) {
            EXPECT_EQ(o.state, TerminalState::Shed);
            EXPECT_EQ(o.dropReason, DropReason::Rejected);
        } else {
            EXPECT_EQ(o.request.id, minnow_id);
            EXPECT_EQ(o.state, TerminalState::Completed);
        }
    }
    EXPECT_EQ(report.rejectedRequests, 1u);
    EXPECT_EQ(report.generation.kvPagesInUseAtEnd, 0u);
}

TEST(LlmServing, EosHashIsDeterministicAndBounded)
{
    Request r;
    r.id = 9001;
    r.gen.promptLen = 16;
    r.gen.maxNewTokens = 40;
    r.gen.stop = StopPolicy::EosHash;
    unsigned first = r.targetNewTokens();
    EXPECT_GE(first, 1u);
    EXPECT_LE(first, 40u);
    EXPECT_EQ(r.targetNewTokens(), first); // pure function of (id, gen)
    r.gen.stop = StopPolicy::MaxTokens;
    EXPECT_EQ(r.targetNewTokens(), 40u);
}

//
// The unified frontend.
//

/** Render one frontend's generative serving report. */
std::string
renderFrontend(FleetServer &frontend)
{
    const ServingReport &report = driveGenerative(frontend);
    std::ostringstream os;
    writeJson(report, os, /*per_request=*/true);
    return os.str();
}

TEST(Frontend, SizeOneFleetMatchesSingleDeviceServer)
{
    Device device;
    Server server(device, genConfig());
    FleetConfig fleet_config;
    fleet_config.devices = 1;
    fleet_config.serving = genConfig();
    FleetServer fleet(fleet_config);

    FleetServer &single = server;
    FleetServer &one_fleet = fleet;
    EXPECT_EQ(renderFrontend(single), renderFrontend(one_fleet));
}

TEST(Frontend, PrometheusExportsGenerationGauges)
{
    Device device;
    Server server(device, genConfig());
    FleetServer &frontend = server;
    driveGenerative(frontend);
    std::ostringstream os;
    frontend.writePrometheus(os);
    const std::string text = os.str();
    EXPECT_NE(text.find("dtusim_serve_tokens_per_second"),
              std::string::npos);
    EXPECT_NE(text.find("dtusim_serve_ttft_p99_ms"),
              std::string::npos);
    EXPECT_NE(text.find("dtusim_serve_itl_p99_ms"),
              std::string::npos);
    EXPECT_NE(text.find("dtusim_serve_kv_peak_occupancy"),
              std::string::npos);
}

//
// Bit-for-bit back compatibility of the one-shot path.
//

/** The fixed-seed fleet scenario tests/golden/fleet_serving.json
 *  pins (kept in sync with test_request_trace.cc). */
FleetConfig
oneShotGoldenConfig()
{
    FleetConfig config;
    config.devices = 2;
    config.routing = RoutingPolicy::LeastOutstanding;
    config.serving.batching.maxBatch = 4;
    config.serving.batching.maxQueueDelay = secondsToTicks(200e-6);
    config.weightLoadGbps = 8.0;
    return config;
}

TEST(Frontend, ZeroGenerationSpecsReproduceOneShotGoldenExactly)
{
    // Replaying the golden trace request by request through the new
    // submit(RequestSpec) entry point — maxNewTokens == 0, the
    // degenerate one-shot case — must reproduce the checked-in
    // pre-generation report byte-for-byte.
    FleetServer fleet(oneShotGoldenConfig());
    for (const Request &r : finalizeTrace(
             {poissonTrace("resnet50", 4000, 24, /*seed=*/11,
                           secondsToTicks(20e-3)),
              poissonTrace("conformer", 4000, 24, /*seed=*/12,
                           secondsToTicks(30e-3))})) {
        ASSERT_FALSE(r.generative());
        EXPECT_EQ(fleet.submit(r.spec()), r.id);
    }
    const serve::FleetReport &report = fleet.serveFleet();
    std::ostringstream os;
    writeJson(report, os, /*per_request=*/true);

    std::string golden_path =
        std::string(DTU_TESTS_DIR) + "/golden/fleet_serving.json";
    std::ifstream in(golden_path);
    ASSERT_TRUE(in) << "missing " << golden_path;
    std::stringstream golden;
    golden << in.rdbuf();

    std::vector<std::string> want = splitLines(golden.str());
    std::vector<std::string> got = splitLines(os.str());
    std::size_t common = std::min(want.size(), got.size());
    for (std::size_t i = 0; i < common; ++i) {
        ASSERT_EQ(got[i], want[i])
            << "RequestSpec replay diverged from the one-shot golden "
            << "at line " << i + 1;
    }
    EXPECT_EQ(got.size(), want.size());
}

//
// The generative golden file.
//

std::string
llmGoldenPath()
{
    return std::string(DTU_TESTS_DIR) + "/golden/llm_serving.json";
}

TEST(GoldenLlm, RunMatchesCheckedInJson)
{
    Device device;
    Server server(device, genConfig());
    std::string rendered = renderFrontend(server);

    if (std::getenv("DTU_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(llmGoldenPath());
        ASSERT_TRUE(out) << "cannot write " << llmGoldenPath();
        out << rendered;
        GTEST_SKIP() << "regenerated " << llmGoldenPath();
    }

    std::ifstream in(llmGoldenPath());
    ASSERT_TRUE(in) << "missing " << llmGoldenPath()
                    << "; regenerate with DTU_UPDATE_GOLDEN=1";
    std::stringstream golden;
    golden << in.rdbuf();

    std::vector<std::string> want = splitLines(golden.str());
    std::vector<std::string> got = splitLines(rendered);
    std::size_t common = std::min(want.size(), got.size());
    for (std::size_t i = 0; i < common; ++i) {
        ASSERT_EQ(got[i], want[i])
            << "LLM serving report diverged from golden at line "
            << i + 1
            << "; if intentional, regenerate with DTU_UPDATE_GOLDEN=1";
    }
    EXPECT_EQ(got.size(), want.size());
}

TEST(GoldenLlm, ParallelFleetConfigMatchesCheckedInJson)
{
    // The generative golden workload served through a fleet with the
    // threads knob raised must still reproduce llm_serving.json. A
    // size-1 fleet clamps threads to the device count, so this pins
    // the clamp (threads=4 on one device stays the serial path); the
    // genuinely concurrent generative runs are byte-compared against
    // serial in test_determinism.cc.
    FleetConfig fleet_config;
    fleet_config.devices = 1;
    fleet_config.serving = genConfig();
    fleet_config.threads = 4;
    FleetServer fleet(fleet_config);
    std::string rendered = renderFrontend(fleet);

    std::ifstream in(llmGoldenPath());
    ASSERT_TRUE(in) << "missing " << llmGoldenPath()
                    << "; regenerate with DTU_UPDATE_GOLDEN=1";
    std::stringstream golden;
    golden << in.rdbuf();

    std::vector<std::string> want = splitLines(golden.str());
    std::vector<std::string> got = splitLines(rendered);
    std::size_t common = std::min(want.size(), got.size());
    for (std::size_t i = 0; i < common; ++i) {
        ASSERT_EQ(got[i], want[i])
            << "threads=4 LLM serving report diverged from golden "
            << "at line " << i + 1;
    }
    EXPECT_EQ(got.size(), want.size());
}

} // namespace
