/**
 * @file
 * Request-level serving: arrival rate x batching policy sweep on a
 * ResNet50 + BERT-Large mix (3:1 by request count).
 *
 * Each cell replays the same Poisson arrival trace through the
 * dynamic batcher at a different policy: batch-1 FIFO (the strawman
 * every serving stack starts from), and dynamic batching with
 * maxBatch 4 and 8 under a bounded queue delay. BERT-Large is capped
 * at batch 1 in the dynamic policies (its runtime scales linearly
 * with batch, so batching it only serializes work — see
 * BatchingPolicy::perModelMaxBatch); ResNet50 amortizes weight
 * streams and kernel loads, costing 0.6x per request at batch 8.
 * Reported per cell: sustained QPS, p50/p99 latency, deadline-miss
 * rate, energy per request, and the mean formed batch. The headline
 * is the cloud claim behind Section IV-E: at saturating offered
 * load, dynamic batching sustains strictly more QPS than batch-1
 * FIFO on the same chip.
 *
 *     bench_serving [--json <path>] [--timeline <path>]
 *
 * --timeline replays the highest-load dynamic cell with the tracer
 * on and writes a Perfetto-loadable trace in which request and batch
 * spans sit above the per-operator spans.
 */

#include <cstdio>

#include "bench_common.hh"
#include "serve/arrival.hh"
#include "serve/fleet.hh"

using namespace dtu;
using namespace dtu::bench;

namespace
{

// 3:1 ResNet50:BERT-Large mix with per-model SLOs.
std::vector<serve::Request>
mixTrace(double qps)
{
    return serve::finalizeTrace(
        {serve::poissonTrace("resnet50", qps * 0.75, 96, /*seed=*/101,
                             /*deadline=*/secondsToTicks(20e-3)),
         serve::poissonTrace("bert_large", qps * 0.25, 32,
                             /*seed=*/202,
                             /*deadline=*/secondsToTicks(80e-3))});
}

serve::ServingConfig
policyConfig(unsigned max_batch)
{
    serve::ServingConfig config;
    config.batching.maxBatch = max_batch;
    config.batching.maxQueueDelay = secondsToTicks(2e-3);
    if (max_batch > 1)
        config.batching.perModelMaxBatch["bert_large"] = 1;
    config.groupsPerBatch = 1;
    return config;
}

serve::ServingReport
runCell(const std::vector<serve::Request> &trace, unsigned max_batch,
        const std::string &timeline_path = "")
{
    Dtu chip(dtu2Config());
    ResourceManager rm(chip);
    serve::ServingConfig config = policyConfig(max_batch);
    config.exec.timeline = !timeline_path.empty();
    serve::FleetConfig fleet_config;
    fleet_config.serving = config;
    serve::Fleet fleet({{&chip, &rm}}, fleet_config);
    serve::ServingReport report =
        std::move(fleet.serve(trace).perDevice[0].report);
    if (!timeline_path.empty())
        chip.tracer().writeChromeTrace(timeline_path);
    return report;
}

std::string
policyName(unsigned max_batch)
{
    return max_batch == 1 ? std::string("fifo-1")
                          : "dyn-" + std::to_string(max_batch);
}

} // namespace

int
main(int argc, char **argv)
{
    BenchOutput out(argc, argv, "serving", {"--timeline"});
    printBanner("Serving: arrival rate x batching policy "
                "(ResNet50 + BERT-Large, 3:1)");

    const double rates[] = {500.0, 1500.0, 4000.0};
    const unsigned policies[] = {1, 4, 8};

    ReportTable table({"offered_qps/policy", "achieved_qps", "p50_ms",
                       "p99_ms", "miss_rate", "j_per_req",
                       "mean_batch"});
    double fifo_qps_at_peak = 0.0;
    double best_dynamic_qps_at_peak = 0.0;
    const double peak = rates[2];

    for (double rate : rates) {
        std::vector<serve::Request> trace = mixTrace(rate);
        for (unsigned max_batch : policies) {
            serve::ServingReport r = runCell(trace, max_batch);
            std::string cell = std::to_string(
                                   static_cast<int>(rate)) +
                               " " + policyName(max_batch);
            table.addRow(cell,
                         {r.achievedQps, r.p50Ms, r.p99Ms, r.missRate,
                          r.joulesPerRequest, r.meanBatchSize});
            std::string prefix = "qps" +
                                 std::to_string(
                                     static_cast<int>(rate)) +
                                 "_" + policyName(max_batch) + "_";
            out.metric(prefix + "achieved_qps", r.achievedQps);
            out.metric(prefix + "p50_ms", r.p50Ms);
            out.metric(prefix + "p99_ms", r.p99Ms);
            out.metric(prefix + "miss_rate", r.missRate);
            out.metric(prefix + "j_per_req", r.joulesPerRequest);
            if (rate == peak && max_batch == 1)
                fifo_qps_at_peak = r.achievedQps;
            if (rate == peak && max_batch > 1)
                best_dynamic_qps_at_peak =
                    std::max(best_dynamic_qps_at_peak, r.achievedQps);
        }
    }
    table.print();

    double gain = best_dynamic_qps_at_peak / fifo_qps_at_peak;
    out.metric("dynamic_vs_fifo_qps_gain_at_peak", gain);
    std::printf("\n  at %.0f offered QPS, dynamic batching sustains "
                "%.2fx the QPS of batch-1 FIFO%s\n",
                peak, gain, gain > 1.0 ? "" : "  ** REGRESSION **");

    const std::string &timeline = out.option("--timeline");
    if (!timeline.empty()) {
        runCell(mixTrace(peak), 8, timeline);
        std::printf("  timeline with request spans: %s "
                    "(open in https://ui.perfetto.dev)\n",
                    timeline.c_str());
    }
    return out.finish();
}
