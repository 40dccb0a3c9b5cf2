/**
 * @file
 * Fleet serving: fleet size x routing policy x arrival pattern on
 * the ResNet50 + BERT-Large mix (3:1 by request count).
 *
 * Each cell replays an open-loop arrival trace whose offered load
 * scales with the fleet (4000 QPS and 128 requests per device, so
 * per-device pressure is constant) through a FleetServer of N
 * identically configured i20 devices. Two headlines:
 *
 *  - Data-parallel scale-out is near-linear: the aggregate achieved
 *    QPS of a 4-device fleet under Poisson load is ~4x a single
 *    device (each card serves its own slice; they share nothing).
 *  - Routing policy is a tail-latency lever: under bursty arrivals,
 *    least-outstanding routing undercuts round-robin's p99 because
 *    it steers bursts away from devices still draining a backlog
 *    (round-robin stacks requests behind a busy device whenever its
 *    turn comes up, which the heterogeneous ResNet/BERT mix
 *    punishes).
 *
 *     bench_fleet [--json <path>] [--max-devices <n>]
 *                 [--requests <per-device>] [--weight-gbps <gbps>]
 *                 [--threads <n>]
 *
 * --max-devices caps the sweep (CI smoke uses 2); --requests scales
 * the per-device trace length; --weight-gbps > 0 additionally
 * models first-placement PCIe weight loads at that bandwidth.
 * --threads drives every fleet with that many threads
 * (FleetConfig::threads) and adds a serial-vs-parallel A/B at the
 * largest size that fatals unless the two reports are byte-identical.
 *
 * The JSON artifact always carries simulator-speed metrics —
 * wall_clock_seconds and sim_ticks_per_second over the whole sweep —
 * so the perf trajectory (BENCH_*.json) can track simulator speed
 * across commits.
 */

#include <chrono>
#include <cstdio>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/server.hh"
#include "bench_common.hh"
#include "serve/arrival.hh"
#include "serve/fleet.hh"

using namespace dtu;
using namespace dtu::bench;

namespace
{

constexpr double kQpsPerDevice = 4000.0;

std::vector<serve::Request>
mixTrace(const std::string &pattern, unsigned devices,
         unsigned per_device)
{
    double qps = kQpsPerDevice * devices;
    unsigned resnet = per_device * devices * 3 / 4;
    unsigned bert = per_device * devices / 4;
    Tick resnet_slo = secondsToTicks(20e-3);
    Tick bert_slo = secondsToTicks(80e-3);
    if (pattern == "poisson") {
        return serve::finalizeTrace(
            {serve::poissonTrace("resnet50", qps * 0.75, resnet,
                                 /*seed=*/101, resnet_slo),
             serve::poissonTrace("bert_large", qps * 0.25, bert,
                                 /*seed=*/202, bert_slo)});
    }
    return serve::finalizeTrace(
        {serve::burstyTrace("resnet50", qps * 0.75, resnet,
                            /*seed=*/303, /*burst=*/8, /*factor=*/4.0,
                            resnet_slo),
         serve::burstyTrace("bert_large", qps * 0.25, bert,
                            /*seed=*/404, /*burst=*/8, /*factor=*/4.0,
                            bert_slo)});
}

serve::ServingConfig
servingConfig()
{
    serve::ServingConfig config;
    config.batching.maxBatch = 8;
    config.batching.maxQueueDelay = secondsToTicks(2e-3);
    config.batching.perModelMaxBatch["bert_large"] = 1;
    config.groupsPerBatch = 1;
    return config;
}

unsigned
parseCount(const std::string &value, unsigned fallback)
{
    return value.empty()
               ? fallback
               : static_cast<unsigned>(std::stoul(value));
}

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

} // namespace

int
main(int argc, char **argv)
{
    BenchOutput out(argc, argv, "fleet",
                    {"--max-devices", "--requests", "--weight-gbps",
                     "--threads"});
    unsigned max_devices = parseCount(out.option("--max-devices"), 8);
    unsigned per_device = parseCount(out.option("--requests"), 128);
    double weight_gbps = out.option("--weight-gbps").empty()
                             ? 0.0
                             : std::stod(out.option("--weight-gbps"));
    unsigned threads = parseCount(out.option("--threads"), 1);
    unsigned hw = std::thread::hardware_concurrency();
    if (threads > 1 && hw > 0 && hw < threads)
        std::printf("  note: --threads %u > %u hardware thread%s; "
                    "results stay bit-identical but wall-clock gains "
                    "need real cores\n",
                    threads, hw, hw == 1 ? "" : "s");

    out.meta("threads", static_cast<std::uint64_t>(threads));
    out.meta("requests_per_device",
             static_cast<std::uint64_t>(per_device));
    out.meta("max_devices", static_cast<std::uint64_t>(max_devices));
    out.meta("arrival_seeds", "101/202/303/404");

    printBanner("Fleet serving: size x routing x arrival pattern "
                "(ResNet50 + BERT-Large, 3:1, "
                + std::to_string(static_cast<int>(kQpsPerDevice)) +
                " QPS/device)");

    std::vector<unsigned> sizes;
    for (unsigned s : {1u, 2u, 4u, 8u})
        if (s <= max_devices)
            sizes.push_back(s);
    const serve::RoutingPolicy policies[] = {
        serve::RoutingPolicy::RoundRobin,
        serve::RoutingPolicy::LeastOutstanding,
        serve::RoutingPolicy::ModelAffinity,
    };

    ReportTable table({"pattern/n/policy", "achieved_qps", "p50_ms",
                       "p99_ms", "miss_rate", "util", "j_per_req"});

    // achieved QPS by [pattern][size][policy] for the headlines.
    std::map<std::string,
             std::map<unsigned, std::map<std::string, double>>>
        achieved;
    std::map<std::string,
             std::map<unsigned, std::map<std::string, double>>>
        p99;

    auto sweep_start = std::chrono::steady_clock::now();
    double simulated_seconds = 0.0;

    for (const std::string pattern : {"poisson", "bursty"}) {
        for (unsigned size : sizes) {
            std::vector<serve::Request> trace =
                mixTrace(pattern, size, per_device);
            for (serve::RoutingPolicy policy : policies) {
                serve::FleetConfig config;
                config.devices = size;
                config.routing = policy;
                config.serving = servingConfig();
                config.weightLoadGbps = weight_gbps;
                config.threads = threads;
                FleetServer fleet(config);
                fleet.submit(trace);
                const serve::FleetReport &r = fleet.serveFleet();

                std::string policy_name =
                    serve::routingPolicyName(policy);
                std::string cell = pattern + " n" +
                                   std::to_string(size) + " " +
                                   policy_name;
                table.addRow(cell,
                             {r.fleet.achievedQps, r.fleet.p50Ms,
                              r.fleet.p99Ms, r.fleet.missRate,
                              r.fleet.groupUtilization,
                              r.fleet.joulesPerRequest});
                std::string prefix = pattern + "_n" +
                                     std::to_string(size) + "_" +
                                     policy_name + "_";
                out.metric(prefix + "achieved_qps",
                           r.fleet.achievedQps);
                out.metric(prefix + "p50_ms", r.fleet.p50Ms);
                out.metric(prefix + "p99_ms", r.fleet.p99Ms);
                out.metric(prefix + "miss_rate", r.fleet.missRate);
                achieved[pattern][size][policy_name] =
                    r.fleet.achievedQps;
                p99[pattern][size][policy_name] = r.fleet.p99Ms;
                simulated_seconds += ticksToSeconds(r.fleet.makespan);
            }
        }
    }
    double wall_seconds = secondsSince(sweep_start);
    table.print();
    out.table("fleet", table);

    // Simulator-speed headline: simulated time retired per second of
    // host wall-clock, summed over every sweep cell.
    double sim_ticks =
        simulated_seconds * static_cast<double>(ticksPerSecond);
    out.metric("wall_clock_seconds", wall_seconds);
    out.metric("simulated_ticks", sim_ticks);
    out.metric("sim_ticks_per_second",
               wall_seconds > 0.0 ? sim_ticks / wall_seconds : 0.0);
    std::printf("\n  sweep wall clock: %.2f s for %.3f simulated "
                "seconds (%.3g ticks/s, threads=%u)\n",
                wall_seconds, simulated_seconds,
                wall_seconds > 0.0 ? sim_ticks / wall_seconds : 0.0,
                threads);

    // Serial-vs-parallel A/B at the largest size: the parallel window
    // scheduler must reproduce the serial report byte-for-byte, and
    // we record the speedup it buys on this host.
    if (threads > 1) {
        unsigned ab_size = sizes.back();
        std::vector<serve::Request> trace =
            mixTrace("poisson", ab_size, per_device);
        auto run_ab = [&](unsigned n_threads, double *seconds) {
            serve::FleetConfig config;
            config.devices = ab_size;
            config.routing = serve::RoutingPolicy::LeastOutstanding;
            config.serving = servingConfig();
            config.weightLoadGbps = weight_gbps;
            config.threads = n_threads;
            FleetServer fleet(config);
            fleet.submit(trace);
            auto start = std::chrono::steady_clock::now();
            const serve::FleetReport &r = fleet.serveFleet();
            *seconds = secondsSince(start);
            std::ostringstream os;
            serve::writeJson(r, os, /*per_request=*/true);
            return os.str();
        };
        double serial_s = 0.0, parallel_s = 0.0;
        std::string serial = run_ab(1, &serial_s);
        std::string parallel = run_ab(threads, &parallel_s);
        fatalIf(serial != parallel,
                "threads=", threads, " fleet report diverged from "
                "serial at ", ab_size, " devices");
        double speedup =
            parallel_s > 0.0 ? serial_s / parallel_s : 0.0;
        out.metric("ab_serial_seconds", serial_s);
        out.metric("ab_parallel_seconds", parallel_s);
        out.metric("ab_speedup_threads_" + std::to_string(threads),
                   speedup);
        std::printf("  serial/parallel A/B at n%u: %.2f s -> %.2f s "
                    "(%.2fx, threads=%u), reports byte-identical\n",
                    ab_size, serial_s, parallel_s, speedup, threads);
    }

    // Generation smoke: a short gpt_small decode run on one device,
    // so the perf-trajectory artifact also tracks tokens/s next to
    // the simulator-speed metrics.
    {
        serve::FleetConfig config;
        config.devices = 1;
        config.serving = servingConfig();
        FleetServer fleet(config);
        std::vector<serve::Request> gen_trace;
        for (unsigned i = 0; i < 16; ++i) {
            serve::Request r;
            r.model = "gpt_small";
            r.arrival = secondsToTicks(1e-4) * i;
            r.gen.promptLen = 64;
            r.gen.maxNewTokens = 16;
            gen_trace.push_back(r);
        }
        fleet.submit(serve::finalizeTrace({std::move(gen_trace)}));
        auto gen_start = std::chrono::steady_clock::now();
        const serve::FleetReport &g = fleet.serveFleet();
        double gen_wall = secondsSince(gen_start);
        out.metric("gen_tokens_per_second",
                   g.fleet.generation.tokensPerSecond);
        out.metric("gen_wall_clock_seconds", gen_wall);
        std::printf("  generation smoke: %.0f tokens/s simulated "
                    "(gpt_small, 16 req x 16 tokens, %.2f s wall)\n",
                    g.fleet.generation.tokensPerSecond, gen_wall);
    }

    // Headline 1: near-linear aggregate QPS scaling under open-loop
    // Poisson load (least-outstanding routing, largest size vs 1).
    unsigned top = sizes.back();
    double base = achieved["poisson"][1]["least_outstanding"];
    double scaled = achieved["poisson"][top]["least_outstanding"];
    double scaling = base > 0.0 ? scaled / base : 0.0;
    out.metric("poisson_qps_scaling_1_to_" + std::to_string(top),
               scaling);
    std::printf("\n  poisson scale-out: %u devices sustain %.2fx the "
                "QPS of one (ideal %.1fx)%s\n",
                top, scaling, static_cast<double>(top),
                scaling > 0.85 * top ? ""
                                     : "  ** SUBLINEAR **");

    // Headline 2: under bursty arrivals, least-outstanding beats
    // round-robin on tail latency at the largest fleet size.
    double lo_p99 = p99["bursty"][top]["least_outstanding"];
    double rr_p99 = p99["bursty"][top]["round_robin"];
    double ratio = rr_p99 > 0.0 ? lo_p99 / rr_p99 : 0.0;
    out.metric("bursty_p99_lo_over_rr_n" + std::to_string(top),
               ratio);
    std::printf("  bursty tail: least-outstanding p99 %.2f ms vs "
                "round-robin %.2f ms (%.2fx)%s\n",
                lo_p99, rr_p99, ratio,
                (top == 1 || ratio < 1.0) ? ""
                                          : "  ** REGRESSION **");

    return out.finish();
}
