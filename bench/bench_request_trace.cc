/**
 * @file
 * Request-tracing overhead: sampling rate x fleet size on the
 * ResNet50 + Conformer serving mix.
 *
 * Each cell replays the same open-loop Poisson trace through a
 * FleetServer twice — once bare, once with a RequestTracer at
 * sampling rate p — and reports the host wall-clock overhead of
 * tracing plus how many requests the head-based sampler captured.
 * Two invariants are checked in-line:
 *
 *  - Non-perturbation: the traced run's serialized FleetReport is
 *    byte-identical to the bare run's (tracing is host-side only and
 *    must never move simulated time).
 *  - Chain completeness: every sampled completed request has a full
 *    enqueue -> dispatch -> terminal lifecycle and a flow link into
 *    its device's chip timeline.
 *
 * The headline is the ISSUE's budget: p = 0.1 on a fleet-sized load
 * stays under 5% wall-clock overhead.
 *
 *     bench_request_trace [--json <path>] [--max-devices <n>]
 *                         [--requests <per-device>] [--threads <n>]
 *                         [--trace-out <path>] [--flight-out <path>]
 *
 * --threads sets every fleet's FleetConfig::threads (default 1); the
 * observers run on the lanes, so every artifact is byte-identical
 * across thread counts.
 * --trace-out writes the merged Chrome trace (request lanes + every
 * chip timeline, flow-linked) of the largest p = 0.1 cell — open it
 * in https://ui.perfetto.dev. --flight-out runs an extra overloaded
 * scenario with an SLO monitor + flight recorder and writes the
 * burn-rate incident dump it produces.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
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
mixTrace(unsigned devices, unsigned per_device)
{
    double qps = kQpsPerDevice * devices;
    unsigned resnet = per_device * devices * 3 / 4;
    unsigned conformer = per_device * devices / 4;
    return serve::finalizeTrace(
        {serve::poissonTrace("resnet50", qps * 0.75, resnet,
                             /*seed=*/101, secondsToTicks(20e-3)),
         serve::poissonTrace("conformer", qps * 0.25, conformer,
                             /*seed=*/202, secondsToTicks(30e-3))});
}

serve::FleetConfig
fleetConfig(unsigned devices, unsigned threads)
{
    serve::FleetConfig config;
    config.devices = devices;
    config.threads = threads;
    config.routing = serve::RoutingPolicy::LeastOutstanding;
    config.serving.batching.maxBatch = 8;
    config.serving.batching.maxQueueDelay = secondsToTicks(2e-3);
    config.serving.groupsPerBatch = 1;
    return config;
}

/** One serving run; returns wall-clock seconds. */
double
timedServe(unsigned devices, unsigned threads,
           const std::vector<serve::Request> &trace, double rate,
           std::string *report_json, FleetServer **keep = nullptr)
{
    auto fleet =
        std::make_unique<FleetServer>(fleetConfig(devices, threads));
    if (rate >= 0.0)
        fleet->enableRequestTracing({.sampleRate = rate, .seed = 7});
    fleet->submit(trace);
    auto t0 = std::chrono::steady_clock::now();
    const serve::FleetReport &r = fleet->serveFleet();
    auto t1 = std::chrono::steady_clock::now();
    if (report_json) {
        std::ostringstream ss;
        serve::writeJson(r, ss, /*per_request=*/true);
        *report_json = ss.str();
    }
    if (keep)
        *keep = fleet.release();
    return std::chrono::duration<double>(t1 - t0).count();
}

/** Fraction of sampled completions with a complete, linked chain. */
double
chainCompleteness(const obs::RequestTracer &tracer, bool *all_linked)
{
    std::uint64_t complete = 0, total = 0;
    *all_linked = true;
    for (const obs::RequestRecord &rec : tracer.finished()) {
        const serve::RequestOutcome &o = rec.outcome;
        if (!o.completedOk())
            continue;
        ++total;
        bool chain = rec.executed &&
                     o.request.arrival <= o.dispatched &&
                     o.dispatched <= o.completed && o.device >= 0 &&
                     rec.deviceLinked;
        if (chain)
            ++complete;
        else
            *all_linked = false;
    }
    return total ? static_cast<double>(complete) / total : 1.0;
}

void
flightRecorderDemo(const std::string &path, unsigned devices,
                   unsigned per_device, unsigned threads)
{
    // Overload the fleet (tight deadlines + shallow queues) so the
    // burn-rate alert genuinely fires, and capture the incident.
    serve::FleetConfig config = fleetConfig(devices, threads);
    config.serving.degradation.admissionLimit = 4;
    FleetServer fleet(config);
    fleet.enableRequestTracing({.sampleRate = 1.0, .seed = 7});
    obs::FlightRecorder &rec = fleet.enableFlightRecorder({});
    fleet.enableSloMonitor({.window = secondsToTicks(5e-3),
                            .sloTarget = 0.999,
                            .burnRateAlert = 5.0});
    double qps = kQpsPerDevice * devices * 4.0;
    fleet.submit(serve::finalizeTrace(
        {serve::poissonTrace("resnet50", qps, per_device * devices,
                             /*seed=*/909, secondsToTicks(2e-3))}));
    fleet.serveFleet();
    if (rec.dumpCount() == 0) {
        std::printf("  flight recorder: no incident triggered "
                    "(unexpected under this overload)\n");
        return;
    }
    rec.writeLastDump(path);
    std::printf("  flight recorder: %llu trigger(s), dump -> %s\n",
                static_cast<unsigned long long>(rec.triggerCount()),
                path.c_str());
}

unsigned
parseCount(const std::string &value, unsigned fallback)
{
    return value.empty()
               ? fallback
               : static_cast<unsigned>(std::stoul(value));
}

} // namespace

int
main(int argc, char **argv)
{
    BenchOutput out(argc, argv, "request_trace",
                    {"--max-devices", "--requests", "--threads",
                     "--trace-out", "--flight-out"});
    unsigned max_devices = parseCount(out.option("--max-devices"), 4);
    unsigned per_device = parseCount(out.option("--requests"), 96);
    unsigned threads = parseCount(out.option("--threads"), 1);
    const std::string trace_out = out.option("--trace-out");
    const std::string flight_out = out.option("--flight-out");

    printBanner("Request-trace overhead: sampling rate x fleet size "
                "(ResNet50 + Conformer, " +
                std::to_string(static_cast<int>(kQpsPerDevice)) +
                " QPS/device)");

    std::vector<unsigned> sizes;
    for (unsigned s : {1u, 2u, 4u})
        if (s <= max_devices)
            sizes.push_back(s);
    const double rates[] = {0.01, 0.1, 1.0};
    const unsigned reps = 3;

    ReportTable table({"n/p", "base_ms", "traced_ms", "overhead_pct",
                       "sampled", "chain_ok"});

    bool identical = true;
    bool chains_ok = true;
    double headline_overhead = 0.0;
    for (unsigned size : sizes) {
        std::vector<serve::Request> trace =
            mixTrace(size, per_device);
        for (double rate : rates) {
            // Interleave bare and traced runs rep by rep so host
            // noise (the dominant error at these overheads) drifts
            // into both measurements equally; keep the best of each.
            std::string base_json, traced_json;
            FleetServer *fleet = nullptr;
            double base = 0.0, traced = 0.0;
            for (unsigned rep = 0; rep < reps; ++rep) {
                delete fleet;
                fleet = nullptr;
                double b = timedServe(size, threads, trace, -1.0,
                                      rep ? nullptr : &base_json);
                double t = timedServe(size, threads, trace, rate,
                                      rep ? nullptr : &traced_json,
                                      &fleet);
                base = rep == 0 ? b : std::min(base, b);
                traced = rep == 0 ? t : std::min(traced, t);
            }
            const obs::RequestTracer &tracer =
                *fleet->requestTracer();
            bool linked = false;
            double chain = chainCompleteness(tracer, &linked);
            bool same = traced_json == base_json;
            identical = identical && same;
            chains_ok = chains_ok && linked;
            double overhead =
                base > 0.0 ? (traced - base) / base * 100.0 : 0.0;
            if (rate == 0.1 && size == sizes.back())
                headline_overhead = overhead;

            std::string cell = "n" + std::to_string(size) + " p" +
                               std::to_string(rate).substr(0, 4);
            table.addRow(cell,
                         {base * 1e3, traced * 1e3, overhead,
                          static_cast<double>(tracer.sampledSeen()),
                          chain});
            std::string prefix =
                "n" + std::to_string(size) + "_p" +
                std::to_string(rate).substr(0, 4) + "_";
            out.metric(prefix + "overhead_pct", overhead);
            out.metric(prefix + "sampled",
                       static_cast<double>(tracer.sampledSeen()));
            out.metric(prefix + "report_identical", same ? 1.0 : 0.0);

            if (!trace_out.empty() && rate == 0.1 &&
                size == sizes.back()) {
                fleet->writeFleetTrace(trace_out);
            }
            delete fleet;
        }
    }
    table.print();
    out.table("request_trace", table);
    out.metric("reports_identical", identical ? 1.0 : 0.0);
    out.metric("chains_complete", chains_ok ? 1.0 : 0.0);
    out.metric("headline_overhead_pct", headline_overhead);

    std::printf("\n  non-perturbation: traced reports %s the bare "
                "runs%s\n",
                identical ? "byte-identical to" : "DIVERGED from",
                identical ? "" : "  ** REGRESSION **");
    std::printf("  chain completeness: %s\n",
                chains_ok ? "every sampled completion flow-linked"
                          : "** INCOMPLETE CHAINS **");
    std::printf("  headline: p=0.1 n%u overhead %.2f%% (budget 5%%)%s\n",
                sizes.back(), headline_overhead,
                headline_overhead < 5.0 ? "" : "  ** OVER BUDGET **");

    if (!flight_out.empty())
        flightRecorderDemo(flight_out, sizes.back(), per_device,
                           threads);

    return out.finish();
}
