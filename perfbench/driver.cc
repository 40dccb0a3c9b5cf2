/**
 * @file
 * Simulator-speed benchmark driver: how fast dtusim serves a fleet
 * trace on the host, not what the modelled chips achieve.
 *
 *     perfbench_driver --workload <fleet_mix|fleet_observed|llm_tp>
 *                      --seed <n> --seconds <s> --trace <0|1>
 *                      [--digests <file>] [--spans <file>]
 *                      [--requests <n>] [--traces <k>] [--record]
 *
 * One process serves one workload. --seed expands into the workload's
 * k arrival traces (the simulator only ever sees the generated
 * traces). A cycle serves each of them once, every time on a fresh
 * 4-chip FleetServer at threads=2; cycles repeat while another fits in
 * --seconds, at least kMinCycles. The process keeps its heap (see
 * keepHeap), so the first cycle warms it up and is left out of the
 * timing. End-to-end metrics, always from these untraced cycles:
 *
 *   host_req_per_s  terminal requests of the k traces / the sum of
 *                   their host walls inside serveFleet(), each trace
 *                   at its fastest warm serve
 *   setup_s         main() or the previous serve to the serveFleet()
 *                   call: FleetServer construction, observers, trace,
 *                   submit; median over every serve
 *   peak_rss_mb     getrusage ru_maxrss at exit
 *
 * Every serve is checked: each request reaches exactly one outcome,
 * KV pools drain (llm_tp) and energy components sum to the meter
 * (fleet_observed). The per-request FleetReport JSON of every trace is
 * hashed; all cycles must agree, and the digest of the seed (over its
 * k trace digests) must equal the one recorded for (workload, seed,
 * requests, traces) in --digests when there is one. A failed check
 * exits 1.
 *
 * --trace 1 stops the untraced cycles at kMinCycles and then adds a
 * traced pass over the seed's first trace: spans around every call
 * into the library (written to --spans as a Chrome trace), per-layer
 * counters from each chip's
 * stat registry and getrusage, interleaved threads=2 and threads=1
 * replays that must reproduce the digest (sim.parallel_speedup), bare
 * replays of fleet_observed's trace (obs.overhead_frac), and
 * compile()/Executor::run() probes of the trace's distinct plans on a
 * fresh chip. Only public library API is called; no simulator code is
 * instrumented.
 *
 * --requests and --traces shrink the workload (the benchmark's own
 * tests use them); --record serves one cycle and prints the line the
 * digests file holds for it.
 */

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "api/server.hh"
#include "compiler/lowering.hh"
#include "models/model_zoo.hh"
#include "runtime/executor.hh"
#include "serve/arrival.hh"
#include "serve/fleet.hh"
#include "sim/json.hh"
#include "soc/config.hh"
#include "soc/dtu.hh"

using namespace dtu;

namespace
{

using Clock = std::chrono::steady_clock;

constexpr unsigned kDevices = 4;
constexpr std::size_t kMinCycles = 3;
constexpr unsigned kThreads = 2;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** FNV-1a 64 of @p text, as 16 hex digits. */
std::string
fnv1a(const std::string &text)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

/** The slice of getrusage(RUSAGE_SELF) the benchmark reports. */
struct Usage
{
    double userS = 0.0;
    double sysS = 0.0;
    double minorFaults = 0.0;
    double maxRssMiB = 0.0;
};

Usage
usageNow()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto secs = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return {secs(ru.ru_utime), secs(ru.ru_stime),
            static_cast<double>(ru.ru_minflt),
            static_cast<double>(ru.ru_maxrss) / 1024.0};
}

/**
 * Keep freed memory in the process. By default glibc gives each worker
 * thread an arena of its own and hands freed memory back to the kernel
 * by heuristics that depend on the heap's history, so identical warm
 * serves re-fault from 0 to 140 k pages (fleet_mix) and slow down from
 * cycle to cycle. With one arena that is never trimmed, every warm
 * serve starts from the same heap. The cold first serve still pays
 * every first-touch fault; host.minor_faults reports it.
 */
void
keepHeap()
{
#ifdef __GLIBC__
    mallopt(M_ARENA_MAX, 1);
    mallopt(M_TRIM_THRESHOLD, INT_MAX);
    // The largest fixed threshold; fixing it also stops glibc raising
    // it as large blocks are freed.
    mallopt(M_MMAP_THRESHOLD, 32 << 20);
#endif
}

/**
 * In-memory span log: name, start, end and the enclosing span, written
 * out as a Chrome trace when the run ends. A disabled log records
 * nothing, so untraced serves pay one branch per span.
 */
class SpanLog
{
  public:
    /** Open a span nested in the innermost open one; returns its id. */
    int
    open(const std::string &name)
    {
        if (!enabled_)
            return -1;
        const int parent = stack_.empty() ? -1 : stack_.back();
        spans_.push_back({name, Clock::now(), {}, parent});
        stack_.push_back(static_cast<int>(spans_.size() - 1));
        return stack_.back();
    }

    void
    close(int id)
    {
        if (id < 0)
            return;
        spans_[id].end = Clock::now();
        stack_.pop_back();
    }

    void setEnabled(bool on) { enabled_ = on; }

    void
    write(const std::string &path, Clock::time_point origin) const
    {
        std::ofstream os(path);
        if (!os) {
            std::cerr << "perfbench: cannot write spans to " << path
                      << "\n";
            return;
        }
        JsonWriter json(os, 0);
        json.beginObject().key("traceEvents").beginArray();
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            json.beginObject()
                .field("name", s.name)
                .field("ph", "X")
                .field("pid", 1)
                .field("tid", 1)
                .field("ts", secondsBetween(origin, s.start) * 1e6)
                .field("dur", secondsBetween(s.start, s.end) * 1e6)
                .key("args")
                .beginObject()
                .field("id", static_cast<std::uint64_t>(i))
                .field("parent", s.parent)
                .endObject()
                .endObject();
        }
        json.endArray().endObject();
        os << "\n";
    }

  private:
    struct Span
    {
        std::string name;
        Clock::time_point start;
        Clock::time_point end;
        int parent = -1;
    };
    bool enabled_ = false;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** RAII span: open on construction, close at scope exit. */
class Scoped
{
  public:
    Scoped(SpanLog &log, const std::string &name)
        : log_(log), id_(log.open(name))
    {
    }
    ~Scoped() { log_.close(id_); }
    Scoped(const Scoped &) = delete;
    Scoped &operator=(const Scoped &) = delete;

  private:
    SpanLog &log_;
    int id_;
};

//
// Workloads.
//

struct Workload
{
    std::string name;
    /** Requests per trace, over the whole fleet. */
    unsigned requests = 0;
    /** Traces a seed expands into; a cycle serves each once. */
    unsigned traces = 0;
    /** Attach the SLO monitor, request tracer and energy monitor. */
    bool observers = false;
    /** gpt_small generation on TP=2 groups over a ring fabric. */
    bool generative = false;
};

const Workload *
findWorkload(const std::string &name)
{
    static const Workload all[] = {
        {"fleet_mix", 256, 2, false, false},
        {"fleet_observed", 256, 2, true, false},
        {"llm_tp", 256, 2, false, true},
    };
    for (const Workload &w : all)
        if (w.name == name)
            return &w;
    return nullptr;
}

/** splitmix64: independent generator seeds derived from --seed. */
std::uint64_t
subSeed(std::uint64_t seed, std::uint64_t stream)
{
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

serve::FleetConfig
fleetConfig(const Workload &w, unsigned threads)
{
    serve::FleetConfig config;
    config.devices = kDevices;
    config.routing = serve::RoutingPolicy::LeastOutstanding;
    config.threads = threads;
    if (!w.generative) {
        // bench_fleet's serving configuration.
        config.serving.batching.maxBatch = 8;
        config.serving.batching.maxQueueDelay = secondsToTicks(2e-3);
        config.serving.batching.perModelMaxBatch["bert_large"] = 1;
        config.serving.groupsPerBatch = 1;
        return config;
    }
    // bench_fabric's tensor-parallel group, two of them.
    config.serving.batching.maxBatch = 4;
    config.serving.batching.maxQueueDelay = secondsToTicks(500e-6);
    config.serving.generation.continuousBatching = true;
    config.serving.generation.maxDecodeBatch = 8;
    config.fabric.enabled = true;
    config.fabric.topology = fabric::Topology::Ring;
    config.fabric.linkGbps = 32.0;
    config.fabric.hostGbps = 64.0;
    config.placement.mode = serve::PlacementMode::TensorParallel;
    config.placement.degree = 2;
    return config;
}

constexpr unsigned kPromptLen = 128;
constexpr unsigned kMaxNewTokens = 32;

/** Trace @p k of @p seed. */
std::vector<serve::Request>
buildTrace(const Workload &w, std::uint64_t seed, unsigned k,
           unsigned requests)
{
    const std::uint64_t base = subSeed(seed, k);
    if (!w.generative) {
        // ResNet50 : BERT-Large at 3:1 by count, Poisson at 4000 QPS
        // per device, with bench_fleet's SLOs.
        const double qps = 4000.0 * kDevices;
        const unsigned resnet = requests * 3 / 4;
        const unsigned bert = requests - resnet;
        return serve::finalizeTrace(
            {serve::poissonTrace("resnet50", qps * 0.75, resnet,
                                 subSeed(base, 1), secondsToTicks(20e-3)),
             serve::poissonTrace("bert_large", qps * 0.25, bert,
                                 subSeed(base, 2),
                                 secondsToTicks(80e-3))});
    }
    std::vector<serve::Request> trace = serve::poissonTrace(
        "gpt_small", 6000.0, requests, subSeed(base, 3));
    for (serve::Request &r : trace) {
        r.gen.promptLen = kPromptLen;
        r.gen.maxNewTokens = kMaxNewTokens;
        r.gen.stop = serve::StopPolicy::EosHash;
    }
    return serve::finalizeTrace({std::move(trace)});
}

//
// Output checks.
//

/**
 * Invariants of one served trace; one message per violation. Counts
 * requests that did not complete into @p not_completed.
 */
std::vector<std::string>
checkReport(const Workload &w, bool observers, std::size_t submitted,
            const serve::FleetReport &r, std::uint64_t &not_completed)
{
    std::vector<std::string> errors;
    const serve::ServingReport &f = r.fleet;
    std::vector<unsigned> seen(submitted + 1, 0);
    bool once = f.outcomes.size() == submitted;
    for (const serve::RequestOutcome &o : f.outcomes) {
        const std::uint64_t id = o.request.id;
        once = once && id >= 1 && id <= submitted && ++seen[id] == 1;
    }
    if (!once)
        errors.push_back("not every request has exactly one outcome");
    std::size_t per_device = 0;
    for (const serve::DeviceReport &d : r.perDevice)
        per_device += d.report.outcomes.size();
    if (per_device != submitted)
        errors.push_back("per-device outcomes do not sum to the trace");
    not_completed = 0;
    for (const serve::RequestOutcome &o : f.outcomes)
        not_completed += o.completedOk() ? 0 : 1;

    if (w.generative) {
        auto drained = [](const serve::GenerationReport &g) {
            return g.kvPagesInUseAtEnd == 0 &&
                   g.kvPagesAllocated == g.kvPagesFreed &&
                   g.kvPagesAllocated > 0;
        };
        bool ok = f.hasGeneration && drained(f.generation);
        for (const serve::DeviceReport &d : r.perDevice)
            ok = ok && drained(d.report.generation);
        if (!ok)
            errors.push_back("KV pool did not drain");
    }
    if (observers) {
        auto sums = [](const serve::ServingReport &s) {
            return s.hasEnergy && s.joules > 0.0 &&
                   std::fabs(s.energy.total() - s.joules) <=
                       1e-9 * s.joules;
        };
        bool ok = sums(f);
        for (const serve::DeviceReport &d : r.perDevice)
            ok = ok && sums(d.report);
        if (!ok)
            errors.push_back("energy components do not sum to the meter");
    }
    return errors;
}

//
// Per-layer counters.
//

/** Ledger class of a bandwidth-ledger stat prefix, or "" for none. */
std::string
ledgerClass(const std::string &prefix)
{
    auto has = [&](const char *part) {
        return prefix.find(part) != std::string::npos;
    };
    if (has(".pcie"))
        return "mem.pcie_transfers";
    if (has(".hbm."))
        return "mem.hbm_transfers";
    if (has(".dma.pipe"))
        return "mem.dma_pipe_transfers";
    if (has(".l1."))
        return "mem.core_port_transfers";
    if (has(".l2."))
        return "mem.l2_port_transfers";
    return "";
}

/** Add one chip's DMA and ledger counters into @p out. */
void
addChipCounters(const StatRegistry &stats,
                std::map<std::string, double> &out)
{
    auto strip = [](const std::string &s, const std::string &suffix,
                    std::string &prefix) {
        if (s.size() < suffix.size() ||
            s.compare(s.size() - suffix.size(), suffix.size(), suffix))
            return false;
        prefix = s.substr(0, s.size() - suffix.size());
        return true;
    };
    for (const std::string &name : stats.scalarNames()) {
        const double v = stats.stat(name)->value();
        std::string prefix;
        if (strip(name, ".dma.transactions", prefix)) {
            out["dma.transactions"] += v;
        } else if (strip(name, ".transfers", prefix)) {
            const std::string cls = ledgerClass(prefix);
            if (!cls.empty()) {
                out[cls] += v;
                out["ledger_transfers"] += v;
            }
        } else if (strip(name, ".wait_ticks", prefix)) {
            if (!ledgerClass(prefix).empty())
                out["mem.ledger_wait_ms"] +=
                    v * 1e3 / static_cast<double>(ticksPerSecond);
        }
    }
}

/** What the traced serve leaves for the per-layer metrics. */
struct Counters
{
    std::map<std::string, double> values;
    /** (model, batch) -> one-shot batches of that plan. */
    std::map<std::pair<std::string, unsigned>, double> oneShotMix;
    /** batch -> prefill batches of that size. */
    std::map<unsigned, double> prefillMix;
    double decodeSteps = 0.0;
    double meanDecodeBatch = 0.0;
};

void
readCounters(FleetServer &fleet, const serve::FleetReport &r,
             Counters &c)
{
    std::map<std::string, double> &v = c.values;
    for (unsigned i = 0; i < fleet.size(); ++i)
        addChipCounters(fleet.device(i).chip().stats(), v);
    const serve::ServingReport &f = r.fleet;
    v["serve.batches"] = static_cast<double>(f.batches);
    v["serve.kv_pages_allocated"] =
        static_cast<double>(f.generation.kvPagesAllocated);
    v["serve.kv_peak_occupancy"] = f.generation.kvPeakOccupancy;
    v["compiler.plans"] =
        static_cast<double>(fleet.fleet().device(0).cachedPlans());
    for (const fabric::LinkStats &l : r.fabric.links) {
        v["fabric.link_transfers"] += static_cast<double>(l.transfers);
        v["fabric.link_wait_ms"] += l.waitMs;
    }
    v["fabric.collective_bytes"] = r.fabric.totals.collectiveBytes;
    v["obs.sampled_requests"] =
        fleet.requestTracer()
            ? static_cast<double>(fleet.requestTracer()->sampledSeen())
            : 0.0;
    v["makespan_ticks"] = static_cast<double>(f.makespan);

    // The plan mix, from the outcomes: a batch of size b leaves b
    // outcomes tagged with b.
    for (const serve::RequestOutcome &o : f.outcomes) {
        if (!o.executed() || o.batchSize == 0)
            continue;
        const double share = 1.0 / o.batchSize;
        if (o.request.generative())
            c.prefillMix[o.batchSize] += share;
        else
            c.oneShotMix[{o.request.model, o.batchSize}] += share;
    }
    c.decodeSteps = static_cast<double>(f.generation.decodeSteps);
    // Every emitted token after the first comes from a decode step.
    const double decode_tokens = static_cast<double>(f.generation.tokens) -
                                 static_cast<double>(f.generation.requests);
    c.meanDecodeBatch =
        c.decodeSteps > 0.0 ? decode_tokens / c.decodeSteps : 0.0;
}

//
// The run.
//

struct Options
{
    const Workload *workload = nullptr;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string digestsPath;
    std::string spansPath;
    unsigned requests = 0;
    unsigned traces = 0;
    bool record = false;
};

/** One serve of one trace on a fresh fleet. */
struct Rep
{
    double setupS = 0.0;
    double serveS = 0.0;
    std::size_t submitted = 0;
    std::uint64_t notCompleted = 0;
    std::string digest;
    std::vector<std::string> errors;
    Usage before;
    Usage after;
};

class Bench
{
  public:
    explicit Bench(const Options &opt)
        : w_(*opt.workload), seed_(opt.seed),
          requests_(opt.requests ? opt.requests : w_.requests),
          traces_(opt.traces ? opt.traces : w_.traces)
    {
    }

    unsigned requests() const { return requests_; }
    unsigned traces() const { return traces_; }
    SpanLog &spans() { return spans_; }

    /** "workload seed requests traces", the digests-file key. */
    std::string
    key() const
    {
        return w_.name + " " + std::to_string(seed_) + " " +
               std::to_string(requests_) + " " +
               std::to_string(traces_);
    }

    /**
     * Set up a fresh fleet for trace @p k, serve it, check the report.
     * Setup is timed from @p setup_start. With @p counters, also read
     * the per-layer counters before the fleet is torn down.
     */
    Rep
    serveOnce(unsigned k, Clock::time_point setup_start, unsigned threads,
              bool observers, Counters *counters = nullptr)
    {
        Rep rep;
        std::unique_ptr<FleetServer> fleet;
        std::vector<serve::Request> trace;
        {
            Scoped s(spans_, "setup");
            {
                Scoped c(spans_, "api.FleetServer");
                fleet = std::make_unique<FleetServer>(
                    fleetConfig(w_, threads));
            }
            if (observers) {
                Scoped c(spans_, "obs.enable");
                fleet->enableSloMonitor({});
                fleet->enableRequestTracing({.sampleRate = 0.1});
                fleet->enableEnergyMonitor({});
            }
            {
                Scoped c(spans_, "serve.buildTrace");
                trace = buildTrace(w_, seed_, k, requests_);
            }
            {
                Scoped c(spans_, "api.submit");
                fleet->submit(trace);
            }
        }
        rep.submitted = trace.size();
        rep.before = usageNow();
        const auto serve_start = Clock::now();
        rep.setupS = secondsBetween(setup_start, serve_start);
        const serve::FleetReport *report = nullptr;
        {
            Scoped s(spans_, "serve.serveFleet");
            report = &fleet->serveFleet();
        }
        rep.serveS = secondsBetween(serve_start, Clock::now());
        rep.after = usageNow();
        {
            Scoped s(spans_, "check");
            std::ostringstream os;
            serve::writeJson(*report, os, /*per_request=*/true);
            rep.digest = fnv1a(os.str());
            rep.errors = checkReport(w_, observers, rep.submitted, *report,
                                     rep.notCompleted);
        }
        if (counters) {
            Scoped s(spans_, "counters");
            readCounters(*fleet, *report, *counters);
        }
        {
            Scoped s(spans_, "teardown");
            fleet.reset();
        }
        return rep;
    }

    /** One compile() and one Executor::run() of a plan on a fresh chip. */
    struct Probe
    {
        double compileMs = 0.0;
        double execMs = 0.0;
        double transfers = 0.0;
    };

    template <typename BuildGraph>
    Probe
    probe(const std::string &label, int batch, BuildGraph &&build)
    {
        Scoped s(spans_, "probe " + label);
        const serve::ServingConfig serving = fleetConfig(w_, 1).serving;
        const DtuConfig chip_config = dtu2Config();
        const Graph graph = build();
        Probe p;
        ExecutionPlan plan;
        auto t0 = Clock::now();
        {
            Scoped c(spans_, "compiler.compile");
            plan = compile(graph, chip_config, serving.dtype,
                           serving.groupsPerBatch, {}, batch);
        }
        p.compileMs = secondsBetween(t0, Clock::now()) * 1e3;
        Dtu chip(chip_config);
        std::vector<unsigned> groups;
        for (unsigned g = 0; g < serving.groupsPerBatch; ++g)
            groups.push_back(g);
        Executor executor(chip, groups, serving.exec);
        t0 = Clock::now();
        {
            Scoped c(spans_, "runtime.Executor::run");
            executor.run(plan, 0);
        }
        p.execMs = secondsBetween(t0, Clock::now()) * 1e3;
        std::map<std::string, double> counts;
        addChipCounters(chip.stats(), counts);
        p.transfers = counts["ledger_transfers"];
        return p;
    }

    /**
     * Probe every distinct plan of the traced serve and fill the
     * compiler, runtime and per-transfer metrics. Decode steps are
     * probed once, at the serve's mean decode batch size.
     */
    void
    probePlans(const Counters &c, double serial_serve_s,
               std::map<std::string, double> &m)
    {
        double batches = 0.0, exec_ms = 0.0, transfers = 0.0;
        double compile_ms = 0.0, probes = 0.0;
        auto account = [&](const Probe &p, double n) {
            batches += n;
            exec_ms += n * p.execMs;
            transfers += n * p.transfers;
            compile_ms += p.compileMs;
            probes += 1.0;
        };
        for (const auto &[key, n] : c.oneShotMix) {
            const std::string &model = key.first;
            const int b = static_cast<int>(key.second);
            account(probe(model + " b" + std::to_string(b), b,
                          [&] { return models::buildModel(model, b); }),
                    n);
        }
        if (w_.generative) {
            const serve::FleetConfig config = fleetConfig(w_, 1);
            const unsigned tp = config.placement.degree;
            const unsigned bucket = config.serving.generation.ctxBucket;
            auto bucketed = [&](unsigned len) {
                return static_cast<int>((len + bucket - 1) / bucket *
                                        bucket);
            };
            for (const auto &[size, n] : c.prefillMix) {
                const int b = static_cast<int>(size);
                account(probe("gpt_small prefill b" + std::to_string(b),
                              b,
                              [&] {
                                  return models::buildDecoderPrefillTP(
                                      "gpt_small", b,
                                      bucketed(kPromptLen), tp);
                              }),
                        n);
            }
            if (c.decodeSteps > 0.0) {
                const int b = std::clamp(
                    static_cast<int>(std::lround(c.meanDecodeBatch)), 1,
                    static_cast<int>(
                        config.serving.generation.maxDecodeBatch));
                // Decode contexts span prompt + 1 .. prompt + max new
                // tokens - 1, all inside one bucket.
                const int ctx = bucketed(kPromptLen + kMaxNewTokens / 2);
                account(probe("gpt_small decode b" + std::to_string(b), b,
                              [&] {
                                  return models::buildDecoderStepTP(
                                      "gpt_small", b, ctx, tp);
                              }),
                        c.decodeSteps);
            }
        }
        m["compiler.compile_ms"] =
            probes > 0.0 ? compile_ms / probes * m["compiler.plans"] : 0.0;
        m["runtime.exec_ms_per_batch"] =
            batches > 0.0 ? exec_ms / batches : 0.0;
        m["runtime.attributed_frac"] = exec_ms / (serial_serve_s * 1e3);
        m["mem.host_ns_per_transfer"] =
            transfers > 0.0 ? exec_ms * 1e6 / transfers : 0.0;
    }

  private:
    const Workload &w_;
    std::uint64_t seed_;
    unsigned requests_;
    unsigned traces_;
    SpanLog spans_;
};

/** Recorded digests keyed by "workload seed requests traces". */
std::map<std::string, std::string>
loadDigests(const std::string &path)
{
    std::map<std::string, std::string> digests;
    if (path.empty())
        return digests;
    std::ifstream in(path);
    if (!in) {
        std::cerr << "perfbench: cannot read digests " << path << "\n";
        std::exit(2);
    }
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream fields(line);
        std::string w, seed, requests, traces, digest;
        if (line.empty() || line[0] == '#' ||
            !(fields >> w >> seed >> requests >> traces >> digest))
            continue;
        digests[w + " " + seed + " " + requests + " " + traces] = digest;
    }
    return digests;
}

const std::map<std::string, std::string> &
perLayerUnits()
{
    static const std::map<std::string, std::string> units = {
        {"serve.batches", "count"},
        {"serve.host_ms_per_batch", "ms"},
        {"serve.kv_pages_allocated", "count"},
        {"serve.kv_peak_occupancy", "ratio"},
        {"compiler.plans", "count"},
        {"compiler.compile_ms", "ms"},
        {"runtime.exec_ms_per_batch", "ms"},
        {"runtime.attributed_frac", "ratio"},
        {"dma.transactions", "count"},
        {"mem.l2_port_transfers", "count"},
        {"mem.core_port_transfers", "count"},
        {"mem.dma_pipe_transfers", "count"},
        {"mem.hbm_transfers", "count"},
        {"mem.pcie_transfers", "count"},
        {"mem.host_ns_per_transfer", "ns"},
        {"mem.ledger_wait_ms", "sim_ms"},
        {"fabric.link_transfers", "count"},
        {"fabric.link_wait_ms", "sim_ms"},
        {"fabric.collective_bytes", "bytes"},
        {"obs.overhead_frac", "ratio"},
        {"obs.sampled_requests", "count"},
        {"host.cpu_util", "ratio"},
        {"host.sys_frac", "ratio"},
        {"host.minor_faults", "count"},
        {"sim.ticks_per_host_s", "ticks/s"},
        {"sim.parallel_speedup", "x"},
        {"trace.overhead_frac", "ratio"},
    };
    return units;
}

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why << "\n"
              << "usage: perfbench_driver --workload "
                 "<fleet_mix|fleet_observed|llm_tp> --seed <n> "
                 "--seconds <s> --trace <0|1> [--digests <file>] "
                 "[--spans <file>] [--requests <n>] [--traces <k>] "
                 "[--record]\n";
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    std::string workload;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--record") {
            opt.record = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + a);
        const std::string v = argv[++i];
        try {
            if (a == "--workload")
                workload = v;
            else if (a == "--seed")
                opt.seed = std::stoull(v);
            else if (a == "--seconds")
                opt.seconds = std::stod(v);
            else if (a == "--trace")
                opt.trace = std::stoi(v) != 0;
            else if (a == "--digests")
                opt.digestsPath = v;
            else if (a == "--spans")
                opt.spansPath = v;
            else if (a == "--requests")
                opt.requests = static_cast<unsigned>(std::stoul(v));
            else if (a == "--traces")
                opt.traces = static_cast<unsigned>(std::stoul(v));
            else
                usage("unknown option " + a);
        } catch (const std::exception &) {
            usage("bad value for " + a + ": " + v);
        }
    }
    opt.workload = findWorkload(workload);
    if (!opt.workload)
        usage("unknown workload '" + workload + "'");
    return opt;
}

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const std::map<std::string, std::pair<double, std::string>>
                &metrics)
{
    std::ostringstream os;
    {
        JsonWriter json(os, 0);
        json.beginObject()
            .field("correct", correct)
            .field("attempted", attempted)
            .field("failed", failed)
            .key("metrics")
            .beginObject();
        for (const auto &[name, vu] : metrics) {
            json.key(name)
                .beginObject()
                .field("value", vu.first)
                .field("unit", vu.second)
                .endObject();
        }
        json.endObject().endObject();
    }
    std::cout << os.str() << std::endl;
}

} // namespace

int
main(int argc, char **argv)
{
    const auto main_start = Clock::now();
    keepHeap();
    const Options opt = parseArgs(argc, argv);
    const Workload &w = *opt.workload;
    Bench bench(opt);
    const auto recorded = loadDigests(opt.digestsPath);
    const auto recorded_it = recorded.find(bench.key());

    // Untraced cycles: the end-to-end metrics. The first cycle warms
    // the heap up; --record needs only its digests. Past kMinCycles, a
    // cycle starts only if one as long as the last still ends within
    // --seconds. A traced run stops at kMinCycles and spends the rest
    // of its time on the traced pass.
    std::vector<std::vector<Rep>> cycles;
    auto rep_start = main_start;
    double last_cycle_s = 0.0;
    do {
        const auto cycle_start = Clock::now();
        std::vector<Rep> cycle;
        for (unsigned k = 0; k < bench.traces(); ++k) {
            cycle.push_back(
                bench.serveOnce(k, rep_start, kThreads, w.observers));
            rep_start = Clock::now();
        }
        last_cycle_s = secondsBetween(cycle_start, Clock::now());
        std::cerr << "perfbench: cycle " << cycles.size() << " serves";
        for (const Rep &r : cycle)
            std::cerr << " " << r.serveS;
        std::cerr << " s; faults";
        for (const Rep &r : cycle)
            std::cerr << " " << r.after.minorFaults - r.before.minorFaults;
        std::cerr << "\n";
        cycles.push_back(std::move(cycle));
    } while (!opt.record &&
             (cycles.size() < kMinCycles ||
              (!opt.trace &&
               secondsBetween(main_start, Clock::now()) + last_cycle_s <=
                   opt.seconds)));

    std::vector<std::string> errors;
    std::uint64_t attempted = 0, failed = 0;
    std::vector<double> setup_s;
    // Warm serve times of each trace, one per cycle after the first.
    std::vector<std::vector<double>> warm(bench.traces());
    std::vector<std::string> digests;
    double cycle_requests = 0.0;
    for (std::size_t c = 0; c < cycles.size(); ++c) {
        for (std::size_t k = 0; k < cycles[c].size(); ++k) {
            const Rep &r = cycles[c][k];
            errors.insert(errors.end(), r.errors.begin(), r.errors.end());
            if (c == 0) {
                digests.push_back(r.digest);
                cycle_requests += static_cast<double>(r.submitted);
            } else {
                warm[k].push_back(r.serveS);
                if (digests[k] != r.digest)
                    errors.push_back("cycles disagree on trace " +
                                     std::to_string(k) + "'s digest");
            }
            attempted += r.submitted;
            failed += r.notCompleted;
            setup_s.push_back(r.setupS);
        }
    }
    std::string joined;
    for (const std::string &d : digests)
        joined += d + "\n";
    const std::string digest = fnv1a(joined);
    if (recorded_it != recorded.end() && recorded_it->second != digest)
        errors.push_back("digest " + digest + " differs from the recorded " +
                         recorded_it->second);

    if (opt.record) {
        for (const std::string &e : errors)
            std::cerr << "perfbench: check failed: " << e << "\n";
        if (!errors.empty())
            return 1;
        std::cout << bench.key() << " " << digest << std::endl;
        return 0;
    }

    // Contention on a shared host only ever slows a serve down, so each
    // trace counts at its fastest warm serve.
    auto fastest = [](const std::vector<double> &v) {
        return *std::min_element(v.begin(), v.end());
    };
    double cycle_serve_s = 0.0;
    for (const std::vector<double> &v : warm)
        cycle_serve_s += fastest(v);

    std::map<std::string, std::pair<double, std::string>> metrics;
    if (!opt.trace) {
        metrics["host_req_per_s"] = {cycle_requests / cycle_serve_s,
                                     "req/s"};
        metrics["setup_s"] = {median(setup_s), "s"};
        metrics["peak_rss_mb"] = {usageNow().maxRssMiB, "MiB"};
    } else {
        // Traced pass over trace 0: spans, counters, and the replays
        // and probes only the traced run pays for.
        bench.spans().setEnabled(true);
        Counters c;
        Rep traced;
        {
            Scoped s(bench.spans(), "traced threads=2");
            traced =
                bench.serveOnce(0, Clock::now(), kThreads, w.observers, &c);
        }
        // A/B replays of trace 0 in interleaved rounds, so both sides
        // of each ratio see the same host conditions: the workload as
        // configured, the same at threads=1, and (with observers)
        // bare at threads=2. Round 0 warms up and is not timed. Rounds
        // go on, at least 3 in all, while another fits in --seconds.
        struct Side
        {
            const char *label;
            unsigned threads;
            bool observers;
            std::vector<double> walls;
            std::string digest;
        };
        std::vector<Side> sides = {{"replay threads=2", kThreads,
                                    w.observers, {}, digests[0]},
                                   {"replay threads=1", 1, w.observers, {},
                                    digests[0]}};
        if (w.observers)
            sides.push_back({"replay bare", kThreads, false, {}, ""});
        std::vector<Rep> checked = {traced};
        double last_round_s = 0.0;
        for (unsigned round = 0;
             round < 3 || secondsBetween(main_start, Clock::now()) +
                                  last_round_s <=
                              opt.seconds;
             ++round) {
            const auto round_start = Clock::now();
            for (Side &side : sides) {
                Scoped s(bench.spans(), side.label);
                checked.push_back(bench.serveOnce(0, Clock::now(),
                                                  side.threads,
                                                  side.observers));
                const Rep &r = checked.back();
                // A bare replay reports no energy, so it can only
                // agree with itself.
                if (side.digest.empty())
                    side.digest = r.digest;
                if (r.digest != side.digest)
                    errors.push_back(std::string(side.label) + " digest " +
                                     r.digest + " differs from " +
                                     side.digest);
                if (round > 0)
                    side.walls.push_back(r.serveS);
            }
            last_round_s = secondsBetween(round_start, Clock::now());
        }
        const double parallel_s = fastest(sides[0].walls);
        const double serial_s = fastest(sides[1].walls);
        const double bare_s = w.observers ? fastest(sides[2].walls) : 0.0;
        for (const Rep &r : checked) {
            errors.insert(errors.end(), r.errors.begin(), r.errors.end());
            attempted += r.submitted;
            failed += r.notCompleted;
        }
        if (traced.digest != digests[0])
            errors.push_back("the traced serve changed the digest");

        // Rates use trace 0's fastest warm untraced serve, like the
        // end-to-end metric; CPU use comes from the traced serve. Warm
        // serves reuse the kept heap, so faults and system time come
        // from the process's cold first serve, which touches every page.
        std::map<std::string, double> m = c.values;
        const double wall = fastest(warm[0]);
        const double traced_wall = traced.serveS;
        auto cpu = [](const Rep &r) {
            return r.after.userS - r.before.userS + r.after.sysS -
                   r.before.sysS;
        };
        const Rep &cold = cycles[0][0];
        const double cold_sys = cold.after.sysS - cold.before.sysS;
        m["serve.host_ms_per_batch"] =
            wall * 1e3 / std::max(1.0, m["serve.batches"]);
        m["obs.overhead_frac"] =
            w.observers ? parallel_s / bare_s - 1.0 : 0.0;
        m["host.cpu_util"] = cpu(traced) / traced_wall;
        m["host.sys_frac"] = cpu(cold) > 0.0 ? cold_sys / cpu(cold) : 0.0;
        m["host.minor_faults"] =
            cold.after.minorFaults - cold.before.minorFaults;
        m["sim.ticks_per_host_s"] = m["makespan_ticks"] / wall;
        m["sim.parallel_speedup"] = serial_s / parallel_s;
        m["trace.overhead_frac"] = traced_wall / median(warm[0]) - 1.0;
        bench.probePlans(c, serial_s, m);
        for (const auto &[name, unit] : perLayerUnits())
            metrics[name] = {m[name], unit};
        if (!opt.spansPath.empty())
            bench.spans().write(opt.spansPath, main_start);
    }

    std::cerr << "perfbench: " << bench.key() << ": " << cycles.size()
              << " cycle(s), digest " << digest
              << (recorded_it != recorded.end() ? " (recorded)"
                                                : " (none recorded)")
              << "\n";
    for (const std::string &e : errors)
        std::cerr << "perfbench: check failed: " << e << "\n";
    const bool correct = errors.empty();
    printResult(correct, attempted, failed, metrics);
    return correct ? 0 : 1;
}
