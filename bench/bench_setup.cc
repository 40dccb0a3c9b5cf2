/**
 * @file
 * Host-side cost of building a chip: how long constructing and
 * destroying one dtu2 Dtu takes, how many heap allocations and bytes
 * it makes, how many stats it registers, and how long a 4-device
 * FleetServer in perfbench's fleet_mix serving configuration takes to
 * build. Chip construction dominates a serve's setup time, so this is
 * the profile to read before changing what an engine allocates or
 * registers.
 *
 *     bench_setup [--chips <n>] [--json <path>]
 *
 * Allocations are counted by a replaced global operator new that only
 * this executable links; the count is deterministic for one toolchain
 * and standard library, the timings are not.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "api/server.hh"
#include "bench_common.hh"
#include "serve/fleet.hh"

namespace
{

std::atomic<std::uint64_t> gAllocs{0};
std::atomic<std::uint64_t> gAllocBytes{0};

void *
countedAlloc(std::size_t size, std::size_t align)
{
    gAllocs.fetch_add(1, std::memory_order_relaxed);
    gAllocBytes.fetch_add(size, std::memory_order_relaxed);
    if (size == 0)
        size = 1;
    void *p = align > alignof(std::max_align_t)
                  ? std::aligned_alloc(align, (size + align - 1) / align *
                                                  align)
                  : std::malloc(size);
    if (!p)
        throw std::bad_alloc();
    return p;
}

} // namespace

void *operator new(std::size_t size) { return countedAlloc(size, 0); }
void *operator new[](std::size_t size) { return countedAlloc(size, 0); }
void *
operator new(std::size_t size, std::align_val_t align)
{
    return countedAlloc(size, static_cast<std::size_t>(align));
}
void *
operator new[](std::size_t size, std::align_val_t align)
{
    return countedAlloc(size, static_cast<std::size_t>(align));
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

using namespace dtu;

namespace
{

using Clock = std::chrono::steady_clock;

double
microsSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::micro>(Clock::now() - start)
        .count();
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** perfbench's fleet_mix fleet: bench_fleet's serving configuration. */
serve::FleetConfig
fleetMixConfig()
{
    serve::FleetConfig config;
    config.devices = 4;
    config.routing = serve::RoutingPolicy::LeastOutstanding;
    config.threads = 2;
    config.serving.batching.maxBatch = 8;
    config.serving.batching.maxQueueDelay = secondsToTicks(2e-3);
    config.serving.batching.perModelMaxBatch["bert_large"] = 1;
    config.serving.groupsPerBatch = 1;
    return config;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::BenchOutput out(argc, argv, "bench_setup", {"--chips"});
    const std::string chips_flag = out.option("--chips");
    const unsigned chips =
        chips_flag.empty() ? 20 : static_cast<unsigned>(
                                      std::stoul(chips_flag));
    fatalIf(chips == 0, "--chips must be at least 1");
    out.meta("chips", chips);

    const DtuConfig config = dtu2Config();

    // One counted build: every build of one config allocates the same.
    std::uint64_t allocs = 0;
    std::uint64_t bytes = 0;
    std::size_t stats = 0;
    {
        const std::uint64_t a0 = gAllocs.load();
        const std::uint64_t b0 = gAllocBytes.load();
        auto chip = std::make_unique<Dtu>(config);
        allocs = gAllocs.load() - a0;
        bytes = gAllocBytes.load() - b0;
        stats = chip->stats().scalarNames().size() +
                chip->stats().histogramNames().size();
    }

    std::vector<double> build_us;
    std::vector<double> destroy_us;
    for (unsigned i = 0; i < chips; ++i) {
        auto start = Clock::now();
        auto chip = std::make_unique<Dtu>(config);
        build_us.push_back(microsSince(start));
        start = Clock::now();
        chip.reset();
        destroy_us.push_back(microsSince(start));
    }

    std::vector<double> fleet_us;
    std::vector<double> fleet_teardown_us;
    for (unsigned i = 0; i < std::max(1u, chips / 4); ++i) {
        auto start = Clock::now();
        auto fleet = std::make_unique<FleetServer>(fleetMixConfig());
        fleet_us.push_back(microsSince(start));
        start = Clock::now();
        fleet.reset();
        fleet_teardown_us.push_back(microsSince(start));
    }

    ReportTable table({"metric", "value"});
    auto row = [&](const std::string &name, double value) {
        table.addRow(name, {value});
        out.metric(name, value);
    };
    row("construct_us_per_chip", median(build_us));
    row("destroy_us_per_chip", median(destroy_us));
    row("fleet_construct_us", median(fleet_us));
    row("fleet_teardown_us", median(fleet_teardown_us));
    row("allocs_per_chip", static_cast<double>(allocs));
    row("alloc_kib_per_chip", static_cast<double>(bytes) / 1024.0);
    row("stats_per_chip", static_cast<double>(stats));

    std::printf("Chip construction cost (dtu2, median of %u builds; "
                "fleet rows: 4 chips)\n\n",
                chips);
    table.print(std::cout, 6);
    out.table("setup", table);
    return out.finish();
}
