/**
 * @file
 * The host-side runtime API — dtusim's TopsRuntime (Fig. 11).
 *
 * Section V-B: "Similar to CUDA, the developer needs to allocate
 * device memory and launch the kernel to interact with accelerator
 * from the host CPU." This header provides that programming model on
 * top of the simulator:
 *
 *   Device device;                        // open the (simulated) i20
 *   DeviceBuffer in = device.malloc(n);   // L3 allocation
 *   auto stream = device.createStream(1); // optional<Stream>
 *   stream->memcpyH2D(in, bytes);         // PCIe transfer
 *   stream->launch(kernel, core);         // microkernel launch
 *   stream->run(plan);                    // compiled-model launch
 *   StreamEvent done = stream->record();  // async completion marker
 *   stream->synchronize();                // join the timeline
 *
 * Streams are backed by processing-group leases (the Fig. 7 resource
 * abstraction), so two streams with disjoint leases run concurrently
 * and in isolation, exactly like the multi-tenancy path. Events
 * (record()/wait()/query()) order work across streams without
 * blocking, the cudaEvent analogue in simulated time.
 */

#ifndef DTU_API_TOPS_RUNTIME_HH
#define DTU_API_TOPS_RUNTIME_HH

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "compiler/plan.hh"
#include "isa/instruction.hh"
#include "runtime/executor.hh"
#include "soc/resource_manager.hh"

namespace dtu
{

class Device;
class Stream;

/** A device (L3) memory allocation. */
class DeviceBuffer
{
  public:
    DeviceBuffer() = default;

    Addr address() const { return address_; }
    std::uint64_t bytes() const { return bytes_; }
    bool valid() const { return bytes_ != 0; }

  private:
    friend class Device;
    Addr address_ = 0;
    std::uint64_t bytes_ = 0;
};

/**
 * A recorded point on a stream's timeline — the cudaEvent analogue
 * in simulated time. Record one on a stream, then make another
 * stream wait() on it (cross-stream ordering) or query() it against
 * a simulated timestamp without blocking.
 */
class StreamEvent
{
  public:
    StreamEvent() = default;

    /** True once Stream::record() filled this event. */
    bool recorded() const { return recorded_; }

    /** Completion time of the work that preceded record(). */
    Tick tick() const { return tick_; }

    /** Non-blocking: has the event completed by simulated @p at? */
    bool query(Tick at) const { return recorded_ && at >= tick_; }

  private:
    friend class Stream;
    Tick tick_ = 0;
    bool recorded_ = false;
};

/**
 * An in-order execution queue bound to a processing-group lease.
 * Operations enqueue at the stream's cursor and complete in order;
 * synchronize() returns the completion time.
 */
class Stream
{
  public:
    Stream(Stream &&other) noexcept;
    /**
     * Move-assignment releases the destination's own lease (if any)
     * back to the device before adopting the source's, so assigning
     * over a live stream cannot strand processing groups.
     */
    Stream &operator=(Stream &&other) noexcept;
    ~Stream();

    /** Host-to-device copy into @p dst (PCIe -> L3). */
    Stream &memcpyH2D(const DeviceBuffer &dst, std::uint64_t bytes);

    /** Device-to-host copy from @p src (L3 -> PCIe). */
    Stream &memcpyD2H(const DeviceBuffer &src, std::uint64_t bytes);

    /**
     * Launch a microkernel on core @p core_index of the lease (the
     * low-level DSL path). The kernel executes functionally.
     */
    Stream &launch(const Kernel &kernel, unsigned core_index = 0);

    /**
     * Launch a compiled model (the graph-compiler path), optionally
     * with explicit runtime options, e.g. {.trace = true,
     * .timeline = true} to record the per-operator profile and emit
     * timeline events (see Device::writeTimeline).
     * @return the run's result (also retained; see lastRunResult()).
     */
    const ExecResult &run(const ExecutionPlan &plan,
                          const ExecOptions &options = {});

    /**
     * Record an event at the stream's current cursor: it completes
     * exactly when all work enqueued so far completes.
     */
    StreamEvent record() const;

    /**
     * Make subsequent work on this stream start no earlier than
     * @p event's completion (cross-stream dependency).
     */
    Stream &wait(const StreamEvent &event);

    /**
     * Non-blocking completion check: true when everything enqueued
     * so far has completed by simulated time @p at.
     */
    bool query(Tick at) const { return at >= cursor_; }

    /** Block until everything enqueued so far has completed. */
    Tick synchronize();

    /** Current stream cursor (simulated time of the last op). */
    Tick cursor() const { return cursor_; }

    /** The leased group ids backing this stream. */
    const std::vector<unsigned> &groups() const { return groups_; }

    /**
     * Result of the most recent run() on this stream — a thin alias
     * for the reference the last run() call returned.
     */
    const ExecResult &lastRunResult() const { return lastRun_; }

  private:
    friend class Device;
    Stream(Device &device, int tenant_id, std::vector<unsigned> groups);

    /** Return the lease to the device (idempotent). */
    void releaseLease();

    Device *device_ = nullptr;
    int tenantId_ = -1;
    std::vector<unsigned> groups_;
    Tick cursor_ = 0;
    ExecResult lastRun_;
    int nextKernelId_ = 1'000'000; // avoid model kernel-id collisions
};

/** The device handle: owns the simulated chip and its leases. */
class Device
{
  public:
    /** Open a device with the given configuration (default: i20). */
    explicit Device(DtuConfig config = dtu2Config());

    /** Device properties (the cudaGetDeviceProperties analogue). */
    const DtuConfig &properties() const { return dtu_.config(); }

    /** Allocate @p bytes of device (L3) memory. */
    DeviceBuffer malloc(std::uint64_t bytes);

    /** Release a buffer. */
    void free(DeviceBuffer &buffer);

    /** Bytes currently allocated on the device. */
    std::uint64_t bytesAllocated() const { return allocated_; }

    /**
     * Create a stream backed by @p groups processing groups
     * (1..groupsPerCluster, co-located in one cluster).
     * @return the stream, or std::nullopt when no cluster has that
     *         much free capacity — capacity exhaustion is an
     *         expected serving-time condition, not a fatal error.
     *         (Requesting 0 or more than groupsPerCluster groups is
     *         still a FatalError: that is a programming mistake.)
     */
    std::optional<Stream> createStream(unsigned groups = 1);

    /** The lease book-keeper backing createStream (accounting). */
    ResourceManager &resources() { return manager_; }

    /** Total energy drawn by the device so far. */
    double joules() { return dtu_.energy().joules(); }

    //
    // Observability (see sim/tracer.hh and the README's
    // "Observability" section).
    //

    /** The device's timeline tracer. */
    Tracer &tracer() { return dtu_.tracer(); }

    /** Start recording timeline events from every engine. */
    void startTimeline() { dtu_.tracer().setEnabled(true); }

    /** Stop recording (already-recorded events are kept). */
    void stopTimeline() { dtu_.tracer().setEnabled(false); }

    /**
     * Write everything recorded so far as Chrome trace-event JSON,
     * loadable in Perfetto (https://ui.perfetto.dev).
     */
    void writeTimeline(const std::string &path)
    {
        dtu_.tracer().writeChromeTrace(path);
    }

    /** Dump the device's full stat registry as JSON. */
    void dumpStatsJson(std::ostream &os) { dtu_.stats().dumpJson(os); }

    /**
     * Install the PMU-style performance sampler on the chip (once):
     * every @p period ticks the monitor snapshots the key hardware
     * counters into in-memory time series and mirrors them onto the
     * timeline as "pmu.*" counter tracks (see obs/perf_monitor.hh).
     * Strictly opt-in; timing results are unchanged.
     */
    obs::PerfMonitor &enablePerfSampling(Tick period);

    /** The installed sampler, or nullptr. */
    obs::PerfMonitor *perfMonitor() { return dtu_.perfMonitor(); }

    /**
     * Export every device stat in Prometheus text exposition format
     * (version 0.0.4): scalars as gauges, histograms with cumulative
     * le-buckets (see obs/prometheus.hh).
     */
    void writePrometheus(std::ostream &os);

    //
    // Fault injection (see sim/fault.hh and the README's "Fault
    // tolerance" section). Strictly opt-in: a device without
    // installFaults() behaves bit-for-bit like one built before the
    // subsystem existed.
    //

    /** Install a seeded fault injector on the chip (once). */
    FaultInjector &installFaults(const FaultConfig &config)
    {
        return dtu_.installFaults(config);
    }

    /** The installed injector, or nullptr. */
    FaultInjector *faults() { return dtu_.faults(); }

    /** Direct access for advanced use (profiling, stats). */
    Dtu &chip() { return dtu_; }

  private:
    friend class Stream;
    Dtu dtu_;
    ResourceManager manager_;
    std::uint64_t allocated_ = 0;
    Addr nextAddress_ = 0x1000'0000;
    int nextTenant_ = 0;
};

} // namespace dtu

#endif // DTU_API_TOPS_RUNTIME_HH
