/**
 * @file
 * The Central Power Management Engine (Section IV-F, Figs. 8-10).
 *
 * The CPME owns the chip-level power limit. At boot it assigns every
 * function unit its baseline budget and keeps the remainder in a
 * reserve pool for runtime distribution. It serves LPME borrow
 * requests against that pool (power integrity), absorbs returns, and
 * runs the 4-stage DVFS loop — Observation, Evaluation, Decision,
 * Action — that classifies the running workload as compute-bound,
 * bandwidth-bound, or balanced and steps the compute-core frequency
 * along the 1.0-1.4 GHz ladder.
 */

#ifndef DTU_POWER_CPME_HH
#define DTU_POWER_CPME_HH

#include <algorithm>
#include <cstdint>
#include <deque>
#include <vector>

#include "power/lpme.hh"
#include "sim/stats.hh"
#include "sim/ticks.hh"

namespace dtu
{

class FaultInjector;
class PowerAuditTrail;
class Tracer;

/** Workload classification used by the Evaluation stage. */
enum class WorkloadClass
{
    ComputeBound,
    BandwidthBound,
    Balanced,
};

/** Tunables of the DVFS policy. */
struct DvfsPolicy
{
    /** Frequency ladder in Hz, ascending. */
    std::vector<double> ladderHz = {1.0e9, 1.1e9, 1.2e9, 1.3e9, 1.4e9};
    /** Busy duty-cycle ratio above which compute-bound raises clocks. */
    double busyHighThreshold = 0.80;
    /** L3-stall ratio above which the workload is bandwidth-bound. */
    double l3StallHighThreshold = 0.30;
    /** Consecutive same-class windows required before acting. */
    unsigned decisionWindows = 2;
    /** Disable frequency changes entirely (power management OFF). */
    bool enabled = true;
};

/** The chip-level power manager. */
class Cpme
{
  public:
    /**
     * @param power_limit_watts the board limit (150 W on i20).
     * @param policy DVFS tunables.
     */
    explicit Cpme(double power_limit_watts, DvfsPolicy policy = {});

    /**
     * Register a function unit's LPME; its baseline budget is carved
     * out of the limit at boot.
     */
    void attach(Lpme &lpme);

    /** Watts still unassigned in the reserve pool. */
    double reserveWatts() const { return reserveWatts_; }
    double powerLimit() const { return limitWatts_; }

    /**
     * Serve a borrow request: grant at most the reserve, preserving
     * overall integrity (sum of budgets never exceeds the limit).
     * @return watts actually granted.
     */
    double requestBudget(Lpme &lpme, double watts);

    /** Absorb a budget return from an LPME. */
    void returnBudget(Lpme &lpme, double watts);

    /**
     * Run one pass of the LPME/CPME window protocol for a unit:
     * applies the LPME decision against the pool and returns the
     * throttle the unit must apply next window.
     */
    double serviceWindow(Lpme &lpme, const ActivitySample &sample);

    //
    // DVFS loop (core clock). One call per observation window with
    // aggregated core+DMA activity; returns the frequency for the
    // next window.
    //

    /** Current core frequency (Hz). */
    double frequency() const { return policy_.ladderHz[ladderIndex_]; }

    /** Highest ladder frequency (Hz); the policy never changes it. */
    double
    peakFrequency() const
    {
        return *std::max_element(policy_.ladderHz.begin(),
                                 policy_.ladderHz.end());
    }

    /** Observation + Evaluation + Decision + Action. */
    double onWindow(const ActivitySample &aggregate);

    /**
     * Real-time regulation variant: the LPMEs report the frequency
     * that just keeps compute hidden under the memory phases of the
     * current window; the CPME rate-limits the clocks by one ladder
     * step per window toward it (bandwidth-bound windows coast down,
     * compute-bound windows climb back).
     * @return the frequency for the coming window.
     */
    double regulate(const ActivitySample &aggregate, double desired_hz);

    /** Evaluation stage: classify one sample. */
    WorkloadClass classify(const ActivitySample &sample) const;

    const DvfsPolicy &policy() const { return policy_; }
    unsigned frequencyChanges() const { return frequencyChanges_; }
    double totalGranted() const { return totalGranted_; }

    /** serviceWindow() passes completed (any unit). */
    std::uint64_t windowsServiced() const { return windowsServiced_; }
    /** Windows that ended with a nonzero throttle order. */
    std::uint64_t throttledWindows() const { return throttledWindows_; }
    /** Borrow requests the reserve pool could not serve in full. */
    std::uint64_t budgetDenials() const { return budgetDenials_; }

    /**
     * Register the CPME's gauges (cpme.reserve_watts,
     * cpme.granted_watts, cpme.frequency_changes, cpme.frequency_ghz)
     * with @p stats so the performance sampler can watch the power
     * manager next to the engines. Attach at most once per chip.
     */
    void attachStats(StatRegistry &stats);

    //
    // Timeline tracing. The CPME has no clock of its own: callers
    // (the executor) stamp each observation window with
    // beginTraceWindow() before invoking regulate()/serviceWindow(),
    // and the DVFS steps and budget grants/returns of that window
    // appear on the timeline at that simulated time.
    //

    /** Attach the chip tracer (null detaches). */
    void setTracer(Tracer *tracer) { tracer_ = tracer; }

    /**
     * Attach (or detach, with nullptr) a decision audit trail. Every
     * budget grant/denial/return, DVFS step, throttle order, and
     * thermal clamp is recorded as a structured PowerEvent stamped
     * with the current trace window. Unlike the tracer instants the
     * trail does not need the chip timeline enabled — it is the
     * always-on black box the flight recorder reads. No trail, no
     * behavior change.
     */
    void setAuditTrail(PowerAuditTrail *trail) { audit_ = trail; }
    PowerAuditTrail *auditTrail() const { return audit_; }

    /** Timestamp for the trace events of the coming window. */
    void beginTraceWindow(Tick at) { traceTick_ = at; }

    //
    // Thermal throttling (fault injection). Sustained episodes cap
    // the effective core clock below whatever the DVFS loop picked;
    // the executor asks once per observation window.
    //

    /** Attach (or detach, with nullptr) the chip fault injector. */
    void setFaultInjector(FaultInjector *faults) { faults_ = faults; }

    /**
     * Clamp @p hz against the thermal-throttle episode active at
     * @p at. Identity when no injector is installed or no episode is
     * active.
     */
    double thermalCappedHz(Tick at, double hz);

  private:
    /** Emit a DVFS ladder-step instant event (no-op untraced). */
    void traceDvfsStep(std::size_t from_index, std::size_t to_index);

    /** Refresh the registered gauges (no-op before attachStats). */
    void updateStats();

    double limitWatts_;
    double reserveWatts_;
    DvfsPolicy policy_;
    std::size_t ladderIndex_;
    std::deque<WorkloadClass> history_;
    unsigned frequencyChanges_ = 0;
    double totalGranted_ = 0.0;
    std::uint64_t windowsServiced_ = 0;
    std::uint64_t throttledWindows_ = 0;
    std::uint64_t budgetDenials_ = 0;
    Tracer *tracer_ = nullptr;
    Tick traceTick_ = 0;
    FaultInjector *faults_ = nullptr;
    PowerAuditTrail *audit_ = nullptr;

    bool statsAttached_ = false;
    Stat statReserveWatts_;
    Stat statGrantedWatts_;
    Stat statFrequencyChanges_;
    Stat statFrequencyGhz_;
};

} // namespace dtu

#endif // DTU_POWER_CPME_HH
