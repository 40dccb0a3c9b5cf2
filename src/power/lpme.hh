/**
 * @file
 * The Local Power Management Engine (Section IV-F, Fig. 9).
 *
 * One LPME sits at each function unit (compute core, DMA engine). It
 * keeps real-time consumption under the unit's assigned power budget
 * by inserting pipeline bubbles through a negative feedback loop, and
 * it negotiates budget with the CPME:
 *
 *  - it tracks the stall (bubble) ratio over a history of observation
 *    windows; when the ratio exceeds the budget-borrow threshold in
 *    M out of the last N windows, it requests additional budget;
 *  - when the assigned budget exceeds actual need, it keeps an
 *    adequate margin and returns the surplus.
 */

#ifndef DTU_POWER_LPME_HH
#define DTU_POWER_LPME_HH

#include <string>
#include <vector>

namespace dtu
{

/** Activity observed at one function unit over one window. */
struct ActivitySample
{
    /** Fraction of cycles the unit's pipeline was busy. */
    double busyRatio = 0.0;
    /** Fraction of DMA cycles stalled on L3 access (bandwidth-bound
     *  indicator for the CPME's workload classifier). */
    double l3StallRatio = 0.0;
    /** Power the unit would draw this window with no throttling. */
    double projectedWatts = 0.0;
};

/** Outcome of one LPME observation window. */
struct LpmeDecision
{
    /** Bubble fraction to apply next window (0 = unthrottled). */
    double throttle = 0.0;
    /** Additional budget requested from the CPME (0 = none). */
    double requestWatts = 0.0;
    /** Surplus budget returned to the CPME (0 = none). */
    double returnWatts = 0.0;
};

/** Per-unit power controller. */
class Lpme
{
  public:
    /**
     * @param baseline_watts the minimal budget assigned at boot.
     * @param borrow_threshold stall ratio above which a window counts
     *        toward borrowing.
     * @param m_of windows with high stalls required ...
     * @param n_windows ... out of this many recent windows.
     * @param return_margin budget kept above projected need before
     *        surplus is returned.
     */
    Lpme(std::string name, double baseline_watts,
         double borrow_threshold = 0.10, unsigned m_of = 3,
         unsigned n_windows = 5, double return_margin = 1.15);

    /**
     * Close one observation window: enforce integrity against the
     * current budget and decide on borrow/return.
     */
    LpmeDecision onWindow(const ActivitySample &sample);

    /** Budget currently assigned to this unit. */
    double budgetWatts() const { return budgetWatts_; }
    /** The boot-time baseline (never returned to the pool). */
    double baselineWatts() const { return baselineWatts_; }
    /** CPME grants additional budget. */
    void grant(double watts) { budgetWatts_ += watts; }
    /** CPME reclaims returned budget. */
    void reclaim(double watts);

    /** Throttle decided by the most recent window. */
    double currentThrottle() const { return throttle_; }
    const std::string &name() const { return name_; }

    double totalRequested() const { return totalRequested_; }
    double totalReturned() const { return totalReturned_; }
    unsigned windows() const { return windows_; }

  private:
    std::string name_;
    double baselineWatts_;
    double budgetWatts_;
    double borrowThreshold_;
    unsigned mOf_;
    unsigned nWindows_;
    double returnMargin_;
    double throttle_ = 0.0;
    /** Stall ratios of the last nWindows_ windows (a ring). */
    std::vector<double> stallHistory_;
    double totalRequested_ = 0.0;
    double totalReturned_ = 0.0;
    unsigned windows_ = 0;
};

} // namespace dtu

#endif // DTU_POWER_LPME_HH
