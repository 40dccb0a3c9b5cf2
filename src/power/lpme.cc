#include "power/lpme.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace dtu
{

Lpme::Lpme(std::string name, double baseline_watts, double borrow_threshold,
           unsigned m_of, unsigned n_windows, double return_margin)
    : name_(std::move(name)), baselineWatts_(baseline_watts),
      budgetWatts_(baseline_watts), borrowThreshold_(borrow_threshold),
      mOf_(m_of), nWindows_(n_windows), returnMargin_(return_margin)
{
    fatalIf(baseline_watts <= 0.0, "LPME '", name_,
            "' baseline budget must be positive");
    fatalIf(m_of == 0 || m_of > n_windows, "LPME '", name_,
            "' M-of-N configuration invalid (", m_of, " of ", n_windows,
            ")");
}

void
Lpme::reclaim(double watts)
{
    panicIf(watts < 0.0, "negative reclaim");
    budgetWatts_ = std::max(baselineWatts_, budgetWatts_ - watts);
}

LpmeDecision
Lpme::onWindow(const ActivitySample &sample)
{
    ++windows_;
    LpmeDecision decision;

    // Integrity: the negative feedback loop sizes the bubble fraction
    // so throttled consumption meets the budget. Inserting a bubble
    // fraction b stretches the window by (1+b) and scales dynamic
    // power by 1/(1+b).
    if (sample.projectedWatts > budgetWatts_) {
        decision.throttle = sample.projectedWatts / budgetWatts_ - 1.0;
    } else {
        decision.throttle = 0.0;
    }
    throttle_ = decision.throttle;

    // Track the stall ratio the throttle causes (bubbles / cycles).
    double stall_ratio = decision.throttle / (1.0 + decision.throttle);
    if (stallHistory_.size() < nWindows_)
        stallHistory_.push_back(stall_ratio);
    else
        stallHistory_[(windows_ - 1) % nWindows_] = stall_ratio;

    // Borrow: frequent stalls in M of the last N windows mark this
    // unit as a performance bottleneck worth extra budget.
    if (stall_ratio > borrowThreshold_) {
        unsigned high = 0;
        for (double s : stallHistory_)
            high += s > borrowThreshold_ ? 1 : 0;
        if (high >= mOf_) {
            decision.requestWatts =
                sample.projectedWatts - budgetWatts_;
            totalRequested_ += decision.requestWatts;
        }
    }

    // Return: keep an adequate margin over projected need, hand the
    // rest back to the CPME pool (never dipping below the baseline).
    double adequate =
        std::max(baselineWatts_, sample.projectedWatts * returnMargin_);
    if (decision.requestWatts == 0.0 && budgetWatts_ > adequate) {
        decision.returnWatts = budgetWatts_ - adequate;
        totalReturned_ += decision.returnWatts;
    }
    return decision;
}

} // namespace dtu
