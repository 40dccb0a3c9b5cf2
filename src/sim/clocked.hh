/**
 * @file
 * Clock domains with runtime-adjustable frequency.
 *
 * DTU 2.0's power management dynamically scales compute-core
 * frequency between 1.0 and 1.4 GHz (Section IV-F of the paper), so
 * the clock abstraction must support changing the period mid-run.
 * Engines convert cycle counts to ticks at the current period when
 * they book work, so a change applies to every later booking.
 */

#ifndef DTU_SIM_CLOCKED_HH
#define DTU_SIM_CLOCKED_HH

#include "sim/logging.hh"
#include "sim/ticks.hh"

namespace dtu
{

/** A frequency source shared by one or more engines. */
class ClockDomain
{
  public:
    /** @param frequency_hz initial frequency in Hz. */
    explicit ClockDomain(double frequency_hz) { setFrequency(frequency_hz); }

    /** Current frequency in Hz. */
    double frequency() const { return frequencyFromPeriod(period_); }

    /** Current clock period in ticks. */
    Tick period() const { return period_; }

    /** Change the domain frequency for every later conversion. */
    void
    setFrequency(double frequency_hz)
    {
        fatalIf(frequency_hz <= 0.0,
                "clock frequency must be positive, got ", frequency_hz);
        period_ = periodFromFrequency(frequency_hz);
    }

    /** Ticks consumed by @p n cycles at the current frequency. */
    Tick ticksFor(Cycles n) const { return n * period_; }

  private:
    Tick period_ = 0;
};

} // namespace dtu

#endif // DTU_SIM_CLOCKED_HH
