/**
 * @file
 * Fundamental time types for dtusim.
 *
 * A Tick is one picosecond of simulated time. All engines in the
 * simulator (compute cores, DMA engines, HBM channels, power
 * management) book their work on a shared picosecond timeline, which
 * lets clock domains with different and dynamically changing
 * frequencies (DVFS) interleave exactly.
 */

#ifndef DTU_SIM_TICKS_HH
#define DTU_SIM_TICKS_HH

#include <cstdint>

namespace dtu
{

/** Simulated time in picoseconds. */
using Tick = std::uint64_t;

/** A cycle count within some clock domain. */
using Cycles = std::uint64_t;

/** Ticks per second of simulated time (1 Tick == 1 ps). */
constexpr Tick ticksPerSecond = 1'000'000'000'000ULL;

/** The largest representable tick; used as "never". */
constexpr Tick maxTick = ~Tick(0);

/** Convert a frequency in Hz to a clock period in ticks (rounded). */
constexpr Tick
periodFromFrequency(double hz)
{
    return hz <= 0.0 ? maxTick
                     : static_cast<Tick>(ticksPerSecond / hz + 0.5);
}

/** Convert a clock period in ticks back to a frequency in Hz. */
constexpr double
frequencyFromPeriod(Tick period)
{
    return period == 0 ? 0.0
                       : static_cast<double>(ticksPerSecond) /
                             static_cast<double>(period);
}

/**
 * Add two tick counts, saturating at maxTick instead of wrapping.
 * Deadline arithmetic ("arrival + timeout") uses this so a timeout
 * configured near maxTick means "effectively never" rather than
 * wrapping into the past and firing immediately.
 */
constexpr Tick
saturatingAddTicks(Tick a, Tick b)
{
    return a > maxTick - b ? maxTick : a + b;
}

/** Convert ticks to seconds (for reporting). */
constexpr double
ticksToSeconds(Tick t)
{
    return static_cast<double>(t) / static_cast<double>(ticksPerSecond);
}

/** Convert seconds to ticks (rounded). */
constexpr Tick
secondsToTicks(double s)
{
    return static_cast<Tick>(s * static_cast<double>(ticksPerSecond) + 0.5);
}

/** Convert ticks to microseconds (for reporting). */
constexpr double
ticksToMicroSeconds(Tick t)
{
    return static_cast<double>(t) / 1e6;
}

/** Convert ticks to milliseconds (for reporting). */
constexpr double
ticksToMilliSeconds(Tick t)
{
    return static_cast<double>(t) / 1e9;
}

} // namespace dtu

#endif // DTU_SIM_TICKS_HH
