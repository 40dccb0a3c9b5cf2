/**
 * @file
 * Logging and error reporting for dtusim.
 *
 * Follows the gem5 convention:
 *  - panic():  an internal simulator bug; something that should never
 *              happen regardless of user input. Aborts.
 *  - fatal():  a user error (bad configuration, invalid arguments)
 *              that prevents the simulation from continuing. Throws a
 *              FatalError so library users and tests can recover.
 *  - warn():   functionality that may not behave as the user expects.
 *  - inform(): status messages with no negative connotation.
 */

#ifndef DTU_SIM_LOGGING_HH
#define DTU_SIM_LOGGING_HH

#include <sstream>
#include <stdexcept>
#include <string>

namespace dtu
{

/** Exception thrown by fatal(): a user-correctable configuration error. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg)
        : std::runtime_error(msg)
    {}
};

/** Exception thrown by panic(): an internal simulator invariant broke. */
class PanicError : public std::logic_error
{
  public:
    explicit PanicError(const std::string &msg)
        : std::logic_error(msg)
    {}
};

namespace detail
{

inline void
formatInto(std::ostringstream &)
{}

template <typename T, typename... Rest>
void
formatInto(std::ostringstream &os, const T &first, const Rest &...rest)
{
    os << first;
    formatInto(os, rest...);
}

} // namespace detail

/** Concatenate all arguments into one string via operator<<. */
template <typename... Args>
std::string
csprintf(const Args &...args)
{
    std::ostringstream os;
    detail::formatInto(os, args...);
    return os.str();
}

/**
 * Report an unrecoverable internal error (a simulator bug) and throw.
 * @throws PanicError always.
 */
template <typename... Args>
[[noreturn]] void
panic(const Args &...args)
{
    throw PanicError("panic: " + csprintf(args...));
}

/**
 * Report an unrecoverable user error (bad configuration) and throw.
 * @throws FatalError always.
 */
template <typename... Args>
[[noreturn]] void
fatal(const Args &...args)
{
    throw FatalError("fatal: " + csprintf(args...));
}

/**
 * True when warn()/inform() output is enabled (off during tests).
 *
 * The DTU_LOG environment variable overrides whatever
 * setLoggingEnabled() selected: DTU_LOG=1/on/true forces output on,
 * DTU_LOG=0/off/false forces it off. Useful to surface warnings from
 * test binaries or silence chatty benchmarks without recompiling.
 */
bool loggingEnabled();

/** Enable or disable warn()/inform() console output (see DTU_LOG). */
void setLoggingEnabled(bool enabled);

/**
 * Set the fleet device id stamped into log prefixes, or -1 to clear
 * it. While set, warn()/inform() lines read
 * "[WARN][dev3] ..." so interleaved multi-device output
 * stays attributable. Prefer ScopedLogDevice over calling this
 * directly.
 */
void setLogDevice(int device);

/** The current log device id, or -1 when none is set. */
int logDevice();

/**
 * Stamp log lines with a device id for a lexical scope — the fleet
 * loop wraps each per-device step so any warning the device emits
 * carries its id. Restores the previous id on exit (nesting safe).
 */
class ScopedLogDevice
{
  public:
    explicit ScopedLogDevice(int device) : saved_(logDevice())
    {
        setLogDevice(device);
    }

    ~ScopedLogDevice() { setLogDevice(saved_); }

    ScopedLogDevice(const ScopedLogDevice &) = delete;
    ScopedLogDevice &operator=(const ScopedLogDevice &) = delete;

  private:
    int saved_;
};

/**
 * Print a warning about possibly-incorrect behaviour, prefixed with
 * its severity: "[WARN] ..." (with "[dev<N>]" after the severity when
 * a fleet device context is set, see ScopedLogDevice).
 */
void warn(const std::string &msg);

/** Print an informational status message (same format, [INFO]). */
void inform(const std::string &msg);

/**
 * Assert a condition that, if false, indicates a simulator bug.
 * @param cond condition expected to hold.
 */
template <typename... Args>
inline void
panicIf(bool cond, const Args &...args)
{
    if (cond)
        panic(args...);
}

/** Raise a fatal user error when the condition holds. */
template <typename... Args>
inline void
fatalIf(bool cond, const Args &...args)
{
    if (cond)
        fatal(args...);
}

} // namespace dtu

#endif // DTU_SIM_LOGGING_HH
