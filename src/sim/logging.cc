#include "sim/logging.hh"

#include <cctype>
#include <cstdlib>
#include <iostream>
#include <optional>

namespace dtu
{

namespace
{

bool gLoggingEnabled = false;
// Per-thread device id: in a parallel fleet any thread may run any
// device's lane task, and its warn()/inform() prefixes must follow the
// device it is stepping, not whatever another thread last set.
thread_local int gLogDevice = -1;

/** Parse DTU_LOG once; nullopt when unset or unrecognized. */
std::optional<bool>
envOverride()
{
    static const std::optional<bool> parsed = []() -> std::optional<bool> {
        const char *raw = std::getenv("DTU_LOG");
        if (!raw)
            return std::nullopt;
        std::string v(raw);
        for (char &c : v)
            c = static_cast<char>(std::tolower(c));
        if (v == "1" || v == "on" || v == "true" || v == "yes")
            return true;
        if (v == "0" || v == "off" || v == "false" || v == "no" ||
            v.empty())
            return false;
        return std::nullopt;
    }();
    return parsed;
}

/** "[WARN][dev3] " style prefix for one severity. */
std::string
prefix(const char *severity)
{
    std::string p = "[";
    p += severity;
    p += "]";
    if (gLogDevice >= 0) {
        p += "[dev";
        p += std::to_string(gLogDevice);
        p += "]";
    }
    p += " ";
    return p;
}

} // namespace

bool
loggingEnabled()
{
    return envOverride().value_or(gLoggingEnabled);
}

void
setLoggingEnabled(bool enabled)
{
    gLoggingEnabled = enabled;
}

void
setLogDevice(int device)
{
    gLogDevice = device;
}

int
logDevice()
{
    return gLogDevice;
}

void
warn(const std::string &msg)
{
    if (loggingEnabled())
        std::cerr << prefix("WARN") << msg << "\n";
}

void
inform(const std::string &msg)
{
    if (loggingEnabled())
        std::cout << prefix("INFO") << msg << "\n";
}

} // namespace dtu
