/**
 * @file
 * The single-device serving path for tests that own their chip and
 * resource manager: a size-1 serve::Fleet over them. Header-only and
 * test-only.
 */

#ifndef DTU_TESTS_SERVE_TEST_UTIL_HH
#define DTU_TESTS_SERVE_TEST_UTIL_HH

#include <utility>
#include <vector>

#include "serve/fleet.hh"

namespace dtu::test
{

/**
 * Drain @p trace on @p chip through a size-1 fleet and return the
 * device's report (its Scheduler::finish() summary).
 */
inline serve::ServingReport
serveOnChip(Dtu &chip, ResourceManager &manager,
            serve::ServingConfig config,
            std::vector<serve::Request> trace)
{
    serve::FleetConfig fleet_config;
    fleet_config.serving = std::move(config);
    serve::Fleet fleet({{&chip, &manager}}, std::move(fleet_config));
    return std::move(fleet.serve(std::move(trace)).perDevice[0].report);
}

} // namespace dtu::test

#endif // DTU_TESTS_SERVE_TEST_UTIL_HH
