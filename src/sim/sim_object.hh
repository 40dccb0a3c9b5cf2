/**
 * @file
 * Base class for named, hierarchical simulation objects.
 *
 * Every modelled hardware structure (core, DMA engine, L2 slice, ...)
 * derives from SimObject. Objects form a naming hierarchy mirroring
 * the SoC floorplan, e.g. "dtu2.cluster0.pg1.core3.matrix_engine",
 * which statistics and traces use for attribution.
 */

#ifndef DTU_SIM_SIM_OBJECT_HH
#define DTU_SIM_SIM_OBJECT_HH

#include <string>
#include <string_view>

#include "sim/tracer.hh"

namespace dtu
{

class StatRegistry;

/** A named component attached to a stat registry. */
class SimObject
{
  public:
    /**
     * @param name fully qualified hierarchical name.
     * @param stats registry this object's statistics register with
     *              (may be null for stat-less helpers).
     */
    explicit SimObject(std::string name, StatRegistry *stats = nullptr)
        : name_(std::move(name)), stats_(stats)
    {}

    SimObject(const SimObject &) = delete;
    SimObject &operator=(const SimObject &) = delete;
    virtual ~SimObject() = default;

    /** Fully qualified hierarchical name. */
    const std::string &name() const { return name_; }

    /**
     * "<name>.<leaf>": the name of a stat or part of this object,
     * built in one allocation (a chip registers hundreds of them).
     */
    std::string
    childName(std::string_view leaf) const
    {
        std::string child;
        child.reserve(name_.size() + 1 + leaf.size());
        child.append(name_).append(1, '.').append(leaf);
        return child;
    }

    /** The stat registry, or null. */
    StatRegistry *statRegistry() const { return stats_; }

    /** The timeline tracer, or null (wired by the owning chip). */
    Tracer *tracer() const { return tracer_; }
    void
    setTracer(Tracer *tracer)
    {
        tracer_ = tracer;
        track_ = {};
    }

  protected:
    /**
     * This object's track on its tracer, trackFor(name()), resolved
     * at the first span and kept: engines emit one span per request
     * and would otherwise split the name and search two maps each
     * time. Requires a tracer.
     */
    TrackId
    traceTrack()
    {
        if (track_.pid == 0)
            track_ = tracer_->trackFor(name_);
        return track_;
    }

  private:
    std::string name_;
    StatRegistry *stats_;
    Tracer *tracer_ = nullptr;
    TrackId track_; ///< pid 0: not resolved yet
};

} // namespace dtu

#endif // DTU_SIM_SIM_OBJECT_HH
