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

#include "sim/event_queue.hh"

namespace dtu
{

class StatRegistry;
class Tracer;

/** A named component attached to an event queue and a stat registry. */
class SimObject
{
  public:
    /**
     * @param name fully qualified hierarchical name.
     * @param queue event queue driving this object.
     * @param stats registry this object's statistics register with
     *              (may be null for stat-less helpers).
     */
    SimObject(std::string name, EventQueue &queue,
              StatRegistry *stats = nullptr)
        : name_(std::move(name)), queue_(queue), stats_(stats)
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

    /** The event queue this object schedules on. */
    EventQueue &eventQueue() const { return queue_; }

    /** Current simulated time. */
    Tick curTick() const { return queue_.now(); }

    /** The stat registry, or null. */
    StatRegistry *statRegistry() const { return stats_; }

    /** The timeline tracer, or null (wired by the owning chip). */
    Tracer *tracer() const { return tracer_; }
    void setTracer(Tracer *tracer) { tracer_ = tracer; }

  private:
    std::string name_;
    EventQueue &queue_;
    StatRegistry *stats_;
    Tracer *tracer_ = nullptr;
};

} // namespace dtu

#endif // DTU_SIM_SIM_OBJECT_HH
