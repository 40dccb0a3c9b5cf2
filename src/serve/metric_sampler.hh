/**
 * @file
 * The serving loops' periodic metric samples, taken without stopping
 * the chips.
 *
 * A sample has a loop half and a chip half. The loop half (queue
 * depths, in-flight batches, completions, drops, retries) is the
 * serving loop's own state: it is read at the sample tick, and the
 * observers' recordCounters() hooks see it there. The chip half (for
 * the energy monitor: its meters, DVFS point and power-manager audit
 * events) is read by one read() task per watched device, queued on
 * the lane that runs the device's chip work. A lane is FIFO, so the
 * task sees the chip exactly as the serial loop did at the sample
 * tick, while the loop goes on. The loop's thread folds the readings
 * in, in sample order, once their tasks have run: at the next sample
 * when they already have, at the latest at flush(). Every observer
 * annotates the sample with its readings before any observer records
 * it. The serving loops flush at serve end, and the fleet's flight
 * recorder flushes before it dumps, so every observer ends up with
 * the serial loop's records.
 */

#ifndef DTU_SERVE_METRIC_SAMPLER_HH
#define DTU_SERVE_METRIC_SAMPLER_HH

#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "serve/observer.hh"

namespace dtu
{
namespace serve
{

class MetricSampler
{
  public:
    /**
     * @param lanes where the devices' chip work runs.
     * @param lane_of the lane of the chip an observer watches as
     *        device d.
     * @param observers notified in order; outlives the sampler.
     */
    MetricSampler(LaneExecutor &lanes,
                  std::function<unsigned(unsigned)> lane_of,
                  const Observers &observers);

    MetricSampler(const MetricSampler &) = delete;
    MetricSampler &operator=(const MetricSampler &) = delete;

    /**
     * Sample period in ticks: the first observer's with one; 0 when
     * none has one.
     */
    Tick period() const { return period_; }

    /**
     * Take @p sample, whose loop half the caller read at the sample
     * tick: hand it to recordCounters() and queue the chip readings.
     */
    void take(obs::FleetMetricSample sample);

    /** Wait for every pending chip reading and apply the samples. */
    void flush() { apply(true); }

  private:
    /** One chip reading an observer asked for. */
    struct Reading
    {
        ServingObserver *observer = nullptr;
        /** Filled by the lane task, which shares it: a serve that
         *  unwinds may drop the sampler while a task still runs. */
        std::shared_ptr<obs::ChipReading> slot;
        LaneExecutor::Ticket ticket;
    };

    struct Pending
    {
        obs::FleetMetricSample sample;
        std::vector<Reading> readings;
    };

    /** Apply pending samples in order, waiting for their readings
     *  when @p wait, else only while they are ready. */
    void apply(bool wait);

    LaneExecutor &lanes_;
    std::function<unsigned(unsigned)> laneOf_;
    const Observers &observers_;
    Tick period_ = 0;
    /** Samples not applied yet, oldest first. */
    std::deque<Pending> pending_;
};

} // namespace serve
} // namespace dtu

#endif // DTU_SERVE_METRIC_SAMPLER_HH
