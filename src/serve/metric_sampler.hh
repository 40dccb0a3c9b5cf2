/**
 * @file
 * The serving loops' periodic metric samples, taken without stopping
 * the chips.
 *
 * A sample has a loop half and a chip half. The loop half (queue
 * depths, in-flight batches, completions, drops, retries) is the
 * serving loop's own state: it is read at the sample tick, and the
 * request tracer's counter tracks are emitted from it there. The
 * chip half (the energy monitor's meters, DVFS point and
 * power-manager audit events) is read by one task per device, queued
 * on the lane that runs the device's chip work. A lane is FIFO, so
 * the task sees the chip exactly as the serial loop did at the
 * sample tick, while the loop goes on. The loop's thread folds the
 * readings in, in sample order, once their tasks have run: at the
 * next sample when they already have, at the latest at flush(). The
 * serving loops flush at serve end, and the fleet's flight recorder
 * flushes before it dumps, so every observer ends up with the serial
 * loop's records.
 */

#ifndef DTU_SERVE_METRIC_SAMPLER_HH
#define DTU_SERVE_METRIC_SAMPLER_HH

#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "obs/energy_monitor.hh"
#include "obs/fleet_metrics.hh"
#include "obs/request_tracer.hh"
#include "sim/lane_executor.hh"
#include "sim/ticks.hh"

namespace dtu
{
namespace serve
{

class MetricSampler
{
  public:
    /**
     * @param lanes where the devices' chip work runs.
     * @param lane_of the lane of the chip the energy monitor watches
     *        as device d.
     * Null observers are skipped.
     */
    MetricSampler(LaneExecutor &lanes,
                  std::function<unsigned(unsigned)> lane_of,
                  obs::RequestTracer *tracer,
                  obs::EnergyMonitor *energy);

    MetricSampler(const MetricSampler &) = delete;
    MetricSampler &operator=(const MetricSampler &) = delete;

    /**
     * Sample period in ticks: the tracer's metric period, else the
     * energy monitor's sample period; 0 when nothing samples.
     */
    Tick period() const { return period_; }

    /**
     * Take @p sample, whose loop half the caller read at the sample
     * tick: emit the tracer's counters and queue the chip readings.
     */
    void take(obs::FleetMetricSample sample);

    /** Wait for every pending chip reading and apply the samples. */
    void flush() { apply(true); }

  private:
    struct Pending
    {
        obs::FleetMetricSample sample;
        /** Filled by the lane tasks, which share them: a serve that
         *  unwinds may drop the sampler while a task still runs. */
        std::vector<std::shared_ptr<obs::ChipReading>> readings;
        std::vector<LaneExecutor::Ticket> tickets;
    };

    /** Apply pending samples in order, waiting for their readings
     *  when @p wait, else only while they are ready. */
    void apply(bool wait);

    LaneExecutor &lanes_;
    std::function<unsigned(unsigned)> laneOf_;
    obs::RequestTracer *tracer_;
    obs::EnergyMonitor *energy_;
    Tick period_ = 0;
    /** Samples not applied yet, oldest first. */
    std::deque<Pending> pending_;
};

} // namespace serve
} // namespace dtu

#endif // DTU_SERVE_METRIC_SAMPLER_HH
