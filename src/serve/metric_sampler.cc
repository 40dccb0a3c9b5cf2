#include "serve/metric_sampler.hh"

#include <algorithm>
#include <memory>
#include <utility>

namespace dtu
{
namespace serve
{

MetricSampler::MetricSampler(LaneExecutor &lanes,
                             std::function<unsigned(unsigned)> lane_of,
                             obs::RequestTracer *tracer,
                             obs::EnergyMonitor *energy)
    : lanes_(lanes), laneOf_(std::move(lane_of)), tracer_(tracer),
      energy_(energy),
      period_(tracer ? tracer->metricPeriod()
                     : (energy ? energy->samplePeriod() : 0))
{}

void
MetricSampler::take(obs::FleetMetricSample sample)
{
    Pending &p = pending_.emplace_back();
    p.sample = std::move(sample);
    if (tracer_)
        tracer_->recordCounters(p.sample);
    if (energy_) {
        for (const obs::DeviceMetricSample &d : p.sample.devices) {
            if (!energy_->watches(d.device))
                continue;
            auto slot = std::make_shared<obs::ChipReading>();
            p.readings.push_back(slot);
            p.tickets.push_back(lanes_.submit(
                laneOf_(d.device),
                [slot, energy = energy_, device = d.device] {
                    *slot = energy->read(device);
                }));
        }
    }
    apply(false);
}

void
MetricSampler::apply(bool wait)
{
    while (!pending_.empty()) {
        Pending &p = pending_.front();
        if (!wait &&
            !std::all_of(p.tickets.begin(), p.tickets.end(),
                         [&](const LaneExecutor::Ticket &t) {
                             return lanes_.done(t);
                         }))
            return;
        std::vector<obs::ChipReading> readings;
        for (std::size_t i = 0; i < p.tickets.size(); ++i) {
            lanes_.wait(p.tickets[i]);
            readings.push_back(std::move(*p.readings[i]));
        }
        if (energy_)
            energy_->annotate(p.sample, readings);
        if (tracer_)
            tracer_->recordMetrics(p.sample);
        pending_.pop_front();
    }
}

} // namespace serve
} // namespace dtu
