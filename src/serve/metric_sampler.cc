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
                             const Observers &observers)
    : lanes_(lanes), laneOf_(std::move(lane_of)), observers_(observers)
{
    for (const ServingObserver *o : observers_) {
        if (std::optional<Tick> period = o->samplePeriod()) {
            period_ = *period;
            break;
        }
    }
}

void
MetricSampler::take(obs::FleetMetricSample sample)
{
    Pending &p = pending_.emplace_back();
    p.sample = std::move(sample);
    for (ServingObserver *o : observers_) {
        o->recordCounters(p.sample);
        for (const obs::DeviceMetricSample &d : p.sample.devices) {
            if (!o->watches(d.device))
                continue;
            auto slot = std::make_shared<obs::ChipReading>();
            p.readings.push_back(
                {o, slot,
                 lanes_.submit(laneOf_(d.device),
                               [slot, o, device = d.device] {
                                   *slot = o->read(device);
                               })});
        }
    }
    apply(false);
}

void
MetricSampler::apply(bool wait)
{
    while (!pending_.empty()) {
        Pending &p = pending_.front();
        if (!wait && !std::all_of(p.readings.begin(), p.readings.end(),
                                  [&](const Reading &r) {
                                      return lanes_.done(r.ticket);
                                  }))
            return;
        for (ServingObserver *o : observers_) {
            std::vector<obs::ChipReading> readings;
            for (Reading &r : p.readings) {
                if (r.observer != o)
                    continue;
                lanes_.wait(r.ticket);
                readings.push_back(std::move(*r.slot));
            }
            o->annotate(p.sample, readings);
        }
        for (ServingObserver *o : observers_)
            o->recordMetrics(p.sample);
        pending_.pop_front();
    }
}

} // namespace serve
} // namespace dtu
