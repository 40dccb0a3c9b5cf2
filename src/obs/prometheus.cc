#include "obs/prometheus.hh"

#include <cmath>

#include "sim/json.hh"

namespace dtu
{
namespace obs
{

std::string
promSanitize(const std::string &name)
{
    std::string out;
    out.reserve(name.size() + 1);
    for (char c : name) {
        bool legal = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                     (c >= '0' && c <= '9') || c == '_' || c == ':';
        out += legal ? c : '_';
    }
    if (!out.empty() && out.front() >= '0' && out.front() <= '9')
        out.insert(out.begin(), '_');
    return out;
}

std::string
promLabelEscape(const std::string &value)
{
    std::string out;
    out.reserve(value.size());
    for (char c : value) {
        switch (c) {
          case '\\': out += "\\\\"; break;
          case '"': out += "\\\""; break;
          case '\n': out += "\\n"; break;
          default: out += c; break;
        }
    }
    return out;
}

std::string
promSampleValue(double value)
{
    if (std::isnan(value))
        return "NaN";
    if (std::isinf(value))
        return value > 0 ? "+Inf" : "-Inf";
    return jsonNumber(value);
}

namespace
{

void
writeHeader(std::ostream &os, const std::string &metric,
            std::string_view help, const char *type)
{
    if (!help.empty())
        os << "# HELP " << metric << " " << help << "\n";
    os << "# TYPE " << metric << " " << type << "\n";
}

} // namespace

void
writePrometheusText(const StatRegistry &stats, std::ostream &os,
                    const std::string &prefix)
{
    const std::string pre = prefix.empty() ? "" : prefix + "_";

    for (const std::string &name : stats.scalarNames()) {
        const Stat *stat = stats.stat(name);
        std::string metric = pre + promSanitize(name);
        writeHeader(os, metric, stat->description(), "gauge");
        os << metric << " " << promSampleValue(stat->value()) << "\n";
    }

    for (const std::string &name : stats.histogramNames()) {
        const Histogram *hist = stats.histogram(name);
        std::string metric = pre + promSanitize(name);
        writeHeader(os, metric, hist->description(), "histogram");
        // Cumulative le-buckets over the configured [lo, hi) range;
        // the last bucket already holds everything >= hi (edge-bucket
        // clamping), so it folds into +Inf.
        std::uint64_t cumulative = 0;
        const std::vector<std::uint64_t> &buckets = hist->buckets();
        double width =
            (hist->hi() - hist->lo()) / static_cast<double>(buckets.size());
        for (std::size_t i = 0; i + 1 < buckets.size(); ++i) {
            cumulative += buckets[i];
            double upper = hist->lo() + static_cast<double>(i + 1) * width;
            os << metric << "_bucket{le=\"" << jsonNumber(upper) << "\"} "
               << cumulative << "\n";
        }
        os << metric << "_bucket{le=\"+Inf\"} " << hist->count() << "\n";
        os << metric << "_sum " << promSampleValue(hist->sum()) << "\n";
        os << metric << "_count " << hist->count() << "\n";
    }
}

} // namespace obs
} // namespace dtu
