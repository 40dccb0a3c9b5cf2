#include "core/spu.hh"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>

#include "core/register_file.hh"
#include "sim/logging.hh"

namespace dtu
{

namespace
{

constexpr double kLn2 = 0.6931471805599453;
constexpr double kTwoPi = 6.283185307179586;
constexpr double kInvSqrtPi2 = 1.1283791670955126; // 2/sqrt(pi)

/** Canonical table range per function (after range reduction). */
void
canonicalRange(SpuFunc f, double &lo, double &hi)
{
    switch (f) {
      case SpuFunc::Exp:      lo = -0.40; hi = 0.40; break; // +-ln2/2 pad
      case SpuFunc::Log:      lo = 1.0;   hi = 2.0;  break; // mantissa
      case SpuFunc::Tanh:     lo = 0.0;   hi = 9.0;  break; // odd symmetry
      case SpuFunc::Sigmoid:  lo = 0.0;   hi = 18.0; break; // point symmetry
      case SpuFunc::Gelu:     lo = 0.0;   hi = 4.0;  break; // via erf table
      case SpuFunc::Swish:    lo = 0.0;   hi = 18.0; break; // via sigmoid
      case SpuFunc::Softplus: lo = -18.0; hi = 18.0; break;
      case SpuFunc::Erf:      lo = 0.0;   hi = 4.0;  break; // odd symmetry
      case SpuFunc::Rsqrt:    lo = 1.0;   hi = 4.0;  break; // mantissa
      case SpuFunc::Sin:      lo = 0.0;   hi = kTwoPi / 4.0; break;
    }
}

} // namespace

double
Spu::rawFunc(SpuFunc f, double x)
{
    switch (f) {
      case SpuFunc::Exp: return std::exp(x);
      case SpuFunc::Log: return std::log(x);
      case SpuFunc::Tanh: return std::tanh(x);
      case SpuFunc::Sigmoid: return 1.0 / (1.0 + std::exp(-x));
      case SpuFunc::Gelu:
        return 0.5 * x * (1.0 + std::erf(x / std::sqrt(2.0)));
      case SpuFunc::Swish: return x / (1.0 + std::exp(-x));
      case SpuFunc::Softplus:
        return x > 30.0 ? x : std::log1p(std::exp(x));
      case SpuFunc::Erf: return std::erf(x);
      case SpuFunc::Rsqrt: return 1.0 / std::sqrt(x);
      case SpuFunc::Sin: return std::sin(x);
    }
    return 0.0;
}

double
Spu::rawDeriv1(SpuFunc f, double x)
{
    switch (f) {
      case SpuFunc::Exp: return std::exp(x);
      case SpuFunc::Log: return 1.0 / x;
      case SpuFunc::Tanh: {
        double t = std::tanh(x);
        return 1.0 - t * t;
      }
      case SpuFunc::Sigmoid: {
        double s = rawFunc(SpuFunc::Sigmoid, x);
        return s * (1.0 - s);
      }
      case SpuFunc::Softplus: return rawFunc(SpuFunc::Sigmoid, x);
      case SpuFunc::Erf: return kInvSqrtPi2 * std::exp(-x * x);
      case SpuFunc::Rsqrt: return -0.5 * std::pow(x, -1.5);
      case SpuFunc::Sin: return std::cos(x);
      default:
        // Gelu/Swish are composed from erf/sigmoid tables and never
        // tabulated directly.
        return 0.0;
    }
}

double
Spu::rawDeriv2(SpuFunc f, double x)
{
    switch (f) {
      case SpuFunc::Exp: return std::exp(x);
      case SpuFunc::Log: return -1.0 / (x * x);
      case SpuFunc::Tanh: {
        double t = std::tanh(x);
        return -2.0 * t * (1.0 - t * t);
      }
      case SpuFunc::Sigmoid: {
        double s = rawFunc(SpuFunc::Sigmoid, x);
        return s * (1.0 - s) * (1.0 - 2.0 * s);
      }
      case SpuFunc::Softplus: {
        double s = rawFunc(SpuFunc::Sigmoid, x);
        return s * (1.0 - s);
      }
      case SpuFunc::Erf:
        return -2.0 * x * kInvSqrtPi2 * std::exp(-x * x);
      case SpuFunc::Rsqrt: return 0.75 * std::pow(x, -2.5);
      case SpuFunc::Sin: return -std::sin(x);
      default:
        return 0.0;
    }
}

const Spu::Tables &
Spu::sharedTables(unsigned entries)
{
    static std::mutex mutex;
    static std::map<unsigned, std::unique_ptr<const Tables>> sets;
    std::lock_guard<std::mutex> lock(mutex);
    std::unique_ptr<const Tables> &set = sets[entries];
    if (set)
        return *set;
    auto tables = std::make_unique<Tables>();
    for (int fi = 0; fi < numSpuFuncs; ++fi) {
        auto f = static_cast<SpuFunc>(fi);
        Table &table = (*tables)[static_cast<std::size_t>(fi)];
        canonicalRange(f, table.lo, table.hi);
        if (f == SpuFunc::Gelu || f == SpuFunc::Swish)
            continue; // composed ops; no table of their own
        table.entries.resize(entries);
        double h = (table.hi - table.lo) / entries;
        for (unsigned i = 0; i < entries; ++i) {
            double x0 = table.lo + (i + 0.5) * h;
            table.entries[i] = {rawFunc(f, x0), rawDeriv1(f, x0),
                                rawDeriv2(f, x0)};
        }
    }
    set = std::move(tables);
    return *set;
}

Spu::Spu(unsigned table_entries)
    : entries_(table_entries)
{
    fatalIf(table_entries < 8, "SPU lookup table needs >= 8 entries");
    tables_ = &sharedTables(table_entries);
}

double
Spu::taylor(const Table &table, double x) const
{
    double h = (table.hi - table.lo) / entries_;
    double pos = (x - table.lo) / h;
    auto idx = static_cast<std::int64_t>(pos);
    idx = std::clamp<std::int64_t>(idx, 0,
                                   static_cast<std::int64_t>(entries_) - 1);
    const TableEntry &e = table.entries[static_cast<std::size_t>(idx)];
    double x0 = table.lo + (static_cast<double>(idx) + 0.5) * h;
    double dx = x - x0;
    return e.f + e.d1 * dx + 0.5 * e.d2 * dx * dx;
}

double
Spu::evaluate(SpuFunc f, double x) const
{
    const Table &table = (*tables_)[static_cast<std::size_t>(f)];
    switch (f) {
      case SpuFunc::Exp: {
        // x = k*ln2 + r; exp(x) = 2^k * exp(r).
        double k = std::nearbyint(x / kLn2);
        double r = x - k * kLn2;
        return std::ldexp(taylor(table, r), static_cast<int>(k));
      }
      case SpuFunc::Log: {
        fatalIf(x <= 0.0, "SPU log of non-positive value ", x);
        int e = 0;
        double m = std::frexp(x, &e); // m in [0.5, 1)
        m *= 2.0;
        e -= 1; // m in [1, 2)
        return taylor(table, m) + e * kLn2;
      }
      case SpuFunc::Tanh: {
        double ax = std::fabs(x);
        if (ax >= table.hi)
            return x < 0 ? -1.0 : 1.0;
        double t = taylor(table, ax);
        return x < 0 ? -t : t;
      }
      case SpuFunc::Sigmoid: {
        double ax = std::fabs(x);
        double s = ax >= table.hi ? 1.0 : taylor(table, ax);
        return x < 0 ? 1.0 - s : s;
      }
      case SpuFunc::Gelu: {
        double e = evaluate(SpuFunc::Erf, x / std::sqrt(2.0));
        return 0.5 * x * (1.0 + e);
      }
      case SpuFunc::Swish:
        return x * evaluate(SpuFunc::Sigmoid, x);
      case SpuFunc::Softplus: {
        if (x >= table.hi)
            return x; // log(1+e^x) -> x
        if (x <= table.lo)
            return 0.0; // underflows fp16
        return taylor(table, x);
      }
      case SpuFunc::Erf: {
        double ax = std::fabs(x);
        if (ax >= table.hi)
            return x < 0 ? -1.0 : 1.0;
        double e = taylor(table, ax);
        return x < 0 ? -e : e;
      }
      case SpuFunc::Rsqrt: {
        fatalIf(x <= 0.0, "SPU rsqrt of non-positive value ", x);
        int e = 0;
        double m = std::frexp(x, &e); // m in [0.5, 1)
        m *= 2.0;
        e -= 1;
        if (e % 2 != 0) {
            // Keep the exponent even so 2^(-e/2) is exact.
            m *= 2.0;
            e -= 1;
        }
        // m in [1, 4): within the table range.
        return std::ldexp(taylor(table, m), -e / 2);
      }
      case SpuFunc::Sin: {
        // Reduce into [0, 2pi), then fold into the first quadrant.
        double r = std::fmod(x, kTwoPi);
        if (r < 0)
            r += kTwoPi;
        double sign = 1.0;
        if (r >= kTwoPi / 2.0) {
            r -= kTwoPi / 2.0;
            sign = -1.0;
        }
        if (r > kTwoPi / 4.0)
            r = kTwoPi / 2.0 - r;
        return sign * taylor(table, r);
      }
    }
    return 0.0;
}

double
Spu::evaluate(SpuFunc f, double x, DType t) const
{
    return dtypeQuantize(t, evaluate(f, dtypeQuantize(t, x)));
}

double
Spu::reference(SpuFunc f, double x)
{
    return rawFunc(f, x);
}

double
Spu::maxRelativeError(SpuFunc f, double lo, double hi,
                      unsigned samples) const
{
    double worst = 0.0;
    for (unsigned i = 0; i < samples; ++i) {
        double x = lo + (hi - lo) * (i + 0.5) / samples;
        double want = reference(f, x);
        double got = evaluate(f, x);
        double denom = std::max(std::fabs(want), 1e-6);
        worst = std::max(worst, std::fabs(got - want) / denom);
    }
    return worst;
}

unsigned
Spu::resultsPerCycle(DType t, bool dtu2)
{
    unsigned lanes = vectorLanes(t);
    return dtu2 ? lanes : std::max(1u, lanes / 4);
}

} // namespace dtu
