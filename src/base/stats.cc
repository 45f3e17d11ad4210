#include "base/stats.hh"

#include <cmath>
#include <map>
#include <mutex>
#include <sstream>
#include <tuple>

#include "base/logging.hh"

namespace vmsim
{

double
Distribution::stddev() const
{
    return std::sqrt(variance());
}

Histogram::Histogram(double lo, double hi, unsigned nbuckets)
    : Histogram(lo, hi, nbuckets, false)
{}

Histogram::Histogram(double lo, double hi, unsigned nbuckets, bool log)
    : lo_(lo), hi_(hi), log_(log), count_(0), underflow_(0), overflow_(0)
{
    fatalIf(nbuckets == 0, "Histogram needs at least one bucket");
    fatalIf(!(lo < hi) || !std::isfinite(lo) || !std::isfinite(hi),
            "Histogram range [", lo, ", ", hi, ") is empty or unbounded");
    width_ = (hi - lo) / nbuckets;
    buckets_.assign(nbuckets, 0);
    if (log_) {
        logRatio_ = std::log(hi / lo) / nbuckets;
        // The bit pattern of a double x >= 1, read as an integer and
        // scaled by 2^-52, is 1023 + log2(x) to within 0.09.
        const double log2Ratio = logRatio_ / std::log(2.0);
        guessScale_ = 0x1p-52 / log2Ratio;
        guessOffset_ = (1023.0 + std::log2(lo)) / log2Ratio;
    } else {
        guessScale_ = 1.0 / width_;
        guessOffset_ = lo / width_;
    }
    edges_ = sharedEdges();
}

Histogram
Histogram::logSpaced(double lo, double hi, unsigned nbuckets)
{
    fatalIf(lo <= 0.0, "log-spaced Histogram needs lo > 0, got ", lo);
    return Histogram(lo, hi, nbuckets, true);
}

std::size_t
Histogram::bucketOf(double v) const
{
    auto idx = log_ ? static_cast<std::size_t>(std::log(v / lo_) /
                                               logRatio_)
                    : static_cast<std::size_t>((v - lo_) / width_);
    return std::min(idx, buckets_.size() - 1); // fp rounding at the top
}

void
Histogram::sample(double v)
{
    ++count_;
    if (v < lo_)
        ++underflow_;
    else if (v >= hi_)
        ++overflow_;
    else
        ++buckets_[bucketOf(v)];
}

const std::uint64_t *
Histogram::sharedEdges() const
{
    // One table per geometry for the life of the process: a sweep
    // builds hundreds of histograms but only a handful of shapes.
    using Geometry = std::tuple<bool, double, double, std::size_t>;
    static std::mutex mu;
    static std::map<Geometry, std::vector<std::uint64_t>> tables;
    std::lock_guard<std::mutex> lock(mu);
    auto [it, fresh] =
        tables.try_emplace(Geometry{log_, lo_, hi_, buckets_.size()});
    std::vector<std::uint64_t> &edges = it->second;
    if (!fresh)
        return edges.data();

    // Least integer in [a, b) satisfying @p pred, else b; pred must
    // be monotone (false ... false true ... true) over the range.
    auto least = [](std::uint64_t a, std::uint64_t b, auto pred) {
        while (a < b) {
            std::uint64_t mid = a + (b - a) / 2;
            if (pred(mid))
                b = mid;
            else
                a = mid + 1;
        }
        return a;
    };
    auto asDouble = [](std::uint64_t v) { return static_cast<double>(v); };
    const std::size_t n = buckets_.size();
    edges.resize(n + 1);
    edges[0] = least(0, kExactInt,
                     [&](std::uint64_t v) { return asDouble(v) >= lo_; });
    edges[n] = least(edges[0], kExactInt,
                     [&](std::uint64_t v) { return asDouble(v) >= hi_; });
    for (std::size_t i = 1; i < n; ++i)
        edges[i] = least(edges[i - 1], edges[n], [&](std::uint64_t v) {
            return bucketOf(asDouble(v)) >= i;
        });
    return edges.data();
}

void
Histogram::reset()
{
    count_ = underflow_ = overflow_ = 0;
    for (auto &b : buckets_)
        b = 0;
}

bool
Histogram::sameGeometry(const Histogram &other) const
{
    return log_ == other.log_ && lo_ == other.lo_ && hi_ == other.hi_ &&
           buckets_.size() == other.buckets_.size();
}

std::string
Histogram::geometryString() const
{
    std::ostringstream oss;
    oss << "[" << lo_ << ", " << hi_ << ") x " << buckets_.size()
        << (log_ ? " log" : " uniform");
    return oss.str();
}

void
Histogram::merge(const Histogram &other)
{
    fatalIf(!sameGeometry(other), "Histogram::merge geometry mismatch: ",
            geometryString(), " vs ", other.geometryString());
    count_ += other.count_;
    underflow_ += other.underflow_;
    overflow_ += other.overflow_;
    for (std::size_t i = 0; i < buckets_.size(); ++i)
        buckets_[i] += other.buckets_[i];
}

void
Histogram::subtract(const Histogram &other)
{
    fatalIf(!sameGeometry(other),
            "Histogram::subtract geometry mismatch: ", geometryString(),
            " vs ", other.geometryString());
    fatalIf(count_ < other.count_ || underflow_ < other.underflow_ ||
                overflow_ < other.overflow_,
            "Histogram::subtract would go negative");
    count_ -= other.count_;
    underflow_ -= other.underflow_;
    overflow_ -= other.overflow_;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        fatalIf(buckets_[i] < other.buckets_[i],
                "Histogram::subtract would go negative in bucket ", i);
        buckets_[i] -= other.buckets_[i];
    }
}

double
Histogram::percentile(double p) const
{
    if (count_ == 0)
        return 0.0;
    double target = p * static_cast<double>(count_);
    double cum = static_cast<double>(underflow_);
    if (target <= cum)
        return lo_;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        double n = static_cast<double>(buckets_[i]);
        if (target <= cum + n && n > 0.0) {
            double frac = (target - cum) / n;
            double b_lo = bucketLo((unsigned)i);
            double b_hi = bucketLo((unsigned)i + 1);
            return b_lo + frac * (b_hi - b_lo);
        }
        cum += n;
    }
    return hi_;
}

double
Histogram::bucketLo(unsigned i) const
{
    if (i >= buckets_.size())
        return hi_;
    return log_ ? lo_ * std::exp(logRatio_ * i) : lo_ + width_ * i;
}

std::string
Histogram::toString(const std::string &name) const
{
    std::ostringstream oss;
    oss << name << ": n=" << count_ << " under=" << underflow_
        << " over=" << overflow_;
    for (unsigned i = 0; i < buckets_.size(); ++i)
        oss << " [" << bucketLo(i) << ")=" << buckets_[i];
    return oss.str();
}

void
CounterGroup::add(const std::string &key, Counter delta)
{
    auto [it, inserted] = index_.try_emplace(key, entries_.size());
    if (inserted)
        entries_.emplace_back(key, delta);
    else
        entries_[it->second].second += delta;
}

Counter
CounterGroup::get(const std::string &key) const
{
    auto it = index_.find(key);
    return it == index_.end() ? 0 : entries_[it->second].second;
}

void
CounterGroup::reset()
{
    index_.clear();
    entries_.clear();
}

} // namespace vmsim
