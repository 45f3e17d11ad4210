/**
 * @file
 * Lightweight statistics collection: scalar counters, running
 * distributions, and fixed-bucket histograms. Modeled loosely on gem5's
 * statistics package but kept minimal — the simulator's hot loop only
 * ever increments counters; summary math happens at reporting time.
 */

#ifndef VMSIM_BASE_STATS_HH
#define VMSIM_BASE_STATS_HH

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/types.hh"

namespace vmsim
{

/**
 * Running distribution of a stream of samples: count, sum, min, max,
 * and variance via Welford's online algorithm.
 */
class Distribution
{
  public:
    Distribution() { reset(); }

    /** Record one sample. */
    void
    sample(double v)
    {
        ++count_;
        if (v < min_ || count_ == 1)
            min_ = v;
        if (v > max_ || count_ == 1)
            max_ = v;
        sum_ += v;
        double delta = v - mean_;
        mean_ += delta / static_cast<double>(count_);
        m2_ += delta * (v - mean_);
    }

    /** Clear all accumulated state. */
    void
    reset()
    {
        count_ = 0;
        sum_ = mean_ = m2_ = 0.0;
        min_ = max_ = 0.0;
    }

    Counter count() const { return count_; }
    double sum() const { return sum_; }
    double mean() const { return count_ ? mean_ : 0.0; }
    double min() const { return min_; }
    double max() const { return max_; }

    /** Population variance; zero for fewer than two samples. */
    double
    variance() const
    {
        return count_ > 1 ? m2_ / static_cast<double>(count_) : 0.0;
    }

    double stddev() const;

  private:
    Counter count_;
    double sum_;
    double mean_;
    double m2_;
    double min_;
    double max_;
};

/**
 * Histogram with uniform or log-spaced buckets over [lo, hi);
 * out-of-range samples land in underflow/overflow bins. Log spacing
 * (via logSpaced()) suits latency-style data whose interesting
 * structure spans several orders of magnitude.
 *
 * Integer samples (cycles, probe counts) have an O(1) path,
 * sampleInt(), that bins exactly as sample() does without a log or a
 * divide: every geometry gets a table of integer bucket edges, built
 * once per process from sample()'s own formula and shared by every
 * histogram of that geometry.
 */
class Histogram
{
  public:
    /**
     * @param lo lower bound of the first bucket
     * @param hi upper bound of the last bucket (exclusive)
     * @param nbuckets number of uniform buckets, > 0
     */
    Histogram(double lo, double hi, unsigned nbuckets);

    /**
     * Histogram whose bucket edges grow geometrically from @p lo to
     * @p hi (each bucket (hi/lo)^(1/nbuckets) wider than the last).
     * Requires lo > 0.
     */
    static Histogram logSpaced(double lo, double hi, unsigned nbuckets);

    /** Record one sample. */
    void sample(double v);

    /**
     * Record one integer sample, binned exactly as
     * sample(static_cast<double>(v)) would bin it. A cheap estimate of
     * the bucket (the double's bit pattern stands in for its log2) is
     * settled against the integer edge table, so the estimate only
     * needs to be close: within one bucket for geometries of up to
     * about ten buckets per octave, as both LatencyCollector
     * geometries are. Values of 2^53 and above take sample().
     */
    void
    sampleInt(std::uint64_t v)
    {
        if (v >= kExactInt) {
            sample(static_cast<double>(v));
            return;
        }
        ++count_;
        const unsigned n = numBuckets();
        if (v < edges_[0]) {
            ++underflow_;
            return;
        }
        if (v >= edges_[n]) {
            ++overflow_;
            return;
        }
        // v < 2^53 and a positive double's bit pattern is below 2^63,
        // so both convert as signed integers: one instruction each.
        double x = static_cast<double>(static_cast<std::int64_t>(v));
        if (log_) {
            std::int64_t bits;
            std::memcpy(&bits, &x, sizeof bits);
            x = static_cast<double>(bits);
        }
        const double guess =
            std::min(x * guessScale_ - guessOffset_, n - 1.0);
        auto i = guess > 0.0 ? static_cast<unsigned>(guess) : 0u; // NaN: 0
        // The guess is exact or one low nearly always: settle that
        // without a branch, then walk whatever error is left.
        i += v >= edges_[i + 1];
        while (v >= edges_[i + 1])
            ++i;
        while (v < edges_[i])
            --i;
        ++buckets_[i];
    }

    /** Clear all buckets. */
    void reset();

    /** Fold @p other into this one; geometries must match exactly. */
    void merge(const Histogram &other);

    /**
     * Remove @p other's counts from this one (for interval deltas
     * against an earlier snapshot); geometries must match and every
     * bin of @p other must be <= the corresponding bin here.
     */
    void subtract(const Histogram &other);

    /**
     * Value at percentile @p p in [0, 1], linearly interpolated inside
     * its bucket. Underflow samples report lo, overflow samples hi; an
     * empty histogram reports 0.
     */
    double percentile(double p) const;

    /** True when bounds, bucket count and spacing all match. */
    bool sameGeometry(const Histogram &other) const;

    /** "[lo, hi) x N uniform|log" — for mismatch diagnostics. */
    std::string geometryString() const;

    Counter count() const { return count_; }
    Counter underflow() const { return underflow_; }
    Counter overflow() const { return overflow_; }
    unsigned numBuckets() const { return (unsigned)buckets_.size(); }
    Counter bucket(unsigned i) const { return buckets_.at(i); }
    double lo() const { return lo_; }
    double hi() const { return hi_; }
    bool isLog() const { return log_; }

    /** Lower edge of bucket @p i; bucketLo(numBuckets()) == hi. */
    double bucketLo(unsigned i) const;

    /** Render as a one-line summary plus per-bucket counts. */
    std::string toString(const std::string &name) const;

  private:
    /** Integers from here up are not all exact as doubles. */
    static constexpr std::uint64_t kExactInt = std::uint64_t{1} << 53;

    Histogram(double lo, double hi, unsigned nbuckets, bool log);

    /** sample()'s bucket for in-range @p v: the reference formula. */
    std::size_t bucketOf(double v) const;

    /**
     * This geometry's integer edges: entry i < n is the least integer
     * that sample() bins at or above bucket i (entry 0 is the least
     * integer >= lo), entry n the least integer >= hi, all capped at
     * kExactInt. Built on first use of the geometry, then shared.
     */
    const std::uint64_t *sharedEdges() const;

    double lo_;
    double hi_;
    double width_;
    bool log_ = false;
    double logRatio_ = 0.0; // ln of the per-bucket growth factor
    const std::uint64_t *edges_ = nullptr; ///< see sharedEdges()
    /** sampleInt()'s estimate: x * guessScale_ - guessOffset_. */
    double guessScale_ = 0.0;
    double guessOffset_ = 0.0;
    Counter count_;
    Counter underflow_;
    Counter overflow_;
    std::vector<Counter> buckets_;
};

/**
 * A named scalar counter group: maps stable string keys to counters for
 * ad-hoc reporting (used by benches to dump raw event counts). A hash
 * index makes add()/get() O(1) while iteration stays insertion-ordered.
 */
class CounterGroup
{
  public:
    /** Add @p delta to the counter named @p key (created at zero). */
    void add(const std::string &key, Counter delta = 1);

    /** Read the counter named @p key (zero if never written). */
    Counter get(const std::string &key) const;

    /** All (key, value) pairs in insertion order. */
    const std::vector<std::pair<std::string, Counter>> &entries() const
    {
        return entries_;
    }

    void reset();

  private:
    std::unordered_map<std::string, std::size_t> index_;
    std::vector<std::pair<std::string, Counter>> entries_;
};

} // namespace vmsim

#endif // VMSIM_BASE_STATS_HH
