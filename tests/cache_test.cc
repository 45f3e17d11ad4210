/**
 * @file
 * Unit and property tests for the Cache model: geometry validation,
 * direct-mapped conflict behavior, associativity, LRU replacement,
 * parameterized sweeps over the paper's cache shapes, and a
 * differential check against a naive reference model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "base/logging.hh"
#include "base/random.hh"
#include "base/units.hh"
#include "mem/cache.hh"

namespace vmsim
{
namespace
{

CacheParams
params(std::uint64_t size, unsigned line, unsigned assoc = 1)
{
    CacheParams p;
    p.sizeBytes = size;
    p.lineSize = line;
    p.assoc = assoc;
    return p;
}

TEST(CacheParams, NumSets)
{
    EXPECT_EQ(params(1_KiB, 16).numSets(), 64u);
    EXPECT_EQ(params(64_KiB, 64).numSets(), 1024u);
    EXPECT_EQ(params(64_KiB, 64, 4).numSets(), 256u);
}

TEST(CacheParams, ToString)
{
    EXPECT_EQ(params(64_KiB, 32).toString(), "64KB/32B/direct");
    EXPECT_EQ(params(2_MiB, 128).toString(), "2MB/128B/direct");
    EXPECT_EQ(params(64_KiB, 32, 4).toString(), "64KB/32B/4way");
}

TEST(Cache, InvalidGeometryRejected)
{
    setQuiet(true);
    EXPECT_THROW(Cache(params(0, 32)), FatalError);
    EXPECT_THROW(Cache(params(3000, 32)), FatalError);
    EXPECT_THROW(Cache(params(1_KiB, 24)), FatalError);
    EXPECT_THROW(Cache(params(1_KiB, 2)), FatalError);
    EXPECT_THROW(Cache(params(1_KiB, 32, 0)), FatalError);
    // size not divisible by line * assoc
    EXPECT_THROW(Cache(params(1_KiB, 512, 4)), FatalError);
    setQuiet(false);
}

TEST(Cache, ColdMissThenHit)
{
    Cache c(params(1_KiB, 32));
    EXPECT_FALSE(c.access(0x1000));
    EXPECT_TRUE(c.access(0x1000));
    EXPECT_TRUE(c.access(0x101f)); // same 32B line
    EXPECT_FALSE(c.access(0x1020)); // next line
    EXPECT_EQ(c.accesses(), 4u);
    EXPECT_EQ(c.misses(), 2u);
}

TEST(Cache, DirectMappedConflict)
{
    // 1 KB direct-mapped, 32 B lines -> 32 sets; addresses 1 KB apart
    // with equal offsets collide.
    Cache c(params(1_KiB, 32));
    EXPECT_FALSE(c.access(0x0000));
    EXPECT_FALSE(c.access(0x0400)); // evicts 0x0000
    EXPECT_FALSE(c.access(0x0000)); // conflict miss
    EXPECT_FALSE(c.access(0x0400));
    EXPECT_EQ(c.misses(), 4u);
}

TEST(Cache, DistinctSetsDoNotConflict)
{
    Cache c(params(1_KiB, 32));
    for (Addr a = 0; a < 1_KiB; a += 32)
        EXPECT_FALSE(c.access(a));
    // Entire cache now resident.
    for (Addr a = 0; a < 1_KiB; a += 32)
        EXPECT_TRUE(c.access(a));
    EXPECT_EQ(c.validLines(), 32u);
}

TEST(Cache, TwoWayAvoidsPairConflict)
{
    // Two addresses mapping to the same set coexist in a 2-way cache.
    Cache c(params(1_KiB, 32, 2));
    EXPECT_FALSE(c.access(0x0000));
    EXPECT_FALSE(c.access(0x0400));
    EXPECT_TRUE(c.access(0x0000));
    EXPECT_TRUE(c.access(0x0400));
}

TEST(Cache, LruEviction)
{
    // 2-way set: fill both ways, touch way A, insert third line ->
    // way B (the LRU) must be evicted.
    Cache c(params(1_KiB, 32, 2));
    c.access(0x0000); // A
    c.access(0x0400); // B
    c.access(0x0000); // touch A
    c.access(0x0800); // evicts B
    EXPECT_TRUE(c.access(0x0000));
    EXPECT_FALSE(c.access(0x0400));
}

TEST(Cache, ProbeDoesNotFill)
{
    Cache c(params(1_KiB, 32));
    EXPECT_FALSE(c.probe(0x40));
    EXPECT_FALSE(c.probe(0x40)); // still absent
    c.access(0x40);
    EXPECT_TRUE(c.probe(0x40));
    EXPECT_EQ(c.accesses(), 1u); // probes don't count as accesses
}

TEST(Cache, InvalidateSingleLine)
{
    Cache c(params(1_KiB, 32));
    c.access(0x40);
    c.access(0x80);
    c.invalidate(0x40);
    EXPECT_FALSE(c.probe(0x40));
    EXPECT_TRUE(c.probe(0x80));
}

TEST(Cache, InvalidateAll)
{
    Cache c(params(1_KiB, 32));
    for (Addr a = 0; a < 512; a += 32)
        c.access(a);
    EXPECT_GT(c.validLines(), 0u);
    c.invalidateAll();
    EXPECT_EQ(c.validLines(), 0u);
    EXPECT_FALSE(c.probe(0));
}

TEST(Cache, LineAddr)
{
    Cache c(params(1_KiB, 64));
    EXPECT_EQ(c.lineAddr(0x12345), 0x12340u);
    EXPECT_EQ(c.lineAddr(0x12340), 0x12340u);
    EXPECT_EQ(c.lineAddr(0x1237f), 0x12340u);
}

TEST(Cache, MissRate)
{
    Cache c(params(1_KiB, 32));
    EXPECT_EQ(c.missRate(), 0.0);
    c.access(0);
    c.access(0);
    c.access(0);
    c.access(0);
    EXPECT_DOUBLE_EQ(c.missRate(), 0.25);
}

TEST(Cache, FullCacheWorkingSetHitsAfterWarmup)
{
    Cache c(params(8_KiB, 64));
    for (int lap = 0; lap < 3; ++lap) {
        Counter misses_before = c.misses();
        for (Addr a = 0; a < 8_KiB; a += 64)
            c.access(a);
        if (lap > 0) {
            EXPECT_EQ(c.misses(), misses_before) << "lap " << lap;
        }
    }
}

TEST(Cache, OversizedWorkingSetAlwaysMisses)
{
    // Cyclic sweep of 2x the cache through a direct-mapped cache:
    // every access evicts the line needed one lap later.
    Cache c(params(1_KiB, 32));
    for (int lap = 0; lap < 3; ++lap)
        for (Addr a = 0; a < 2_KiB; a += 32)
            c.access(a);
    EXPECT_EQ(c.misses(), c.accesses());
}

// Property sweep over the paper's cache geometry grid: invariants that
// must hold for every L1 shape in Table 1.
class CacheGeometryTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, unsigned>>
{};

TEST_P(CacheGeometryTest, WorkingSetResidency)
{
    auto [size, line] = GetParam();
    Cache c(params(size, line));
    // One full pass installs every line; the second pass is all hits.
    for (Addr a = 0; a < size; a += line)
        EXPECT_FALSE(c.access(a));
    for (Addr a = 0; a < size; a += line)
        EXPECT_TRUE(c.access(a));
    EXPECT_EQ(c.validLines(), size / line);
    EXPECT_DOUBLE_EQ(c.missRate(), 0.5);
}

TEST_P(CacheGeometryTest, TagDisambiguation)
{
    auto [size, line] = GetParam();
    Cache c(params(size, line));
    // Two addresses that differ only above the index bits must not be
    // confused for one another.
    Addr a = 0x100;
    Addr b = a + size;
    c.access(a);
    EXPECT_FALSE(c.probe(b));
    c.access(b);
    EXPECT_FALSE(c.probe(a));
}

INSTANTIATE_TEST_SUITE_P(
    PaperGrid, CacheGeometryTest,
    ::testing::Combine(::testing::Values(1_KiB, 2_KiB, 4_KiB, 8_KiB,
                                         16_KiB, 32_KiB, 64_KiB, 128_KiB),
                       ::testing::Values(16u, 32u, 64u, 128u)));

// Associativity property: for a fixed working set that fits, higher
// associativity never increases misses under LRU.
class CacheAssocTest : public ::testing::TestWithParam<unsigned>
{};

TEST_P(CacheAssocTest, FittingWorkingSetEventuallyAllHits)
{
    unsigned assoc = GetParam();
    Cache c(params(4_KiB, 32, assoc));
    for (int lap = 0; lap < 2; ++lap)
        for (Addr a = 0; a < 4_KiB; a += 32)
            c.access(a);
    // Second lap: no new misses.
    EXPECT_EQ(c.misses(), 4_KiB / 32);
}

INSTANTIATE_TEST_SUITE_P(Assoc, CacheAssocTest,
                         ::testing::Values(1u, 2u, 4u, 8u));

TEST(Cache, ValidLinesNeverExceedsCapacity)
{
    Cache c(params(2_KiB, 64, 2));
    Random rng(5);
    for (int i = 0; i < 5000; ++i)
        c.access(rng.uniform(1_MiB));
    EXPECT_LE(c.validLines(), 2_KiB / 64);
    EXPECT_EQ(c.validLines(), 2_KiB / 64); // saturated under pressure
}

TEST(Cache, InvalidateMissingLineIsHarmless)
{
    Cache c(params(1_KiB, 32));
    c.access(0x40);
    c.invalidate(0x9999040); // same set, different tag: not present
    EXPECT_TRUE(c.probe(0x40));
}


// Differential test against a deliberately naive reference: one
// std::vector of tags per set, most recently used first, sharing no
// code with src/mem. A seeded stream mixes every mutating and
// observing call; both models must agree after each step.
class NaiveLruCache
{
  public:
    NaiveLruCache(std::uint64_t size, unsigned line, unsigned assoc)
        : line_(line), assoc_(assoc), sets_(size / line / assoc)
    {}

    bool
    access(Addr addr)
    {
        std::vector<Addr> &set = sets_[setOf(addr)];
        const Addr tag = tagOf(addr);
        auto it = std::find(set.begin(), set.end(), tag);
        const bool hit = it != set.end();
        if (hit)
            set.erase(it);
        else if (set.size() == assoc_)
            set.pop_back();
        set.insert(set.begin(), tag);
        ++accesses;
        misses += hit ? 0 : 1;
        return hit;
    }

    bool
    probe(Addr addr) const
    {
        const std::vector<Addr> &set = sets_[setOf(addr)];
        return std::find(set.begin(), set.end(), tagOf(addr)) != set.end();
    }

    void
    invalidate(Addr addr)
    {
        std::vector<Addr> &set = sets_[setOf(addr)];
        set.erase(std::remove(set.begin(), set.end(), tagOf(addr)),
                  set.end());
    }

    void
    invalidateAll()
    {
        for (auto &set : sets_)
            set.clear();
    }

    std::uint64_t
    validLines() const
    {
        std::uint64_t n = 0;
        for (const auto &set : sets_)
            n += set.size();
        return n;
    }

    Counter accesses = 0;
    Counter misses = 0;

  private:
    std::size_t setOf(Addr a) const { return a / line_ % sets_.size(); }
    Addr tagOf(Addr a) const { return a / line_ / sets_.size(); }

    unsigned line_;
    unsigned assoc_;
    std::vector<std::vector<Addr>> sets_;
};

class CacheDifferentialTest : public ::testing::TestWithParam<unsigned>
{};

TEST_P(CacheDifferentialTest, MatchesNaiveLruReference)
{
    const unsigned assoc = GetParam();
    constexpr std::uint64_t kSize = 1_KiB;
    constexpr unsigned kLine = 32;
    Cache c(params(kSize, kLine, assoc));
    NaiveLruCache ref(kSize, kLine, assoc);

    std::mt19937_64 rng(0xC0FFEE + assoc);
    for (int step = 0; step < 200000; ++step) {
        const std::uint64_t pick = rng();
        // Mostly a pool of four cache capacities (steady conflicts),
        // sometimes address 0 or an address in the top 2^16 bytes
        // (the largest tags).
        Addr addr = rng() % (4 * kSize);
        if (pick % 97 == 0)
            addr = 0;
        else if (pick % 89 == 0)
            addr = ~Addr{0} - rng() % 65536;

        const unsigned op = static_cast<unsigned>(pick >> 32) % 1000;
        if (op < 800) {
            ASSERT_EQ(c.access(addr), ref.access(addr)) << "step " << step;
        } else if (op < 900) {
            ASSERT_EQ(c.probe(addr), ref.probe(addr)) << "step " << step;
        } else if (op < 998) {
            c.invalidate(addr);
            ref.invalidate(addr);
        } else {
            c.invalidateAll();
            ref.invalidateAll();
        }
        ASSERT_EQ(c.accesses(), ref.accesses) << "step " << step;
        ASSERT_EQ(c.misses(), ref.misses) << "step " << step;
        ASSERT_EQ(c.validLines(), ref.validLines()) << "step " << step;
    }
}

INSTANTIATE_TEST_SUITE_P(Assoc, CacheDifferentialTest,
                         ::testing::Values(1u, 2u, 4u, 8u));

TEST(Cache, EmptyWaySentinelNeverAliasesARealTag)
{
    for (unsigned assoc : {1u, 4u}) {
        // Tag 0: an empty way must not look like a resident line 0.
        Cache zero(params(1_KiB, 4, assoc));
        EXPECT_FALSE(zero.probe(0)) << assoc;
        EXPECT_FALSE(zero.access(0)) << assoc;
        EXPECT_TRUE(zero.access(0)) << assoc;

        // The all-ones address carries the largest tag; it must still
        // be an ordinary line: a cold miss, then a hit.
        Cache top(params(1_KiB, 4, assoc));
        EXPECT_FALSE(top.probe(~Addr{0})) << assoc;
        EXPECT_FALSE(top.access(~Addr{0})) << assoc;
        EXPECT_TRUE(top.access(~Addr{0})) << assoc;
        EXPECT_EQ(top.validLines(), 1u) << assoc;
        top.invalidate(~Addr{0});
        EXPECT_FALSE(top.probe(~Addr{0})) << assoc;
        EXPECT_EQ(top.validLines(), 0u) << assoc;
    }
}

TEST(CacheParams, ToStringSubKilobyteAndOddSizes)
{
    // Regression: sizes below 1 KB rendered as "0KB" and non-multiples
    // truncated (1536 B -> "1KB"); render exact bytes instead.
    EXPECT_EQ(params(512, 16).toString(), "512B/16B/direct");
    CacheParams odd{1536, 16};
    EXPECT_EQ(odd.toString(), "1536B/16B/direct");
    EXPECT_EQ(params(1_KiB, 16).toString(), "1KB/16B/direct");
}

} // anonymous namespace
} // namespace vmsim
