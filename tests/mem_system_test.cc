/**
 * @file
 * Tests for MemSystem: two-level behavior, per-class attribution,
 * multi-line spans, I/D and L1/L2 isolation, and pollution effects.
 */

#include <gtest/gtest.h>

#include "base/logging.hh"
#include "base/units.hh"
#include "mem/mem_system.hh"

namespace vmsim
{
namespace
{

CacheParams
cp(std::uint64_t size, unsigned line)
{
    CacheParams p;
    p.sizeBytes = size;
    p.lineSize = line;
    return p;
}

MemSystem
smallMem()
{
    return MemSystem(cp(1_KiB, 32), cp(8_KiB, 64));
}

TEST(MemSystem, InvalidHierarchyRejected)
{
    setQuiet(true);
    // L2 smaller than L1.
    EXPECT_THROW(MemSystem(cp(8_KiB, 32), cp(1_KiB, 64)), FatalError);
    // L2 line smaller than L1 line.
    EXPECT_THROW(MemSystem(cp(1_KiB, 64), cp(8_KiB, 32)), FatalError);
    setQuiet(false);
}

TEST(MemSystem, ColdAccessGoesToMemory)
{
    MemSystem m = smallMem();
    EXPECT_EQ(m.instFetch(0x1000, AccessClass::User), MemLevel::Memory);
    EXPECT_EQ(m.dataAccess(0x2000, 4, false, AccessClass::User),
              MemLevel::Memory);
}

TEST(MemSystem, SecondAccessHitsL1)
{
    MemSystem m = smallMem();
    m.instFetch(0x1000, AccessClass::User);
    EXPECT_EQ(m.instFetch(0x1000, AccessClass::User), MemLevel::L1);
    m.dataAccess(0x2000, 4, false, AccessClass::User);
    EXPECT_EQ(m.dataAccess(0x2000, 4, false, AccessClass::User),
              MemLevel::L1);
}

TEST(MemSystem, L1EvictionFallsBackToL2)
{
    MemSystem m = smallMem();
    m.dataAccess(0x0000, 4, false, AccessClass::User);
    // Conflict in the 1 KB L1 (same set), but distinct L2 sets.
    m.dataAccess(0x0400, 4, false, AccessClass::User);
    EXPECT_EQ(m.dataAccess(0x0000, 4, false, AccessClass::User),
              MemLevel::L2);
}

TEST(MemSystem, InstAndDataSidesAreSplit)
{
    MemSystem m = smallMem();
    m.instFetch(0x1000, AccessClass::User);
    // Same address on the data side must still be cold: split caches.
    EXPECT_EQ(m.dataAccess(0x1000, 4, false, AccessClass::User),
              MemLevel::Memory);
}

TEST(MemSystem, ClassAttributionSeparatesCounters)
{
    MemSystem m = smallMem();
    m.dataAccess(0x100, 4, false, AccessClass::User);
    m.dataAccess(0x5100, 4, false, AccessClass::PteUser);
    m.dataAccess(0x9100, 4, false, AccessClass::PteRoot);

    EXPECT_EQ(m.stats().dataOf(AccessClass::User).accesses, 1u);
    EXPECT_EQ(m.stats().dataOf(AccessClass::PteUser).accesses, 1u);
    EXPECT_EQ(m.stats().dataOf(AccessClass::PteRoot).accesses, 1u);
    EXPECT_EQ(m.stats().dataOf(AccessClass::PteKernel).accesses, 0u);
    EXPECT_EQ(m.stats().dataOf(AccessClass::User).l1Misses, 1u);
    EXPECT_EQ(m.stats().dataOf(AccessClass::User).l2Misses, 1u);
}

TEST(MemSystem, SharedCachesCreatePollution)
{
    // A PTE access that conflicts with a resident user line evicts it:
    // the user's next access misses — the displacement effect the
    // paper charges to MCPI.
    MemSystem m = smallMem();
    m.dataAccess(0x0000, 4, false, AccessClass::User);
    EXPECT_EQ(m.dataAccess(0x0000, 4, false, AccessClass::User),
              MemLevel::L1);
    // Same L1 set and same L2 set (8 KB apart => same 1 KB L1 set;
    // 8 KB L2 has 128 sets of 64B -> 0x2000 % 0x2000 == 0 same L2 set).
    m.dataAccess(0x2000, 4, false, AccessClass::PteUser);
    MemLevel lvl = m.dataAccess(0x0000, 4, false, AccessClass::User);
    EXPECT_NE(lvl, MemLevel::L1);
    // The extra miss is attributed to the User class.
    EXPECT_EQ(m.stats().dataOf(AccessClass::User).l1Misses, 2u);
}

TEST(MemSystem, MultiLineSpanTouchesEachLine)
{
    MemSystem m = smallMem();
    // 16-byte access crossing a 32B line boundary: two lines touched.
    m.dataAccess(0x0018, 16, false, AccessClass::PteUser);
    EXPECT_EQ(m.stats().dataOf(AccessClass::PteUser).accesses, 2u);
    EXPECT_EQ(m.stats().dataOf(AccessClass::PteUser).l1Misses, 2u);
    // Both lines now resident.
    EXPECT_EQ(m.dataAccess(0x0018, 16, false, AccessClass::PteUser),
              MemLevel::L1);
}

TEST(MemSystem, AlignedSpanWithinOneLine)
{
    MemSystem m = smallMem();
    // A 16-byte PA-RISC PTE aligned on 16B never crosses a 32B line.
    m.dataAccess(0x0040, 16, false, AccessClass::PteUser);
    EXPECT_EQ(m.stats().dataOf(AccessClass::PteUser).accesses, 1u);
}

TEST(MemSystem, ZeroSizeAccessTouchesOneLine)
{
    MemSystem m = smallMem();
    m.dataAccess(0x0040, 0, false, AccessClass::User);
    EXPECT_EQ(m.stats().dataOf(AccessClass::User).accesses, 1u);
}

TEST(MemSystem, StoreCountsTracked)
{
    MemSystem m = smallMem();
    m.dataAccess(0x40, 4, true, AccessClass::User);
    m.dataAccess(0x40, 4, false, AccessClass::User);
    m.dataAccess(0x40, 4, true, AccessClass::User);
    EXPECT_EQ(m.storeCount(), 2u);
}

TEST(MemSystem, StoreAllocatesLikeLoad)
{
    // Write-allocate: a store miss installs the line.
    MemSystem m = smallMem();
    m.dataAccess(0x40, 4, true, AccessClass::User);
    EXPECT_EQ(m.dataAccess(0x40, 4, false, AccessClass::User),
              MemLevel::L1);
}

TEST(MemSystem, ResetStatsPreservesCacheState)
{
    MemSystem m = smallMem();
    m.dataAccess(0x40, 4, false, AccessClass::User);
    m.resetStats();
    EXPECT_EQ(m.stats().dataOf(AccessClass::User).accesses, 0u);
    // Line still resident: warm state survives a stats reset.
    EXPECT_EQ(m.dataAccess(0x40, 4, false, AccessClass::User),
              MemLevel::L1);
}

TEST(MemSystem, InvalidateAllColdStarts)
{
    MemSystem m = smallMem();
    m.dataAccess(0x40, 4, false, AccessClass::User);
    m.invalidateAll();
    EXPECT_EQ(m.dataAccess(0x40, 4, false, AccessClass::User),
              MemLevel::Memory);
}

TEST(MemSystem, HandlerFetchGoesToInstSide)
{
    MemSystem m = smallMem();
    m.instFetch(0x80000000, AccessClass::HandlerFetch);
    EXPECT_EQ(m.stats().instOf(AccessClass::HandlerFetch).accesses, 1u);
    EXPECT_EQ(m.stats().dataOf(AccessClass::HandlerFetch).accesses, 0u);
    // Handler code displaces I-cache contents, not D-cache contents.
    EXPECT_EQ(m.dataAccess(0x80000000, 4, false, AccessClass::User),
              MemLevel::Memory);
}

TEST(MemSystem, L2HitAfterL1Eviction)
{
    MemSystem m = smallMem();
    // Fill L1 set 0 twice over; both lines should live in L2.
    m.dataAccess(0x0000, 4, false, AccessClass::User);
    m.dataAccess(0x0400, 4, false, AccessClass::User);
    auto &ctr = m.stats().dataOf(AccessClass::User);
    EXPECT_EQ(ctr.l2Misses, 2u);
    EXPECT_EQ(m.dataAccess(0x0000, 4, false, AccessClass::User),
              MemLevel::L2);
    EXPECT_EQ(m.dataAccess(0x0400, 4, false, AccessClass::User),
              MemLevel::L2);
    // No further L2 misses occurred.
    EXPECT_EQ(ctr.l2Misses, 2u);
}

TEST(MemSystem, CumulativeCountsAcrossClasses)
{
    MemSystem m = smallMem();
    for (int i = 0; i < 10; ++i)
        m.instFetch(0x1000 + i * 4, AccessClass::HandlerFetch);
    EXPECT_EQ(m.stats().instOf(AccessClass::HandlerFetch).accesses, 10u);
    // 10 sequential 4-byte fetches in 32B lines: 2 line misses.
    EXPECT_EQ(m.stats().instOf(AccessClass::HandlerFetch).l1Misses, 2u);
}


TEST(MemSystem, UnifiedL2KeepsClassAttribution)
{
    MemSystem m(cp(1_KiB, 32), cp(8_KiB, 64), /*unified=*/true);
    m.dataAccess(0x100, 4, false, AccessClass::PteUser);
    m.instFetch(0x100, AccessClass::User);
    EXPECT_EQ(m.stats().dataOf(AccessClass::PteUser).accesses, 1u);
    EXPECT_EQ(m.stats().instOf(AccessClass::User).accesses, 1u);
    // The PTE load warmed the shared L2: the instruction fetch missed
    // L1i but hit L2.
    EXPECT_EQ(m.stats().instOf(AccessClass::User).l2Misses, 0u);
}

TEST(MemSystem, UnifiedL2CrossSidePollution)
{
    // Instruction traffic can evict data lines in a unified L2 —
    // impossible with split L2s.
    MemSystem m(cp(1_KiB, 32), cp(2_KiB, 32), /*unified=*/true);
    // Unified L2 = 4 KB of 32B lines = 128 direct-mapped sets.
    m.dataAccess(0x0, 4, false, AccessClass::User);
    ASSERT_TRUE(m.l2d().probe(0x0));
    for (Addr a = 0; a < 8_KiB; a += 32)
        m.instFetch(0x100000 + a, AccessClass::User);
    // The sweep covered every set twice: the data line is gone from
    // the shared L2 (though still warm in the private L1d).
    EXPECT_FALSE(m.l2d().probe(0x0));
}

TEST(MemSystem, SplitL2NoCrossSidePollution)
{
    MemSystem m(cp(1_KiB, 32), cp(2_KiB, 32), /*unified=*/false);
    m.dataAccess(0x0, 4, false, AccessClass::User);
    for (Addr a = 0; a < 8_KiB; a += 32)
        m.instFetch(0x100000 + a, AccessClass::User);
    // Data-side L2 untouched by instruction traffic.
    EXPECT_TRUE(m.l2d().probe(0x0));
}

} // anonymous namespace
} // namespace vmsim
