/**
 * @file
 * Tests for IntelVm: the hardware-managed refill (paper Table 4:
 * 7 cycles, exactly 2 PTE loads, no interrupt, no I-cache or I-TLB
 * impact), unpartitioned TLBs, and per-walk cost accumulation.
 */

#include <gtest/gtest.h>

#include "base/logging.hh"
#include "base/units.hh"
#include "mem/mem_system.hh"
#include "mem/phys_mem.hh"
#include "os/intel_vm.hh"

namespace vmsim
{
namespace
{

struct Fixture
{
    Fixture()
        : mem(CacheParams{32_KiB, 32}, CacheParams{1_MiB, 64}),
          pm(8_MiB, 12),
          vm(mem, pm, TlbParams{128, 0, TlbRepl::Random},
             TlbParams{128, 0, TlbRepl::Random})
    {}

    MemSystem mem;
    PhysMem pm;
    IntelVm vm;
};

TEST(IntelVm, RejectsPartitionedTlb)
{
    setQuiet(true);
    MemSystem mem(CacheParams{32_KiB, 32}, CacheParams{1_MiB, 64});
    PhysMem pm(8_MiB, 12);
    EXPECT_THROW(IntelVm(mem, pm, TlbParams{128, 16}, TlbParams{128, 16}),
                 FatalError);
    setQuiet(false);
}

TEST(IntelVm, WalkIsSevenCyclesTwoLoadsNoInterrupt)
{
    Fixture f;
    dataRefOnce(f.vm, Access{0x10000000, 0, false});
    const VmStats &s = f.vm.vmStats();
    EXPECT_EQ(s.hwWalks, 1u);
    EXPECT_EQ(s.hwWalkCycles, 7u);
    EXPECT_EQ(s.interrupts, 0u);
    EXPECT_EQ(s.pteLoads, 2u);
    EXPECT_EQ(s.uhandlerCalls, 0u);
    EXPECT_EQ(s.uhandlerInstrs, 0u);
}

TEST(IntelVm, NoInstructionCacheImpact)
{
    Fixture f;
    dataRefOnce(f.vm, Access{0x10000000, 0, false});
    // The FSM fetches no instructions: the I-side never sees handler
    // traffic.
    EXPECT_EQ(f.mem.stats().instOf(AccessClass::HandlerFetch).accesses,
              0u);
    EXPECT_FALSE(f.mem.l1i().probe(kUserHandlerBase));
}

TEST(IntelVm, ExactlyTwoMemoryReferencesEveryWalk)
{
    // "on every TLB miss the hardware makes exactly two memory
    // references" — even when mappings were walked before.
    Fixture f;
    for (int i = 0; i < 200; ++i)
        dataRefOnce(f.vm, Access{0x10000000 + static_cast<std::uint64_t>(i) * 4096, 0, false});
    const VmStats &s = f.vm.vmStats();
    EXPECT_EQ(s.hwWalks, 200u);
    EXPECT_EQ(s.pteLoads, 400u);
    EXPECT_EQ(f.mem.stats().dataOf(AccessClass::PteRoot).accesses, 200u);
    EXPECT_EQ(f.mem.stats().dataOf(AccessClass::PteUser).accesses, 200u);
    EXPECT_EQ(s.hwWalkCycles, 1400u);
}

TEST(IntelVm, RootEntriesNotCachedInTlb)
{
    Fixture f;
    dataRefOnce(f.vm, Access{0x10000000, 0, false});
    // Nothing besides the user page enters the D-TLB: the root level
    // is accessed physically each time.
    EXPECT_EQ(f.vm.dtlb()->validEntries(), 1u);
    EXPECT_TRUE(f.vm.dtlb()->contains(0x10000000 >> 12));
}

TEST(IntelVm, PteLoadsAreCacheable)
{
    Fixture f;
    dataRefOnce(f.vm, Access{0x10000000, 0, false});
    Counter misses_before =
        f.mem.stats().dataOf(AccessClass::PteUser).l1Misses;
    // A neighbor page's PTE shares the same PTE-page line region:
    // likely a D-cache hit, and never an I-cache access.
    dataRefOnce(f.vm, Access{0x10001000, 0, false});
    Counter misses_after =
        f.mem.stats().dataOf(AccessClass::PteUser).l1Misses;
    EXPECT_EQ(misses_after, misses_before); // adjacent PTE, same line
}

TEST(IntelVm, TlbHitBypassesWalk)
{
    Fixture f;
    dataRefOnce(f.vm, Access{0x10000000, 0, false});
    dataRefOnce(f.vm, Access{0x10000040, 0, false});
    EXPECT_EQ(f.vm.vmStats().hwWalks, 1u);
}

TEST(IntelVm, ITlbMissAlsoHardwareWalked)
{
    Fixture f;
    instRefOnce(f.vm, Access{0x00400000});
    const VmStats &s = f.vm.vmStats();
    EXPECT_EQ(s.hwWalks, 1u);
    EXPECT_EQ(s.interrupts, 0u);
    EXPECT_TRUE(f.vm.itlb()->contains(0x00400000 >> 12));
}

TEST(IntelVm, AllTlbSlotsAvailableForUserPtes)
{
    // With no partition, 128 distinct pages all fit.
    Fixture f;
    for (int i = 0; i < 128; ++i)
        dataRefOnce(f.vm, Access{0x10000000 + static_cast<std::uint64_t>(i) * 4096, 0, false});
    EXPECT_EQ(f.vm.dtlb()->validEntries(), 128u);
    EXPECT_EQ(f.vm.vmStats().hwWalks, 128u);
    // All still resident: a second pass walks nothing.
    for (int i = 0; i < 128; ++i)
        dataRefOnce(f.vm, Access{0x10000000 + static_cast<std::uint64_t>(i) * 4096, 0, false});
    EXPECT_EQ(f.vm.vmStats().hwWalks, 128u);
}

TEST(IntelVm, CustomFsmCycles)
{
    MemSystem mem(CacheParams{32_KiB, 32}, CacheParams{1_MiB, 64});
    PhysMem pm(8_MiB, 12);
    HandlerCosts costs;
    costs.hwWalkCycles = 11;
    IntelVm vm(mem, pm, TlbParams{128, 0}, TlbParams{128, 0}, costs);
    dataRefOnce(vm, Access{0x10000000, 0, false});
    EXPECT_EQ(vm.vmStats().hwWalkCycles, 11u);
}

TEST(IntelVm, Name)
{
    Fixture f;
    EXPECT_EQ(f.vm.name(), "INTEL");
}

} // anonymous namespace
} // namespace vmsim
