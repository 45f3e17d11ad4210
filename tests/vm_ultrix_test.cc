/**
 * @file
 * Tests for UltrixVm: exact event accounting of the two-level
 * software-managed refill (paper Table 4: 10-instruction user handler
 * + 1 PTE load; 20-instruction root handler + 1 PTE load), nested
 * interrupt behavior, protected-slot usage, and TLB-hit fast paths.
 */

#include <gtest/gtest.h>

#include "base/logging.hh"
#include "base/units.hh"
#include "mem/mem_system.hh"
#include "mem/phys_mem.hh"
#include "os/ultrix_vm.hh"

namespace vmsim
{
namespace
{

struct Fixture
{
    Fixture()
        : mem(CacheParams{32_KiB, 32}, CacheParams{1_MiB, 64}),
          pm(8_MiB, 12),
          vm(mem, pm, TlbParams{128, 16, TlbRepl::Random},
             TlbParams{128, 16, TlbRepl::Random})
    {}

    MemSystem mem;
    PhysMem pm;
    UltrixVm vm;
};

TEST(UltrixVm, UnpartitionedTlbAblationWorks)
{
    // With zero protected slots (the protected-slot ablation), root
    // mappings land in the normal region and the system still runs.
    MemSystem mem(CacheParams{32_KiB, 32}, CacheParams{1_MiB, 64});
    PhysMem pm(8_MiB, 12);
    UltrixVm vm(mem, pm, TlbParams{128, 0}, TlbParams{128, 0});
    dataRefOnce(vm, Access{0x10000000, 0, false});
    EXPECT_EQ(vm.vmStats().rhandlerCalls, 1u);
    Vpn upte_page = vm.pageTable().uptPageVpn(0x10000000 >> 12);
    EXPECT_TRUE(vm.dtlb()->contains(upte_page));
}

TEST(UltrixVm, FirstDataMissRunsBothHandlers)
{
    Fixture f;
    dataRefOnce(f.vm, Access{0x10000000, 0, false});
    const VmStats &s = f.vm.vmStats();
    // Cold D-TLB: user handler, then nested root handler (the UPT page
    // itself is unmapped), then the UPTE load.
    EXPECT_EQ(s.uhandlerCalls, 1u);
    EXPECT_EQ(s.uhandlerInstrs, 10u);
    EXPECT_EQ(s.rhandlerCalls, 1u);
    EXPECT_EQ(s.rhandlerInstrs, 20u);
    EXPECT_EQ(s.khandlerCalls, 0u); // Ultrix has no kernel handler
    EXPECT_EQ(s.interrupts, 2u);    // nested interrupt counted
    EXPECT_EQ(s.pteLoads, 2u);
    // Attribution: one user-level and one root-level PTE load.
    EXPECT_EQ(f.mem.stats().dataOf(AccessClass::PteUser).accesses, 1u);
    EXPECT_EQ(f.mem.stats().dataOf(AccessClass::PteRoot).accesses, 1u);
    EXPECT_EQ(f.mem.stats().dataOf(AccessClass::PteKernel).accesses, 0u);
    // Handler code fetched through the I-side: 10 + 20 instructions.
    EXPECT_EQ(f.mem.stats().instOf(AccessClass::HandlerFetch).accesses,
              30u);
    // And the user reference itself went through.
    EXPECT_EQ(f.mem.stats().dataOf(AccessClass::User).accesses, 1u);
}

TEST(UltrixVm, SecondMissInSameUptPageSkipsRootHandler)
{
    Fixture f;
    dataRefOnce(f.vm, Access{0x10000000, 0, false});
    // A different user page whose UPTE lives in the same (now-mapped)
    // UPT page: only the user handler runs.
    dataRefOnce(f.vm, Access{0x10001000, 0, false});
    const VmStats &s = f.vm.vmStats();
    EXPECT_EQ(s.uhandlerCalls, 2u);
    EXPECT_EQ(s.rhandlerCalls, 1u);
    EXPECT_EQ(s.interrupts, 3u);
    EXPECT_EQ(s.pteLoads, 3u);
}

TEST(UltrixVm, TlbHitIsFree)
{
    Fixture f;
    dataRefOnce(f.vm, Access{0x10000000, 0, false});
    VmStats before = f.vm.vmStats();
    dataRefOnce(f.vm, Access{0x10000004, 0, false}); // same page: D-TLB hit
    const VmStats &after = f.vm.vmStats();
    EXPECT_EQ(after.uhandlerCalls, before.uhandlerCalls);
    EXPECT_EQ(after.interrupts, before.interrupts);
    EXPECT_EQ(after.pteLoads, before.pteLoads);
}

TEST(UltrixVm, InstMissFillsItlbNotDtlb)
{
    Fixture f;
    instRefOnce(f.vm, Access{0x00400000});
    EXPECT_TRUE(f.vm.itlb()->contains(0x00400000 >> 12));
    // Walking for an instruction does not install the user page in
    // the D-TLB (only the UPT page mapping lands there, protected).
    EXPECT_FALSE(f.vm.dtlb()->contains(0x00400000 >> 12));
    // The instruction fetch itself is a user I-side access.
    EXPECT_EQ(f.mem.stats().instOf(AccessClass::User).accesses, 1u);
}

TEST(UltrixVm, InstWalkChecksDtlbForPte)
{
    Fixture f;
    // Instruction walk loads its UPTE via the D-TLB: the UPT-page
    // mapping must now be resident there (in a protected slot).
    instRefOnce(f.vm, Access{0x00400000});
    Vpn upte_page = f.vm.pageTable().uptPageVpn(0x00400000 >> 12);
    EXPECT_TRUE(f.vm.dtlb()->contains(upte_page));
}

TEST(UltrixVm, ProtectedMappingSurvivesUserPressure)
{
    Fixture f;
    dataRefOnce(f.vm, Access{0x10000000, 0, false});
    Vpn upte_page = f.vm.pageTable().uptPageVpn(0x10000000 >> 12);
    ASSERT_TRUE(f.vm.dtlb()->contains(upte_page));
    // Flood the normal D-TLB slots with >112 distinct pages from the
    // same 4 MB region (so no further root handlers run).
    for (int i = 1; i < 300; ++i)
        dataRefOnce(f.vm, Access{0x10000000 + static_cast<std::uint64_t>(i) * 4096, 0, false});
    EXPECT_TRUE(f.vm.dtlb()->contains(upte_page))
        << "root-level mapping evicted from protected slots";
    EXPECT_EQ(f.vm.vmStats().rhandlerCalls, 1u);
}

TEST(UltrixVm, HandlerCodeTouchesICache)
{
    Fixture f;
    dataRefOnce(f.vm, Access{0x10000000, 0, false});
    // Handler fetches hit the I-cache hierarchy at the handler bases.
    EXPECT_GT(f.mem.stats().instOf(AccessClass::HandlerFetch).l1Misses,
              0u);
    EXPECT_TRUE(f.mem.l1i().probe(kUserHandlerBase));
    EXPECT_TRUE(f.mem.l1i().probe(kRootHandlerBase));
}

TEST(UltrixVm, SeparateItlbAndDtlb)
{
    Fixture f;
    dataRefOnce(f.vm, Access{0x10000000, 0, false});
    EXPECT_FALSE(f.vm.itlb()->contains(0x10000000 >> 12));
    instRefOnce(f.vm, Access{0x10000000}); // same page as code: I-TLB must miss
    EXPECT_EQ(f.vm.vmStats().uhandlerCalls, 2u);
}

TEST(UltrixVm, CustomHandlerLengths)
{
    MemSystem mem(CacheParams{32_KiB, 32}, CacheParams{1_MiB, 64});
    PhysMem pm(8_MiB, 12);
    HandlerCosts costs;
    costs.userInstrs = 12;
    costs.rootInstrs = 24;
    UltrixVm vm(mem, pm, TlbParams{128, 16}, TlbParams{128, 16}, costs);
    dataRefOnce(vm, Access{0x10000000, 0, false});
    EXPECT_EQ(vm.vmStats().uhandlerInstrs, 12u);
    EXPECT_EQ(vm.vmStats().rhandlerInstrs, 24u);
}

TEST(UltrixVm, ResetVmStatsKeepsWarmState)
{
    Fixture f;
    dataRefOnce(f.vm, Access{0x10000000, 0, false});
    f.vm.resetVmStats();
    EXPECT_EQ(f.vm.vmStats().interrupts, 0u);
    // Warm TLB: the next reference to the same page costs nothing.
    dataRefOnce(f.vm, Access{0x10000010, 0, false});
    EXPECT_EQ(f.vm.vmStats().uhandlerCalls, 0u);
}

TEST(UltrixVm, Name)
{
    Fixture f;
    EXPECT_EQ(f.vm.name(), "ULTRIX");
}

} // anonymous namespace
} // namespace vmsim
