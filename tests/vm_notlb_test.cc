/**
 * @file
 * Tests for NotlbVm: software-managed caches with no TLB — handlers
 * trigger on L2 misses (not TLB misses), nested handling when the PTE
 * reference itself misses the L2, and the absence of any TLB.
 */

#include <gtest/gtest.h>

#include "base/logging.hh"
#include "base/units.hh"
#include "mem/mem_system.hh"
#include "mem/phys_mem.hh"
#include "os/notlb_vm.hh"

namespace vmsim
{
namespace
{

struct Fixture
{
    Fixture()
        : mem(CacheParams{32_KiB, 32}, CacheParams{1_MiB, 64}),
          pm(8_MiB, 12), vm(mem, pm)
    {}

    MemSystem mem;
    PhysMem pm;
    NotlbVm vm;
};

TEST(NotlbVm, HasNoTlb)
{
    Fixture f;
    EXPECT_EQ(f.vm.itlb(), nullptr);
    EXPECT_EQ(f.vm.dtlb(), nullptr);
}

TEST(NotlbVm, ColdL2MissRunsHandler)
{
    Fixture f;
    dataRefOnce(f.vm, Access{0x10000000, 0, false});
    const VmStats &s = f.vm.vmStats();
    EXPECT_EQ(s.uhandlerCalls, 1u);
    EXPECT_EQ(s.uhandlerInstrs, 10u);
    EXPECT_EQ(s.interrupts, 2u); // PTE ref also missed L2 (cold)
    EXPECT_EQ(s.rhandlerCalls, 1u);
    EXPECT_EQ(s.rhandlerInstrs, 20u);
    EXPECT_EQ(s.pteLoads, 2u);
}

TEST(NotlbVm, CacheHitCostsNothing)
{
    Fixture f;
    dataRefOnce(f.vm, Access{0x10000000, 0, false});
    VmStats before = f.vm.vmStats();
    dataRefOnce(f.vm, Access{0x10000000, 0, false}); // L1 hit now
    EXPECT_EQ(f.vm.vmStats().interrupts, before.interrupts);
}

TEST(NotlbVm, L2HitAfterL1EvictionCostsNothing)
{
    Fixture f;
    dataRefOnce(f.vm, Access{0x10000000, 0, false});
    // Conflict away the L1 line (32 KB direct-mapped L1), keeping L2.
    dataRefOnce(f.vm, Access{0x10008000, 0, false});
    VmStats before = f.vm.vmStats();
    // L1 miss, L2 hit: no handler — the trigger is the L2 miss only.
    dataRefOnce(f.vm, Access{0x10000000, 0, false});
    EXPECT_EQ(f.vm.vmStats().uhandlerCalls, before.uhandlerCalls);
}

TEST(NotlbVm, NestedHandlerOnlyWhenPteMissesL2)
{
    Fixture f;
    dataRefOnce(f.vm, Access{0x10000000, 0, false}); // cold: nested
    // Another page in the same 4 MB segment: its PTE shares the same
    // page-group line region (adjacent 4-byte PTEs) so the PTE ref
    // hits the now-warm cache.
    dataRefOnce(f.vm, Access{0x10001000, 0, false});
    const VmStats &s = f.vm.vmStats();
    EXPECT_EQ(s.uhandlerCalls, 2u);
    EXPECT_EQ(s.rhandlerCalls, 1u);
}

TEST(NotlbVm, InstructionMissesAlsoHandled)
{
    Fixture f;
    instRefOnce(f.vm, Access{0x00400000});
    EXPECT_EQ(f.vm.vmStats().uhandlerCalls, 1u);
    // The next sequential fetch hits the freshly filled I-line.
    instRefOnce(f.vm, Access{0x00400004});
    EXPECT_EQ(f.vm.vmStats().uhandlerCalls, 1u);
}

TEST(NotlbVm, HandlerCodeCannotRecurse)
{
    // Handler instruction fetches are in unmapped space: even though
    // they miss the L2 I-cache cold, they must not invoke handlers.
    Fixture f;
    dataRefOnce(f.vm, Access{0x10000000, 0, false});
    // Exactly the events of one (nested) miss — nothing more.
    EXPECT_EQ(f.vm.vmStats().uhandlerCalls, 1u);
    EXPECT_EQ(f.vm.vmStats().rhandlerCalls, 1u);
    EXPECT_GT(f.mem.stats().instOf(AccessClass::HandlerFetch).l2Misses,
              0u);
}

TEST(NotlbVm, PteTrafficUsesDisjunctTable)
{
    Fixture f;
    dataRefOnce(f.vm, Access{0x10000000, 0, false});
    Addr upte = f.vm.pageTable().uptEntryAddr(0x10000000 >> 12);
    EXPECT_TRUE(f.mem.l1d().probe(upte));
}

TEST(NotlbVm, SensitiveToCacheSize)
{
    // The paper: NOTLB is much more sensitive to cache organization.
    // A tiny L2 must produce many more handler runs than a large one
    // for a working set between the two sizes.
    PhysMem pm_small(8_MiB, 12), pm_big(8_MiB, 12);
    MemSystem small(CacheParams{8_KiB, 32}, CacheParams{64_KiB, 64});
    MemSystem big(CacheParams{8_KiB, 32}, CacheParams{2_MiB, 64});
    NotlbVm vm_small(small, pm_small);
    NotlbVm vm_big(big, pm_big);
    // Cyclic sweep over 256 KB: fits the 2 MB L2, thrashes the 64 KB.
    for (int lap = 0; lap < 4; ++lap)
        for (Addr a = 0; a < 256_KiB; a += 64) {
            dataRefOnce(vm_small, Access{0x10000000 + a, 0, false});
            dataRefOnce(vm_big, Access{0x10000000 + a, 0, false});
        }
    EXPECT_GT(vm_small.vmStats().uhandlerCalls,
              3 * vm_big.vmStats().uhandlerCalls);
}

TEST(NotlbVm, Name)
{
    Fixture f;
    EXPECT_EQ(f.vm.name(), "NOTLB");
}

} // anonymous namespace
} // namespace vmsim
