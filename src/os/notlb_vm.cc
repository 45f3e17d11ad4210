#include "os/notlb_vm.hh"

namespace vmsim
{

NotlbVm::NotlbVm(MemSystem &mem, PhysMem &phys_mem,
                 const HandlerCosts &costs, unsigned page_bits)
    : VmSystem("NOTLB", mem), pt_(phys_mem, page_bits), costs_(costs)
{}

void
NotlbVm::missHandler(Addr vaddr)
{
    Vpn v = pt_.vpnOf(vaddr);

    // NOTLB is built single-instance even under a multicore schedule,
    // so every touch lands on slice 0.
    touchPage(v, 0);

    // Every L2 miss interrupts the processor: 10-instruction handler
    // performs the translation and fill.
    takeInterrupt();
    fetchHandler(EventLevel::User, kUserHandlerBase, costs_.userInstrs, v);

    MemLevel pte_lvl = pteFetch(pt_.uptEntryAddr(v), kHierPteSize,
                                AccessClass::PteUser, v);

    // If the PTE reference itself missed the L2 cache, the second
    // handler runs and resolves it via the wired root table.
    if (pte_lvl == MemLevel::Memory) {
        takeInterrupt();
        fetchHandler(EventLevel::Root, kRootHandlerBase,
                     costs_.rootInstrs, v);
        pteFetch(pt_.rptEntryAddr(v), kHierPteSize, AccessClass::PteRoot,
                 v);
    }
}

} // namespace vmsim
