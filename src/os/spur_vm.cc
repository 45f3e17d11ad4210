#include "os/spur_vm.hh"

namespace vmsim
{

SpurVm::SpurVm(MemSystem &mem, PhysMem &phys_mem,
               const HandlerCosts &costs, unsigned page_bits)
    : VmSystem("SPUR", mem), pt_(phys_mem, page_bits), costs_(costs)
{}

void
SpurVm::hwMissWalk(Addr vaddr)
{
    Vpn v = pt_.vpnOf(vaddr);

    // Single-instance organization: every touch lands on slice 0.
    touchPage(v, 0);

    beginHwWalk(v, costs_.hwWalkCycles);

    MemLevel pte_lvl = pteFetch(pt_.uptEntryAddr(v), kHierPteSize,
                                AccessClass::PteUser, v);

    if (pte_lvl == MemLevel::Memory) {
        noteExtraWalkCycles(kNestedWalkCycles);
        pteFetch(pt_.rptEntryAddr(v), kHierPteSize, AccessClass::PteRoot,
                 v);
    }

    // SPUR walks run outside any TLB-miss episode (there is no TLB),
    // so the walk closes itself.
    endHwWalk();
}

} // namespace vmsim
