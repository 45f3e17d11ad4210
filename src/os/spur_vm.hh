/**
 * @file
 * SPUR: no TLB and a hardware-walked page table — the third
 * interpolation the paper's Section 4.2 invites ("a system with no TLB
 * but a hardware-walked page table (as in SPUR)").
 *
 * Structure follows NOTLB — virtual caches, translation performed on
 * every L2 cache miss against the disjunct two-tiered table — but the
 * walk is done by a finite state machine: no interrupt, no handler
 * instruction fetches, 7 cycles of sequential work per walk plus 4
 * more when the PTE reference itself misses the L2 cache and the root
 * table must be consulted.
 */

#ifndef VMSIM_OS_SPUR_VM_HH
#define VMSIM_OS_SPUR_VM_HH

#include "mem/phys_mem.hh"
#include "os/vm_system.hh"
#include "pt/disjunct_page_table.hh"

namespace vmsim
{

/** Interpolated design: no TLB + hardware-walked disjunct table. */
class SpurVm : public VmSystem
{
  public:
    SpurVm(MemSystem &mem, PhysMem &phys_mem,
           const HandlerCosts &costs = HandlerCosts{},
           unsigned page_bits = 12);

    void refBlock(const AccessBlock &blk) override { refBlockFor(*this, blk); }

    /**
     * Monomorphized kernels for the batched loop: the FSM walk runs
     * only on an L2 miss, so the hot path is the bare cache probe.
     */
    template <bool kObs, class Mem>
    void
    instRefK(const Access &a, NoLane, Mem &mem)
    {
        if (userInstFetchT<kObs>(mem, a.addr) == MemLevel::Memory)
            hwMissWalk(a.addr);
    }

    template <bool kObs, class Mem>
    void
    dataRefK(const Access &a, NoLane, Mem &mem)
    {
        if (userDataAccessT<kObs>(mem, a.addr, a.store) == MemLevel::Memory)
            hwMissWalk(a.addr);
        notePressureStore(a.addr, a.store);
    }

    const DisjunctPageTable &pageTable() const { return pt_; }

    /** Extra FSM cycles for the nested root-level access. */
    static constexpr unsigned kNestedWalkCycles = 4;

  private:
    void hwMissWalk(Addr vaddr);

    DisjunctPageTable pt_;
    HandlerCosts costs_;
};

} // namespace vmsim

#endif // VMSIM_OS_SPUR_VM_HH
