/**
 * @file
 * NOTLB: software-managed caches with no TLB, as in VMP / softvm
 * (paper Figure 5).
 *
 * The processor runs on virtual caches and takes an interrupt on every
 * L2 cache miss; the operating system performs the page-table lookup
 * and cache fill in software. The page table is the two-tiered
 * "disjunct" table, with walk costs identical to ULTRIX (10-instruction
 * user handler, 20-instruction root handler invoked when the PTE
 * reference itself misses the L2 cache) — so any measured difference
 * from ULTRIX is due purely to the absence of a TLB.
 */

#ifndef VMSIM_OS_NOTLB_VM_HH
#define VMSIM_OS_NOTLB_VM_HH

#include "mem/phys_mem.hh"
#include "os/vm_system.hh"
#include "pt/disjunct_page_table.hh"

namespace vmsim
{

/** The NOTLB simulation: no TLB; SW cache-miss handlers on L2 misses. */
class NotlbVm : public VmSystem
{
  public:
    NotlbVm(MemSystem &mem, PhysMem &phys_mem,
            const HandlerCosts &costs = HandlerCosts{},
            unsigned page_bits = 12);

    void refBlock(const AccessBlock &blk) override { refBlockFor(*this, blk); }

    /**
     * Monomorphized kernels for the batched loop: the handler runs
     * only on an L2 miss, so the hot path is the bare cache probe.
     */
    template <bool kObs, class Mem>
    void
    instRefK(const Access &a, NoLane, Mem &mem)
    {
        if (userInstFetchT<kObs>(mem, a.addr) == MemLevel::Memory)
            missHandler(a.addr);
    }

    template <bool kObs, class Mem>
    void
    dataRefK(const Access &a, NoLane, Mem &mem)
    {
        if (userDataAccessT<kObs>(mem, a.addr, a.store) == MemLevel::Memory)
            missHandler(a.addr);
        notePressureStore(a.addr, a.store);
    }

    const DisjunctPageTable &pageTable() const { return pt_; }

  private:
    /** The cache-miss handler: runs on every user-reference L2 miss. */
    void missHandler(Addr vaddr);

    DisjunctPageTable pt_;
    HandlerCosts costs_;
};

} // namespace vmsim

#endif // VMSIM_OS_NOTLB_VM_HH
