/**
 * @file
 * BASE: baseline cache performance without any virtual memory system.
 *
 * The paper uses BASE to separate the memory system's intrinsic cost
 * from the VM system's cost: BASE executes the same reference stream
 * through the same caches with no TLB, no page table, and no handlers.
 * Comparing another system's MCPI against BASE's isolates the cache
 * misses *inflicted on the application* by the VM mechanism — the
 * pollution component behind the paper's "overhead is roughly twice
 * what was previously thought" result.
 */

#ifndef VMSIM_OS_BASE_VM_HH
#define VMSIM_OS_BASE_VM_HH

#include "os/vm_system.hh"

namespace vmsim
{

/** The BASE simulation: caches only, no VM mechanism at all. */
class BaseVm : public VmSystem
{
  public:
    explicit BaseVm(MemSystem &mem) : VmSystem("BASE", mem) {}

    void refBlock(const AccessBlock &blk) override { refBlockFor(*this, blk); }

    /** Monomorphized kernels: the whole reference is the cache probe. */
    template <bool kObs, class Mem>
    void
    instRefK(const Access &a, NoLane, Mem &mem)
    {
        userInstFetchT<kObs>(mem, a.addr);
    }

    template <bool kObs, class Mem>
    void
    dataRefK(const Access &a, NoLane, Mem &mem)
    {
        userDataAccessT<kObs>(mem, a.addr, a.store);
    }
};

} // namespace vmsim

#endif // VMSIM_OS_BASE_VM_HH
