/**
 * @file
 * TlbVm: the common per-core-TLB skeleton of the six TLB-based
 * organizations (ULTRIX, MACH, INTEL, PA-RISC, HW-MIPS, HW-INVERTED),
 * expressed as a CRTP base so the entire per-reference hot path —
 * TLB probe, miss bookkeeping, page-table walk, cache access — is one
 * monomorphized kernel per organization with zero virtual dispatch.
 *
 * Every one of those organizations runs the paper's same inner loop
 * (Section 3.1): probe the core's I- or D-TLB, on a miss run the
 * organization's refill mechanism (`Derived::walk`), then issue the
 * user cache access. Only `walk` differs. The base therefore owns the
 * CoreTlbs and the kernels; the derived class contributes its walk as
 * a plain non-virtual member that the kernel calls through
 * `static_cast<Derived *>(this)` — resolved at compile time, inlined
 * into the block loop.
 *
 * Each kernel instantiates twice (kObs true/false): the observed body
 * keeps every event-sink and latency-collector test, the bare body
 * compiles them out. refBlock() runs the shared refBlockKernel loop,
 * which tests the observers once per block and takes the block core's
 * TLB pair (its lane) once, before the first record; the per-core
 * stats lookup sits inside noteItlbMiss/noteDtlbMiss, on the miss
 * path only.
 */

#ifndef VMSIM_OS_TLB_VM_HH
#define VMSIM_OS_TLB_VM_HH

#include "os/vm_system.hh"

namespace vmsim
{

/**
 * CRTP skeleton of a TLB-per-core organization. @p Derived must
 * provide `void walk(Addr vaddr, CoreId core, Tlb &target)` (private
 * is fine with `friend class TlbVm<Derived>;`) implementing its
 * TLB-refill mechanism: interrupt + handler for the software-managed
 * designs, FSM cycles + PTE fetches for the hardware-walked ones.
 */
template <class Derived>
class TlbVm : public VmSystem
{
  public:
    /**
     * @param name organization name (paper's tag, e.g. "ULTRIX")
     * @param mem shared cache hierarchy
     * @param cores simulated cores (one I/D TLB pair each)
     * @param iparams / @p dparams first-level TLB geometry
     * @param iseed / @p dseed core-0 replacement RNG seeds
     * @param page_bits log2 page size, for the VPN split
     */
    TlbVm(std::string name, MemSystem &mem, unsigned cores,
          const TlbParams &iparams, const TlbParams &dparams,
          std::uint64_t iseed, std::uint64_t dseed, unsigned page_bits)
        : VmSystem(std::move(name), mem, cores),
          tlbs_(this->cores(), iparams, dparams, iseed, dseed),
          pageBits_(page_bits)
    {}

    /** The kernels' per-block lane: one core's I/D TLB pair. */
    struct Lane
    {
        Tlb &itlb;
        Tlb &dtlb;
    };

    Lane lane(CoreId core) { return {tlbs_.itlb(core), tlbs_.dtlb(core)}; }

    /**
     * Monomorphized instruction-fetch kernel: probe the lane's I-TLB,
     * refill via Derived::walk on a miss, then fetch through the I-side
     * caches of the memory sink @p mem.
     */
    template <bool kObs, class Mem>
    void
    instRefK(const Access &a, Lane lane, Mem &mem)
    {
        const Addr pc = a.addr;
        const Vpn v = pc >> pageBits_;
        if (!lane.itlb.template lookupT<kObs>(v)) {
            noteItlbMiss(pc, v, a.core);
            self().walk(pc, a.core, lane.itlb);
            endMissService();
        }
        userInstFetchT<kObs>(mem, pc);
    }

    /** The data-side twin of instRefK(). */
    template <bool kObs, class Mem>
    void
    dataRefK(const Access &a, Lane lane, Mem &mem)
    {
        const Addr addr = a.addr;
        const Vpn v = addr >> pageBits_;
        if (!lane.dtlb.template lookupT<kObs>(v)) {
            noteDtlbMiss(addr, v, a.core);
            self().walk(addr, a.core, lane.dtlb);
            endMissService();
        }
        userDataAccessT<kObs>(mem, addr, a.store);
        notePressureStore(addr, a.store);
    }

    void refBlock(const AccessBlock &blk) override { refBlockFor(*this, blk); }

    const Tlb *itlb(CoreId core) const override { return &tlbs_.itlb(core); }
    const Tlb *dtlb(CoreId core) const override { return &tlbs_.dtlb(core); }
    using VmSystem::contextSwitch;
    using VmSystem::dtlb;
    using VmSystem::itlb;

    void contextSwitch(CoreId core) override { switchTlbs(core, tlbs_); }

  protected:
    /**
     * Frame-budget eviction of @p v: drop its translation from every
     * core's I/D TLB pair (targeted invalidates, not random evictions
     * — the invalidated VPN is known exactly).
     */
    void
    invalidateTranslation(Vpn v) override
    {
        for (CoreId c = 0; c < cores(); ++c) {
            tlbs_.itlb(c).invalidate(v);
            tlbs_.dtlb(c).invalidate(v);
        }
    }

    CoreTlbs tlbs_;      ///< per-core first-level I/D TLB pairs
    unsigned pageBits_;  ///< log2 page size (VPN = addr >> pageBits_)

  private:
    Derived &self() { return static_cast<Derived &>(*this); }
};

} // namespace vmsim

#endif // VMSIM_OS_TLB_VM_HH
