/**
 * @file
 * Tests for the hot-path data layouts (DESIGN.md "Hot-path data
 * layout"): static size/alignment guarantees of the structures the
 * replay kernels stream over, the FlatMap64 open-addressed table
 * (differential against std::unordered_map, backward-shift erase in a
 * wrapped cluster, bounded capacity under churn), the TLB's flat
 * key->slot index under ASID-tagged churn (including the dual-key
 * invalidate regression Tlb::invalidate documents), and scalar-vs-
 * batched equivalence for all nine organizations at cores=4 with
 * mid-batch context switches and shootdowns.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "base/aligned.hh"
#include "base/flat_hash.hh"
#include "base/intmath.hh"
#include "base/random.hh"
#include "core/simulator.hh"
#include "os/base_vm.hh"
#include "os/hw_inverted_vm.hh"
#include "os/hw_mips_vm.hh"
#include "os/intel_vm.hh"
#include "os/mach_vm.hh"
#include "os/notlb_vm.hh"
#include "os/parisc_vm.hh"
#include "os/spur_vm.hh"
#include "os/ultrix_vm.hh"
#include "obs/event.hh"
#include "obs/interval.hh"
#include "os/vm_system.hh"
#include "trace/synthetic/workloads.hh"
#include "tlb/tlb.hh"
#include "trace/trace.hh"

namespace vmsim
{
namespace
{

// --------------------------------------------- static layout contracts

// The batched kernels copy TraceRecords by the block and re-stage them
// as Access values; both must stay trivially copyable and packed so a
// batch is a flat memcpy-able array, not a pointer graph.
static_assert(std::is_trivially_copyable_v<TraceRecord>);
static_assert(sizeof(TraceRecord) == 12, "TraceRecord grew: the "
              "recorded-trace format and batch buffers stream this");
static_assert(std::is_trivially_copyable_v<Access>);
static_assert(sizeof(Access) == 16, "Access is re-staged per record in "
              "the kernels; keep it two words");
static_assert(std::is_trivially_copyable_v<AccessBlock>);
static_assert(sizeof(AccessBlock) <= 24);

// The SoA TLB arrays and FlatMap64 slot arrays are probed linearly;
// their element types must stay word-sized scalars.
static_assert(sizeof(Vpn) == 8);
static_assert(kCacheLineBytes == 64);
static_assert(std::is_trivially_copyable_v<TlbParams>);

TEST(Layout, AlignedVecStartsOnACacheLine)
{
    AlignedVec<std::uint64_t> keys(128);
    AlignedVec<std::uint8_t> valid(128);
    AlignedVec<std::uint64_t> stamps(128);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(keys.data()) %
                  kCacheLineBytes, 0u);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(valid.data()) %
                  kCacheLineBytes, 0u);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(stamps.data()) %
                  kCacheLineBytes, 0u);
    // Still a real vector: growth preserves the alignment contract.
    keys.push_back(1);
    keys.resize(4096);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(keys.data()) %
                  kCacheLineBytes, 0u);
}

// ------------------------------------------------- FlatMap64 edge cases

TEST(FlatMap64, ZeroIsAValidKey)
{
    FlatMap64<unsigned> m;
    m.insertNew(0, 42u);
    ASSERT_NE(m.find(0), nullptr);
    EXPECT_EQ(*m.find(0), 42u);
    EXPECT_EQ(m.size(), 1u);
    EXPECT_TRUE(m.erase(0));
    EXPECT_EQ(m.find(0), nullptr);
    EXPECT_FALSE(m.erase(0));
    EXPECT_TRUE(m.empty());
}

// Home bucket of `key` in a FlatMap64 of `capacity` buckets: the map's
// Fibonacci hash, mirrored here so the tests below can build clusters
// at chosen buckets. The wrapped-cluster test checks the resulting
// layout through forEach order, so a change of hash fails it loudly
// instead of silently dropping its coverage.
std::size_t
flatHome(std::uint64_t key, std::size_t capacity)
{
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >>
                                    (64 - floorLog2(capacity)));
}

TEST(FlatMap64, MatchesUnorderedMapUnderRandomOps)
{
    // Differential against std::unordered_map: 16 rounds of 16K random
    // insertNew/erase/find ops, each on a fresh map over its own
    // universe of 8 to 40 random keys, with an occasional clear(). The
    // small rounds stay in 16 buckets, where many keys share a home
    // bucket and clusters wrap past the last bucket; the large ones
    // grow the table while entries are live. Key 0 and keys >= 2^48
    // (the TLB's ASID-tagged composites) are in every universe.
    Random rng(20240607);
    for (unsigned round = 0; round < 16; ++round) {
        const std::size_t keys = 8 + (round % 8) * 32 / 7;
        std::vector<std::uint64_t> universe = {0};
        while (universe.size() < keys) {
            std::uint64_t k = rng.uniform(1u << 20);
            if (universe.size() % 2)
                k |= (1 + rng.uniform(15)) << 48;
            if (std::find(universe.begin(), universe.end(), k) ==
                universe.end())
                universe.push_back(k);
        }
        FlatMap64<std::uint64_t> m;
        std::unordered_map<std::uint64_t, std::uint64_t> ref;
        auto sameContents = [&] {
            std::size_t seen = 0;
            m.forEach([&](std::uint64_t k, std::uint64_t v) {
                auto it = ref.find(k);
                ASSERT_NE(it, ref.end()) << "stray key " << k;
                EXPECT_EQ(v, it->second) << "key " << k;
                ++seen;
            });
            EXPECT_EQ(seen, ref.size());
        };
        for (unsigned op = 0; op < 16'384; ++op) {
            std::uint64_t k = universe[rng.uniform(keys)];
            std::uint64_t r = rng.uniform(10'000);
            if (r == 0) {
                std::size_t cap = m.capacity();
                m.clear();
                ref.clear();
                EXPECT_EQ(m.capacity(), cap);
                for (std::uint64_t q : universe)
                    ASSERT_EQ(m.find(q), nullptr) << "key " << q
                                                  << " after clear";
            } else if (r < 5'500) {
                if (ref.count(k) == 0) {
                    m.insertNew(k, op);
                    ref[k] = op;
                }
            } else if (r < 8'500) {
                ASSERT_EQ(m.erase(k), ref.erase(k) == 1) << "key " << k;
            }
            const std::uint64_t *p = m.find(k);
            auto it = ref.find(k);
            if (it == ref.end()) {
                ASSERT_EQ(p, nullptr) << "key " << k << " op " << op;
            } else {
                ASSERT_NE(p, nullptr) << "key " << k << " op " << op;
                ASSERT_EQ(*p, it->second);
            }
            ASSERT_EQ(m.size(), ref.size());
            if (op % 256 == 0) {
                sameContents();
                if (HasFatalFailure())
                    return;
            }
        }
        sameContents();
        // 8 keys never grow the table; 40 keys reach 128 buckets.
        if (keys == 8) {
            EXPECT_EQ(m.capacity(), 16u);
        } else if (keys == 40) {
            EXPECT_EQ(m.capacity(), 128u);
        }
    }
}

TEST(FlatMap64, EraseAnywhereInAWrappedCluster)
{
    // One cluster that runs past the end of a 16-bucket table: one key
    // homed at bucket 14, four at bucket 15, two at bucket 0 (key 0
    // among them) and one sitting in its home bucket 2 mid-cluster fill
    // buckets 14, 15, 0..5. Erasing any member, head, middle or tail,
    // must leave every other member findable: backward shift may only
    // move an entry to a bucket on its own probe path, that path wraps,
    // and an entry that must stay put does not end the shift.
    constexpr std::size_t kCap = 16;
    std::vector<std::uint64_t> at14, at15, at0 = {0}, at2;
    for (std::uint64_t i = 1; at14.empty() || at15.size() < 4 ||
                              at0.size() < 2 || at2.empty(); ++i) {
        std::uint64_t k = (i % 2) ? i : ((i << 48) | i);
        std::size_t h = flatHome(k, kCap);
        if (h == 14 && at14.empty())
            at14.push_back(k);
        else if (h == 15 && at15.size() < 4)
            at15.push_back(k);
        else if (h == 0 && at0.size() < 2)
            at0.push_back(k);
        else if (h == 2 && at2.empty())
            at2.push_back(k);
    }
    ASSERT_EQ(flatHome(0, kCap), 0u);
    // Insertion order interleaves the homes so displaced entries of
    // different homes alternate along the cluster.
    const std::vector<std::uint64_t> cluster = {
        at14[0], at15[0], at15[1], at0[0], at2[0], at15[2], at0[1],
        at15[3]};
    for (std::size_t victim = 0; victim < cluster.size(); ++victim) {
        FlatMap64<unsigned> m(4);
        ASSERT_EQ(m.capacity(), kCap);
        for (std::size_t i = 0; i < cluster.size(); ++i)
            m.insertNew(cluster[i], static_cast<unsigned>(i));
        // The layout really wraps: forEach walks buckets in order, so
        // the cluster's wrapped part (buckets 0..5) comes first and
        // bucket 15 comes last.
        std::vector<std::uint64_t> order;
        m.forEach([&](std::uint64_t k, unsigned) { order.push_back(k); });
        ASSERT_EQ(order.size(), cluster.size());
        ASSERT_EQ(order.front(), cluster[2]);
        ASSERT_EQ(order.back(), cluster[1]);

        ASSERT_TRUE(m.erase(cluster[victim])) << "victim " << victim;
        EXPECT_FALSE(m.erase(cluster[victim]));
        EXPECT_EQ(m.find(cluster[victim]), nullptr);
        EXPECT_EQ(m.size(), cluster.size() - 1);
        for (std::size_t i = 0; i < cluster.size(); ++i) {
            if (i == victim)
                continue;
            const unsigned *p = m.find(cluster[i]);
            ASSERT_NE(p, nullptr) << "key " << i << " lost erasing "
                                  << victim;
            EXPECT_EQ(*p, static_cast<unsigned>(i));
        }
        // Re-inserting the victim lands it back inside the cluster.
        m.insertNew(cluster[victim], 99u);
        ASSERT_NE(m.find(cluster[victim]), nullptr);
        EXPECT_EQ(*m.find(cluster[victim]), 99u);
        EXPECT_EQ(m.size(), cluster.size());
    }
}

TEST(FlatMap64, RandomReplacementChurnNeverGrows)
{
    // The TLB's steady state: a full 128-key index where every miss
    // erases a random resident key and inserts a fresh one. Erase
    // leaves nothing behind, so the table never grows or rehashes and
    // every resident key stays reachable.
    constexpr std::size_t kLive = 128;
    FlatMap64<unsigned> m;
    m.reserve(kLive);
    const std::size_t cap = m.capacity();
    std::vector<std::uint64_t> live;
    Random rng(99);
    for (unsigned i = 0; i < kLive; ++i) {
        live.push_back(rng.uniform(1u << 20) | (std::uint64_t{i} << 48));
        m.insertNew(live.back(), i);
    }
    std::uint64_t next = std::uint64_t{1} << 32;
    for (unsigned op = 0; op < 100'000; ++op) {
        unsigned slot = static_cast<unsigned>(rng.uniform(kLive));
        ASSERT_TRUE(m.erase(live[slot]));
        ASSERT_EQ(m.find(live[slot]), nullptr);
        live[slot] = next++ | (rng.uniform(16) << 48);
        m.insertNew(live[slot], slot);
        ASSERT_EQ(m.capacity(), cap) << "grew at op " << op;
        ASSERT_EQ(m.size(), kLive);
        if (op % 97 == 0) {
            for (unsigned s = 0; s < kLive; ++s) {
                const unsigned *p = m.find(live[s]);
                ASSERT_NE(p, nullptr) << "op " << op << " slot " << s;
                ASSERT_EQ(*p, s);
            }
        }
    }
}

// -------------------------------------------------- TLB flat-index audit

TlbParams
taggedFaParams()
{
    TlbParams p;
    p.entries = 32;
    p.protectedSlots = 8;
    p.asidBits = 4;
    return p;
}

/**
 * Regression for the dual-key invalidate interaction the comment in
 * Tlb::invalidate pins down: a VPN resident both as an ASID-tagged
 * normal entry and as a global protected entry must lose *both* on
 * invalidate(), and the flat index must stay consistent even though
 * the first erase tombstones a slot that may sit on the second key's
 * probe chain. Before the tombstone accounting fix, auditIndex()
 * caught a stale index entry here.
 */
TEST(TlbFlatIndex, InvalidateDropsAsidAndGlobalEntryTogether)
{
    Tlb tlb(taggedFaParams(), 42);
    tlb.setCurrentAsid(3);
    constexpr Vpn kVpn = 0x1234;
    tlb.insert(kVpn);                 // normal entry, key (3, vpn)
    tlb.insertProtected(kVpn);        // global entry, key (G, vpn)
    EXPECT_EQ(tlb.validEntries(), 2u);
    std::string why;
    ASSERT_TRUE(tlb.auditIndex(&why)) << why;

    tlb.invalidate(kVpn);
    EXPECT_FALSE(tlb.contains(kVpn));
    EXPECT_EQ(tlb.validEntries(), 0u);
    ASSERT_TRUE(tlb.auditIndex(&why)) << why;

    // The global entry alone must also hit (and be dropped) under a
    // different ASID.
    tlb.insertProtected(kVpn);
    tlb.setCurrentAsid(9);
    EXPECT_TRUE(tlb.contains(kVpn));
    tlb.invalidate(kVpn);
    EXPECT_FALSE(tlb.contains(kVpn));
    ASSERT_TRUE(tlb.auditIndex(&why)) << why;
}

TEST(TlbFlatIndex, ConsistentUnderTaggedChurn)
{
    // Deterministic churn over every mutation path — insert,
    // insertProtected, invalidate, invalidateAsid, evictRandom, ASID
    // switches, invalidateAll — auditing the index as we go. A small
    // TLB plus a small VPN universe forces evictions, refreshes and
    // tombstone reuse in the flat index.
    Tlb tlb(taggedFaParams(), 7);
    Random rng(1234);
    std::string why;
    for (unsigned op = 0; op < 4000; ++op) {
        Vpn v = rng.uniform(48);
        switch (rng.uniform(16)) {
          case 0:
            tlb.setCurrentAsid(static_cast<Asid>(rng.uniform(6)));
            break;
          case 1:
            tlb.insertProtected(v);
            break;
          case 2:
            tlb.invalidate(v);
            break;
          case 3:
            tlb.invalidateAsid(static_cast<Asid>(rng.uniform(6)));
            break;
          case 4:
            tlb.evictRandom(1 + static_cast<unsigned>(rng.uniform(4)));
            break;
          case 5:
            if (op % 1024 == 5)
                tlb.invalidateAll();
            break;
          default:
            if (!tlb.lookup(v))
                tlb.insert(v);
            break;
        }
        if (op % 64 == 0) {
            ASSERT_TRUE(tlb.auditIndex(&why)) << "op " << op << ": "
                                              << why;
        }
    }
    ASSERT_TRUE(tlb.auditIndex(&why)) << why;
    EXPECT_GT(tlb.hits(), 0u);
    EXPECT_GT(tlb.misses(), 0u);
}

TEST(TlbFlatIndex, UntaggedSmallTlbChurn)
{
    // The fuzz campaign draws tlbEntries in {32, 64}; mirror the
    // smallest here with the paper's untagged random-replacement
    // configuration to pressure fill/evict index turnover.
    TlbParams p;
    p.entries = 32;
    p.protectedSlots = 16;
    Tlb tlb(p, 99);
    Random rng(5678);
    std::string why;
    for (unsigned op = 0; op < 4000; ++op) {
        Vpn v = rng.uniform(200);
        if (!tlb.lookup(v))
            tlb.insert(v);
        if (rng.chance(0.05))
            tlb.invalidate(rng.uniform(200));
        if (op % 128 == 0) {
            ASSERT_TRUE(tlb.auditIndex(&why)) << "op " << op << ": "
                                              << why;
        }
    }
    ASSERT_TRUE(tlb.auditIndex(&why)) << why;
}

// ----------------------- scalar vs batched kernels, multicore + observed

SimConfig
layoutTestConfig(SystemKind kind)
{
    SimConfig cfg;
    cfg.kind = kind;
    cfg.l1 = CacheParams{16_KiB, 32};
    cfg.l2 = CacheParams{1_MiB, 64};
    cfg.seed = 4242;
    cfg.cores = 4;
    // Prime quantum so context switches (and the shootdowns they
    // broadcast) land mid-batch for any power-of-two batch size.
    cfg.ctxSwitchInterval = 997;
    cfg.coreQuantum = 613;
    return cfg;
}

/**
 * The block kernel (refBlockKernel) must be observationally identical
 * at one-record blocks and at full batches for every organization — at
 * cores=4, with context switches and shootdowns landing mid-batch, in
 * both the observed (kObs=true) and bare (kObs=false) instantiations.
 */
TEST(LayoutKernels, ScalarVsBatchedAllSystemsMulticore)
{
    for (SystemKind kind :
         {SystemKind::Ultrix, SystemKind::Mach, SystemKind::Intel,
          SystemKind::Parisc, SystemKind::Notlb, SystemKind::Base,
          SystemKind::HwInverted, SystemKind::HwMips,
          SystemKind::Spur}) {
        std::string baseline;
        for (std::size_t batch : {std::size_t{1}, std::size_t{256}}) {
            RunHooks hooks;
            hooks.batch = batch;
            Results r = runOnce(layoutTestConfig(kind), "gcc", 12000,
                                2000, hooks);
            std::string dump = r.serialize().dump();
            if (baseline.empty())
                baseline = dump;
            else
                EXPECT_EQ(baseline, dump)
                    << kindName(kind) << " batch " << batch;
        }
    }
}

TEST(LayoutKernels, ObservedMatchesBareKernelCounters)
{
    // Attaching an event sink flips refBlock from the kObs=false to
    // the kObs=true kernel; the counter vector must not move.
    for (SystemKind kind :
         {SystemKind::Ultrix, SystemKind::Parisc, SystemKind::Spur}) {
        RunHooks bare;
        bare.batch = 256;
        Results rb = runOnce(layoutTestConfig(kind), "gcc", 12000,
                             2000, bare);

        CollectingSink sink;
        IntervalSampler sampler(1000);
        RunHooks observed;
        observed.batch = 256;
        observed.sink = &sink;
        observed.sampler = &sampler;
        Results ro = runOnce(layoutTestConfig(kind), "gcc", 12000,
                             2000, observed);

        EXPECT_EQ(rb.serialize().dump(), ro.serialize().dump())
            << kindName(kind);
    }
}

/** Call @p fn with @p vm cast to @p kind's organization type. */
template <class F>
void
withOrganization(SystemKind kind, VmSystem &vm, F &&fn)
{
    switch (kind) {
      case SystemKind::Ultrix: return fn(dynamic_cast<UltrixVm &>(vm));
      case SystemKind::Mach: return fn(dynamic_cast<MachVm &>(vm));
      case SystemKind::Intel: return fn(dynamic_cast<IntelVm &>(vm));
      case SystemKind::Parisc: return fn(dynamic_cast<PariscVm &>(vm));
      case SystemKind::Notlb: return fn(dynamic_cast<NotlbVm &>(vm));
      case SystemKind::Base: return fn(dynamic_cast<BaseVm &>(vm));
      case SystemKind::HwInverted:
        return fn(dynamic_cast<HwInvertedVm &>(vm));
      case SystemKind::HwMips: return fn(dynamic_cast<HwMipsVm &>(vm));
      case SystemKind::Spur: return fn(dynamic_cast<SpurVm &>(vm));
    }
    FAIL() << "unknown SystemKind";
}

/**
 * refBlock() and the single-reference helpers run the same kernels:
 * a synthetic stream driven as blocks (bare kernels) and record by
 * record through instRefOnce()/dataRefOnce() (observed kernels) must
 * leave identical VM, per-core and cache counters — at one core and
 * at four, with blocks rotating over the cores and address-space
 * switches (and, at four cores, their shootdowns) between blocks.
 */
TEST(LayoutKernels, BlocksMatchSingleReferenceHelpers)
{
    constexpr std::size_t kRecords = 6000;
    constexpr std::size_t kBlock = 97;
    std::vector<TraceRecord> recs(kRecords);
    ASSERT_EQ(makeWorkload("gcc", 7)->nextBatch(recs.data(), kRecords),
              kRecords);
    for (SystemKind kind :
         {SystemKind::Ultrix, SystemKind::Mach, SystemKind::Intel,
          SystemKind::Parisc, SystemKind::Notlb, SystemKind::Base,
          SystemKind::HwInverted, SystemKind::HwMips,
          SystemKind::Spur}) {
        for (unsigned cores : {1u, 4u}) {
            SimConfig cfg = layoutTestConfig(kind);
            cfg.cores = cores;
            System blocks(cfg);
            System single(cfg);
            for (std::size_t off = 0, b = 0; off < kRecords;
                 off += kBlock, ++b) {
                const CoreId core = static_cast<CoreId>(b % cores);
                const std::size_t end = std::min(off + kBlock, kRecords);
                blocks.vm().refBlock(AccessBlock{
                    &recs[off], static_cast<std::uint32_t>(end - off),
                    core, off});
                withOrganization(kind, single.vm(), [&](auto &vm) {
                    for (std::size_t i = off; i < end; ++i) {
                        const TraceRecord &r = recs[i];
                        instRefOnce(vm, Access{r.pc, core, false});
                        if (r.isMemOp())
                            dataRefOnce(vm, Access{r.daddr, core,
                                                   r.isStore()});
                    }
                });
                if (b % 5 == 4) {
                    blocks.vm().contextSwitch(core);
                    single.vm().contextSwitch(core);
                }
            }
            const std::string at = std::string(kindName(kind)) +
                                   " cores=" + std::to_string(cores);
            EXPECT_EQ(blocks.mem().stats().instOf(AccessClass::User)
                          .accesses,
                      kRecords) << at;
            if (cores > 1 && blocks.vm().itlb()) {
                EXPECT_GT(blocks.vm().vmStats().shootdownsSent, 0u) << at;
            }
            EXPECT_TRUE(blocks.vm().vmStats().perCore ==
                        single.vm().vmStats().perCore) << at;
            EXPECT_TRUE(blocks.vm().vmStats() == single.vm().vmStats())
                << at;
            EXPECT_TRUE(blocks.mem().stats() == single.mem().stats())
                << at;
        }
    }
}

} // anonymous namespace
} // namespace vmsim
