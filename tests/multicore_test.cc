/**
 * @file
 * Tests for the multicore machine: the core-indexed Access API, the
 * quantum scheduler's scalar/batched bit-identity, shootdown counter
 * conservation, and the promise that --cores=1 is byte-identical to
 * the legacy single-core path everywhere (results, sweep CSV, spec
 * fingerprints).
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "check/invariants.hh"
#include "core/simulator.hh"
#include "core/sweep.hh"
#include "obs/event.hh"
#include "obs/interval.hh"

namespace vmsim
{
namespace
{

constexpr Counter kInstrs = 40'000;
constexpr Counter kWarmup = 10'000;

SimConfig
baseConfig(SystemKind kind = SystemKind::Ultrix)
{
    SimConfig cfg;
    cfg.kind = kind;
    cfg.l1 = CacheParams{8_KiB, 32};
    cfg.l2 = CacheParams{256_KiB, 64};
    cfg.ctxSwitchInterval = 5'000;
    return cfg;
}

std::string
violationsOf(const CheckReport &rep)
{
    std::ostringstream oss;
    for (const CheckViolation &v : rep.violations())
        oss << v.toString() << '\n';
    return oss.str();
}

/**
 * Fields that only matter at cores > 1 must be completely inert at
 * cores == 1: same Results, same config fingerprint text, and a
 * byte-identical sweep CSV against a spec that never heard of them.
 */
TEST(Multicore, SingleCoreIsByteIdenticalToLegacyPath)
{
    SweepSpec plain;
    plain.base(baseConfig())
        .systems({SystemKind::Ultrix, SystemKind::Intel,
                  SystemKind::Notlb})
        .workloads({"gcc"})
        .instructions(kInstrs)
        .warmup(kWarmup);

    SimConfig touched = baseConfig();
    touched.cores = 1;
    touched.coreQuantum = 123;   // inert: no scheduler at one core
    touched.sharedL2Tlb = false; // inert: one core, one L2 slot
    touched.shootdownIpiCycles = 9999;
    SweepSpec withKnobs = plain;
    withKnobs.base(touched);

    EXPECT_EQ(touched.toString(), baseConfig().toString());
    EXPECT_EQ(specFingerprint(withKnobs), specFingerprint(plain));

    SweepResults a = SweepRunner(1).run(plain);
    SweepResults b = SweepRunner(1).run(withKnobs);
    std::ostringstream csvA, csvB;
    a.writeCsv(csvA);
    b.writeCsv(csvB);
    EXPECT_EQ(csvA.str(), csvB.str());
    EXPECT_EQ(csvA.str().empty(), false);
}

/** Scalar and batched multicore loops execute the identical global
 *  instruction stream: every counter — per-core included — matches. */
TEST(Multicore, ScalarAndBatchedLoopsAreCounterIdentical)
{
    for (unsigned cores : {2u, 4u}) {
        SimConfig cfg = baseConfig();
        cfg.cores = cores;
        cfg.coreQuantum = 1'000;
        cfg.l2TlbEntries = 256;

        RunHooks scalar_hooks;
        scalar_hooks.batch = 1;
        Results scalar =
            runOnce(cfg, "gcc", kInstrs, kWarmup, scalar_hooks);

        for (std::size_t batch : {64ul, 4096ul}) {
            RunHooks hooks;
            hooks.batch = batch;
            Results batched =
                runOnce(cfg, "gcc", kInstrs, kWarmup, hooks);
            CheckReport rep = diffResults(scalar, batched, "scalar",
                                          "batched");
            EXPECT_TRUE(rep.ok())
                << "cores=" << cores << " batch=" << batch << "\n"
                << violationsOf(rep);
        }
    }
}

/** The shootdown cost model's books must balance exactly. */
TEST(Multicore, ShootdownCountersConserve)
{
    SimConfig cfg = baseConfig();
    cfg.cores = 4;
    cfg.coreQuantum = 1'000;

    CollectingSink sink;
    RunHooks hooks;
    hooks.sink = &sink;
    Results r = runOnce(cfg, "gcc", kInstrs, kWarmup, hooks);
    const VmStats &vm = r.vmStats();

    // 40K measured instructions / 5K interval = 8 context switches,
    // each an initiator flush + a broadcast to the 3 peers.
    EXPECT_EQ(vm.ctxSwitches, 8u);
    EXPECT_EQ(vm.shootdownsSent, vm.ctxSwitches);
    EXPECT_EQ(vm.shootdownsRecv, vm.shootdownsSent * 3);
    EXPECT_EQ(vm.shootdownCycles,
              vm.shootdownsRecv * (cfg.shootdownIpiCycles +
                                   cfg.shootdownHandlerCycles));
    EXPECT_EQ(sink.countOf(EventKind::Shootdown), vm.shootdownsRecv);
    EXPECT_GT(r.shootdownCpi(), 0.0);

    // Per-core books: each counter partitions the aggregate, and the
    // quantum scheduler accounts for every measured instruction.
    ASSERT_EQ(vm.perCore.size(), 4u);
    Counter instrs = 0, itlb = 0, dtlb = 0, ctx = 0, sent = 0, recv = 0;
    for (const CoreStats &cs : vm.perCore) {
        instrs += cs.instrs;
        itlb += cs.itlbMisses;
        dtlb += cs.dtlbMisses;
        ctx += cs.ctxSwitches;
        sent += cs.shootdownsSent;
        recv += cs.shootdownsRecv;
    }
    EXPECT_EQ(instrs, r.userInstrs());
    EXPECT_EQ(itlb, vm.itlbMisses);
    EXPECT_EQ(dtlb, vm.dtlbMisses);
    EXPECT_EQ(ctx, vm.ctxSwitches);
    EXPECT_EQ(sent, vm.shootdownsSent);
    EXPECT_EQ(recv, vm.shootdownsRecv);

    CheckReport audit = InvariantChecker(cfg).check(r);
    EXPECT_TRUE(audit.ok()) << violationsOf(audit);
}

/** Organizations without TLB state have nothing to shoot down: the
 *  factory builds them single-instance even under a multicore
 *  schedule, every instruction is still accounted (to slot 0), and
 *  the full invariant audit — including org.no-shootdowns — holds. */
TEST(Multicore, TlblessOrganizationsNeverShootDown)
{
    for (SystemKind kind :
         {SystemKind::Notlb, SystemKind::Base, SystemKind::Spur}) {
        SimConfig four = baseConfig(kind);
        four.cores = 4;
        four.coreQuantum = 1'000;

        Results r4 = runOnce(four, "gcc", kInstrs, kWarmup);
        EXPECT_EQ(r4.vmStats().shootdownsSent, 0u);
        EXPECT_EQ(r4.vmStats().shootdownsRecv, 0u);
        EXPECT_EQ(r4.vmStats().shootdownCycles, 0u);
        EXPECT_DOUBLE_EQ(r4.shootdownCpi(), 0.0);
        ASSERT_EQ(r4.vmStats().perCore.size(), 1u);
        EXPECT_EQ(r4.vmStats().perCore[0].instrs, r4.userInstrs());

        CheckReport audit = InvariantChecker(four).check(r4);
        EXPECT_TRUE(audit.ok())
            << kindName(kind) << "\n" << violationsOf(audit);
    }
}

/** A 4-core Results round-trips through the sweep journal format with
 *  its per-core array intact. */
TEST(Multicore, ResultsSerializeRoundTripsPerCoreStats)
{
    SimConfig cfg = baseConfig();
    cfg.cores = 4;
    cfg.coreQuantum = 1'000;
    Results r = runOnce(cfg, "gcc", kInstrs, kWarmup);
    ASSERT_EQ(r.vmStats().perCore.size(), 4u);

    Expected<Results> back =
        Results::deserialize(r.serialize(), cfg.costs);
    ASSERT_TRUE(back.ok());
    CheckReport rep =
        diffResults(r, back.value(), "original", "round-trip");
    EXPECT_TRUE(rep.ok()) << violationsOf(rep);
    EXPECT_DOUBLE_EQ(back.value().shootdownCpi(), r.shootdownCpi());
}

/** Multicore cells in a parallel sweep stay deterministic: the CSV is
 *  byte-identical between a serial and a 2-worker run. */
TEST(Multicore, ParallelSweepIsDeterministicAtFourCores)
{
    SimConfig base = baseConfig();
    base.cores = 4;
    base.coreQuantum = 2'000;
    SweepSpec spec;
    spec.base(base)
        .systems({SystemKind::Ultrix, SystemKind::Mach})
        .workloads({"gcc", "vortex"})
        .instructions(10'000)
        .warmup(2'000);

    SweepResults serial = SweepRunner(1).run(spec);
    SweepResults parallel = SweepRunner(2).run(spec);
    std::ostringstream a, b;
    serial.writeCsv(a);
    parallel.writeCsv(b);
    EXPECT_EQ(a.str(), b.str());
}

/** A one-record block through the sole reference entry point: one
 *  user fetch, one user data access, and the core-0 contextSwitch()
 *  shorthand still counts its switch. */
TEST(Multicore, OneRecordBlockAndCoreZeroSwitch)
{
    System sys(baseConfig());
    VmSystem &vm = sys.vm();
    TraceRecord rec;
    rec.pc = 0x1000;
    rec.daddr = 0x2000;
    rec.op = MemOp::Store;
    vm.refBlock(AccessBlock{&rec, 1, 0, 0});
    vm.contextSwitch();
    EXPECT_EQ(vm.vmStats().ctxSwitches, 1u);
    EXPECT_EQ(vm.mem().stats().instOf(AccessClass::User).accesses, 1u);
    EXPECT_EQ(vm.mem().stats().dataOf(AccessClass::User).accesses, 1u);
}

} // anonymous namespace
} // namespace vmsim
