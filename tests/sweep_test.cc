/**
 * @file
 * Tests for the declarative sweep engine: SweepSpec grid indexing and
 * cell materialization, SweepRunner determinism (a parallel run's
 * SweepResults must be identical to a serial run's), seed statistics,
 * fused groups of cache geometries (each fused cell equals its solo run,
 * the dispatch plan, resume, audit, faults, timings and timeouts), the
 * new BenchOptions flags, and tryKindFromName().
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "core/sim_config.hh"
#include "core/sweep.hh"
#include "trace/recorded.hh"

namespace vmsim
{
namespace
{

SweepSpec
smallSpec()
{
    SimConfig base;
    base.l1 = CacheParams{8_KiB, 32};
    base.l2 = CacheParams{1_MiB, 64};
    base.seed = 7;

    SweepSpec spec;
    spec.base(base)
        .systems({SystemKind::Ultrix, SystemKind::Intel})
        .workloads({"gcc", "ijpeg"})
        .l1Sizes({4_KiB, 16_KiB})
        .seeds(2)
        .instructions(20'000)
        .warmup(2'000);
    return spec;
}

// ------------------------------------------------------------- SweepSpec

TEST(SweepSpec, GridDimensionsAndCellCount)
{
    SweepSpec spec = smallSpec();
    EXPECT_EQ(spec.systemDim(), 2u);
    EXPECT_EQ(spec.workloadDim(), 2u);
    EXPECT_EQ(spec.l1Dim(), 2u);
    EXPECT_EQ(spec.l2Dim(), 1u); // unset axis counts one
    EXPECT_EQ(spec.lineDim(), 1u);
    EXPECT_EQ(spec.seedDim(), 2u);
    EXPECT_EQ(spec.numCells(), 16u);

    EXPECT_EQ(SweepSpec{}.numCells(), 1u);
}

TEST(SweepSpec, FlatIndexRoundTrips)
{
    SweepSpec spec = smallSpec();
    for (std::size_t flat = 0; flat < spec.numCells(); ++flat) {
        CellIndex idx = spec.unflatten(flat);
        EXPECT_EQ(spec.flatIndex(idx), flat);
    }
    // Grid order: seed is the innermost axis.
    EXPECT_EQ(spec.unflatten(0).seed, 0u);
    EXPECT_EQ(spec.unflatten(1).seed, 1u);
    EXPECT_EQ(spec.unflatten(0), (CellIndex{}));
}

TEST(SweepSpec, OutOfRangeIndexPanics)
{
    SweepSpec spec = smallSpec();
    setQuiet(true);
    EXPECT_THROW(spec.flatIndex({.system = 2}), PanicError);
    EXPECT_THROW(spec.unflatten(spec.numCells()), PanicError);
    setQuiet(false);
}

TEST(SweepSpec, CellAppliesAxesVariantsAndSeedOffset)
{
    std::vector<ConfigVariant> variants = {
        {"deep", [](SimConfig &cfg) { cfg.tlbEntries = 16; }},
        {"wide", [](SimConfig &cfg) { cfg.tlbEntries = 512; }},
    };
    SweepSpec spec = smallSpec();
    spec.lineSizes({{16, 32}, {64, 128}})
        .interruptCosts({10, 200})
        .variants(variants);

    SweepCell cell = spec.cell(spec.flatIndex({.system = 1,
                                               .workload = 1,
                                               .l1 = 1,
                                               .line = 1,
                                               .interrupt = 1,
                                               .variant = 0,
                                               .seed = 1}));
    EXPECT_EQ(cell.config.kind, SystemKind::Intel);
    EXPECT_EQ(cell.workload, "ijpeg");
    EXPECT_EQ(cell.config.l1.sizeBytes, 16_KiB);
    EXPECT_EQ(cell.config.l1.lineSize, 64u);
    EXPECT_EQ(cell.config.l2.lineSize, 128u);
    EXPECT_EQ(cell.config.costs.interruptCycles, 200u);
    EXPECT_EQ(cell.config.tlbEntries, 16u);
    EXPECT_EQ(cell.config.seed, 8u); // base 7 + seed index 1
}

TEST(SweepSpec, UnsetAxesKeepBaseConfig)
{
    SimConfig base;
    base.kind = SystemKind::Parisc;
    base.l1 = CacheParams{8_KiB, 32};
    base.l2 = CacheParams{2_MiB, 64};

    SweepSpec spec;
    spec.base(base);
    SweepCell cell = spec.cell(0);
    EXPECT_EQ(cell.config.kind, SystemKind::Parisc);
    EXPECT_EQ(cell.config.l1.sizeBytes, 8_KiB);
    EXPECT_EQ(cell.config.l2.sizeBytes, 2_MiB);
    EXPECT_EQ(cell.workload, "gcc"); // default workload
}

// ----------------------------------------------------------- SweepRunner

TEST(SweepRunner, ParallelRunMatchesSerialExactly)
{
    SweepSpec spec = smallSpec();
    SweepResults serial = SweepRunner(1).run(spec);
    SweepResults parallel = SweepRunner(4).run(spec);

    ASSERT_EQ(serial.size(), spec.numCells());
    ASSERT_EQ(parallel.size(), spec.numCells());
    for (std::size_t flat = 0; flat < spec.numCells(); ++flat) {
        const Results &a = serial.at(flat);
        const Results &b = parallel.at(flat);
        // Bitwise-equal metrics, not approximately equal: the whole
        // point of grid-ordered results is byte-identical output.
        EXPECT_EQ(a.totalCpi(), b.totalCpi()) << "cell " << flat;
        EXPECT_EQ(a.mcpi(), b.mcpi()) << "cell " << flat;
        EXPECT_EQ(a.vmcpi(), b.vmcpi()) << "cell " << flat;
        EXPECT_EQ(a.userInstrs(), b.userInstrs()) << "cell " << flat;
        EXPECT_EQ(a.vmStats().itlbMisses, b.vmStats().itlbMisses)
            << "cell " << flat;
        EXPECT_EQ(a.vmStats().dtlbMisses, b.vmStats().dtlbMisses)
            << "cell " << flat;
        EXPECT_EQ(a.vmStats().pteLoads, b.vmStats().pteLoads)
            << "cell " << flat;
    }
}

TEST(SweepRunner, JobsZeroMeansHardwareConcurrency)
{
    EXPECT_EQ(SweepRunner(0).jobs(), ThreadPool::defaultThreads());
    EXPECT_EQ(SweepRunner(3).jobs(), 3u);
}

TEST(SweepRunner, SeedReplicationsDiffer)
{
    SimConfig base;
    base.kind = SystemKind::Ultrix;
    base.l1 = CacheParams{4_KiB, 32};
    base.l2 = CacheParams{1_MiB, 64};

    SweepSpec spec;
    spec.base(base).workloads({"gcc"}).seeds(3).instructions(20'000)
        .warmup(2'000);
    SweepResults res = SweepRunner(2).run(spec);

    // Different seeds must produce different traces.
    EXPECT_NE(res.at({.seed = 0}).vmStats().dtlbMisses,
              res.at({.seed = 1}).vmStats().dtlbMisses);

    SeedStats stats = res.seedStats(
        CellIndex{}, [](const Results &r) { return r.vmcpi(); });
    EXPECT_EQ(stats.seeds, 3u);
    EXPECT_LE(stats.min, stats.mean);
    EXPECT_LE(stats.mean, stats.max);
    EXPECT_GE(stats.stddev, 0.0);

    // meanMetric at a fixed cell with one seed is the cell's value.
    EXPECT_EQ(res.meanMetric({.seed = 0},
                             [](const Results &) { return 1.25; }),
              1.25);
}

// -------------------------------------------------------- fused groups

constexpr SystemKind kAllKinds[] = {
    SystemKind::Ultrix,     SystemKind::Mach,   SystemKind::Intel,
    SystemKind::Parisc,     SystemKind::Notlb,  SystemKind::Base,
    SystemKind::HwInverted, SystemKind::HwMips, SystemKind::Spur,
};

/**
 * All nine organizations over a grid of geometries, 4-way and
 * unified-L2 caches among them (variants that touch only caches). The
 * L2 is small so that several hierarchies' tag arrays fit the bound of
 * one recording's bytes, and groups form at this instruction count.
 */
SweepSpec
geometrySpec(SimConfig base)
{
    base.l2 = CacheParams{64_KiB, 64};
    std::vector<ConfigVariant> caches = {
        {"direct", nullptr},
        {"4-way",
         [](SimConfig &c) {
             c.l1.assoc = 4;
             c.l2.assoc = 4;
         }},
        {"unified", [](SimConfig &c) { c.unifiedL2 = true; }},
    };
    SweepSpec spec;
    spec.base(base)
        .systems(std::vector<SystemKind>(std::begin(kAllKinds),
                                         std::end(kAllKinds)))
        .workloads({"gcc"})
        .l1Sizes({4_KiB, 16_KiB})
        .lineSizes({{16, 32}, {32, 64}})
        .variants(caches)
        .instructions(16'000)
        .warmup(4'000);
    return spec;
}

std::vector<std::size_t>
allCells(const SweepSpec &spec)
{
    std::vector<std::size_t> cells(spec.numCells());
    for (std::size_t i = 0; i < cells.size(); ++i)
        cells[i] = i;
    return cells;
}

std::string
csvOf(const SweepResults &res)
{
    std::ostringstream os;
    res.writeCsv(os);
    return os.str();
}

/** Every cell of a fused sweep equals its own solo run, byte for byte. */
void
expectCellsMatchSoloRuns(const SweepSpec &spec, unsigned jobs)
{
    const auto tasks = planSweepTasks(spec, allCells(spec), true, jobs);
    std::size_t fused = 0;
    for (const auto &task : tasks) {
        if (task.size() > 1)
            fused += task.size();
        for (std::size_t flat : task) {
            if (kindReadsCacheState(spec.cell(flat).config.kind)) {
                EXPECT_EQ(task.size(), 1u) << "cell " << flat;
            }
        }
    }
    EXPECT_GT(fused, spec.numCells() / 2) << "too few cells fused";

    const SweepResults res = SweepRunner(jobs).run(spec);
    ASSERT_TRUE(res.allOk());
    for (std::size_t i = 0; i < spec.numCells(); ++i) {
        const SweepCell cell = spec.cell(i);
        const Results solo = runOnce(cell.config, cell.workload,
                                     spec.instructionCount(),
                                     spec.warmupCount());
        EXPECT_EQ(res.at(i).serialize().dump(), solo.serialize().dump())
            << "cell " << i << ": " << cell.config.toString();
    }
}

TEST(FusedSweep, EveryCellEqualsItsSoloRunOnOneCore)
{
    SimConfig base;
    base.seed = 3;
    expectCellsMatchSoloRuns(geometrySpec(base), 2);
}

TEST(FusedSweep, EveryCellEqualsItsSoloRunOnFourCoresUnderPressure)
{
    SimConfig base;
    base.seed = 5;
    base.cores = 4;
    base.coreQuantum = 1'000;
    base.ctxSwitchInterval = 997;
    base.l2TlbEntries = 64;
    base.physFrames = 96;
    base.reclaimPolicy = ReclaimPolicy::Lru;
    SweepSpec spec = geometrySpec(base);
    spec.l1Sizes({8_KiB}).lineSizes({{16, 32}, {64, 128}});
    expectCellsMatchSoloRuns(spec, 3);
}

TEST(FusedSweep, SweepCellIsTheOracle)
{
    // sweepCell() runs one cell alone with the default warmup; a fused
    // sweep with that warmup must agree with it.
    SimConfig base;
    SweepSpec spec;
    spec.base(base)
        .systems({SystemKind::Mach, SystemKind::Parisc})
        .workloads({"vortex"})
        .l1Sizes({1_KiB, 64_KiB})
        .l2Sizes({64_KiB, 128_KiB})
        .instructions(40'000);
    ASSERT_EQ(planSweepTasks(spec, allCells(spec), true, 1).size(), 2u);
    const SweepResults res = SweepRunner(1).run(spec);
    for (std::size_t i = 0; i < spec.numCells(); ++i) {
        const SweepCell cell = spec.cell(i);
        EXPECT_EQ(res.at(i).serialize().dump(),
                  sweepCell(cell.config, cell.workload, 40'000)
                      .serialize()
                      .dump())
            << "cell " << i;
    }
}

TEST(FusedSweep, PlanGroupsByTraceKeyGroupsFirst)
{
    SimConfig base;
    SweepSpec spec;
    spec.base(base)
        .systems({SystemKind::Base, SystemKind::Notlb, SystemKind::Ultrix})
        .workloads({"gcc", "vortex"})
        .l1Sizes({1_KiB, 16_KiB, 128_KiB})
        .instructions(100'000);
    const auto all = allCells(spec);

    // Unfused: every cell alone, in grid order.
    const auto solo = planSweepTasks(spec, all, false, 2);
    ASSERT_EQ(solo.size(), spec.numCells());
    for (std::size_t i = 0; i < solo.size(); ++i)
        EXPECT_EQ(solo[i], std::vector<std::size_t>{i});

    // Fused: per workload, BASE's and ULTRIX's three geometries as one
    // task each, then NOTLB's three cells alone.
    const auto tasks = planSweepTasks(spec, all, true, 2);
    auto at = [&](std::size_t sys, std::size_t wl, std::size_t l1) {
        return spec.flatIndex({.system = sys, .workload = wl, .l1 = l1});
    };
    std::vector<std::vector<std::size_t>> want;
    for (std::size_t wl = 0; wl < 2; ++wl) {
        want.push_back({at(0, wl, 0), at(0, wl, 1), at(0, wl, 2)});
        want.push_back({at(2, wl, 0), at(2, wl, 1), at(2, wl, 2)});
        for (std::size_t l1 = 0; l1 < 3; ++l1)
            want.push_back({at(1, wl, l1)});
    }
    EXPECT_EQ(tasks, want);

    // Resumed sweeps plan only the pending cells.
    // The key order follows the first pending cell (vortex here).
    const auto part = planSweepTasks(
        spec, {at(0, 1, 1), at(2, 0, 0), at(2, 0, 2)}, true, 1);
    EXPECT_EQ(part, (std::vector<std::vector<std::size_t>>{
                        {at(0, 1, 1)}, {at(2, 0, 0), at(2, 0, 2)}}));
}

TEST(FusedSweep, PlanBoundsEachChunk)
{
    SimConfig base;
    base.kind = SystemKind::Intel;
    SweepSpec spec;
    spec.base(base)
        .workloads({"gcc"})
        .l1Sizes(paperL1Sizes(true))
        .l2Sizes(paperL2Sizes(true))
        .lineSizes(paperLineSizes(true))
        .instructions(2'000'000);
    const auto all = allCells(spec);
    const std::size_t recording =
        (2'000'000 + defaultWarmup(2'000'000)) * sizeof(TraceRecord);
    auto tagBytes = [](const CacheParams &p) {
        return std::size_t(p.sizeBytes / p.lineSize) * sizeof(Addr);
    };
    const auto tasks = planSweepTasks(spec, all, true, 2);
    std::size_t cells = 0;
    for (const auto &task : tasks) {
        std::size_t bytes = 0;
        for (std::size_t flat : task) {
            const SimConfig c = spec.cell(flat).config;
            bytes += 2 * tagBytes(c.l1) + 2 * tagBytes(c.l2);
        }
        EXPECT_TRUE(task.size() == 1 || bytes <= recording)
            << task.size() << " cells need " << bytes << " bytes";
        cells += task.size();
    }
    EXPECT_EQ(cells, spec.numCells());
    EXPECT_GT(tasks.size(), 4u);
    EXPECT_LT(tasks.size(), spec.numCells() / 10);

    // A pool wider than the group count splits chunks down to at
    // least two tasks per worker; with too few cells left to fuse,
    // the plan falls back to solo cells in grid order.
    SweepSpec small = spec;
    small.l1Sizes({1_KiB, 2_KiB}).l2Sizes({1_MiB}).lineSizes({{16, 32},
                                                             {32, 64}});
    EXPECT_EQ(planSweepTasks(small, allCells(small), true, 1).size(), 2u);
    EXPECT_EQ(planSweepTasks(small, allCells(small), true, 2).size(), 4u);
    EXPECT_EQ(planSweepTasks(small, allCells(small), true, 2),
              planSweepTasks(small, allCells(small), false, 2));
}

TEST(FusedSweep, ResumeFromPartOfAGroupIsByteIdentical)
{
    SimConfig base;
    SweepSpec spec = geometrySpec(base);
    spec.systems({SystemKind::Ultrix, SystemKind::Notlb});
    const std::string clean = csvOf(SweepRunner(2).run(spec));

    char tmpl[] = "/tmp/vmsim_fused_journal_XXXXXX";
    const int fd = mkstemp(tmpl);
    ASSERT_GE(fd, 0);
    ::close(fd);
    const std::string path = tmpl;
    SweepRunner(2).journal(path).run(spec);
    std::vector<std::string> lines;
    {
        std::ifstream in(path);
        for (std::string line; std::getline(in, line);)
            lines.push_back(line);
    }
    // Keep the header and the first five records: part of the first
    // fused group, so resume must run the rest of it as a smaller one.
    ASSERT_GT(lines.size(), 6u);
    lines.resize(6);
    {
        std::ofstream out(path, std::ios::trunc);
        for (const std::string &l : lines)
            out << l << '\n';
    }
    const SweepResults resumed =
        SweepRunner(2).journal(path).resume().run(spec);
    std::remove(path.c_str());
    EXPECT_EQ(csvOf(resumed), clean);
    std::size_t loaded = 0;
    for (std::size_t i = 0; i < resumed.size(); ++i)
        loaded += resumed.outcomeAt(i).fromJournal;
    EXPECT_EQ(loaded, 5u);
}

TEST(FusedSweep, CheckAuditsEveryCellAlone)
{
    // --check attaches a latency collector and audits each cell, so no
    // cell fuses under it; the audited results equal the fused ones.
    SimConfig base;
    SweepSpec spec = geometrySpec(base);
    spec.systems({SystemKind::Mach, SystemKind::HwInverted});
    // CellRunner keeps references: the options must outlive it.
    TraceCache cache(64u << 20);
    const ObsOptions obs;
    const FaultSpec noFaults;
    const CellRunner checked(spec, obs, {}, noFaults, 0, true, true,
                             &cache);
    EXPECT_FALSE(checked.fuses());
    const CellRunner bare(spec, obs, {}, noFaults, 0, false, false,
                          &cache);
    EXPECT_TRUE(bare.fuses());

    const SweepResults audited = SweepRunner(2).verify(true).run(spec);
    ASSERT_TRUE(audited.allOk());
    for (std::size_t i = 0; i < spec.numCells(); ++i) {
        const CellExecution solo = checked.run(i);
        ASSERT_TRUE(solo.outcome.ok) << solo.outcome.error.toString();
        EXPECT_EQ(audited.at(i).serialize().dump(),
                  solo.results.serialize().dump())
            << "cell " << i;
    }
    EXPECT_EQ(csvOf(audited), csvOf(SweepRunner(2).run(spec)));
}

TEST(FusedSweep, InjectedFaultsKeepEveryCellSolo)
{
    SimConfig base;
    SweepSpec spec = geometrySpec(base);
    spec.systems({SystemKind::Intel, SystemKind::Base});
    FaultSpec faults = FaultSpec::parse("corrupt=0.0002,seed=11").value();
    const SweepResults res = SweepRunner(2).injectFaults(faults).run(spec);
    EXPECT_GT(res.failedCount(), 0u);
    EXPECT_LT(res.failedCount(), spec.numCells());

    // The fault streams are keyed per cell: each cell equals that cell
    // run alone under the same faults.
    TraceCache cache(64u << 20);
    const ObsOptions obs;
    const CellRunner runner(spec, obs, {}, faults, 0, false, false,
                            &cache);
    EXPECT_FALSE(runner.fuses());
    for (std::size_t i = 0; i < spec.numCells(); ++i) {
        const CellExecution solo = runner.run(i);
        ASSERT_EQ(res.okAt(i), solo.outcome.ok) << "cell " << i;
        if (solo.outcome.ok)
            EXPECT_EQ(res.at(i).serialize().dump(),
                      solo.results.serialize().dump());
        else
            EXPECT_EQ(res.outcomeAt(i).error.toString(),
                      solo.outcome.error.toString());
    }
}

TEST(FusedSweep, GroupTimingsTileTheGroupInterval)
{
    SimConfig base;
    SweepSpec spec = geometrySpec(base);
    spec.systems({SystemKind::Ultrix, SystemKind::Base,
                  SystemKind::Spur});
    const SweepResults res = SweepRunner(2).run(spec);
    ASSERT_TRUE(res.allOk());
    std::size_t groups = 0;
    for (const auto &task : planSweepTasks(spec, allCells(spec), true, 2)) {
        if (task.size() < 2)
            continue;
        ++groups;
        const CellTiming &first = res.timings()[task.front()];
        const CellTiming &last = res.timings()[task.back()];
        double sum = 0;
        for (std::size_t c = 0; c < task.size(); ++c) {
            const CellTiming &t = res.timings()[task[c]];
            EXPECT_EQ(t.worker, first.worker);
            EXPECT_DOUBLE_EQ(t.wallSeconds, first.wallSeconds);
            EXPECT_NEAR(t.startSeconds,
                        first.startSeconds + double(c) * first.wallSeconds,
                        1e-9);
            sum += t.wallSeconds;
        }
        EXPECT_NEAR(first.startSeconds + sum,
                    last.startSeconds + last.wallSeconds, 1e-9);
    }
    EXPECT_GE(groups, 2u);
}

TEST(FusedSweep, TimeoutFailsTheWholeGroupAlike)
{
    SimConfig base;
    SweepSpec spec;
    spec.base(base)
        .systems({SystemKind::Parisc})
        .workloads({"gcc"})
        .l1Sizes({1_KiB, 4_KiB, 16_KiB, 64_KiB})
        .instructions(3'000'000);
    // One worker still gets two tasks: two groups of two geometries.
    const auto tasks = planSweepTasks(spec, allCells(spec), true, 1);
    ASSERT_EQ(tasks.size(), 2u);
    const SweepResults res = SweepRunner(1).cellTimeout(1e-3).run(spec);
    ASSERT_EQ(res.failedCount(), spec.numCells());
    for (const auto &task : tasks) {
        ASSERT_EQ(task.size(), 2u);
        for (std::size_t flat : task) {
            const CellOutcome &o = res.outcomeAt(flat);
            EXPECT_EQ(o.error.code, ErrorCode::Timeout);
            EXPECT_EQ(o.error.toString(),
                      res.outcomeAt(task.front()).error.toString());
            EXPECT_NE(o.error.toString().find("fused group of 2 cells"),
                      std::string::npos);
            EXPECT_EQ(o.attempts, 1u);
        }
    }
}

// ---------------------------------------------------------- BenchOptions

TEST(BenchOptions, ParsesJobsSeedsAndWarmup)
{
    const char *argv[] = {"prog", "--jobs=4", "--seeds=3",
                          "--warmup=100", "--instructions=5000"};
    BenchOptions opts =
        BenchOptions::parse(5, const_cast<char **>(argv));
    EXPECT_EQ(opts.jobs, 4u);
    EXPECT_EQ(opts.seeds, 3u);
    ASSERT_TRUE(opts.warmup.has_value());
    EXPECT_EQ(*opts.warmup, 100u);
    EXPECT_EQ(opts.resolvedWarmup(), 100u);
}

TEST(BenchOptions, WarmupDefaultsToQuarterInstructions)
{
    // Every layer resolves an unspecified warmup through the single
    // defaultWarmup() helper: one quarter of the measured run, the
    // same default runOnce() applies. (It was instructions/2 here and
    // instructions/4 in runOnce once — this pins the unification.)
    const char *argv[] = {"prog", "--instructions=5000"};
    BenchOptions opts =
        BenchOptions::parse(2, const_cast<char **>(argv));
    EXPECT_FALSE(opts.warmup.has_value());
    EXPECT_EQ(opts.resolvedWarmup(), defaultWarmup(5000));
    EXPECT_EQ(opts.resolvedWarmup(), 1250u);

    setQuiet(true);
    const char *bad[] = {"prog", "--seeds=0"};
    EXPECT_THROW(BenchOptions::parse(2, const_cast<char **>(bad)),
                 FatalError);
    setQuiet(false);
}

// ------------------------------------------------------- tryKindFromName

TEST(TryKindFromName, KnownAndUnknownNames)
{
    EXPECT_EQ(tryKindFromName("ULTRIX"), SystemKind::Ultrix);
    EXPECT_EQ(tryKindFromName("pa-risc"), SystemKind::Parisc);
    EXPECT_EQ(tryKindFromName("hw-inverted"), SystemKind::HwInverted);
    EXPECT_EQ(tryKindFromName("VAX"), std::nullopt);
    EXPECT_EQ(tryKindFromName(""), std::nullopt);

    // kindFromName stays fatal on unknown names.
    setQuiet(true);
    EXPECT_THROW(kindFromName("VAX"), FatalError);
    setQuiet(false);
    EXPECT_EQ(kindFromName("mach"), SystemKind::Mach);
}

} // anonymous namespace
} // namespace vmsim
