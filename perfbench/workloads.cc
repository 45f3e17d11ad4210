#include "workloads.hh"

#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "base/logging.hh"
#include "base/units.hh"
#include "check/invariants.hh"

namespace vmbench
{

using namespace vmsim;

namespace
{

// Measured instructions per cell: the 1M-instruction cells of the
// reduced bench_fig6 grid, so fixed per-cell costs (System, cache,
// page-table and FramePool construction) weigh what they weigh in a
// user's sweep. Warmup is the project default of one quarter.
constexpr Counter kCellInstrs = 1'000'000;

Workload
figures(std::uint64_t seed)
{
    Workload w;
    w.name = "figures";
    SimConfig base;
    base.seed = seed;
    w.spec.base(base)
        .systems({SystemKind::Base, SystemKind::Ultrix, SystemKind::Mach,
                  SystemKind::Intel, SystemKind::Parisc,
                  SystemKind::Notlb})
        .workloads({"gcc", "vortex", "ijpeg"})
        .l1Sizes({1_KiB, 16_KiB, 128_KiB})
        .l2Sizes({1_MiB})
        .lineSizes({{16, 32}, {64, 128}})
        .instructions(kCellInstrs);
    return w;
}

Workload
multicorePressure(std::uint64_t seed)
{
    Workload w;
    w.name = "multicore-pressure";
    SimConfig base;
    base.seed = seed;
    base.cores = 4;
    base.physFrames = (1_MiB) >> base.pageBits;
    std::vector<ConfigVariant> policies;
    for (ReclaimPolicy p :
         {ReclaimPolicy::Fifo, ReclaimPolicy::Lru, ReclaimPolicy::Clock})
        policies.push_back({reclaimPolicyName(p),
                            [p](SimConfig &c) { c.reclaimPolicy = p; }});
    w.spec.base(base)
        .systems({SystemKind::Ultrix, SystemKind::Mach, SystemKind::Intel,
                  SystemKind::Parisc, SystemKind::HwInverted,
                  SystemKind::HwMips})
        .workloads({"gcc", "vortex"})
        .variants(std::move(policies))
        .seeds(3)
        .instructions(kCellInstrs);
    return w;
}

Workload
observedAudit(std::uint64_t seed)
{
    Workload w;
    w.name = "observed-audit";
    SimConfig base;
    base.seed = seed;
    w.spec.base(base)
        .systems({SystemKind::Base, SystemKind::Ultrix, SystemKind::Intel,
                  SystemKind::Parisc, SystemKind::Notlb,
                  SystemKind::Spur})
        .workloads({"gcc", "vortex"})
        .l1Sizes({4_KiB, 16_KiB, 64_KiB})
        .seeds(3)
        .instructions(kCellInstrs);
    w.check = true;
    w.interval = kCellInstrs / 10;
    w.statsJson = true;
    w.eventLog = true;
    w.journal = true;
    return w;
}

std::string
eventsPath(const std::string &dir)
{
    return dir + "/events.jsonl";
}

ObsOptions
obsOptions(const Workload &w, const std::string &dir)
{
    ObsOptions obs;
    obs.interval = w.interval;
    if (w.statsJson)
        obs.statsJson = statsPath(dir);
    if (w.eventLog)
        obs.traceEvents = eventsPath(dir);
    return obs;
}

} // namespace

Workload
makeBenchWorkload(const std::string &name, std::uint64_t seed)
{
    if (name == "figures")
        return figures(seed);
    if (name == "multicore-pressure")
        return multicorePressure(seed);
    if (name == "observed-audit")
        return observedAudit(seed);
    fatal("unknown workload '", name,
          "' (figures, multicore-pressure, observed-audit)");
}

std::string
statsPath(const std::string &dir)
{
    return dir + "/stats.json";
}

std::string
journalPath(const std::string &dir)
{
    return dir + "/journal.jsonl";
}

std::string
cellEventsPath(const std::string &dir, std::size_t flat)
{
    return eventsPath(dir) + ".cell" + std::to_string(flat);
}

void
clearOutputs(const Workload &w, const std::string &dir)
{
    std::filesystem::create_directories(dir);
    std::filesystem::remove(journalPath(dir));
    std::filesystem::remove(statsPath(dir));
    for (std::size_t i = 0; w.eventLog && i < w.spec.numCells(); ++i)
        std::filesystem::remove(cellEventsPath(dir, i));
}

SweepRunner
makeRunner(const Workload &w, unsigned jobs, const std::string &dir)
{
    SweepRunner runner(jobs);
    runner.observe(obsOptions(w, dir)).verify(w.check);
    if (w.journal)
        runner.journal(journalPath(dir));
    return runner;
}

std::string
sweepCsv(const SweepResults &res)
{
    std::ostringstream os;
    res.writeCsv(os);
    return os.str();
}

std::string
resultsDump(const SweepResults &res)
{
    std::string out;
    for (std::size_t i = 0; i < res.size(); ++i) {
        out += res.okAt(i) ? res.at(i).serialize().dump() : "failed";
        out += '\n';
    }
    return out;
}

void
writeCheckedOutputs(const std::string &dir, const SweepResults &res)
{
    std::ofstream c(dir + "/sweep.csv", std::ios::trunc);
    c << sweepCsv(res);
    std::ofstream r(dir + "/results.jsonl", std::ios::trunc);
    r << resultsDump(res);
    if (!c || !r)
        throw std::runtime_error("cannot write the outputs in " + dir);
}

std::size_t
auditCells(const SweepResults &res)
{
    std::size_t bad = 0;
    for (std::size_t i = 0; i < res.size(); ++i) {
        if (!res.okAt(i))
            continue;
        CheckReport rep = InvariantChecker(res.cellAt(i).config)
                              .check(res.at(i));
        if (!rep.ok()) {
            ++bad;
            std::cerr << "vmbench: cell " << i << " breaks "
                      << rep.violations().front().toString() << "\n";
        }
    }
    return bad;
}

} // namespace vmbench
