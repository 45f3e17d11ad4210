/**
 * @file
 * The benchmark's workloads: each is the sweep a vmsim user would
 * launch (a SweepSpec plus the runner settings of the bench flags it
 * stands for), built from the benchmark seed alone. README.md gives
 * the reason each workload exists.
 */

#ifndef VMBENCH_WORKLOADS_HH
#define VMBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>

#include "core/sweep.hh"

namespace vmbench
{

/** Sweep worker threads every workload runs with. */
constexpr unsigned kJobs = 2;

/** One benchmark workload: its grid and how it is launched. */
struct Workload
{
    std::string name;
    vmsim::SweepSpec spec;
    bool check = false;          ///< --check: audit inside the sweep
    vmsim::Counter interval = 0; ///< --interval sampler period; 0 = off
    bool statsJson = false;      ///< --stats-json export
    bool eventLog = false;       ///< --trace-events JSONL log per cell
    bool journal = false;        ///< --journal (CRC-framed, fsync'd)

    /** Instructions each cell executes, warmup included. */
    vmsim::Counter
    executedPerCell() const
    {
        return spec.instructionCount() +
               spec.warmupCount().value_or(
                   vmsim::defaultWarmup(spec.instructionCount()));
    }
};

/**
 * Build workload @p name for benchmark seed @p seed: the seed becomes
 * the base SimConfig seed, so it picks every synthetic trace and every
 * TLB replacement stream. fatal() on an unknown name.
 */
Workload makeBenchWorkload(const std::string &name, std::uint64_t seed);

/** Where the workload's output files go inside @p dir. */
std::string statsPath(const std::string &dir);
std::string journalPath(const std::string &dir);

/** The event log SweepRunner writes for cell @p flat. */
std::string cellEventsPath(const std::string &dir, std::size_t flat);

/**
 * Create @p dir if needed and remove every file a sweep of @p w left
 * there (journal, stats, event logs).
 */
void clearOutputs(const Workload &w, const std::string &dir);

/**
 * A SweepRunner configured as the workload's bench flags configure
 * one, writing its files under @p dir (which must exist).
 */
vmsim::SweepRunner makeRunner(const Workload &w, unsigned jobs,
                              const std::string &dir);

/** The sweep's byte-stable CSV (SweepResults::writeCsv). */
std::string sweepCsv(const vmsim::SweepResults &res);

/**
 * Every cell's serialized Results, one line per cell: the counters the
 * CSV does not show.
 */
std::string resultsDump(const vmsim::SweepResults &res);

/**
 * Write the files the output check hashes into @p dir: sweep.csv
 * (sweepCsv) and results.jsonl (resultsDump).
 */
void writeCheckedOutputs(const std::string &dir,
                         const vmsim::SweepResults &res);

/**
 * Audit every successful cell of @p res with the InvariantChecker;
 * returns how many cells broke a law and prints the first violation of
 * each to stderr.
 */
std::size_t auditCells(const vmsim::SweepResults &res);

} // namespace vmbench

#endif // VMBENCH_WORKLOADS_HH
