/**
 * @file
 * The traced run: per-layer metrics for one workload, timed around
 * calls into each module's public functions from the benchmark's own
 * code (nothing inside src/ is instrumented).
 */

#ifndef VMBENCH_TRACED_HH
#define VMBENCH_TRACED_HH

#include <string>

#include "workloads.hh"

namespace vmbench
{

/**
 * Run workload @p w traced, writing its files and the span log under
 * @p dir, and print one JSON line with every per-layer metric, the
 * ratios' base counts and the ledger. Returns the process exit status
 * (0 = every cell ran, passed its audit and produced the same CSV on
 * every replay of the sweep).
 */
int runTraced(const Workload &w, const std::string &dir);

} // namespace vmbench

#endif // VMBENCH_TRACED_HH
