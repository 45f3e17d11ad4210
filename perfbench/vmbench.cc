/**
 * @file
 * vmbench: the benchmark binary. run.py builds it and starts it once
 * per measured repetition, or once for a traced run.
 *
 *   vmbench sweep --workload W --seed N --out DIR [--t0-ns T]
 *       Build workload W from seed N, run its sweep once with tracing
 *       off, audit the results after the timed region, write the
 *       sweep CSV to DIR/sweep.csv and print one JSON line of
 *       measurements. T is the CLOCK_MONOTONIC time (ns) at which the
 *       caller started this process; set-up time is measured from it.
 *
 *   vmbench trace --workload W --seed N --out DIR
 *       The traced run (traced.cc): per-layer metrics and the ledger.
 *
 * Exit status: 0 when every cell ran and passed its audit, 1 when a
 * cell failed, 2 on a usage error.
 */

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <string>

#include "base/json.hh"
#include "base/parse.hh"
#include "traced.hh"
#include "workloads.hh"

namespace
{

using namespace vmsim;
using namespace vmbench;

struct Args
{
    std::string mode;
    std::string workload;
    std::uint64_t seed = 1;
    std::string out;
    std::int64_t t0Ns = -1; ///< -1 = measure set-up from main()
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "vmbench: " << why << "\n"
              << "usage: vmbench sweep|trace --workload W --seed N "
                 "--out DIR [--t0-ns T]\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    if (argc < 2)
        usage("missing mode");
    a.mode = argv[1];
    if (a.mode != "sweep" && a.mode != "trace")
        usage("unknown mode '" + a.mode + "'");
    for (int i = 2; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("flag " + flag + " needs a value");
        std::string v = argv[++i];
        if (flag == "--workload") {
            a.workload = v;
        } else if (flag == "--seed") {
            auto n = parseU64(v.c_str(), "--seed");
            if (!n)
                usage(n.error().toString());
            a.seed = n.value();
        } else if (flag == "--out") {
            a.out = v;
        } else if (flag == "--t0-ns") {
            auto n = parseU64(v.c_str(), "--t0-ns");
            if (!n)
                usage(n.error().toString());
            a.t0Ns = static_cast<std::int64_t>(n.value());
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (a.workload.empty() || a.out.empty())
        usage("--workload and --out are required");
    return a;
}

std::int64_t
monotonicNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
peakRssKb()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof(ru));
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss);
}

/** One untraced repetition of the workload's sweep. */
int
runSweep(const Args &a, std::int64_t t0)
{
    const Workload w = makeBenchWorkload(a.workload, a.seed);
    clearOutputs(w, a.out);
    const SweepRunner runner = makeRunner(w, kJobs, a.out);

    const std::int64_t launch = monotonicNs();
    const SweepResults res = runner.run(w.spec);
    const std::int64_t end = monotonicNs();

    // Output checks, outside the timed region. A workload that audits
    // inside its sweep (--check) has already failed any bad cell.
    const std::size_t auditFailed = w.check ? 0 : auditCells(res);
    writeCheckedOutputs(a.out, res);
    clearOutputs(w, a.out); // the sweep's own files are not checked

    const std::size_t failed = res.failedCount();
    Json cellMs = Json::array();
    for (const CellTiming &t : res.timings())
        cellMs.push(t.wallSeconds * 1e3);
    Json out = Json::object();
    out.set("workload", w.name);
    out.set("seed", a.seed);
    out.set("cells", static_cast<std::uint64_t>(res.size()));
    out.set("failed", static_cast<std::uint64_t>(failed));
    out.set("audit_failed", static_cast<std::uint64_t>(auditFailed));
    out.set("jobs", kJobs);
    out.set("wall_s", double(end - launch) * 1e-9);
    out.set("setup_s", double(launch - t0) * 1e-9);
    out.set("sim_instrs", static_cast<std::uint64_t>(
                              (res.size() - failed) * w.executedPerCell()));
    out.set("cell_ms", std::move(cellMs));
    out.set("peak_rss_kb", peakRssKb());
    out.set("compiler", VMBENCH_COMPILER);
    out.set("build_type", VMBENCH_BUILD_TYPE);
    std::cout << out.dump() << std::endl;
    return failed == 0 && auditFailed == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::int64_t mainNs = monotonicNs();
    const Args a = parseArgs(argc, argv);
    try {
        if (a.mode == "trace")
            return runTraced(makeBenchWorkload(a.workload, a.seed), a.out);
        return runSweep(a, a.t0Ns >= 0 ? a.t0Ns : mainNs);
    } catch (const std::exception &e) {
        std::cerr << "vmbench: " << e.what() << "\n";
        return 1;
    }
}
