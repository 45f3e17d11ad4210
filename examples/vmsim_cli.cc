/**
 * @file
 * vmsim_cli: a general-purpose command-line driver exposing the full
 * configuration space — the tool you reach for to answer one-off
 * "what does organization X cost under parameters Y" questions
 * without writing code.
 *
 * Usage: vmsim_cli [options]
 *   --system=NAME         ULTRIX|MACH|INTEL|PA-RISC|NOTLB|BASE|
 *                         HW-INVERTED|HW-MIPS|SPUR      [ULTRIX]
 *   --workload=NAME       gcc|vortex|ijpeg              [gcc]
 *   --trace=PATH          VMT1 trace file (overrides --workload)
 *   --instructions=N      measured instructions         [2000000]
 *   --warmup=N            warmup instructions           [instructions/4]
 *   --batch=N             trace-fetch block size
 *                         (1 = one-record blocks)       [4096]
 *   --l1=BYTES            L1 size per side              [65536]
 *   --l1-line=BYTES       L1 line size                  [64]
 *   --l2=BYTES            L2 size per side              [1048576]
 *   --l2-line=BYTES       L2 line size                  [128]
 *   --assoc=N             cache associativity           [1]
 *   --tlb=N               TLB entries per side          [128]
 *   --protected=N         protected TLB slots           [16]
 *   --page-bits=N         log2 page size                [12]
 *   --interrupt=CYCLES    precise-interrupt cost        [50]
 *   --hpt-ratio=N         PA-RISC entries per frame     [2]
 *   --seed=N              workload/replacement seed     [12345]
 *   --ctx-switch=N        flush TLBs every N instrs     [0 = never]
 *   --asid-bits=N         ASID tag bits (switches evict
 *                         instead of flushing)          [0]
 *   --l2-tlb=N            unified L2 TLB entries        [0 = none]
 *   --unified-l2          share one L2 of 2x capacity
 *   --phys-mb=N           physical-frame budget in MiB; the VM
 *                         system evicts under pressure  [unlimited]
 *   --reclaim=P           frame reclaim policy:
 *                         fifo|lru|clock                [fifo]
 *   --json                emit machine-readable JSON
 *
 * Multicore (see docs/multicore.md):
 *   --cores=N             simulated cores sharing the page
 *                         table and memory hierarchy     [1]
 *   --core-quantum=N      round-robin quantum in instrs  [50000]
 *   --private-l2tlb       per-core L2 TLBs instead of one
 *                         shared L2 TLB
 *
 * Observability (see docs/observability.md):
 *   --trace-events=FILE   JSONL event log of the measured run
 *   --chrome-trace=FILE   Chrome-trace/Perfetto timeline (open at
 *                         ui.perfetto.dev; 1 "us" = 1 instruction)
 *   --stats-json=FILE     results + stats registry + interval series
 *   --interval=N          sample MCPI/VMCPI every N instructions and
 *                         print the series as CSV after the summary
 *   --progress[=S]        live heartbeat every S seconds (default 2)
 *                         while the run executes; goes to stderr
 *                         unless --progress-out redirects it
 *   --progress-out=FILE   append JSONL telemetry heartbeats to FILE
 *   --metrics-out=FILE    rewrite a Prometheus text exposition at
 *                         FILE on every heartbeat (atomic rename)
 *
 * --stats-json and --check additionally attach a LatencyCollector, so
 * the stats dump carries per-episode miss/walk/shootdown latency and
 * TLB-residency histograms (with p50/p90/p99), and --check reconciles
 * their totals against the run's counters.
 *
 * Robustness (see docs/robustness.md):
 *   --inject-faults=SPEC  deterministic fault injection on the trace
 *                         and event-sink paths, e.g.
 *                         corrupt=0.01,throw=0.01,seed=7
 *
 * Checking (see docs/checking.md):
 *   --check               audit the run with the invariant checker
 *                         (conservation + Table-4 laws + event and
 *                         interval reconciliation); violations print
 *                         to stderr and exit 1
 *   --fuzz=N              instead of simulating, run N differential
 *                         fuzz cases seeded from --seed and print the
 *                         JSON report; exit 1 on any failing tuple
 *   --fuzz-report=FILE    write the fuzz report JSON to FILE instead
 *                         of stdout
 *
 * Sharded sweeps (see docs/robustness.md): with --shard-dir the
 * process stops being a single run and becomes one worker of a
 * crash-tolerant sweep over a grid built from the config above plus
 * --seeds / --sweep-systems. Workers print a one-line summary to
 * stderr; the merged CSV comes from --shard-merge or --supervise.
 *   --shard-dir=D         shared shard directory (created if absent)
 *   --shard-owner=ID      stable worker identity        [pid<pid>]
 *   --lease-seconds=S     stale-lease reclaim horizon   [30]
 *   --seeds=N             seed-replicated cells in the grid [4]
 *   --sweep-systems=A,B   sweep these systems as a second axis
 *   --heartbeat=S         telemetry heartbeats every S seconds to
 *                         <dir>/heartbeat-<owner>.jsonl [0 = off]
 *   --shard-merge         merge the directory and print the CSV;
 *                         runs no cells; exit 1 if cells are missing
 *   --supervise=N         spawn N workers of this sweep, restart
 *                         crashed or stalled ones with bounded
 *                         exponential backoff, then merge + print CSV
 *   --max-restarts=N      per-worker restart budget     [8]
 *   --crash-after=SPEC    test hook: worker crash plan
 *                         "after=N[,torn=1][,throw=1]"
 *   --crash-fuzz=N        run N process-level SIGKILL campaigns
 *                         against sharded sweeps and print the
 *                         report; exit 1 on any integrity or
 *                         byte-identity violation
 *
 * All errors — bad flags, unreadable traces, injected faults — exit
 * with status 1 and a one-line [code] diagnostic on stderr. A worker
 * interrupted by SIGINT/SIGTERM drains, flushes its log, and exits
 * with status 75 (kExitInterrupted).
 */

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "vmsim.hh"

namespace
{

using namespace vmsim;

/**
 * The value of "--flag=N" as a strict unsigned decimal: garbage,
 * trailing characters, and overflow are fatal instead of silently
 * parsing as 0 or a truncated prefix.
 */
std::uint64_t
numArg(const char *arg, const char *prefix)
{
    std::string flag(prefix, std::strlen(prefix) - 1); // drop '='
    return parseU64(arg + std::strlen(prefix), flag).orThrow();
}

/** The value of "--flag=X" as a strict finite double. */
double
floatArg(const char *arg, const char *prefix)
{
    std::string flag(prefix, std::strlen(prefix) - 1);
    return parseF64(arg + std::strlen(prefix), flag).orThrow();
}

bool
matches(const char *arg, const char *prefix)
{
    return std::strncmp(arg, prefix, std::strlen(prefix)) == 0;
}

/**
 * --supervise=N: spawn N shard workers of this very invocation (same
 * binary, same flags, one --shard-owner each), restart any that crash
 * with bounded exponential backoff, SIGKILL any whose heartbeat file
 * goes silent, and print the merged CSV once the grid completes.
 */
int
runSupervisor(int argc, char **argv, const SweepSpec &spec,
              const std::string &dir, unsigned nWorkers,
              unsigned maxRestarts, double heartbeatSeconds)
{
    namespace fs = std::filesystem;
    using Clock = std::chrono::steady_clock;

    // Workers re-run our own command line minus the supervision flags;
    // heartbeats are forced on so stall detection has a signal.
    std::vector<std::string> base;
    base.push_back(argv[0]);
    bool saw_heartbeat = false;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (matches(arg, "--supervise=") ||
            matches(arg, "--max-restarts=") ||
            matches(arg, "--shard-owner="))
            continue;
        if (matches(arg, "--heartbeat="))
            saw_heartbeat = true;
        base.push_back(arg);
    }
    if (!saw_heartbeat) {
        heartbeatSeconds = 0.5;
        base.push_back("--heartbeat=0.5");
    }
    const double stall_horizon = std::max(10.0 * heartbeatSeconds, 5.0);

    struct Child
    {
        std::string owner;
        std::string heartbeat;
        pid_t pid = -1;
        unsigned restarts = 0;
        double backoff = 0.05; ///< seconds until retry, doubles
        Clock::time_point spawnedAt{};
        Clock::time_point restartAt{};
        bool done = false;   ///< exited cleanly (or drained)
        bool gaveUp = false; ///< restart budget exhausted
    };

    auto spawn = [&](Child &c) {
        std::vector<std::string> cmd = base;
        cmd.push_back("--shard-owner=" + c.owner);
        c.pid = spawnProcess(cmd).orThrow();
        c.spawnedAt = Clock::now();
    };

    std::vector<Child> children(nWorkers);
    for (unsigned w = 0; w < nWorkers; ++w) {
        children[w].owner = "w" + std::to_string(w);
        children[w].heartbeat =
            dir + "/heartbeat-" + children[w].owner + ".jsonl";
    }
    installShutdownHandler();
    for (Child &c : children)
        spawn(c);

    bool forwarded = false;
    while (true) {
        if (shutdownRequested() && !forwarded) {
            // Forward the shutdown once: workers drain, flush their
            // logs, and exit kExitInterrupted on their own.
            forwarded = true;
            for (Child &c : children)
                if (c.pid > 0)
                    killProcess(c.pid, SIGTERM);
        }
        bool busy = false;
        const Clock::time_point now = Clock::now();
        for (Child &c : children) {
            if (c.done || c.gaveUp)
                continue;
            if (c.pid <= 0) { // waiting out a restart backoff
                if (forwarded) {
                    c.done = true;
                    continue;
                }
                if (now >= c.restartAt)
                    spawn(c);
                busy = true;
                continue;
            }
            ExitStatus st = pollProcess(c.pid).orThrow();
            if (st.pid == -1) { // still running
                busy = true;
                if (!forwarded && heartbeatSeconds > 0 &&
                    std::chrono::duration<double>(now - c.spawnedAt)
                            .count() > stall_horizon) {
                    std::error_code ec;
                    const auto mtime = fs::last_write_time(
                        c.heartbeat, ec);
                    const double age =
                        ec ? stall_horizon + 1
                           : std::chrono::duration<double>(
                                 fs::file_time_type::clock::now() -
                                 mtime)
                                 .count();
                    if (age > stall_horizon) {
                        warn("supervisor: worker '", c.owner,
                             "' silent for ", age,
                             "s; killing for restart");
                        killProcess(c.pid, SIGKILL);
                    }
                }
                continue;
            }
            c.pid = -1;
            if ((st.exited && st.exitCode == 0) || forwarded) {
                c.done = true;
                continue;
            }
            warn("supervisor: worker '", c.owner, "' ",
                 st.toString());
            if (c.restarts >= maxRestarts) {
                c.gaveUp = true;
                warn("supervisor: worker '", c.owner,
                     "' exhausted its ", maxRestarts,
                     " restarts; giving up on it");
                continue;
            }
            ++c.restarts;
            c.restartAt = now + std::chrono::duration_cast<
                                    Clock::duration>(
                                    std::chrono::duration<double>(
                                        c.backoff));
            c.backoff = std::min(c.backoff * 2, 2.0);
            busy = true;
        }
        if (!busy)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }

    if (shutdownRequested()) {
        std::cerr << "supervisor interrupted; rerun with the same "
                     "--shard-dir to resume\n";
        return kExitInterrupted;
    }
    ShardMerge merged = mergeShardDir(dir, spec).orThrow();
    merged.results.writeCsv(std::cout);
    std::cerr << "supervise: " << merged.completed << "/"
              << spec.numCells() << " cells committed, "
              << merged.missing << " missing\n";
    return merged.missing == 0 ? 0 : 1;
}

int
runCli(int argc, char **argv)
{

    SimConfig cfg;
    cfg.kind = SystemKind::Ultrix;
    cfg.l1 = CacheParams{64_KiB, 64};
    cfg.l2 = CacheParams{1_MiB, 128};
    std::string workload = "gcc";
    std::string trace_path;
    Counter instrs = 2'000'000;
    std::optional<Counter> warmup;
    bool json = false;
    std::string trace_events_path;
    std::string chrome_trace_path;
    std::string stats_json_path;
    Counter interval = 0;
    FaultSpec faults;
    std::size_t batch = 0;
    bool check = false;
    unsigned fuzz_cases = 0;
    std::string fuzz_report_path;
    double progress_seconds = 0;
    std::string progress_out_path;
    std::string metrics_out_path;
    std::string shard_dir;
    std::string shard_owner;
    double lease_seconds = 30.0;
    unsigned sweep_seeds = 4;
    std::vector<SystemKind> sweep_systems;
    double heartbeat_seconds = 0;
    bool shard_merge = false;
    unsigned supervise = 0;
    unsigned max_restarts = 8;
    CrashPlan crash_plan;
    std::size_t crash_fuzz = 0;
    std::uint64_t phys_mb = 0;

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (matches(arg, "--system=")) {
            std::optional<SystemKind> kind = tryKindFromName(arg + 9);
            if (!kind)
                fatal("unknown system '", arg + 9,
                      "' (expected ULTRIX, MACH, INTEL, PA-RISC, "
                      "NOTLB, BASE, HW-INVERTED, HW-MIPS or SPUR)");
            cfg.kind = *kind;
        }
        else if (matches(arg, "--workload="))
            workload = arg + 11;
        else if (matches(arg, "--trace="))
            trace_path = arg + 8;
        else if (matches(arg, "--instructions="))
            instrs = numArg(arg, "--instructions=");
        else if (matches(arg, "--warmup="))
            warmup = numArg(arg, "--warmup=");
        else if (matches(arg, "--l1="))
            cfg.l1.sizeBytes = numArg(arg, "--l1=");
        else if (matches(arg, "--l1-line="))
            cfg.l1.lineSize = static_cast<unsigned>(
                numArg(arg, "--l1-line="));
        else if (matches(arg, "--l2="))
            cfg.l2.sizeBytes = numArg(arg, "--l2=");
        else if (matches(arg, "--l2-line="))
            cfg.l2.lineSize = static_cast<unsigned>(
                numArg(arg, "--l2-line="));
        else if (matches(arg, "--assoc=")) {
            cfg.l1.assoc = static_cast<unsigned>(numArg(arg, "--assoc="));
            cfg.l2.assoc = cfg.l1.assoc;
        } else if (matches(arg, "--tlb="))
            cfg.tlbEntries = static_cast<unsigned>(numArg(arg, "--tlb="));
        else if (matches(arg, "--protected="))
            cfg.tlbProtectedSlots = static_cast<unsigned>(
                numArg(arg, "--protected="));
        else if (matches(arg, "--page-bits="))
            cfg.pageBits = static_cast<unsigned>(
                numArg(arg, "--page-bits="));
        else if (matches(arg, "--interrupt="))
            cfg.costs.interruptCycles = numArg(arg, "--interrupt=");
        else if (matches(arg, "--hpt-ratio="))
            cfg.hptRatio = static_cast<unsigned>(
                numArg(arg, "--hpt-ratio="));
        else if (matches(arg, "--seed="))
            cfg.seed = numArg(arg, "--seed=");
        else if (matches(arg, "--ctx-switch="))
            cfg.ctxSwitchInterval = numArg(arg, "--ctx-switch=");
        else if (matches(arg, "--cores=")) {
            cfg.cores = static_cast<unsigned>(numArg(arg, "--cores="));
            fatalIf(cfg.cores == 0, "--cores must be positive");
        } else if (matches(arg, "--core-quantum=")) {
            cfg.coreQuantum = numArg(arg, "--core-quantum=");
            fatalIf(cfg.coreQuantum == 0,
                    "--core-quantum must be positive");
        } else if (std::strcmp(arg, "--private-l2tlb") == 0)
            cfg.sharedL2Tlb = false;
        else if (matches(arg, "--l2-tlb="))
            cfg.l2TlbEntries = static_cast<unsigned>(
                numArg(arg, "--l2-tlb="));
        else if (matches(arg, "--phys-mb=")) {
            phys_mb = numArg(arg, "--phys-mb=");
            fatalIf(phys_mb == 0,
                    "--phys-mb must be positive (omit the flag for "
                    "unlimited frames)");
        } else if (matches(arg, "--reclaim="))
            cfg.reclaimPolicy =
                parseReclaimPolicy(arg + 10).orThrow();
        else if (matches(arg, "--asid-bits="))
            cfg.tlbAsidBits = static_cast<unsigned>(
                numArg(arg, "--asid-bits="));
        else if (std::strcmp(arg, "--unified-l2") == 0)
            cfg.unifiedL2 = true;
        else if (std::strcmp(arg, "--json") == 0)
            json = true;
        else if (matches(arg, "--trace-events="))
            trace_events_path = arg + 15;
        else if (matches(arg, "--chrome-trace="))
            chrome_trace_path = arg + 15;
        else if (matches(arg, "--stats-json="))
            stats_json_path = arg + 13;
        else if (matches(arg, "--interval="))
            interval = numArg(arg, "--interval=");
        else if (std::strcmp(arg, "--progress") == 0)
            progress_seconds = 2.0;
        else if (matches(arg, "--progress=")) {
            progress_seconds = floatArg(arg, "--progress=");
            fatalIf(progress_seconds <= 0,
                    "--progress period must be positive seconds");
        } else if (matches(arg, "--progress-out="))
            progress_out_path = arg + 15;
        else if (matches(arg, "--metrics-out="))
            metrics_out_path = arg + 14;
        else if (matches(arg, "--inject-faults="))
            faults = FaultSpec::parse(arg + 16).orThrow();
        else if (matches(arg, "--batch=")) {
            batch = numArg(arg, "--batch=");
            fatalIf(batch == 0,
                    "--batch must be positive (1 = one-record blocks)");
        } else if (std::strcmp(arg, "--check") == 0)
            check = true;
        else if (matches(arg, "--fuzz=")) {
            fuzz_cases = static_cast<unsigned>(numArg(arg, "--fuzz="));
            fatalIf(fuzz_cases == 0, "--fuzz must be positive");
        } else if (matches(arg, "--fuzz-report="))
            fuzz_report_path = arg + 14;
        else if (matches(arg, "--shard-dir="))
            shard_dir = arg + 12;
        else if (matches(arg, "--shard-owner="))
            shard_owner = arg + 14;
        else if (matches(arg, "--lease-seconds=")) {
            lease_seconds = floatArg(arg, "--lease-seconds=");
            fatalIf(lease_seconds <= 0,
                    "--lease-seconds must be positive");
        } else if (matches(arg, "--seeds=")) {
            sweep_seeds = static_cast<unsigned>(numArg(arg, "--seeds="));
            fatalIf(sweep_seeds == 0, "--seeds must be positive");
        } else if (matches(arg, "--sweep-systems=")) {
            std::string list = arg + 16;
            for (std::size_t pos = 0; pos <= list.size();) {
                std::size_t comma = list.find(',', pos);
                if (comma == std::string::npos)
                    comma = list.size();
                std::string name = list.substr(pos, comma - pos);
                std::optional<SystemKind> kind = tryKindFromName(name);
                if (!kind)
                    fatal("unknown system '", name,
                          "' in --sweep-systems");
                sweep_systems.push_back(*kind);
                pos = comma + 1;
            }
            fatalIf(sweep_systems.empty(),
                    "--sweep-systems needs at least one system");
        } else if (matches(arg, "--heartbeat=")) {
            heartbeat_seconds = floatArg(arg, "--heartbeat=");
            fatalIf(heartbeat_seconds <= 0,
                    "--heartbeat period must be positive seconds");
        } else if (std::strcmp(arg, "--shard-merge") == 0)
            shard_merge = true;
        else if (matches(arg, "--supervise=")) {
            supervise = static_cast<unsigned>(
                numArg(arg, "--supervise="));
            fatalIf(supervise == 0, "--supervise must be positive");
        } else if (matches(arg, "--max-restarts="))
            max_restarts = static_cast<unsigned>(
                numArg(arg, "--max-restarts="));
        else if (matches(arg, "--crash-after="))
            crash_plan = CrashPlan::parse(arg + 14).orThrow();
        else if (matches(arg, "--crash-fuzz=")) {
            crash_fuzz = numArg(arg, "--crash-fuzz=");
            fatalIf(crash_fuzz == 0, "--crash-fuzz must be positive");
        } else
            fatal("unknown argument '", arg,
                  "' (see the header of examples/vmsim_cli.cc)");
    }
    // Resolved after the loop so --phys-mb composes with --page-bits
    // in either flag order.
    if (phys_mb)
        cfg.physFrames = (phys_mb << 20) >> cfg.pageBits;
    // Fuzz mode replaces the simulation entirely: run the seeded
    // differential campaign and report. The JSON artifact is
    // byte-stable for a given seed (CI compares two runs with cmp).
    if (fuzz_cases > 0) {
        DiffOptions dopts;
        dopts.seed = cfg.seed;
        if (cfg.cores > 1)
            dopts.forceCores = cfg.cores;
        FuzzReport report = DiffRunner(dopts).run(fuzz_cases);
        std::string dumped = report.toJson().dump(2);
        if (!fuzz_report_path.empty()) {
            std::ofstream os(fuzz_report_path,
                             std::ios::out | std::ios::trunc);
            if (!os.is_open())
                throw VmsimError(errnoError(fuzz_report_path,
                                            "cannot open fuzz report "
                                            "for writing"));
            os << dumped << '\n';
        } else {
            std::cout << dumped << '\n';
        }
        std::cerr << report.toString() << '\n';
        return report.ok() ? 0 : 1;
    }

    // Crash-fuzz mode: hammer sharded sweeps with seeded SIGKILLs and
    // assert journal integrity plus merge byte-identity.
    if (crash_fuzz > 0) {
        CrashFuzzOptions copts;
        copts.campaigns = crash_fuzz;
        copts.seed = cfg.seed;
        copts.dir = shard_dir; // optional scratch override
        CrashFuzzReport report = runCrashFuzz(copts);
        std::cout << report.toJson().dump(2) << '\n';
        std::cerr << report.toString() << '\n';
        return report.ok() ? 0 : 1;
    }

    fatalIf(shard_dir.empty() &&
                (shard_merge || supervise > 0 || !shard_owner.empty() ||
                 crash_plan.armed()),
            "--shard-merge/--supervise/--shard-owner/--crash-after "
            "need --shard-dir=D");

    // Sharded-sweep modes: the grid is the config above crossed with
    // the --seeds and --sweep-systems axes — every worker, the
    // supervisor, and the merge must be launched with identical
    // sweep-defining flags (meta.json fingerprinting enforces it).
    if (!shard_dir.empty()) {
        SweepSpec spec;
        spec.base(cfg).instructions(instrs).warmup(warmup).seeds(
            sweep_seeds);
        if (!sweep_systems.empty())
            spec.systems(sweep_systems);
        if (shard_merge) {
            ShardMerge merged =
                mergeShardDir(shard_dir, spec).orThrow();
            merged.results.writeCsv(std::cout);
            std::cerr << "shard-merge: " << merged.completed << "/"
                      << spec.numCells() << " cells committed, "
                      << merged.missing << " missing\n";
            return merged.missing == 0 ? 0 : 1;
        }
        if (supervise > 0)
            return runSupervisor(argc, argv, spec, shard_dir,
                                 supervise, max_restarts,
                                 heartbeat_seconds);
        installShutdownHandler();
        ShardOptions sopts;
        sopts.dir = shard_dir;
        sopts.owner = shard_owner;
        sopts.leaseSeconds = lease_seconds;
        sopts.faults = faults;
        sopts.batchSize = batch;
        sopts.verify = check;
        sopts.heartbeatSeconds = heartbeat_seconds;
        sopts.crash = crash_plan;
        std::size_t committed = runShardWorker(spec, sopts);
        if (shutdownRequested()) {
            std::cerr << "shard worker interrupted after committing "
                      << committed
                      << " cells; rerun with the same --shard-dir to "
                         "resume\n";
            return kExitInterrupted;
        }
        ShardScan scan = scanShardDir(shard_dir, spec).orThrow();
        std::cerr << "shard worker committed " << committed
                  << " cells; " << scan.done << "/" << spec.numCells()
                  << " cells done\n";
        return 0;
    }

    Counter warmup_instrs = warmup.value_or(defaultWarmup(instrs));

    // Assemble the observability attachments: every requested exporter
    // sees the same event stream through one fan-out sink.
    MultiSink sinks;
    std::unique_ptr<JsonlEventWriter> events;
    if (!trace_events_path.empty()) {
        events = std::make_unique<JsonlEventWriter>(trace_events_path);
        sinks.add(events.get());
    }
    std::unique_ptr<ChromeTraceWriter> chrome;
    if (!chrome_trace_path.empty()) {
        chrome = std::make_unique<ChromeTraceWriter>(chrome_trace_path);
        sinks.add(chrome.get());
    }
    StatsRegistry registry;
    std::unique_ptr<StatsSink> stats;
    if (!stats_json_path.empty()) {
        stats = std::make_unique<StatsSink>(registry);
        sinks.add(stats.get());
    }
    std::unique_ptr<IntervalSampler> sampler;
    if (interval > 0)
        sampler = std::make_unique<IntervalSampler>(interval);
    // --check reconciles the event stream against the counters, so it
    // always collects events (alongside any exporters).
    std::unique_ptr<CollectingSink> collector;
    if (check) {
        collector = std::make_unique<CollectingSink>();
        sinks.add(collector.get());
    }
    // Distribution-level attribution rides along whenever a stats dump
    // or the checker wants it.
    std::unique_ptr<LatencyCollector> latency;
    if (!stats_json_path.empty() || check)
        latency = std::make_unique<LatencyCollector>();
    // Live telemetry for the single "cell" this run is.
    std::unique_ptr<SweepTelemetry> telemetry;
    if (progress_seconds > 0 || !progress_out_path.empty() ||
        !metrics_out_path.empty()) {
        TelemetryOptions topts;
        topts.periodSeconds =
            progress_seconds > 0 ? progress_seconds : 2.0;
        topts.progressPath = progress_out_path;
        topts.metricsPath = metrics_out_path;
        topts.toStderr =
            progress_seconds > 0 && progress_out_path.empty();
        telemetry = std::make_unique<SweepTelemetry>(topts, 1, 1);
        telemetry->beginCell(0, 0);
        telemetry->start();
    }

    RunHooks hooks;
    hooks.sink = sinks.empty() ? nullptr : &sinks;
    hooks.sampler = sampler.get();
    hooks.latency = latency.get();
    if (telemetry)
        hooks.progress = telemetry->progressCounter(0);
    std::unique_ptr<FaultySink> faulty_sink;
    if (faults.writeFail > 0) {
        faulty_sink = std::make_unique<FaultySink>(
            hooks.sink, faults, faultStream(faults.seed, 0, 0) ^ 1);
        hooks.sink = faulty_sink.get();
    }
    if (faults.any()) {
        EventSink *obs_sink = sinks.empty() ? nullptr : &sinks;
        hooks.wrapTrace = [&faults, obs_sink](
                              std::unique_ptr<TraceSource> inner) {
            return std::make_unique<FaultyTraceSource>(
                std::move(inner), faults,
                faultStream(faults.seed, 0, 0), obs_sink);
        };
    }

    hooks.batch = batch;

    Results r = [&] {
        if (!trace_path.empty()) {
            auto trace = TraceFileReader::open(trace_path).orThrow();
            std::unique_ptr<TraceSource> source = std::move(trace);
            if (hooks.wrapTrace)
                source = hooks.wrapTrace(std::move(source));
            System sys(cfg);
            sys.attachEventSink(hooks.sink);
            sys.attachSampler(hooks.sampler);
            sys.attachLatency(hooks.latency);
            sys.attachProgress(hooks.progress);
            sys.setBatchSize(batch);
            return sys.run(*source, instrs, trace_path, warmup_instrs);
        }
        return runOnce(cfg, workload, instrs, warmup_instrs, hooks);
    }();

    if (telemetry) {
        telemetry->endCell(0, true);
        telemetry->stop();
    }

    if (check) {
        InvariantChecker checker(cfg);
        CheckReport rep = checker.checkAll(
            r, &collector->events(),
            sampler ? &sampler->intervals() : nullptr, latency.get());
        if (telemetry)
            checkTelemetry(telemetry->snapshot(), true, rep);
        std::cerr << "check: " << rep.toString() << '\n';
        if (!rep.ok())
            return 1;
    }

    if (chrome)
        chrome->finish();
    if (!stats_json_path.empty()) {
        Json out = Json::object();
        out.set("results", r.toJson());
        if (latency)
            exportLatency(*latency, registry);
        out.set("stats", registry.toJson());
        if (sampler)
            out.set("intervals", intervalsToJson(sampler->intervals()));
        std::ofstream os(stats_json_path,
                         std::ios::out | std::ios::trunc);
        if (!os.is_open())
            throw VmsimError(errnoError(stats_json_path,
                                        "cannot open stats JSON for "
                                        "writing"));
        os << out.dump(2) << '\n';
    }

    if (json) {
        Json out = r.toJson();
        out.set("config", cfg.toString());
        std::cout << out.dump(2) << '\n';
        if (sampler) {
            std::cout << '\n';
            sampler->writeCsv(std::cout);
        }
        return 0;
    }

    std::cout << "config: " << cfg.toString() << "\n\n";
    r.printSummary(std::cout);

    const VmStats &s = r.vmStats();
    double per_k = 1000.0 / static_cast<double>(r.userInstrs());
    std::cout << "\n  user TLB misses / 1K instructions: I="
              << TextTable::fmt(per_k * s.itlbMisses, 3)
              << " D=" << TextTable::fmt(per_k * s.dtlbMisses, 3)
              << "\n  interrupt sweep: @10="
              << TextTable::fmt(r.interruptCpiAt(10), 5) << " @50="
              << TextTable::fmt(r.interruptCpiAt(50), 5) << " @200="
              << TextTable::fmt(r.interruptCpiAt(200), 5) << '\n';

    if (sampler) {
        std::cout << "\ninterval series (every " << interval
                  << " instructions):\n";
        sampler->writeCsv(std::cout);
    }
    return 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    // One boundary for every failure mode: structured errors print
    // their [code] line, legacy fatal()s their message, and nothing
    // escapes as an uncaught exception (which would abort with no
    // useful diagnostic).
    try {
        return runCli(argc, argv);
    } catch (const vmsim::VmsimError &e) {
        std::cerr << "vmsim_cli: " << e.error().toString() << '\n';
    } catch (const std::exception &e) {
        std::cerr << "vmsim_cli: error: " << e.what() << '\n';
    }
    return 1;
}
