/**
 * @file
 * The traced run. It has four parts:
 *
 *  1. The workload's sweep untraced, through SweepRunner, at the
 *     workload's job count, then serially before and after part 2: the
 *     reference wall times and the sweep engine's overhead.
 *  2. The same sweep re-enacted serially from the benchmark's code,
 *     one public call per step (TraceCache::acquire, runOnce, the
 *     audit, verifyIntegrity, SweepJournal::record, the stats export),
 *     each inside a span. Its output must equal the untraced sweeps'.
 *  3. Calibration runs, right after each re-enacted cell and outside
 *     the traced wall time, that split the cell's run into layers by
 *     differences of runs on the same recording: BASE at the cell's
 *     geometry (replay + caches), the organization on one core, on the
 *     workload's cores, under its frame budget, and with its observers.
 *     The differences telescope, so a cell's layers add up to its run;
 *     a layer the workload does not use is the difference of two equal
 *     runs and reads near zero.
 *  4. Probes of single components over the workload's own inputs:
 *     generation, recording and replay rates, Cache::access and
 *     Tlb::lookup timings, and the unit costs of the journal, export,
 *     audit and integrity check where the workload's sweep does not
 *     run them.
 *
 * The ledger sums the self times inside part 2's root span as part 3
 * splits them; ledger.coverage is that sum over the traced wall time.
 */

#include "traced.hh"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "base/json.hh"
#include "check/invariants.hh"
#include "core/factory.hh"
#include "core/journal.hh"
#include "mem/cache.hh"
#include "obs/exporters.hh"
#include "obs/latency.hh"
#include "obs/stats_registry.hh"
#include "tlb/tlb.hh"
#include "trace/recorded.hh"
#include "trace/synthetic/workloads.hh"

namespace vmbench
{

namespace
{

using namespace vmsim;
using Clock = std::chrono::steady_clock;

/** Keeps the probes' results live so their loops are not elided. */
volatile std::uint64_t g_sink = 0;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * Spans kept in memory and written out once, at the end of the run,
 * as a Chrome trace (one track; a span's parent is in its args).
 */
class Tracer
{
  public:
    static constexpr std::size_t kNoParent = ~std::size_t{0};

    std::size_t
    open(std::string name, std::size_t parent = kNoParent)
    {
        spans_.push_back({std::move(name), parent, now(), -1.0});
        return spans_.size() - 1;
    }

    double
    close(std::size_t id)
    {
        spans_[id].end = now();
        return spans_[id].end - spans_[id].start;
    }

    /** Time @p fn inside a span (closed on exceptions too). */
    template <typename Fn>
    double
    time(std::string name, std::size_t parent, Fn &&fn)
    {
        const std::size_t id = open(std::move(name), parent);
        try {
            fn();
        } catch (...) {
            close(id);
            throw;
        }
        return close(id);
    }

    /** Total duration of every span named @p name. */
    double
    total(const std::string &name) const
    {
        double sum = 0;
        for (const Span &s : spans_)
            if (s.name == name)
                sum += s.end - s.start;
        return sum;
    }

    void
    write(const std::string &path) const
    {
        ChromeTraceWriter writer(path);
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            writer.durationEvent(
                s.name, "vmbench", s.start * 1e6, (s.end - s.start) * 1e6,
                ChromeTraceWriter::kWallPid, 0,
                {{"id", std::to_string(i)},
                 {"parent", s.parent == kNoParent
                                ? std::string("none")
                                : std::to_string(s.parent)}});
        }
        writer.finish();
    }

  private:
    struct Span
    {
        std::string name;
        std::size_t parent;
        double start;
        double end;
    };

    double
    now() const
    {
        return std::chrono::duration<double>(Clock::now() - origin_)
            .count();
    }

    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
};

/**
 * Translation refills, the events an organization's cost is charged
 * per: TLB misses, or for the TLB-less NOTLB and SPUR the L2-miss
 * handler invocations and in-cache walks that stand in for them.
 */
Counter
refills(const Results &r)
{
    const VmStats &vm = r.vmStats();
    const Counter misses = vm.itlbMisses + vm.dtlbMisses;
    return misses ? misses : vm.uhandlerCalls + vm.hwWalks;
}

/** Hooks that replay the shared recording @p rec. */
RunHooks
replayHooks(const std::shared_ptr<const RecordedTrace> &rec)
{
    RunHooks hooks;
    hooks.makeTrace = [rec] {
        return NamedTraceSource{std::make_unique<ReplayCursor>(rec),
                                rec->name()};
    };
    return hooks;
}

/**
 * The observers a workload's sweep attaches to each of its cells (as
 * CellRunner does); none when @p on is false.
 */
struct Observers
{
    std::unique_ptr<IntervalSampler> sampler;
    std::unique_ptr<LatencyCollector> latency;
    std::unique_ptr<JsonlEventWriter> events;

    Observers(const Workload &w, bool on, const std::string &eventPath)
    {
        if (!on)
            return;
        if (w.interval)
            sampler = std::make_unique<IntervalSampler>(w.interval);
        if (w.statsJson || w.check)
            latency = std::make_unique<LatencyCollector>();
        if (w.eventLog)
            events = std::make_unique<JsonlEventWriter>(eventPath);
    }

    void
    attach(RunHooks &hooks) const
    {
        hooks.sampler = sampler.get();
        hooks.latency = latency.get();
        hooks.sink = events.get();
    }
};

/**
 * The stats document SweepRunner writes for --stats-json, built with
 * the same public calls (Results::toJson, exportLatency, the registry
 * and Json::dump) so its cost can be timed from outside the runner.
 */
void
exportStats(const std::string &path, const SweepResults &res,
            const std::vector<IntervalSummary> &summaries,
            const std::vector<std::unique_ptr<LatencyCollector>> &lats)
{
    StatsRegistry registry;
    Distribution &wall = registry.distribution("sweep.wall_seconds");
    Distribution &ips = registry.distribution("sweep.instrs_per_sec");
    Json cells = Json::array();
    for (std::size_t i = 0; i < res.size(); ++i) {
        const CellTiming &t = res.timings()[i];
        wall.sample(t.wallSeconds);
        ips.sample(t.instrsPerSec);
        Json row = Json::object();
        row.set("cell", static_cast<std::uint64_t>(i));
        const CellOutcome &o = res.outcomeAt(i);
        Json outcome = Json::object();
        outcome.set("ok", o.ok);
        outcome.set("attempts", o.attempts);
        outcome.set("from_journal", o.fromJournal);
        row.set("outcome", std::move(outcome));
        if (o.ok)
            row.set("results", res.at(i).toJson());
        Json timing = Json::object();
        timing.set("start_seconds", t.startSeconds);
        timing.set("wall_seconds", t.wallSeconds);
        timing.set("worker", t.worker);
        timing.set("instrs_per_sec", t.instrsPerSec);
        row.set("timing", std::move(timing));
        if (!summaries.empty()) {
            const IntervalSummary &s = summaries[i];
            Json sj = Json::object();
            sj.set("intervals", s.intervals);
            sj.set("mean_vmcpi", s.meanVmcpi);
            sj.set("stddev_vmcpi", s.stddevVmcpi);
            sj.set("min_vmcpi", s.minVmcpi);
            sj.set("max_vmcpi", s.maxVmcpi);
            row.set("interval_summary", std::move(sj));
        }
        if (!lats.empty() && lats[i]) {
            StatsRegistry lreg;
            exportLatency(*lats[i], lreg);
            row.set("latency", lreg.toJson());
        }
        cells.push(std::move(row));
    }
    Json doc = Json::object();
    doc.set("cells", std::move(cells));
    doc.set("stats", registry.toJson());
    std::ofstream os(path, std::ios::trunc);
    os << doc.dump(2) << '\n';
    if (!os)
        throw std::runtime_error("cannot write " + path);
}

/** Recording key of a cell: every cell with the same key shares one. */
using TraceKey = std::pair<std::string, std::uint64_t>;

/** The sweep's distinct recordings, in the order cells first use them. */
std::vector<TraceKey>
traceKeys(const SweepSpec &spec)
{
    std::vector<TraceKey> keys;
    for (std::size_t i = 0; i < spec.numCells(); ++i) {
        SweepCell c = spec.cell(i);
        TraceKey k{c.workload, c.config.seed};
        if (std::find(keys.begin(), keys.end(), k) == keys.end())
            keys.push_back(k);
    }
    return keys;
}

constexpr SystemKind kTracedOrgs[] = {
    SystemKind::Ultrix, SystemKind::Mach,       SystemKind::Intel,
    SystemKind::Parisc, SystemKind::Notlb,      SystemKind::HwInverted,
    SystemKind::HwMips, SystemKind::Spur,
};

/** Metric-name form of an organization: "hw_inverted", "parisc". */
std::string
orgKey(SystemKind k)
{
    std::string s;
    for (char c : std::string(kindName(k))) {
        if (c == '-')
            s += k == SystemKind::Parisc ? "" : "_";
        else
            s += static_cast<char>(std::tolower(c));
    }
    return s;
}

/** Everything one traced run shares between its parts. */
struct Context
{
    const Workload &w;
    const std::string &dir;
    const SweepSpec &spec;
    std::size_t cells;
    Counter executed;
    Tracer tr;
    TraceCache cache{std::size_t{256} << 20};

    Context(const Workload &wl, const std::string &d)
        : w(wl), dir(d), spec(wl.spec), cells(wl.spec.numCells()),
          executed(wl.executedPerCell())
    {}

    std::shared_ptr<const RecordedTrace>
    recording(const std::string &workload, std::uint64_t seed)
    {
        auto rec = cache.acquire(workload, seed, executed);
        if (!rec)
            throw std::runtime_error("trace cache over budget");
        return rec;
    }

    /** Time one run of @p cfg over @p rec; @p observed attaches the
     *  workload's observers. */
    std::pair<double, Results>
    timedRun(const SimConfig &cfg, const std::string &workload,
             const std::shared_ptr<const RecordedTrace> &rec,
             bool observed) const
    {
        RunHooks hooks = replayHooks(rec);
        Observers obs(w, observed, dir + "/calibration-events.jsonl");
        obs.attach(hooks);
        const auto t0 = Clock::now();
        Results r = runOnce(cfg, workload, spec.instructionCount(),
                            spec.warmupCount(), hooks);
        if (obs.events)
            obs.events->flush();
        return {since(t0), std::move(r)};
    }
};

struct OrgCost
{
    double self = 0;
    Counter refills = 0;
    std::size_t cells = 0; ///< 0 = measured on the panel
};

/** Part 3's output: the cells' runs split into layers, summed. */
struct Split
{
    double base = 0;
    double multicore = 0;
    double framePool = 0;
    double observers = 0;
    std::map<SystemKind, OrgCost> orgs;
};

/**
 * Part 3 for one cell: its calibration runs, back to back and right
 * after the cell's traced run, so neither they nor the traced run
 * start colder than the others.
 */
void
calibrateCell(const Context &cx, const SweepCell &cell,
              const std::shared_ptr<const RecordedTrace> &rec, Split &sp)
{
    const SimConfig &full = cell.config;
    SimConfig unbudgeted = full;
    unbudgeted.physFrames = 0;
    SimConfig oneCore = unbudgeted;
    oneCore.cores = 1;
    SimConfig base = oneCore;
    base.kind = SystemKind::Base;

    const auto t0 = cx.timedRun(base, cell.workload, rec, false);
    auto t1 = t0;
    if (full.kind != SystemKind::Base) {
        t1 = cx.timedRun(oneCore, cell.workload, rec, false);
        OrgCost &o = sp.orgs[full.kind];
        o.self += t1.first - t0.first;
        o.refills += refills(t1.second);
        ++o.cells;
    }
    const double t2 = cx.timedRun(unbudgeted, cell.workload, rec, false).first;
    const double t3 = cx.timedRun(full, cell.workload, rec, false).first;
    const double t4 = cx.timedRun(full, cell.workload, rec, true).first;
    sp.base += t0.first;
    sp.multicore += t2 - t1.first;
    sp.framePool += t3 - t2;
    sp.observers += t4 - t3;
}

/**
 * Part 3 for the organizations the grid does not run: the same
 * difference on a panel of the workload's first recordings at its
 * first cell's geometry.
 */
void
calibratePanel(Context &cx, Split &sp)
{
    const std::vector<TraceKey> keys = traceKeys(cx.spec);
    for (SystemKind k : kTracedOrgs) {
        if (sp.orgs.count(k))
            continue;
        OrgCost &o = sp.orgs[k];
        SimConfig cfg = cx.spec.cell(0).config;
        cfg.cores = 1;
        cfg.physFrames = 0;
        for (std::size_t j = 0; j < keys.size() && j < 3; ++j) {
            const auto rec = cx.recording(keys[j].first, keys[j].second);
            cfg.seed = keys[j].second;
            cfg.kind = SystemKind::Base;
            const double tb =
                cx.timedRun(cfg, keys[j].first, rec, false).first;
            cfg.kind = k;
            const auto to = cx.timedRun(cfg, keys[j].first, rec, false);
            o.self += to.first - tb;
            o.refills += refills(to.second);
        }
    }
}

/** Parts 2 and 3's output. */
struct Reenactment
{
    SweepResults res;
    Split split;
    Counter events = 0;
    double wall = 0; ///< the root span less its calibration children
};

/**
 * Parts 2 and 3: the sweep re-enacted serially, one span per public
 * call, each cell followed by its calibration runs.
 */
Reenactment
reenact(Context &cx)
{
    const Workload &w = cx.w;
    const std::size_t n = cx.cells;
    Tracer &tr = cx.tr;
    clearOutputs(w, cx.dir);

    Reenactment out;
    const std::size_t root = tr.open("sweep");
    const auto rootStart = Clock::now();
    double calibration = 0;
    std::unique_ptr<SweepJournal> journal;
    if (w.journal)
        tr.time("core.journal", root, [&] {
            journal = std::make_unique<SweepJournal>(journalPath(cx.dir),
                                                     cx.spec, false);
        });
    std::vector<Results> results(n);
    std::vector<CellTiming> timings(n);
    std::vector<CellOutcome> outcomes(n);
    std::vector<IntervalSummary> summaries(w.interval ? n : 0);
    std::vector<std::unique_ptr<LatencyCollector>> lats(n);
    for (std::size_t i = 0; i < n; ++i) {
        const SweepCell cell = cx.spec.cell(i);
        const auto cellStart = Clock::now();
        const std::size_t c = tr.open("cell", root);
        std::shared_ptr<const RecordedTrace> rec;
        try {
            tr.time("trace.acquire", c, [&] {
                rec = cx.recording(cell.workload, cell.config.seed);
            });
            RunHooks hooks = replayHooks(rec);
            Observers obs(w, true, cellEventsPath(cx.dir, i));
            obs.attach(hooks);
            tr.time("run", c, [&] {
                results[i] = runOnce(cell.config, cell.workload,
                                     cx.spec.instructionCount(),
                                     cx.spec.warmupCount(), hooks);
                if (obs.sampler)
                    summaries[i] =
                        summarizeIntervals(obs.sampler->intervals());
                if (obs.events) {
                    obs.events->flush();
                    out.events += obs.events->eventsWritten();
                }
            });
            lats[i] = std::move(obs.latency);
            if (w.check) {
                tr.time("check.audit", c, [&] {
                    InvariantChecker(cell.config)
                        .checkAll(results[i], nullptr, nullptr,
                                  lats[i].get())
                        .orThrow();
                });
                tr.time("trace.verify", c,
                        [&] { rec->verifyIntegrity().orThrow(); });
            }
            if (journal)
                tr.time("core.journal", c,
                        [&] { journal->record(i, results[i]); });
        } catch (...) {
            outcomes[i].ok = false;
            outcomes[i].error = errorFromException(std::current_exception());
            results[i] = Results{};
        }
        tr.close(c);
        CellTiming &t = timings[i];
        t.startSeconds =
            std::chrono::duration<double>(cellStart - rootStart).count() -
            calibration;
        t.wallSeconds = since(cellStart);
        t.instrsPerSec =
            outcomes[i].ok ? double(cx.executed) / t.wallSeconds : 0.0;
        if (outcomes[i].ok)
            calibration += tr.time("calibration", root, [&] {
                calibrateCell(cx, cell, rec, out.split);
            });
    }
    journal.reset();
    out.res = SweepResults(cx.spec, std::move(results), std::move(timings),
                           std::move(outcomes));
    if (w.statsJson)
        tr.time("obs.export", root, [&] {
            exportStats(statsPath(cx.dir), out.res, summaries, lats);
        });
    out.wall = tr.close(root) - calibration;
    std::filesystem::remove(cx.dir + "/calibration-events.jsonl");
    calibratePanel(cx, out.split);
    return out;
}

/** Part 4's trace-layer probes over every recording the sweep uses. */
struct TraceProbe
{
    double generate = 0; ///< makeWorkload + nextBatch, no framing
    double record = 0;   ///< RecordedTrace::record of the same
    double replay = 0;   ///< ReplayCursor::lendBatch over a recording
    Counter replayed = 0;
    double records = 0;
};

TraceProbe
probeTrace(Context &cx)
{
    TraceProbe p;
    std::vector<TraceRecord> buf(Simulator::kDefaultBatch);
    std::uint64_t sink = 0;
    for (const TraceKey &k : traceKeys(cx.spec)) {
        auto gen = makeWorkload(k.first, k.second);
        auto t0 = Clock::now();
        for (Counter done = 0; done < cx.executed;) {
            const std::size_t got = gen->nextBatch(
                buf.data(),
                std::min<Counter>(buf.size(), cx.executed - done));
            if (got == 0)
                break;
            sink += buf[got - 1].pc;
            done += got;
        }
        p.generate += since(t0);

        auto src = makeWorkload(k.first, k.second);
        t0 = Clock::now();
        const RecordedTrace fresh = RecordedTrace::record(*src, cx.executed);
        p.record += since(t0);
        sink += fresh.size();

        const auto rec = cx.recording(k.first, k.second);
        t0 = Clock::now();
        for (int rep = 0; rep < 8; ++rep) {
            ReplayCursor cur(rec);
            std::size_t got = 0;
            while (const TraceRecord *b =
                       cur.lendBatch(Simulator::kDefaultBatch, got)) {
                if (got == 0)
                    break;
                sink += b[got - 1].daddr;
                p.replayed += got;
            }
        }
        p.replay += since(t0);
        p.records += double(cx.executed);
    }
    g_sink = sink;
    return p;
}

/** Seconds and operations of a component probe. */
struct UnitCost
{
    double seconds = 0;
    Counter ops = 0;
    Counter hits = 0;
    std::size_t geometries = 0;
};

/** Cache::access over @p rec's I and D streams at every geometry the
 *  sweep uses (L1 and L2). */
UnitCost
probeCache(const Context &cx, const RecordedTrace &rec)
{
    std::vector<CacheParams> geoms;
    for (std::size_t i = 0; i < cx.cells; ++i) {
        const SimConfig cfg = cx.spec.cell(i).config;
        for (const CacheParams &p : {cfg.l1, cfg.l2})
            if (std::none_of(geoms.begin(), geoms.end(),
                             [&](const CacheParams &g) {
                                 return g.sizeBytes == p.sizeBytes &&
                                        g.lineSize == p.lineSize &&
                                        g.assoc == p.assoc;
                             }))
                geoms.push_back(p);
    }
    UnitCost u;
    u.geometries = geoms.size();
    for (const CacheParams &p : geoms) {
        Cache icache(p, 1), dcache(p, 2);
        const auto t0 = Clock::now();
        for (const TraceRecord &r : rec.records()) {
            icache.access(r.pc);
            if (r.isMemOp())
                dcache.access(r.daddr);
        }
        u.seconds += since(t0);
        const Counter ops = icache.accesses() + dcache.accesses();
        u.ops += ops;
        u.hits += ops - icache.misses() - dcache.misses();
    }
    return u;
}

/** Tlb::lookup (and insert on a miss) over @p rec's VPN streams with
 *  the paper's ULTRIX TLB geometry. */
UnitCost
probeTlb(const Context &cx, const RecordedTrace &rec)
{
    const SimConfig cfg = cx.spec.cell(0).config;
    const TlbParams tp = tlbParamsFor(SystemKind::Ultrix, cfg);
    Tlb itlb(tp, 1), dtlb(tp, 2);
    const auto t0 = Clock::now();
    for (const TraceRecord &r : rec.records()) {
        const Vpn iv = r.pc >> cfg.pageBits;
        if (!itlb.lookup(iv))
            itlb.insert(iv);
        if (r.isMemOp()) {
            const Vpn dv = r.daddr >> cfg.pageBits;
            if (!dtlb.lookup(dv))
                dtlb.insert(dv);
        }
    }
    UnitCost u;
    u.seconds = since(t0);
    u.ops = itlb.accesses() + dtlb.accesses();
    u.hits = itlb.hits() + dtlb.hits();
    return u;
}

/** The per-layer metrics, in print order, each with an optional note
 *  giving its base count or where it was measured. */
class Metrics
{
  public:
    void
    add(const std::string &name, double value, const std::string &unit,
        const std::string &note = "")
    {
        Json m = Json::object();
        m.set("value", value);
        m.set("unit", unit);
        if (!note.empty())
            m.set("note", note);
        obj_.set(name, std::move(m));
    }

    Json take() { return std::move(obj_); }

  private:
    Json obj_ = Json::object();
};

} // namespace

int
runTraced(const Workload &w, const std::string &dir)
{
    Context cx(w, dir);
    const std::size_t n = cx.cells;
    Tracer &tr = cx.tr;

    // 1. Untraced references. The parallel sweep goes first and warms
    // the process up; the serial one runs before and after the
    // re-enactment, so drift in the host's speed cancels out of the
    // tracing overhead.
    auto untraced = [&](unsigned jobs) {
        clearOutputs(w, dir);
        const SweepRunner runner = makeRunner(w, jobs, dir);
        const auto t0 = Clock::now();
        SweepResults res = runner.run(w.spec);
        return std::make_pair(std::move(res), since(t0));
    };
    const auto [parallel, wallParallel] = untraced(kJobs);
    const auto [serial, wallBefore] = untraced(1);
    double cellSum = 0;
    for (const CellTiming &t : parallel.timings())
        cellSum += t.wallSeconds;

    // 2 and 3.
    const Reenactment re = reenact(cx);
    const Split &sp = re.split;
    const auto [serialAfter, wallAfter] = untraced(1);
    const double wallSerial = (wallBefore + wallAfter) / 2;

    // Output checks, outside the traced sweep: one output across all
    // four executions, invariants clean on every cell.
    std::string csv;
    const double csvSeconds = tr.time("core.results.csv", Tracer::kNoParent,
                                      [&] { csv = sweepCsv(re.res); });
    const std::string dump = resultsDump(re.res);
    bool outputsEqual = true;
    for (const SweepResults *other : {&parallel, &serial, &serialAfter})
        outputsEqual = outputsEqual && csv == sweepCsv(*other) &&
                       dump == resultsDump(*other);
    writeCheckedOutputs(dir, re.res);
    std::size_t auditFailed = 0;
    if (!w.check)
        tr.time("check.audit", Tracer::kNoParent,
                [&] { auditFailed = auditCells(re.res); });
    const double auditSeconds = tr.total("check.audit");

    // 4. Probes.
    const TraceProbe tp = probeTrace(cx);
    const std::vector<TraceKey> keys = traceKeys(w.spec);
    if (!w.check)
        for (const TraceKey &k : keys) {
            const auto rec = cx.recording(k.first, k.second);
            tr.time("trace.verify", Tracer::kNoParent,
                    [&] { rec->verifyIntegrity().orThrow(); });
        }
    const double verifySeconds = tr.total("trace.verify");
    const auto first = cx.recording(keys[0].first, keys[0].second);
    const UnitCost cacheCost = probeCache(cx, *first);
    const UnitCost tlbCost = probeTlb(cx, *first);
    if (!w.journal) {
        const std::string path = dir + "/probe-journal.jsonl";
        tr.time("core.journal", Tracer::kNoParent, [&] {
            SweepJournal j(path, w.spec, false);
            for (std::size_t i = 0; i < n; ++i)
                j.record(i, re.res.at(i));
        });
        std::filesystem::remove(path);
    }
    const double journalSeconds = tr.total("core.journal");
    if (!w.statsJson) {
        const std::string path = dir + "/probe-stats.json";
        tr.time("obs.export", Tracer::kNoParent,
                [&] { exportStats(path, re.res, {}, {}); });
        std::filesystem::remove(path);
    }
    const double exportSeconds = tr.total("obs.export");

    // Simulated totals over the re-enacted sweep's cells.
    Counter l1Acc = 0, l1Miss = 0, l2Miss = 0, shootdowns = 0;
    Counter majors = 0, evictions = 0, writebacks = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (!re.res.okAt(i))
            continue;
        const Results &r = re.res.at(i);
        for (const auto *side : {&r.memStats().inst, &r.memStats().data})
            for (const ClassCounters &cc : *side) {
                l1Acc += cc.accesses;
                l1Miss += cc.l1Misses;
                l2Miss += cc.l2Misses;
            }
        shootdowns += r.vmStats().shootdownsSent;
        majors += r.vmStats().majorFaults;
        evictions += r.vmStats().evictions;
        writebacks += r.vmStats().writebacks;
    }

    // The ledger: self times inside the re-enactment's root span.
    const double recordSelf = tr.total("trace.acquire") - tp.generate;
    std::vector<std::pair<std::string, double>> ledger = {
        {"trace.generate.self_s", tp.generate},
        {"trace.record.self_s", recordSelf},
        {"mem.base.self_s", sp.base},
    };
    for (SystemKind k : w.spec.systemAxis())
        if (k != SystemKind::Base)
            ledger.push_back({"os." + orgKey(k) + ".self_s",
                              sp.orgs.at(k).self});
    ledger.push_back({"core.simulator.mc_self_s", sp.multicore});
    ledger.push_back({"mem.frame_pool.self_s", sp.framePool});
    ledger.push_back({"obs.self_s", sp.observers});
    if (w.statsJson)
        ledger.push_back({"obs.export_s", exportSeconds});
    if (w.check) {
        ledger.push_back({"check.audit", auditSeconds});
        ledger.push_back({"trace.verify.self_s", verifySeconds});
    }
    if (w.journal)
        ledger.push_back({"core.journal", journalSeconds});
    double explained = 0;
    for (const auto &entry : ledger)
        explained += entry.second;

    const std::string notInSweep = "probe: not in this sweep";
    Metrics m;
    m.add("trace.generate.mrec_per_s", tp.records / tp.generate / 1e6,
          "Mrec/s");
    m.add("trace.generate.self_s", tp.generate, "s");
    m.add("trace.record.mrec_per_s", tp.records / tp.record / 1e6,
          "Mrec/s");
    m.add("trace.record.self_s", recordSelf, "s");
    m.add("trace.replay.grec_per_s", double(tp.replayed) / tp.replay / 1e9,
          "Grec/s");
    m.add("trace.verify.self_s", verifySeconds, "s",
          w.check ? "" : "post-run check, outside the sweep");
    m.add("mem.base.self_s", sp.base, "s");
    m.add("mem.cache.ns_per_access",
          cacheCost.seconds * 1e9 / double(cacheCost.ops), "ns",
          std::to_string(cacheCost.ops) + " accesses, " +
              std::to_string(cacheCost.geometries) + " geometries");
    m.add("mem.cache.l1_miss_ratio", double(l1Miss) / double(l1Acc),
          "ratio", "of " + std::to_string(l1Acc) + " L1 accesses");
    m.add("mem.cache.l1_accesses", double(l1Acc), "count");
    m.add("mem.cache.l2_miss_ratio",
          l1Miss ? double(l2Miss) / double(l1Miss) : 0.0, "ratio",
          "of " + std::to_string(l1Miss) + " L2 accesses");
    m.add("mem.cache.l2_accesses", double(l1Miss), "count");
    m.add("mem.frame_pool.self_s", sp.framePool, "s");
    m.add("mem.frame_pool.major_faults", double(majors), "count");
    m.add("mem.frame_pool.evictions", double(evictions), "count");
    m.add("mem.frame_pool.writebacks", double(writebacks), "count");
    m.add("tlb.lookup_ns", tlbCost.seconds * 1e9 / double(tlbCost.ops),
          "ns");
    m.add("tlb.hit_ratio", double(tlbCost.hits) / double(tlbCost.ops),
          "ratio", "of " + std::to_string(tlbCost.ops) + " lookups");
    m.add("tlb.lookups", double(tlbCost.ops), "count");
    for (SystemKind k : kTracedOrgs) {
        const OrgCost &o = sp.orgs.at(k);
        const std::string key = "os." + orgKey(k);
        const std::string src = o.cells
                                    ? std::to_string(o.cells) + " grid cells"
                                    : std::string("panel: not in this grid");
        m.add(key + ".self_s", o.self, "s", src);
        m.add(key + ".ns_per_tlb_miss",
              o.refills ? o.self * 1e9 / double(o.refills) : 0.0, "ns",
              "of " + std::to_string(o.refills) + " refills, " + src);
    }
    m.add("core.simulator.mc_self_s", sp.multicore, "s");
    m.add("core.simulator.shootdowns", double(shootdowns), "count");
    m.add("core.sweep.overhead_s", wallParallel - cellSum / kJobs, "s",
          std::to_string(kJobs) + " jobs");
    m.add("core.sweep.worker_util", cellSum / (kJobs * wallParallel),
          "ratio", "of " + std::to_string(kJobs) + " workers");
    m.add("core.journal.ms_per_cell", journalSeconds * 1e3 / double(n),
          "ms", w.journal ? "" : notInSweep);
    m.add("core.results.csv_s", csvSeconds, "s");
    m.add("obs.self_s", sp.observers, "s");
    m.add("obs.events_per_cell", double(re.events) / double(n), "count",
          w.eventLog ? "" : "no event sink in this sweep");
    m.add("obs.export_s", exportSeconds, "s", w.statsJson ? "" : notInSweep);
    m.add("check.audit_ms_per_cell", auditSeconds * 1e3 / double(n), "ms",
          w.check ? "" : "post-run audit, outside the sweep");
    m.add("ledger.coverage", explained / re.wall, "ratio");
    m.add("ledger.tracing_overhead", re.wall / wallSerial, "ratio");

    tr.write(dir + "/spans.json");
    clearOutputs(w, dir);

    Json led = Json::array();
    for (const auto &[name, seconds] : ledger) {
        Json row = Json::array();
        row.push(name);
        row.push(seconds);
        led.push(std::move(row));
    }
    const std::size_t failed =
        re.res.failedCount() + parallel.failedCount() +
        serial.failedCount() + serialAfter.failedCount();
    Json out = Json::object();
    out.set("workload", w.name);
    out.set("cells", static_cast<std::uint64_t>(n));
    out.set("failed", static_cast<std::uint64_t>(failed));
    out.set("audit_failed", static_cast<std::uint64_t>(auditFailed));
    out.set("outputs_equal", outputsEqual);
    out.set("wall_traced_s", re.wall);
    out.set("wall_untraced_s", wallSerial);
    out.set("ledger", std::move(led));
    out.set("metrics", m.take());
    out.set("compiler", VMBENCH_COMPILER);
    out.set("build_type", VMBENCH_BUILD_TYPE);
    std::cout << out.dump() << std::endl;
    return outputsEqual && failed == 0 && auditFailed == 0 ? 0 : 1;
}

} // namespace vmbench
