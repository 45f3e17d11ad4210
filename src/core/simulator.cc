#include "core/simulator.hh"

#include <algorithm>

#include "core/factory.hh"
#include "trace/recorded.hh"
#include "trace/synthetic/workloads.hh"

namespace vmsim
{

Simulator::Simulator(VmSystem &vm, TraceSource &trace,
                     Counter ctx_switch_interval)
    : vm_(vm), sources_{&trace}, ctxSwitchInterval_(ctx_switch_interval)
{}

Simulator::Simulator(VmSystem &vm,
                     const std::vector<TraceSource *> &sources,
                     Counter ctx_switch_interval, Counter core_quantum)
    : vm_(vm), sources_(sources),
      ctxSwitchInterval_(ctx_switch_interval), coreQuantum_(core_quantum)
{
    panicIf(sources_.empty(), "Simulator needs at least one source");
    for (TraceSource *src : sources_)
        panicIf(!src, "Simulator given a null trace source");
    panicIf(sources_.size() > 1 && coreQuantum_ == 0,
            "multicore Simulator needs a nonzero core quantum");
    // One core never rotates, and leaves its per-core instruction slice
    // uncredited exactly as the single-source form does.
    if (sources_.size() == 1)
        coreQuantum_ = 0;
}

Counter
Simulator::run(Counter max_instrs)
{
    // The paper's fundamental algorithm (Section 3.1), one block of
    // consecutive records at a time: the organization's refBlock()
    // translates and fetches each instruction, then translates and
    // accesses its data. Blocks split at every point where something
    // other than the organization must act — the end of the run, the
    // context-switch point, the core quantum and the sampler's next
    // boundary — so those actions only ever fall at a block head and
    // the executed stream is the same at every block size.
    const std::size_t cap =
        std::clamp<std::size_t>(batch_, 1, UINT32_MAX); // AccessBlock::n
    Counter n = 0;
    while (n < max_instrs) {
        const Counter at = executed_ + n; // global number of the head
        noteProgress(at);
        if (cancel_ && cancel_->load(std::memory_order_relaxed)) {
            flushQuantum();
            executed_ += n;
            throwError(ErrorCode::Canceled, "simulator",
                       "run canceled after ", executed_,
                       " instructions");
        }
        // A switch is due at the head once counting it would bring
        // sinceSwitch_ to the interval, so the first quantum is
        // interval-1 instructions and later ones exactly interval.
        Counter room = max_instrs - n;
        bool due = false;
        if (ctxSwitchInterval_) {
            due = sinceSwitch_ + 1 >= ctxSwitchInterval_;
            room = std::min(room, due ? ctxSwitchInterval_
                                      : ctxSwitchInterval_ -
                                            sinceSwitch_ - 1);
        }
        if (coreQuantum_)
            room = std::min(room, coreQuantum_ - quantumUsed_);
        if (sampler_)
            room = std::min(room, sampler_->nextBoundary(at) - at);
        const auto want =
            static_cast<std::size_t>(std::min<Counter>(room, cap));
        // Fetch before acting on the head: a tick or switch happens only
        // when a next instruction exists, so a trace that ends on a
        // boundary ends the run without one. Sources with contiguous
        // storage (replay cursors) lend their buffer directly;
        // everything else fills the staging buffer.
        TraceSource &src = *sources_[curCore_];
        std::size_t got = 0;
        const TraceRecord *recs = src.lendBatch(want, got);
        if (!recs) {
            if (buf_.size() < cap)
                buf_.resize(cap);
            got = src.nextBatch(buf_.data(), want);
            recs = buf_.data();
        }
        if (got == 0)
            break;
        // The head, in per-instruction order: stamp, tick, switch.
        vm_.setCurrentInstr(at);
        if (sampler_)
            sampler_->tick(at, vm_);
        if (due) {
            vm_.contextSwitch(curCore_);
            // The head restarts the count at 0; the rest of the block
            // advances it (clamped above, so no second switch is due).
            sinceSwitch_ = got - 1;
        } else if (ctxSwitchInterval_) {
            sinceSwitch_ += got;
        }
        // One virtual dispatch per block; the organization's refBlock()
        // selects its observed or bare kernel and inlines its handlers.
        AccessBlock blk;
        blk.recs = recs;
        blk.n = static_cast<std::uint32_t>(got);
        blk.core = curCore_;
        blk.first = at;
        vm_.refBlock(blk);
        n += got;
        if (coreQuantum_ && (quantumUsed_ += got) >= coreQuantum_) {
            flushQuantum();
            quantumUsed_ = 0;
            quantumCredited_ = 0;
            curCore_ = (curCore_ + 1) % static_cast<CoreId>(sources_.size());
        }
    }
    flushQuantum();
    executed_ += n;
    noteProgress(executed_);
    return n;
}

System::System(const SimConfig &config)
    : System(std::vector<SimConfig>{config})
{}

System::System(const std::vector<SimConfig> &group)
{
    panicIf(group.empty(), "System needs at least one config");
    config_ = group.front();
    config_.validate().orThrow();
    physMem_ = std::make_unique<PhysMem>(config_.physMemBytes,
                                         config_.pageBits);
    mem_ = std::make_unique<MemSystem>(config_.l1, config_.l2,
                                       config_.unifiedL2);
    vm_ = makeVmSystem(config_, *mem_, *physMem_);
    if (group.size() > 1) {
        panicIf(kindReadsCacheState(config_.kind), kindName(config_.kind),
                " reads cache state and cannot run a fused group");
        std::vector<MemSystem *> extra;
        for (std::size_t k = 1; k < group.size(); ++k) {
            const SimConfig &c = group[k];
            panicIf(!config_.sameExceptCaches(c),
                    "fused group member ", k,
                    " differs from the first beyond its caches");
            c.validate().orThrow();
            extraMems_.push_back(std::make_unique<MemSystem>(
                c.l1, c.l2, c.unifiedL2));
            extra.push_back(extraMems_.back().get());
        }
        vm_->fanOut(extra);
    }
    // Arm the frame budget only after the organization has made its
    // page-table reservations, so the pool governs demand paging alone.
    if (config_.physFrames != 0) {
        physMem_->setBudget(config_.physFrames, config_.reclaimPolicy);
        vm_->enablePressure(*physMem_, config_.faultReadCycles,
                            config_.faultWritebackCycles,
                            config_.pageBits);
    }
}

System::~System() = default;

Results
System::run(TraceSource &trace, Counter max_instrs,
            const std::string &workload_name, Counter warmup_instrs)
{
    if (config_.cores > 1)
        return runMulticore(trace, max_instrs, workload_name,
                            warmup_instrs);
    Simulator sim(*vm_, trace, config_.ctxSwitchInterval);
    return finishRun(sim, max_instrs, workload_name, warmup_instrs);
}

Results
System::runMulticore(TraceSource &trace, Counter max_instrs,
                     const std::string &workload_name,
                     Counter warmup_instrs)
{
    const Counter total = warmup_instrs + max_instrs;
    // One recording feeds every core. When the caller already hands us
    // a fresh full-length replay cursor (the sweep trace cache does),
    // share its buffer instead of copying it record by record.
    std::shared_ptr<const RecordedTrace> recording;
    if (auto *cursor = dynamic_cast<ReplayCursor *>(&trace);
        cursor && cursor->position() == 0 &&
        cursor->trace().size() == total) {
        recording = cursor->shared();
    } else {
        recording = std::make_shared<const RecordedTrace>(
            RecordedTrace::record(trace, total, workload_name));
    }
    // Staggered wrapping cursors approximate independent address
    // spaces: each core replays the same workload from a different
    // phase, so the cores' working sets are disjoint in time while
    // total instruction volume stays exactly `total`.
    const std::size_t sz = recording->size();
    std::vector<std::unique_ptr<ReplayCursor>> cursors;
    std::vector<TraceSource *> sources;
    cursors.reserve(config_.cores);
    sources.reserve(config_.cores);
    for (unsigned c = 0; c < config_.cores; ++c) {
        const std::size_t start = sz ? (sz / config_.cores) * c : 0;
        cursors.push_back(
            std::make_unique<ReplayCursor>(recording, start, true));
        sources.push_back(cursors.back().get());
    }
    Simulator sim(*vm_, sources, config_.ctxSwitchInterval,
                  config_.coreQuantum);
    return finishRun(sim, max_instrs, workload_name, warmup_instrs);
}

Results
System::finishRun(Simulator &sim, Counter max_instrs,
                  const std::string &workload_name, Counter warmup_instrs)
{
    sim.setCancel(cancel_);
    sim.setProgress(progress_);
    if (batch_)
        sim.setBatchSize(batch_);
    // Observe only the measured region: events, intervals and latency
    // histograms from warmup would not reconcile with the (reset)
    // counters.
    vm_->attachEventSink(nullptr);
    vm_->attachLatency(nullptr);
    panicIf(!extraMems_.empty() && (sink_ || latency_ || sampler_),
            "observers need a one-config System");
    if (warmup_instrs > 0) {
        sim.run(warmup_instrs);
        mem_->resetStats();
        for (auto &m : extraMems_)
            m->resetStats();
        vm_->resetVmStats();
    }
    vm_->attachEventSink(sink_);
    if (latency_) {
        latency_->configure(config_.cores,
                            LatencyCosts{config_.costs.l1MissCycles,
                                         config_.costs.l2MissCycles,
                                         config_.costs.interruptCycles});
        vm_->attachLatency(latency_);
    }
    if (sampler_) {
        sampler_->configure(config_.costs, vm_->name(), workload_name);
        sampler_->attachLatency(latency_);
        sim.attachSampler(sampler_);
    }
    executed_ += sim.run(max_instrs);
    if (sampler_)
        sampler_->finish(sim.instructionsExecuted(), *vm_);
    if (sink_)
        sink_->flush();
    workload_ = workload_name;
    return resultsAt(0);
}

Results
System::resultsAt(std::size_t k) const
{
    panicIf(k > extraMems_.size(), "no cache hierarchy ", k);
    const MemSystem &m = k == 0 ? *mem_ : *extraMems_[k - 1];
    return Results(vm_->name(), workload_, executed_, m.stats(),
                   vm_->vmStats(), config_.costs);
}

Results
runOnce(const SimConfig &config, const std::string &workload,
        Counter instrs, std::optional<Counter> warmup_instrs)
{
    return runOnce(config, workload, instrs, warmup_instrs, RunHooks{});
}

namespace
{

/**
 * The trace a run consumes: the trace cache's replay cursor when
 * @p hooks supplies one, else the generated workload, wrapped by
 * hooks.wrapTrace. The display name is captured before any wrapping:
 * wrappers are plain TraceSources with no name of their own.
 */
NamedTraceSource
openTrace(const SimConfig &config, const std::string &workload,
          const RunHooks &hooks)
{
    NamedTraceSource named;
    if (hooks.makeTrace) {
        named = hooks.makeTrace();
    } else {
        auto trace = makeWorkload(workload, config.seed);
        named.name = trace->name();
        named.source = std::move(trace);
    }
    if (hooks.wrapTrace)
        named.source = hooks.wrapTrace(std::move(named.source));
    return named;
}

/** Attach @p hooks to @p system and run @p trace through it. */
Results
runSystem(System &system, NamedTraceSource &trace, Counter instrs,
          std::optional<Counter> warmup_instrs, const RunHooks &hooks)
{
    system.attachEventSink(hooks.sink);
    system.attachSampler(hooks.sampler);
    system.attachCancel(hooks.cancel);
    system.attachProgress(hooks.progress);
    system.attachLatency(hooks.latency);
    system.setBatchSize(hooks.batch);
    return system.run(*trace.source, instrs, trace.name,
                      warmup_instrs.value_or(defaultWarmup(instrs)));
}

} // namespace

Results
runOnce(const SimConfig &config, const std::string &workload,
        Counter instrs, std::optional<Counter> warmup_instrs,
        const RunHooks &hooks)
{
    NamedTraceSource trace = openTrace(config, workload, hooks);
    System system(config);
    Results r = runSystem(system, trace, instrs, warmup_instrs, hooks);
    if (hooks.audit)
        hooks.audit(r);
    return r;
}

std::vector<Results>
runFused(const std::vector<SimConfig> &group, const std::string &workload,
         Counter instrs, std::optional<Counter> warmup_instrs,
         const RunHooks &hooks)
{
    panicIf(group.empty(), "runFused needs at least one config");
    panicIf(hooks.wrapTrace || hooks.audit,
            "runFused takes no trace wrapper or audit");
    NamedTraceSource trace = openTrace(group.front(), workload, hooks);
    System system(group);
    std::vector<Results> out;
    out.reserve(group.size());
    out.push_back(runSystem(system, trace, instrs, warmup_instrs, hooks));
    for (std::size_t k = 1; k < group.size(); ++k)
        out.push_back(system.resultsAt(k));
    return out;
}

} // namespace vmsim
