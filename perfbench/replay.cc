#include "replay.hh"

#include <array>
#include <memory>

#include "analysis/cfg.hh"
#include "analysis/hints.hh"
#include "analysis/sharing.hh"
#include "common/logging.hh"
#include "core/msg_net.hh"
#include "core/smt_core.hh"
#include "energy/energy_model.hh"
#include "iasm/assembler.hh"
#include "profile/tracer.hh"
#include "sim/cmp.hh"

namespace perfbench
{

using namespace mmt;

void
Tracer::begin(const char *name, int job)
{
    int parent = open_.empty() ? -1 : open_.back();
    if (job < 0 && parent >= 0)
        job = spans_[static_cast<std::size_t>(parent)].job;
    spans_.push_back({name, nowNs(), 0, parent, job});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
}

void
Tracer::end()
{
    spans_[static_cast<std::size_t>(open_.back())].endNs = nowNs();
    open_.pop_back();
}

std::map<std::string, std::int64_t>
Tracer::selfNs() const
{
    std::vector<std::int64_t> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
        self[i] = spans_[i].endNs - spans_[i].startNs;
    for (const Span &s : spans_) {
        if (s.parent >= 0)
            self[static_cast<std::size_t>(s.parent)] -= s.endNs - s.startNs;
    }
    std::map<std::string, std::int64_t> by_name;
    for (std::size_t i = 0; i < spans_.size(); ++i)
        by_name[spans_[i].name] += self[i];
    return by_name;
}

namespace
{

// The helpers below restate runWorkload's file-local steps
// (src/sim/simulator.cc) through the same public calls.

std::vector<std::unique_ptr<MemoryImage>>
buildImages(const Workload &workload, const Program &prog, int num_threads,
            bool multi_execution, bool identical)
{
    std::vector<std::unique_ptr<MemoryImage>> images;
    int count = multi_execution ? num_threads : 1;
    for (int i = 0; i < count; ++i) {
        auto img = std::make_unique<MemoryImage>();
        img->loadData(prog);
        workload.initData(*img, prog, i, num_threads, identical);
        images.push_back(std::move(img));
    }
    return images;
}

std::vector<MemoryImage *>
imagePointers(std::vector<std::unique_ptr<MemoryImage>> &images,
              int num_threads)
{
    std::vector<MemoryImage *> ptrs;
    for (int t = 0; t < num_threads; ++t) {
        ptrs.push_back(images.size() == 1
                           ? images[0].get()
                           : images[static_cast<std::size_t>(t)].get());
    }
    return ptrs;
}

double
computeStaticHints(CoreParams &params, const Program &prog)
{
    analysis::Cfg cfg(prog);
    analysis::SharingOptions shopt;
    shopt.multiExecution = params.multiExecution;
    shopt.forceTidZero = params.forceTidZero;
    analysis::SharingResult sharing = analysis::analyzeSharing(cfg, shopt);
    if (params.staticHints != StaticHintsMode::Off) {
        analysis::FetchHints hints = computeFetchHints(cfg, sharing);
        params.hintTable.divergentPcs = std::move(hints.divergentPcs);
        params.hintTable.reconvergencePcs =
            std::move(hints.reconvergencePcs);
        params.hintTable.splitPcs = std::move(hints.splitPcs);
        params.hintTable.splitCounts = std::move(hints.splitCounts);
    }
    const auto &c = sharing.classCounts;
    int total = 0;
    for (int n : c)
        total += n;
    int divergent = c[(std::size_t)analysis::ShareClass::Divergent];
    return total ? static_cast<double>(total - divergent) /
                       static_cast<double>(total)
                 : 1.0;
}

/** Add the counters the per-layer table reports for one finished run. */
void
addCounts(Cmp &cmp, Counts &n)
{
    n["sim.cycles"] += static_cast<double>(cmp.now());
    for (int c = 0; c < cmp.numCores(); ++c) {
        SmtCore &core = cmp.core(c);
        auto add = [&n](const char *name, const Counter &counter) {
            n[name] += static_cast<double>(counter.value());
        };
        add("sim.thread_insts", core.stats.committedThreadInsts);
        add("core.fetch_records", core.stats.fetchRecords);
        add("core.commit_instances", core.stats.committedInstances);
        add("core.iq_wakeups", core.issueQueue().wakeups);
        add("core.rename_ops", core.renameUnit().renameOps);
        add("core.wait_dispatch", core.stats.waitDispatch);
        add("core.wait_issue", core.stats.waitIssue);
        add("core.wait_exec", core.stats.waitExec);
        add("core.wait_commit", core.stats.waitCommit);
        add("mmt.merged", core.stats.identClass[2]);
        add("mmt.merged", core.stats.identClass[3]);
        add("mmt.divergences", core.fetchSync().divergences);
        add("mmt.remerges", core.fetchSync().remerges);
        add("mmt.lvip_rollbacks", core.stats.lvipRollbacks);
        add("mmt.reg_merges", core.regMergeUnit().merges);
        MemorySystem &mem = core.memSys();
        add("mem.l1i_accesses", mem.l1i().accesses);
        add("mem.l1i_misses", mem.l1i().misses);
        add("mem.l1d_accesses", mem.l1d().accesses);
        add("mem.l1d_misses", mem.l1d().misses);
        add("mem.l2_accesses", mem.l2().accesses);
        add("mem.l2_misses", mem.l2().misses);
        add("mem.trace_cache_accesses", core.traceCache().accesses);
        add("mem.trace_cache_misses", core.traceCache().misses);
        add("mem.shared_l2_accesses", mem.sharedL2Accesses);
        add("mem.shared_icache_accesses", mem.sharedIAccesses);
        add("mem.shared_icache_hits", mem.sharedIHits);
        add("branch.lookups", core.bpred().lookups);
        add("branch.mispredicts", core.stats.branchMispredicts);
    }
    // Under a CMP the chip's L2 replaces each core's private one.
    if (Cache *l2 = cmp.sharedL2()) {
        n["mem.l2_accesses"] += static_cast<double>(l2->accesses.value());
        n["mem.l2_misses"] += static_cast<double>(l2->misses.value());
    }
}

} // namespace

RunResult
replayWorkload(const Workload &workload, ConfigKind kind, int num_threads,
               const SimOverrides &ov, bool check_golden, Tracer &tracer,
               int job, Counts &counts)
{
    Program prog;
    {
        Tracer::Scope s(tracer, "iasm.assemble", job);
        prog = assemble(workload.source, defaultCodeBase, defaultDataBase,
                        workload.name);
    }
    SystemParams sys;
    {
        Tracer::Scope s(tracer, "sim.build", job);
        sys = makeSystemParams(kind, workload, num_threads, ov);
    }
    double static_mergeable = 0.0;
    {
        Tracer::Scope s(tracer, "analysis.hints", job);
        static_mergeable = computeStaticHints(sys.core, prog);
    }
    bool identical = kind == ConfigKind::Limit;

    std::vector<std::unique_ptr<MemoryImage>> images;
    MessageNetwork net;
    std::unique_ptr<Cmp> cmp_owner;
    {
        Tracer::Scope s(tracer, "sim.build", job);
        images = buildImages(workload, prog, num_threads,
                             sys.core.multiExecution, identical);
        auto ptrs = imagePointers(images, num_threads);
        cmp_owner = std::make_unique<Cmp>(sys, &prog, ptrs);
        if (workload.messagePassing)
            cmp_owner->setMessageNetwork(&net);
    }
    Cmp &cmp = *cmp_owner;
    double host_seconds = 0.0;
    {
        Tracer::Scope s(tracer, "sim.run", job);
        std::int64_t start = nowNs();
        cmp.run();
        host_seconds = static_cast<double>(nowNs() - start) * 1e-9;
    }

    RunResult r;
    {
        Tracer::Scope s(tracer, "sim.collect", job);
        r.workload = workload.name;
        r.kind = kind;
        r.numThreads = num_threads;
        r.numCores = sys.numCores;
        r.placement = sys.placement;
        r.sharedICache = sys.sharedICache;
        r.cycles = cmp.now();

        std::array<std::uint64_t, 3> in_mode{};
        std::array<std::uint64_t, 4> ident{};
        double remerge_frac_weighted = 0.0;
        std::uint64_t remerge_total = 0;
        for (int c = 0; c < cmp.numCores(); ++c) {
            SmtCore &core = cmp.core(c);
            r.committedThreadInsts += core.stats.committedThreadInsts.value();
            r.fetchRecords += core.stats.fetchRecords.value();
            r.fetchedThreadInsts += core.stats.fetchedThreadInsts.value();
            for (std::size_t m = 0; m < in_mode.size(); ++m)
                in_mode[m] += core.stats.fetchedInMode[m].value();
            for (std::size_t i = 0; i < ident.size(); ++i)
                ident[i] += core.stats.identClass[i].value();
            r.lvipRollbacks += core.stats.lvipRollbacks.value();
            r.branchMispredicts += core.stats.branchMispredicts.value();
            FetchSync &sync = core.fetchSync();
            r.divergences += sync.divergences.value();
            r.remerges += sync.remerges.value();
            r.catchupAborted += sync.catchupAborted.value();
            r.syncLatencyCycles += sync.syncLatencyCycles.value();
            r.syncLatencySamples += sync.syncLatencySamples.value();
            r.splitSteerCharges += sync.splitSteerCharges.value();
            const Distribution &rd = sync.remergeDistance;
            if (rd.total() > 0) {
                remerge_frac_weighted +=
                    rd.cumulativeFraction(rd.limits().size() - 1) *
                    static_cast<double>(rd.total());
                remerge_total += rd.total();
            }
            MemorySystem &mem = core.memSys();
            r.sharedL2Accesses += mem.sharedL2Accesses.value();
            r.sharedL2Misses += mem.sharedL2Misses.value();
            r.sharedICacheAccesses += mem.sharedIAccesses.value();
            r.sharedICacheHits += mem.sharedIHits.value();

            EnergyBreakdown core_energy = computeEnergy(core);
            r.energy.cache += core_energy.cache;
            r.energy.overhead += core_energy.overhead;
            r.energy.other += core_energy.other;

            CoreBreakdown cb;
            cb.contexts = cmp.coreContexts(c);
            cb.cycles = core.now();
            cb.committedThreadInsts = core.stats.committedThreadInsts.value();
            double core_committed =
                static_cast<double>(cb.committedThreadInsts);
            cb.mergedFrac =
                core_committed > 0
                    ? (static_cast<double>(core.stats.identClass[2].value()) +
                       static_cast<double>(
                           core.stats.identClass[3].value())) /
                          core_committed
                    : 0.0;
            cb.energyPj = core_energy.total();
            cb.sharedICacheHits = mem.sharedIHits.value();
            r.perCore.push_back(std::move(cb));
        }

        double fetched = static_cast<double>(r.fetchedThreadInsts);
        for (std::size_t m = 0; m < in_mode.size(); ++m) {
            r.fetchModeFrac[m] =
                fetched > 0 ? static_cast<double>(in_mode[m]) / fetched
                            : 0.0;
        }
        double committed = static_cast<double>(r.committedThreadInsts);
        for (std::size_t i = 0; i < ident.size(); ++i) {
            r.identFrac[i] = committed > 0
                                 ? static_cast<double>(ident[i]) / committed
                                 : 0.0;
        }
        r.remergeWithin512 =
            remerge_total > 0 ? remerge_frac_weighted /
                                    static_cast<double>(remerge_total)
                              : 1.0;

        r.simSpeed.hostSeconds = host_seconds;
        if (host_seconds > 0.0) {
            r.simSpeed.simCyclesPerSec =
                static_cast<double>(r.cycles) / host_seconds;
            r.simSpeed.threadInstsPerSec =
                static_cast<double>(r.committedThreadInsts) / host_seconds;
        }
        r.staticMergeableFrac = static_mergeable;
    }
    addCounts(cmp, counts);

    r.goldenOk = true;
    if (kind == ConfigKind::Limit && !workload.multiExecution)
        check_golden = false;
    if (check_golden) {
        std::vector<std::unique_ptr<MemoryImage>> golden_images;
        MessageNetwork golden_net;
        std::unique_ptr<FunctionalCpu> golden;
        {
            Tracer::Scope s(tracer, "profile.golden", job);
            golden_images = buildImages(workload, prog, num_threads,
                                        sys.core.multiExecution, identical);
            auto golden_ptrs = imagePointers(golden_images, num_threads);
            golden = std::make_unique<FunctionalCpu>(
                &prog, golden_ptrs, sys.core.multiExecution,
                sys.core.forceTidZero);
            if (workload.messagePassing)
                golden->setMessageNetwork(&golden_net);
            golden->run();
        }
        Tracer::Scope s(tracer, "profile.compare", job);
        for (ThreadId ctx = 0; ctx < num_threads; ++ctx) {
            const ThreadState &ts = cmp.contextState(ctx);
            const FuncThread &ft = golden->thread(ctx);
            if (ts.regs != ft.regs || ts.output != ft.output)
                r.goldenOk = false;
            counts["profile.golden_insts"] +=
                static_cast<double>(ft.executed);
        }
        for (std::size_t i = 0; i < images.size(); ++i) {
            if (!images[i]->contentEquals(*golden_images[i]))
                r.goldenOk = false;
        }
        if (!r.goldenOk) {
            warn("golden-model mismatch: %s %s %dT", workload.name.c_str(),
                 configName(kind), num_threads);
        }
        golden.reset();
        golden_images.clear();
    }
    {
        // Teardown of the simulated system counts as system build.
        Tracer::Scope s(tracer, "sim.build", job);
        cmp_owner.reset();
        images.clear();
    }
    return r;
}

} // namespace perfbench
