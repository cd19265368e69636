/**
 * @file
 * Host-performance benchmark of the MMT simulator's figure sweeps.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             --workdir DIR
 *   perfbench --self-test --workdir DIR
 *   perfbench --list-metrics
 *
 * Each workload runs in this one process, serially: one sweep job in
 * flight at a time (closed loop). A pass runs every job of the
 * workload's figure sweeps once, in an order the seed permutes, then
 * writes the CSV and JSON artifacts and renders the figure tables.
 * A run makes a fixed number of passes, --seconds over the workload's
 * nominal pass time but at least kMinPasses, so the sample count does
 * not depend on how fast the code is. Each timed step (a cold job, a
 * warm figure sweep) counts at its fastest repeat. With
 * --trace 1, untimed passes alternate with traced passes that replay
 * every job through the same public calls inside spans, and the
 * per-layer table (medians over traced passes) is printed instead of
 * the end-to-end one.
 * The last line of standard output is one JSON object:
 * {"correct", "attempted", "failed", "metrics"}.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <string>
#include <vector>

#include "cc/compiler.hh"
#include "replay.hh"
#include "runner/artifacts.hh"
#include "runner/cache_key.hh"
#include "runner/figures.hh"
#include "runner/result_store.hh"
#include "sim/experiment.hh"
#include "workloads/workload.hh"

namespace perfbench
{
namespace
{

using namespace mmt;
namespace fs = std::filesystem;

struct MetricDef
{
    const char *name;
    const char *unit;
};

const std::vector<MetricDef> kEndToEnd = {
    {"wall_s", "s"},
    {"jobs_per_s", "1/s"},
    {"job_ms_p50", "ms"},
    {"job_ms_p90", "ms"},
    {"sim_minsts_per_s", "Minst/s"},
    {"peak_rss_mb", "MB"},
    {"setup_s", "s"},
};

const std::vector<MetricDef> kPerLayer = {
    {"sim.run_s", "s"},
    {"sim.run_frac", "fraction"},
    {"sim.build_s", "s"},
    {"sim.collect_s", "s"},
    {"sim.cycles", "count"},
    {"sim.thread_insts", "count"},
    {"sim.ns_per_cycle", "ns"},
    {"sim.ns_per_thread_inst", "ns"},
    {"core.fetch_records", "count"},
    {"core.commit_instances", "count"},
    {"core.iq_wakeups", "count"},
    {"core.rename_ops", "count"},
    {"core.wait_dispatch_per_inst", "cycles"},
    {"core.wait_issue_per_inst", "cycles"},
    {"core.wait_exec_per_inst", "cycles"},
    {"core.wait_commit_per_inst", "cycles"},
    {"mmt.merged_frac", "fraction"},
    {"mmt.divergences", "count"},
    {"mmt.remerges", "count"},
    {"mmt.lvip_rollbacks", "count"},
    {"mmt.reg_merges", "count"},
    {"mem.l1i_miss_rate", "fraction"},
    {"mem.l1d_miss_rate", "fraction"},
    {"mem.l2_miss_rate", "fraction"},
    {"mem.trace_cache_miss_rate", "fraction"},
    {"mem.shared_l2_accesses", "count"},
    {"mem.shared_icache_hit_rate", "fraction"},
    {"branch.mispredict_rate", "fraction"},
    {"profile.golden_s", "s"},
    {"profile.golden_insts", "count"},
    {"profile.ns_per_golden_inst", "ns"},
    {"profile.compare_s", "s"},
    {"iasm.assemble_s", "s"},
    {"analysis.hints_s", "s"},
    {"runner.predict_s", "s"},
    {"runner.store_s", "s"},
    {"runner.load_s", "s"},
    {"runner.deserialize_s", "s"},
    {"runner.render_s", "s"},
    {"runner.artifacts_s", "s"},
    {"runner.artifact_bytes", "bytes"},
    {"runner.cache_hits", "count"},
    {"runner.corrupt", "count"},
    {"workloads.registry_s", "s"},
    {"cc.compile_s", "s"},
    {"trace.pass_s", "s"},
    {"trace.unattributed_s", "s"},
    {"trace.overhead_frac", "fraction"},
};

struct BenchWorkload
{
    const char *name;
    std::vector<std::string> figures;
    bool cold; // simulate into a fresh cache, else load a filled one
    /** Typical untimed pass on a 4-vCPU Xeon VM; sizes the pass count. */
    double nominalPassS;
};

const std::vector<BenchWorkload> kWorkloads = {
    {"fig5a-cold", {"5a"}, true, 2.7},
    {"cmp-cold", {"cmp"}, true, 7.0},
    {"figs-warm", {"5a", "csrc"}, false, 0.04},
};

/**
 * Set-up is sampled before the first pass and after evenly spaced
 * untimed passes. A sample is a batch of registry rebuilds, plus a
 * cache fill in the first kFillReps samples of a warm run. On a shared
 * VM the host switches between a fast and a ~1.6x slower state for
 * seconds at a time, often for more than half of a run, so setup time
 * counts each part at its fastest sample rather than the median.
 */
constexpr std::size_t kSetupSamples = 8;
constexpr int kRebuildsPerSample = 8;
constexpr std::size_t kFillReps = 5;
/**
 * Fewest passes in a run. A cold job counts at its fastest repeat. On a
 * host that is slow half the time, 0.5^3 of the jobs are slow in all of
 * three repeats, and those that cross the gap just above the median of
 * the sorted cmp job times moved job_ms_p50 by up to a third between
 * runs. Six repeats leave 0.5^6. See README.md, "Why at least 6 passes".
 */
constexpr int kMinPasses = 6;

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Linear-interpolated percentile (as numpy's default). */
double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    auto lo = static_cast<std::size_t>(std::floor(pos));
    std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

std::uint64_t
splitmix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** Seeded Fisher-Yates permutation of 0..n-1. */
std::vector<std::size_t>
permutation(std::size_t n, std::uint64_t seed)
{
    std::vector<std::size_t> p(n);
    for (std::size_t i = 0; i < n; ++i)
        p[i] = i;
    std::uint64_t state = seed;
    for (std::size_t i = n; i > 1; --i)
        std::swap(p[i - 1], p[splitmix64(state) % i]);
    return p;
}

double
seconds(std::int64_t ns)
{
    return static_cast<double>(ns) * 1e-9;
}

/** One workload's figures, execution orders and directories. */
struct Bench
{
    bool cold = true;
    std::vector<Figure> figs;
    /** Per figure: spec-order job indices in execution order. */
    std::vector<std::vector<std::size_t>> order;
    std::size_t jobs = 0;
    std::string dir;      // per-run scratch, removed at exit
    std::string cacheDir; // filled result cache (warm workloads)
};

Bench
makeBench(bool cold, std::vector<Figure> figs, std::uint64_t seed,
          const std::string &dir)
{
    Bench b;
    b.cold = cold;
    b.figs = std::move(figs);
    for (std::size_t f = 0; f < b.figs.size(); ++f) {
        std::size_t n = b.figs[f].sweep.jobs.size();
        b.order.push_back(permutation(n, seed * 1000003ull + f));
        b.jobs += n;
    }
    b.dir = dir;
    return b;
}

/** Everything one pass produced. */
struct Pass
{
    double wallS = 0.0;
    /** Timed steps in a fixed order (cold: one per job, in spec order;
     *  warm: one per figure sweep) and the jobs each step covers. */
    std::vector<double> stepMs;
    std::vector<std::size_t> stepJobs;
    std::vector<RunResult> results; // spec order, figures concatenated
    std::size_t failed = 0;
    bool artifactsOk = true;
    double artifactBytes = 0.0;
    std::string tables;
};

std::uint64_t
simDigest(const std::vector<RunResult> &results)
{
    std::uint64_t h = fnv1a64("");
    for (const RunResult &r : results)
        h = fnv1a64(serializeResult(r), h);
    return h;
}

/** A spec holding @p spec's jobs in @p order. */
SweepSpec
permutedSpec(const SweepSpec &spec, const std::vector<std::size_t> &order)
{
    SweepSpec p;
    p.name = spec.name;
    for (std::size_t k : order)
        p.jobs.push_back(spec.jobs[k]);
    return p;
}

SweepOptions
serialOptions(const std::string &cache_dir)
{
    SweepOptions opt;
    opt.jobs = 1;
    opt.cacheDir = cache_dir;
    return opt;
}

/** Cold: each job is a one-job runSweep into @p cache (closed loop). */
SweepOutcome
runColdJobs(const SweepSpec &spec, const std::vector<std::size_t> &order,
            const std::string &cache, Pass &p)
{
    SweepOutcome out;
    std::size_t n = spec.jobs.size();
    out.results.resize(n);
    out.fromCache.assign(n, false);
    out.predictedMergeable.assign(n, 0.0);
    out.executionOrder = order;
    std::vector<double> ms(n, 0.0);
    for (std::size_t k : order) {
        SweepSpec one;
        one.name = spec.name;
        one.jobs = {spec.jobs[k]};
        std::int64_t t0 = nowNs();
        SweepOutcome o = runSweep(one, serialOptions(cache));
        ms[k] = static_cast<double>(nowNs() - t0) * 1e-6;
        bool ok = o.results.size() == 1 && o.executed == 1 &&
                  (!spec.jobs[k].checkGolden || o.results[0].goldenOk);
        if (!ok)
            ++p.failed;
        if (o.results.size() == 1) {
            out.results[k] = std::move(o.results[0]);
            out.predictedMergeable[k] = o.predictedMergeable[0];
        }
        out.executed += o.executed;
        out.cacheHits += o.cacheHits;
        out.goldenFailures += o.goldenFailures;
    }
    p.stepMs.insert(p.stepMs.end(), ms.begin(), ms.end());
    p.stepJobs.insert(p.stepJobs.end(), n, 1);
    return out;
}

/** Warm: the whole figure is one runSweep over the filled cache. */
SweepOutcome
runWarmSweep(const SweepSpec &spec, const std::vector<std::size_t> &order,
             const std::string &cache, Pass &p)
{
    std::int64_t t0 = nowNs();
    SweepOutcome o = runSweep(permutedSpec(spec, order), serialOptions(cache));
    p.stepMs.push_back(static_cast<double>(nowNs() - t0) * 1e-6);
    p.stepJobs.push_back(order.size());
    // Every job must be served from the store: a miss or a corrupt
    // entry was re-simulated, so it counts as failed.
    for (std::size_t i = 0; i < order.size(); ++i) {
        if (!o.fromCache[i])
            ++p.failed;
    }
    SweepOutcome out = o;
    for (std::size_t i = 0; i < order.size(); ++i) {
        out.results[order[i]] = o.results[i];
        out.fromCache[order[i]] = o.fromCache[i];
        out.predictedMergeable[order[i]] = o.predictedMergeable[i];
        out.executionOrder[i] = order[o.executionOrder[i]];
    }
    return out;
}

/**
 * Traced cold jobs: runSweep's steps for one job (predict, store
 * lookup, simulate, store) with the simulation replayed in spans.
 */
SweepOutcome
traceColdJobs(const SweepSpec &spec, const std::vector<std::size_t> &order,
              const std::string &cache, Pass &p, Tracer &tr, Counts &counts)
{
    SweepOutcome out;
    std::size_t n = spec.jobs.size();
    out.results.resize(n);
    out.fromCache.assign(n, false);
    out.predictedMergeable.assign(n, 0.0);
    out.executionOrder = order;
    ResultStore store(cache);
    for (std::size_t k : order) {
        const JobSpec &job = spec.jobs[k];
        int id = static_cast<int>(k);
        Tracer::Scope job_span(tr, "job", id);
        {
            Tracer::Scope s(tr, "runner.predict");
            SweepSpec one;
            one.name = spec.name;
            one.jobs = {job};
            out.predictedMergeable[k] = predictSweepJobs(one)[0];
        }
        RunResult r;
        ResultStore::Status status;
        {
            Tracer::Scope s(tr, "runner.load");
            status = store.load(job, r);
        }
        if (status != ResultStore::Status::Miss)
            ++p.failed; // a fresh cache must miss
        r = replayWorkload(resolveWorkload(job.workload), job.kind,
                           job.numThreads, job.overrides, job.checkGolden, tr,
                           id, counts);
        {
            Tracer::Scope s(tr, "runner.store");
            store.store(job, r);
        }
        if (job.checkGolden && !r.goldenOk)
            ++p.failed;
        out.results[k] = std::move(r);
        ++out.executed;
    }
    return out;
}

/** Traced warm sweep: runSweep's predict and per-job store loads. */
SweepOutcome
traceWarmSweep(const SweepSpec &spec, const std::vector<std::size_t> &order,
               const std::string &cache, Pass &p, Tracer &tr, Counts &counts)
{
    SweepOutcome out;
    std::size_t n = spec.jobs.size();
    out.results.resize(n);
    out.fromCache.assign(n, true);
    out.predictedMergeable.resize(n);
    {
        // runSweep's claim order over the permuted spec, in spec indices.
        Tracer::Scope s(tr, "runner.predict");
        std::vector<double> pred = predictSweepJobs(permutedSpec(spec, order));
        out.executionOrder = sweepPriorityOrder(pred);
        for (std::size_t &i : out.executionOrder)
            i = order[i];
        for (std::size_t i = 0; i < n; ++i)
            out.predictedMergeable[order[i]] = pred[i];
    }
    ResultStore store(cache);
    for (std::size_t k : out.executionOrder) {
        Tracer::Scope job_span(tr, "job", static_cast<int>(k));
        ResultStore::Status status;
        {
            Tracer::Scope s(tr, "runner.load");
            status = store.load(spec.jobs[k], out.results[k]);
        }
        if (status == ResultStore::Status::Hit) {
            counts["runner.cache_hits"] += 1;
            ++out.cacheHits;
        } else {
            if (status == ResultStore::Status::Corrupt)
                counts["runner.corrupt"] += 1;
            ++p.failed;
        }
    }
    return out;
}

/**
 * One pass over every figure of @p b. With @p tr set, jobs are
 * replayed inside spans and @p counts collects the per-layer counts.
 */
Pass
runPass(const Bench &b, int index, Tracer *tr, Counts *counts)
{
    Pass p;
    std::string cache =
        b.cold ? b.dir + "/cache-" + std::to_string(index) : b.cacheDir;
    std::string art = b.dir + "/artifacts";
    fs::create_directories(art);

    std::int64_t t0 = nowNs();
    if (tr)
        tr->begin("pass");
    for (std::size_t f = 0; f < b.figs.size(); ++f) {
        const Figure &fig = b.figs[f];
        const SweepSpec &spec = fig.sweep;
        const std::vector<std::size_t> &order = b.order[f];
        SweepOutcome out;
        if (tr) {
            out = b.cold ? traceColdJobs(spec, order, cache, p, *tr, *counts)
                         : traceWarmSweep(spec, order, cache, p, *tr,
                                          *counts);
        } else {
            out = b.cold ? runColdJobs(spec, order, cache, p)
                         : runWarmSweep(spec, order, cache, p);
        }
        out.wallSeconds = seconds(nowNs() - t0);
        {
            if (tr)
                tr->begin("runner.artifacts");
            std::string csv = sweepToCsv(spec, out);
            std::string json = sweepToJson(spec, out);
            writeArtifact(art + "/" + spec.name + ".csv", csv);
            writeArtifact(art + "/" + spec.name + ".json", json);
            if (tr)
                tr->end();
            std::size_t lines = static_cast<std::size_t>(
                std::count(csv.begin(), csv.end(), '\n'));
            if (lines != spec.jobs.size() + 1 || json.empty())
                p.artifactsOk = false;
            p.artifactBytes += static_cast<double>(csv.size() + json.size());
        }
        {
            if (tr)
                tr->begin("runner.render");
            p.tables += fig.title + fig.render(spec, out.results) +
                        fig.paperNote;
            if (tr)
                tr->end();
        }
        for (RunResult &r : out.results)
            p.results.push_back(std::move(r));
    }
    if (tr)
        tr->end();
    p.wallS = seconds(nowNs() - t0);
    if (b.cold)
        fs::remove_all(cache);
    return p;
}

/** Set-up timings: registry rebuilds, and the cache fill when warm. */
struct Setup
{
    std::vector<double> registryS; // hand-written suites, per rebuild
    std::vector<double> compileS;  // mmtc over every C kernel, per rebuild
    std::vector<std::vector<double>> fillMs; // per fill, per-step ms
    bool ok = true;
    std::size_t fillJobs = 0;
    std::size_t fillFailed = 0;
    std::vector<RunResult> fillResults; // spec order (warm)

    /** Fastest rebuild plus each filled job at its fastest fill. */
    double totalS() const
    {
        double best = registryS[0] + compileS[0];
        for (std::size_t i = 1; i < registryS.size(); ++i)
            best = std::min(best, registryS[i] + compileS[i]);
        double fill_ms = 0.0;
        for (std::size_t j = 0; !fillMs.empty() && j < fillMs[0].size();
             ++j) {
            double ms = fillMs[0][j];
            for (const std::vector<double> &fill : fillMs)
                ms = std::min(ms, fill[j]);
            fill_ms += ms;
        }
        return best + fill_ms * 1e-3;
    }
};

/** Rebuild the workload registry through its public builders once. */
void
rebuildRegistry(Setup &s)
{
    std::int64_t t0 = nowNs();
    std::size_t count = specMeWorkloads().size() + libsvmWorkloads().size() +
                        splash2Workloads().size() + parsecWorkloads().size();
    std::int64_t t1 = nowNs();
    for (const CompiledSource &src : compiledSources()) {
        if (cc::compile(src.csource, src.name).iasm != src.iasm)
            s.ok = false;
    }
    std::int64_t t2 = nowNs();
    if (count != allWorkloads().size())
        s.ok = false;
    s.registryS.push_back(seconds(t1 - t0));
    s.compileS.push_back(seconds(t2 - t1));
}

/**
 * Fill a fresh result cache with every job of @p b, run as a cold pass
 * runs them. The first fill is the cache the warm passes read; later
 * fills must reproduce it and are removed.
 */
void
fillCache(Bench &b, Setup &s)
{
    std::size_t rep = s.fillMs.size();
    std::string dir = b.dir + "/fill-" + std::to_string(rep);
    std::vector<RunResult> results;
    Pass p;
    for (std::size_t f = 0; f < b.figs.size(); ++f) {
        SweepOutcome o = runColdJobs(b.figs[f].sweep, b.order[f], dir, p);
        for (RunResult &r : o.results)
            results.push_back(std::move(r));
    }
    s.fillJobs += p.stepMs.size();
    s.fillFailed += p.failed;
    s.fillMs.push_back(std::move(p.stepMs));
    if (rep == 0) {
        b.cacheDir = dir;
        s.fillResults = std::move(results);
    } else {
        if (simDigest(results) != simDigest(s.fillResults))
            s.ok = false;
        fs::remove_all(dir);
    }
}

/** One set-up sample (see kSetupSamples). */
void
sampleSetup(Bench &b, Setup &s)
{
    for (int r = 0; r < kRebuildsPerSample; ++r)
        rebuildRegistry(s);
    if (!b.cold && s.fillMs.size() < kFillReps)
        fillCache(b, s);
}

Setup
runSetup(Bench &b)
{
    Setup s;
    // First use builds the registry statics the sweeps read; the timed
    // repetitions rebuild the same tables.
    allWorkloads();
    compiledWorkloads();
    sampleSetup(b, s);
    return s;
}

/** Number of results whose canonical bytes or cycles differ from ref. */
std::size_t
countMismatches(const std::vector<RunResult> &got,
                const std::vector<RunResult> &ref)
{
    if (got.size() != ref.size())
        return std::max(got.size(), ref.size());
    std::size_t bad = 0;
    for (std::size_t i = 0; i < got.size(); ++i) {
        if (got[i].cycles != ref[i].cycles ||
            serializeResult(got[i]) != serializeResult(ref[i]))
            ++bad;
    }
    return bad;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/** Fig. 5(a) MMT-FXR geomean speedup, if @p b runs the 5a sweep. */
double
fig5aGeomean(const Bench &b, const std::vector<RunResult> &results)
{
    std::size_t base = 0;
    for (const Figure &fig : b.figs) {
        if (fig.id == "5a") {
            std::vector<RunResult> slice(
                results.begin() + static_cast<std::ptrdiff_t>(base),
                results.begin() +
                    static_cast<std::ptrdiff_t>(base + fig.sweep.jobs.size()));
            ResultIndex index(fig.sweep, slice);
            std::vector<double> s;
            for (const std::string &app : workloadNames())
                s.push_back(speedupRowFromResults(index, app, 2).mmtFXR);
            return geomean(s);
        }
        base += fig.sweep.jobs.size();
    }
    return 0.0;
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** Print the metric table and the final JSON line. */
void
report(const std::vector<MetricDef> &defs,
       const std::map<std::string, double> &values, bool correct,
       std::size_t attempted, std::size_t failed)
{
    for (const MetricDef &d : defs) {
        std::printf("  %-30s %16.6f %s\n", d.name, values.at(d.name),
                    d.unit);
    }
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < defs.size(); ++i) {
        json += (i ? ", \"" : "\"") + std::string(defs[i].name) +
                "\": {\"value\": " + jsonNumber(values.at(defs[i].name)) +
                ", \"unit\": \"" + defs[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
}

/** Per-layer values of one traced pass. */
std::map<std::string, double>
layerValues(const Tracer &tr, const Counts &counts, const Pass &p)
{
    std::map<std::string, double> v;
    for (const MetricDef &d : kPerLayer)
        v[d.name] = 0.0;
    auto self = tr.selfNs();
    for (const auto &[name, ns] : self) {
        if (name == "pass" || name == "job")
            v["trace.unattributed_s"] += seconds(ns);
        else
            v[name + "_s"] = seconds(ns);
    }
    const Span &root = tr.spans().front();
    v["trace.pass_s"] = seconds(root.endNs - root.startNs);
    auto c = [&counts](const char *name) {
        auto it = counts.find(name);
        return it == counts.end() ? 0.0 : it->second;
    };
    auto ratio = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };
    for (const char *name :
         {"sim.cycles", "sim.thread_insts", "core.fetch_records",
          "core.commit_instances", "core.iq_wakeups", "core.rename_ops",
          "mmt.divergences", "mmt.remerges", "mmt.lvip_rollbacks",
          "mmt.reg_merges", "mem.shared_l2_accesses", "profile.golden_insts",
          "runner.cache_hits", "runner.corrupt"})
        v[name] = c(name);
    double insts = c("core.commit_instances");
    v["core.wait_dispatch_per_inst"] = ratio(c("core.wait_dispatch"), insts);
    v["core.wait_issue_per_inst"] = ratio(c("core.wait_issue"), insts);
    v["core.wait_exec_per_inst"] = ratio(c("core.wait_exec"), insts);
    v["core.wait_commit_per_inst"] = ratio(c("core.wait_commit"), insts);
    v["mmt.merged_frac"] = ratio(c("mmt.merged"), c("sim.thread_insts"));
    v["mem.l1i_miss_rate"] =
        ratio(c("mem.l1i_misses"), c("mem.l1i_accesses"));
    v["mem.l1d_miss_rate"] =
        ratio(c("mem.l1d_misses"), c("mem.l1d_accesses"));
    v["mem.l2_miss_rate"] = ratio(c("mem.l2_misses"), c("mem.l2_accesses"));
    v["mem.trace_cache_miss_rate"] = ratio(c("mem.trace_cache_misses"),
                                           c("mem.trace_cache_accesses"));
    v["mem.shared_icache_hit_rate"] = ratio(c("mem.shared_icache_hits"),
                                            c("mem.shared_icache_accesses"));
    v["branch.mispredict_rate"] =
        ratio(c("branch.mispredicts"), c("branch.lookups"));
    v["sim.ns_per_cycle"] = 1e9 * ratio(v["sim.run_s"], c("sim.cycles"));
    v["sim.ns_per_thread_inst"] =
        1e9 * ratio(v["sim.run_s"], c("sim.thread_insts"));
    v["profile.ns_per_golden_inst"] =
        1e9 * ratio(v["profile.golden_s"], c("profile.golden_insts"));
    v["sim.run_frac"] = ratio(v["sim.run_s"], v["trace.pass_s"]);
    v["runner.artifact_bytes"] = p.artifactBytes;
    return v;
}

/** Write every recorded span as one JSON object per line. */
void
writeSpans(const std::string &path,
           const std::vector<std::vector<Span>> &passes)
{
    std::ofstream out(path, std::ios::trunc);
    for (std::size_t pi = 0; pi < passes.size(); ++pi) {
        for (const Span &s : passes[pi]) {
            out << "{\"pass\": " << pi << ", \"name\": \"" << s.name
                << "\", \"start_ns\": " << s.startNs
                << ", \"end_ns\": " << s.endNs << ", \"parent\": " << s.parent
                << ", \"job\": " << s.job << "}\n";
        }
    }
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string workdir = ".bench_build/work";
    bool selfTest = false;
    bool listMetrics = false;
};

int
runWorkloadBench(const Args &a, const BenchWorkload &w)
{
    std::vector<Figure> figs;
    for (const std::string &id : w.figures)
        figs.push_back(makeFigure(id));
    std::string dir = a.workdir + "/" + w.name + "-" +
                      std::to_string(::getpid());
    fs::remove_all(dir);
    fs::create_directories(dir);
    Bench b = makeBench(w.cold, std::move(figs), a.seed, dir);

    Setup setup = runSetup(b);
    bool correct = true;
    std::size_t attempted = 0;
    std::size_t failed = 0;

    std::vector<double> walls, traced_walls;
    // Fastest repeat of every timed step, and of the rest of the pass.
    std::vector<double> step_min;
    std::vector<std::size_t> step_jobs;
    double rest_min = 0.0;
    std::vector<std::map<std::string, double>> layers;
    std::vector<std::vector<Span>> spans;
    std::vector<RunResult> ref = setup.fillResults;
    double insts = 0.0;
    std::string tables;
    int passes = std::max(
        kMinPasses, static_cast<int>(std::lround(a.seconds / w.nominalPassS)));
    auto untimed = static_cast<std::size_t>(a.trace ? passes - passes / 2
                                                    : passes);
    std::size_t setup_stride =
        std::max<std::size_t>(1, untimed / (kSetupSamples - 1));
    std::int64_t start = nowNs();
    for (int i = 0; i < passes; ++i) {
        // Traced runs alternate untimed and traced passes; the first
        // untimed pass is the reference the replays must reproduce.
        bool traced = a.trace && i % 2 == 1;
        Tracer tr;
        Counts counts;
        Pass p = runPass(b, i, traced ? &tr : nullptr, &counts);
        std::fprintf(stderr, "[%s] pass %d%s: %.4f s\n", w.name, i,
                     traced ? " (traced)" : "", p.wallS);
        attempted += b.jobs;
        failed += p.failed;
        if (!p.artifactsOk)
            correct = false;
        if (ref.empty())
            ref = p.results;
        if (countMismatches(p.results, ref) != 0)
            correct = false;
        if (traced) {
            traced_walls.push_back(p.wallS);
            std::map<std::string, double> v = layerValues(tr, counts, p);
            if (!b.cold) {
                // ResultStore::load deserializes inside runner.load; this
                // times that share of it, outside the pass.
                RunResult tmp;
                for (const RunResult &r : p.results) {
                    std::string bytes = serializeResult(r);
                    std::int64_t t0 = nowNs();
                    bool ok = deserializeResult(bytes, tmp);
                    v["runner.deserialize_s"] += seconds(nowNs() - t0);
                    if (!ok)
                        correct = false;
                }
            }
            layers.push_back(std::move(v));
            spans.push_back(tr.spans());
        } else {
            walls.push_back(p.wallS);
            double rest = p.wallS * 1e3;
            for (double ms : p.stepMs)
                rest -= ms;
            if (step_min.empty()) {
                step_min = p.stepMs;
                step_jobs = p.stepJobs;
                rest_min = rest;
            }
            for (std::size_t j = 0; j < step_min.size(); ++j)
                step_min[j] = std::min(step_min[j], p.stepMs[j]);
            rest_min = std::min(rest_min, rest);
            bool due = walls.size() % setup_stride == 0;
            if (due && setup.registryS.size() <
                           kSetupSamples * kRebuildsPerSample)
                sampleSetup(b, setup);
            insts = 0.0;
            for (const RunResult &r : p.results)
                insts += static_cast<double>(r.committedThreadInsts);
        }
        tables = p.tables;
    }

    attempted += setup.fillJobs;
    failed += setup.fillFailed;
    std::uint64_t digest = simDigest(ref);
    double geo = fig5aGeomean(b, ref);
    if (failed != 0 || !setup.ok)
        correct = false;

    std::printf("%s", tables.c_str());
    std::printf("\nperfbench %s: seed %llu, %zu jobs per pass, %zu untimed "
                "and %zu traced passes in %.1f s\n",
                w.name, static_cast<unsigned long long>(a.seed), b.jobs,
                walls.size(), traced_walls.size(),
                seconds(nowNs() - start));
    std::printf("sim_digest %s\n", hashHex(digest).c_str());
    if (geo > 0.0) {
        std::printf("fig5a MMT-FXR geomean speedup %.4f (paper: ~1.15; the "
                    "model is otherwise unvalidated against hardware)\n",
                    geo);
    }
    std::printf("failed_jobs_frac %.6f (%zu of %zu jobs)\n",
                attempted ? static_cast<double>(failed) /
                                static_cast<double>(attempted)
                          : 0.0,
                failed, attempted);

    std::map<std::string, double> values;
    const std::vector<MetricDef> *defs = &kEndToEnd;
    if (a.trace) {
        defs = &kPerLayer;
        for (const MetricDef &d : kPerLayer) {
            std::vector<double> per_pass;
            for (const auto &v : layers)
                per_pass.push_back(v.at(d.name));
            values[d.name] = median(per_pass);
        }
        values["workloads.registry_s"] = *std::min_element(
            setup.registryS.begin(), setup.registryS.end());
        values["cc.compile_s"] = *std::min_element(setup.compileS.begin(),
                                                   setup.compileS.end());
        values["trace.overhead_frac"] =
            median(traced_walls) / median(walls) - 1.0;
        fs::create_directories(a.workdir + "/traces");
        std::string path = a.workdir + "/traces/" + w.name + "-seed" +
                           std::to_string(a.seed) + ".jsonl";
        writeSpans(path, spans);
        std::printf("spans: %s\nper-layer (median of %zu traced passes; "
                    "_s values are self time per pass):\n",
                    path.c_str(), layers.size());
    } else {
        // Interference from other tenants of a shared host only adds
        // time, so each step counts at its fastest repeat in this run.
        double wall_ms = rest_min;
        std::vector<double> job_ms;
        for (std::size_t j = 0; j < step_min.size(); ++j) {
            wall_ms += step_min[j];
            job_ms.insert(job_ms.end(), step_jobs[j],
                          step_min[j] / static_cast<double>(step_jobs[j]));
        }
        double wall = wall_ms * 1e-3;
        values["wall_s"] = wall;
        values["jobs_per_s"] = static_cast<double>(b.jobs) / wall;
        values["job_ms_p50"] = percentile(job_ms, 0.5);
        values["job_ms_p90"] = percentile(job_ms, 0.9);
        values["sim_minsts_per_s"] = insts / wall * 1e-6;
        values["peak_rss_mb"] = peakRssMb();
        values["setup_s"] = setup.totalS();
        std::printf("end-to-end (each step at its fastest of %zu passes; "
                    "median pass %.4f s; job_ms over %zu jobs):\n",
                    walls.size(), median(walls), job_ms.size());
    }
    std::fflush(stdout);
    fs::remove_all(dir);
    report(*defs, values, correct, attempted, failed);
    return 0;
}

/** The benchmark's own checks on a two-app subset of fig5a and cmp. */
int
selfTest(const Args &a)
{
    int failures = 0;
    auto check = [&failures](bool ok, const char *what) {
        std::printf("%s %s\n", ok ? "PASS" : "FAIL", what);
        if (!ok)
            ++failures;
    };

    const std::regex name_re("[A-Za-z0-9_.-]+");
    bool names_ok = true;
    for (const auto *defs : {&kEndToEnd, &kPerLayer}) {
        for (const MetricDef &d : *defs)
            names_ok = names_ok && std::regex_match(d.name, name_re);
    }
    check(names_ok, "metric names match [A-Za-z0-9_.-]+");

    const std::vector<std::string> apps = {"equake", "mcf"};
    std::vector<Figure> figs;
    for (const char *id : {"5a", "cmp"}) {
        figs.push_back(makeFigure(id));
        figs.back().sweep.filterWorkloads(apps);
    }

    std::size_t jobs = 0, same = 0;
    for (const Figure &fig : figs) {
        for (const JobSpec &job : fig.sweep.jobs) {
            const Workload &w = resolveWorkload(job.workload);
            RunResult direct = runWorkload(w, job.kind, job.numThreads,
                                           job.overrides, job.checkGolden);
            Tracer tr;
            Counts counts;
            RunResult replay =
                replayWorkload(w, job.kind, job.numThreads, job.overrides,
                               job.checkGolden, tr, 0, counts);
            ++jobs;
            if (direct.cycles == replay.cycles &&
                serializeResult(direct) == serializeResult(replay))
                ++same;
        }
    }
    check(jobs > 0 && same == jobs,
          "replay reproduces runWorkload byte-for-byte");

    std::string dir =
        a.workdir + "/selftest-" + std::to_string(::getpid());
    fs::remove_all(dir);
    fs::create_directories(dir);
    // Only the 5a subset renders: the figure tables index every app.
    std::vector<Figure> fig5a = {figs[0]};
    fig5a[0].render = [](const SweepSpec &, const std::vector<RunResult> &) {
        return std::string();
    };
    Bench b = makeBench(true, fig5a, 7, dir);
    Pass p1 = runPass(b, 0, nullptr, nullptr);
    Pass p2 = runPass(b, 1, nullptr, nullptr);
    check(p1.failed == 0 && p2.failed == 0 && !p1.results.empty() &&
              simDigest(p1.results) == simDigest(p2.results),
          "sim_digest is identical across two passes");

    Tracer tr;
    Counts counts;
    Pass p3 = runPass(b, 2, &tr, &counts);
    check(p3.failed == 0 && countMismatches(p3.results, p1.results) == 0,
          "traced pass reproduces the untimed pass");
    std::size_t roots = 0;
    bool closed = true;
    for (const Span &s : tr.spans()) {
        if (s.parent < 0)
            ++roots;
        closed = closed && s.endNs >= s.startNs;
    }
    check(roots == 1 && closed, "every span is closed, under one root");
    std::map<std::string, double> v = layerValues(tr, counts, p3);
    std::printf("  unattributed %.6f s of a %.6f s traced pass\n",
                v["trace.unattributed_s"], v["trace.pass_s"]);
    check(v["trace.unattributed_s"] < 0.05 * v["trace.pass_s"],
          "named layers cover at least 95% of the traced pass");
    fs::remove_all(dir);
    return failures == 0 ? 0 : 1;
}

void
listMetrics()
{
    auto list = [](const std::vector<MetricDef> &defs) {
        std::string s = "[";
        for (std::size_t i = 0; i < defs.size(); ++i) {
            s += std::string(i ? ", " : "") + "[\"" + defs[i].name +
                 "\", \"" + defs[i].unit + "\"]";
        }
        return s + "]";
    };
    std::string wl = "[";
    for (std::size_t i = 0; i < kWorkloads.size(); ++i)
        wl += std::string(i ? ", " : "") + "\"" + kWorkloads[i].name + "\"";
    wl += "]";
    std::printf("{\"workloads\": %s, \"end_to_end\": %s, \"per_layer\": "
                "%s}\n",
                wl.c_str(), list(kEndToEnd).c_str(), list(kPerLayer).c_str());
}

int
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--workdir DIR]\n"
                 "       perfbench --self-test [--workdir DIR]\n"
                 "       perfbench --list-metrics\n",
                 msg);
    return 2;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        if (arg == "--self-test") {
            a.selfTest = true;
        } else if (arg == "--list-metrics") {
            a.listMetrics = true;
        } else if (arg == "--workload" || arg == "--seed" ||
                   arg == "--seconds" || arg == "--trace" ||
                   arg == "--workdir") {
            const char *v = value();
            if (!v)
                return usage(("missing value for " + arg).c_str());
            char *end = nullptr;
            if (arg == "--workload") {
                a.workload = v;
            } else if (arg == "--workdir") {
                a.workdir = v;
            } else if (arg == "--seed") {
                a.seed = std::strtoull(v, &end, 10);
            } else if (arg == "--seconds") {
                a.seconds = std::strtod(v, &end);
                if (!(a.seconds > 0.0))
                    return usage("--seconds must be positive");
            } else {
                std::string t = v;
                if (t != "0" && t != "1")
                    return usage("--trace takes 0 or 1");
                a.trace = t == "1";
            }
            if (end && *end)
                return usage(("bad value for " + arg).c_str());
        } else {
            return usage(("unknown argument " + arg).c_str());
        }
    }
    if (a.listMetrics) {
        listMetrics();
        return 0;
    }
    if (a.selfTest)
        return selfTest(a);
    for (const BenchWorkload &w : kWorkloads) {
        if (a.workload == w.name)
            return runWorkloadBench(a, w);
    }
    return usage(("unknown workload '" + a.workload + "'").c_str());
}
