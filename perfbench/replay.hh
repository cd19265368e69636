/**
 * @file
 * In-memory span recorder and the traced replay of one simulation job.
 *
 * The replay re-runs a job through the same public calls, in the same
 * order, as mmt::runWorkload (assemble, system build, static hints,
 * image init, Cmp construction, run, result collection, golden run and
 * compare), wrapping each call in a span. The benchmark asserts that
 * the replay's RunResult serializes to the same bytes as runWorkload's,
 * so the per-layer times describe the program the end-to-end numbers
 * measure.
 */

#ifndef PERFBENCH_REPLAY_HH
#define PERFBENCH_REPLAY_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/simulator.hh"

namespace perfbench
{

/** One timed interval; parent is an index into the span list or -1. */
struct Span
{
    const char *name;
    std::int64_t startNs;
    std::int64_t endNs;
    int parent;
    int job; // spec-order job index, -1 outside a job
};

/** Records properly nested spans in memory. */
class Tracer
{
  public:
    /** Open a span under the innermost open one (inheriting its job
     *  when @p job is -1). */
    void begin(const char *name, int job = -1);
    /** Close the innermost open span. */
    void end();

    const std::vector<Span> &spans() const { return spans_; }

    /** Self time (duration minus direct children) summed per name. */
    std::map<std::string, std::int64_t> selfNs() const;

    /** Closes the span it opened when it leaves scope. */
    class Scope
    {
      public:
        Scope(Tracer &tracer, const char *name, int job = -1)
            : tracer_(tracer)
        {
            tracer_.begin(name, job);
        }
        ~Scope() { tracer_.end(); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &tracer_;
    };

  private:
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** Steady-clock nanoseconds. */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Per-layer event counts, summed over replayed jobs. */
using Counts = std::map<std::string, double>;

/**
 * Replay runWorkload(@p workload, @p kind, @p num_threads, @p ov,
 * @p check_golden) with spans tagged @p job, adding the simulator's
 * counters to @p counts.
 */
mmt::RunResult replayWorkload(const mmt::Workload &workload,
                              mmt::ConfigKind kind, int num_threads,
                              const mmt::SimOverrides &ov, bool check_golden,
                              Tracer &tracer, int job, Counts &counts);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_HH
