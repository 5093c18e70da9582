// Trigger evaluation runner. A chase round's match establishment — the
// priming/naive full enumerations, the post-erasure revalidation of stored
// matches, and the delta-seeded homomorphism probes — is a list of
// independent tasks: every task reads the (immutable within the phase)
// current instance and writes only its own result. ParallelTriggerEval runs
// such a list and hands each result to the scheduler's merge in task order,
// which is the one order the engine knows.
//
// threads == 1 works inline on the calling thread: each task is merged as
// soon as it finishes, nothing is buffered, no pool or detached governor
// exists and fault injection stays live. threads > 1 fans the tasks out
// over a fixed ThreadPool into per-task slots, joins, and merges the slots
// in task order on the calling thread.
//
// Determinism contract: every chase run at threads=N is bit-identical to
// threads=1 — same instance, same derivation journal, same observer event
// stream (tests/parallel_chase_test.cc pins this across all five variants).
// Three properties make that hold:
//   1. results land in per-task slots, so scheduling never reorders them;
//   2. the merge walks the slots in task order — the same calls the inline
//      runner makes — and the round's trigger schedule is then the same
//      PackedBindings::LegacyLess sort either way;
//   3. workers compute pure functions of (rule, fact, instance) — keys
//      included — and never touch the vocabulary or the instance.
//
// Resource governance: ResourceGovernor is single-threaded by design, so
// each worker polls its own detached governor derived from the main one
// (shared thread-safe cancel token, the remaining slice of the deadline,
// the same memory budget seeded with the main estimate plus the aggregated
// result-buffer bytes). The first worker stop is adopted into the main
// governor after the section joins and the section merges nothing; the
// caller's governor check then unwinds, exactly like an interrupted inline
// enumeration.
#ifndef TWCHASE_CORE_PARALLEL_H_
#define TWCHASE_CORE_PARALLEL_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "core/trigger_key.h"
#include "model/substitution.h"
#include "util/governor.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace twchase {

/// One candidate trigger produced by a task: the body match plus its packed
/// key (computed task-side — FromMatch is a pure function, and hashing off
/// the main thread is part of the parallel win).
struct CandidateMatch {
  Substitution match;
  PackedBindings key;
};

/// Telemetry of one section dispatched to the pool. All zero when nothing
/// was dispatched: at threads == 1, for an empty task list, or when the
/// main governor had already stopped.
struct ParallelSectionStats {
  size_t tasks = 0;
  size_t workers_used = 0;      // workers that executed >= 1 task
  size_t max_worker_tasks = 0;  // largest per-worker share
  size_t min_worker_tasks = 0;  // smallest share among participating workers
  double eval_ms = 0;           // wall time of the section, join included
  double merge_ms = 0;          // wall time of the in-order merge
};

class ParallelTriggerEval {
 public:
  /// `threads` counts the calling thread; 1 creates no pool. `governor` is
  /// the chase's main governor (non-owning, must outlive this object) —
  /// worker limits are derived from it per section.
  ParallelTriggerEval(size_t threads, ResourceGovernor* governor);

  size_t threads() const { return pool_ == nullptr ? 1 : pool_->threads(); }

  /// Runs eval(task, &result) for every task in [0, tasks) and
  /// merge(task, result) in task order on the calling thread. eval returns
  /// the approximate resident bytes of its result, which feed the worker
  /// governors' memory estimates (unused inline). With a pool, the merge
  /// happens only when every task completed: a worker stop is adopted into
  /// the main governor and nothing is merged.
  template <typename Result, typename Eval, typename Merge>
  void Run(size_t tasks, Eval eval, Merge merge, ParallelSectionStats* stats) {
    *stats = ParallelSectionStats{};
    if (pool_ == nullptr) {
      for (size_t t = 0; t < tasks; ++t) {
        Result result;
        eval(t, &result);
        merge(t, result);
      }
      return;
    }
    std::vector<Result> slots(tasks);
    if (!Dispatch(tasks, [&](size_t t) { return eval(t, &slots[t]); },
                  stats)) {
      return;
    }
    Stopwatch merge_timer;
    for (size_t t = 0; t < tasks; ++t) merge(t, slots[t]);
    stats->merge_ms = merge_timer.ElapsedMillis();
  }

 private:
  // Runs fn(task) for every task across the pool (atomic cursor). Returns
  // false without dispatching when there is nothing to do or the main
  // governor already stopped, and false after a worker stop.
  bool Dispatch(size_t tasks, const std::function<size_t(size_t)>& fn,
                ParallelSectionStats* stats);

  std::unique_ptr<ThreadPool> pool_;  // null at threads == 1
  ResourceGovernor* governor_;
};

/// Keys each match (PackedBindings::FromMatch), preserving order.
std::vector<CandidateMatch> KeyCandidates(std::vector<Substitution> matches);

/// Rough resident-byte estimate of a candidate buffer (hash-map nodes of
/// the substitutions plus the packed key words), for the workers' memory
/// accounting.
size_t ApproxCandidateBytes(const std::vector<CandidateMatch>& candidates);

}  // namespace twchase

#endif  // TWCHASE_CORE_PARALLEL_H_
