#include "core/parallel.h"

#include <algorithm>
#include <atomic>
#include <optional>

#include "hom/matcher.h"
#include "util/fault.h"

namespace twchase {

ParallelTriggerEval::ParallelTriggerEval(size_t threads,
                                         ResourceGovernor* governor)
    : governor_(governor) {
  if (threads > 1) pool_ = std::make_unique<ThreadPool>(threads);
}

bool ParallelTriggerEval::Dispatch(size_t tasks,
                                   const std::function<size_t(size_t)>& fn,
                                   ParallelSectionStats* stats) {
  if (tasks == 0 || governor_->stopped()) return false;

  Stopwatch timer;
  const size_t workers = pool_->threads();
  std::atomic<size_t> cursor{0};
  std::atomic<size_t> result_bytes{0};
  // Raised by the first stopping worker so the others drain quickly instead
  // of finishing the section; the results are discarded either way.
  std::atomic<bool> abort{false};
  // Written only by the owning worker, read after the join (RunOnAllWorkers
  // is a barrier), so plain vectors suffice.
  std::vector<size_t> worker_tasks(workers, 0);
  std::vector<std::optional<StopReason>> worker_stops(workers);

  const size_t base_estimate = governor_->memory_estimate();
  ResourceLimits worker_limits;
  worker_limits.cancel = governor_->limits().cancel;  // shared, thread-safe
  worker_limits.memory_budget_bytes = governor_->limits().memory_budget_bytes;
  worker_limits.deadline_ms = governor_->RemainingDeadlineMs();

  // The caller's match counters (atomic fields) are shared across workers;
  // totals are order-independent sums, so they stay deterministic at any
  // thread count.
  MatchCounters* match_counters = CurrentMatchCounters();

  pool_->RunOnAllWorkers([&](size_t worker) {
    // ResourceGovernor is single-threaded, so each worker polls its own
    // detached instance (parent == nullptr keeps CheckPassive off the main
    // governor, which the caller's thread owns).
    ResourceGovernor worker_governor(worker_limits, /*parent=*/nullptr);
    worker_governor.NoteMemoryUsage(base_estimate);
    GovernorScope scope(&worker_governor);
    MatchCountersScope counters_scope(match_counters);
    // Fault-injection visit counts are part of deterministic test schedules
    // and the injector is thread-local to the test's thread; workers must
    // not consume visits in scheduling-dependent order. Injection therefore
    // covers only the inline runner (threads == 1).
    FaultInjectorScope no_faults(nullptr);
    for (;;) {
      if (abort.load(std::memory_order_relaxed)) break;
      if (worker_governor.ShouldStop(FaultSite::kTriggerBoundary)) break;
      const size_t task = cursor.fetch_add(1, std::memory_order_relaxed);
      if (task >= tasks) break;
      ++worker_tasks[worker];
      const size_t bytes = fn(task);
      const size_t total =
          result_bytes.fetch_add(bytes, std::memory_order_relaxed) + bytes;
      worker_governor.NoteMemoryUsage(base_estimate + total);
      // fn polls the ambient (worker) governor inside the homomorphism
      // search; a latched stop means this task's results are partial.
      if (worker_governor.stopped()) break;
    }
    if (worker_governor.stopped()) {
      worker_stops[worker] = worker_governor.reason();
      abort.store(true, std::memory_order_relaxed);
    }
  });

  stats->tasks = tasks;
  stats->eval_ms = timer.ElapsedMillis();
  size_t used = 0;
  size_t max_tasks = 0;
  size_t min_tasks = tasks;
  for (size_t count : worker_tasks) {
    if (count == 0) continue;
    ++used;
    max_tasks = std::max(max_tasks, count);
    min_tasks = std::min(min_tasks, count);
  }
  stats->workers_used = used;
  stats->max_worker_tasks = max_tasks;
  stats->min_worker_tasks = used == 0 ? 0 : min_tasks;

  // Fold the first stop (by worker index, for a stable choice) back into
  // the main governor. Any stop means unclaimed or half-evaluated tasks:
  // the section is incomplete and its results are discarded.
  for (const std::optional<StopReason>& stop : worker_stops) {
    if (stop.has_value()) {
      governor_->AdoptStop(*stop);
      return false;
    }
  }
  return true;
}

std::vector<CandidateMatch> KeyCandidates(std::vector<Substitution> matches) {
  std::vector<CandidateMatch> out;
  for (Substitution& match : matches) {
    PackedBindings key = PackedBindings::FromMatch(match);
    out.push_back(CandidateMatch{std::move(match), std::move(key)});
  }
  return out;
}

size_t ApproxCandidateBytes(const std::vector<CandidateMatch>& candidates) {
  size_t bytes = candidates.capacity() * sizeof(CandidateMatch);
  for (const CandidateMatch& candidate : candidates) {
    // One hash node (two Terms, a next pointer, allocator overhead) per
    // binding, plus the packed key words.
    bytes += candidate.match.size() * 32;
    bytes += candidate.key.words().capacity() * sizeof(uint64_t);
  }
  return bytes;
}

}  // namespace twchase
