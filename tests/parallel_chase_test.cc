// Parallel trigger evaluation (tentpole of the parallelism PR): the
// match-establishment phase of each round may be fanned out across a worker
// pool, and the result must be BIT-IDENTICAL to the sequential engine —
// same final instance, same derivation journal, same observer event
// stream — for every chase variant, at every thread count. Candidates are
// computed in per-task slots and merged in the exact sequential order, so
// determinism holds by construction; these tests are the oracle for that
// invariant, and double as the TSan stress drive of the worker pool
// (tools/check.sh runs this binary under the tsan preset).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/chase.h"
#include "kb/examples.h"
#include "obs/metrics.h"
#include "obs/observer.h"
#include "obs/stock_observers.h"
#include "parser/parser.h"
#include "util/fault.h"
#include "util/governor.h"
#include "util/thread_pool.h"

namespace twchase {
namespace {

const ChaseVariant kAllVariants[] = {
    ChaseVariant::kOblivious, ChaseVariant::kSemiOblivious,
    ChaseVariant::kRestricted, ChaseVariant::kFrugal, ChaseVariant::kCore};

enum class Family { kStaircase, kElevator };

KnowledgeBase FreshKb(Family family) {
  // Fresh world per run so fresh-null minting starts from the same
  // vocabulary state (construction is deterministic).
  if (family == Family::kStaircase) return StaircaseWorld().kb();
  return ElevatorWorld().kb();
}

std::string FamilyName(Family family) {
  return family == Family::kStaircase ? "staircase" : "elevator";
}

struct RunOutput {
  ChaseResult result;
  std::string events;
};

RunOutput RunVariant(Family family, ChaseVariant variant, size_t max_steps,
                     size_t threads, bool delta_enabled = true) {
  KnowledgeBase kb = FreshKb(family);
  std::ostringstream events;
  EventLogObserver log(&events);
  ChaseOptions options;
  options.variant = variant;
  options.limits.max_steps = max_steps;
  options.delta.enabled = delta_enabled;
  options.parallel.threads = threads;
  options.observer = &log;
  auto run = RunChase(kb, options);
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  return {std::move(run).value(), events.str()};
}

// Step-by-step derivation journal equality: rule sequence, trigger
// matches, simplifications, added atoms and every element F_i.
void ExpectSameJournal(const Derivation& got, const Derivation& want,
                       const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  DerivationCursor got_f(got), want_f(want);
  for (size_t i = 0; i < got.size(); ++i, got_f.Next(), want_f.Next()) {
    SCOPED_TRACE(context + ", step " + std::to_string(i));
    const DerivationStep& g = got.step(i);
    const DerivationStep& w = want.step(i);
    EXPECT_EQ(g.rule_index, w.rule_index);
    EXPECT_EQ(g.rule_label, w.rule_label);
    EXPECT_EQ(g.match, w.match);
    EXPECT_EQ(g.simplification, w.simplification);
    EXPECT_EQ(g.added_atoms, w.added_atoms);
    EXPECT_EQ(g.instance_size, w.instance_size);
    EXPECT_EQ(got_f.instance().ContentHash(),
              want_f.instance().ContentHash());
  }
}

void ExpectBitIdentical(const RunOutput& parallel, const RunOutput& golden,
                        const std::string& context) {
  EXPECT_EQ(parallel.result.stop_reason, golden.result.stop_reason) << context;
  EXPECT_EQ(parallel.result.steps, golden.result.steps) << context;
  EXPECT_EQ(parallel.result.rounds, golden.result.rounds) << context;
  EXPECT_EQ(parallel.result.derivation.Last().size(),
            golden.result.derivation.Last().size())
      << context;
  EXPECT_EQ(parallel.result.derivation.Last().ContentHash(),
            golden.result.derivation.Last().ContentHash())
      << context;
  ExpectSameJournal(parallel.result.derivation, golden.result.derivation,
                    context);
  EXPECT_EQ(parallel.events, golden.events) << context;
}

// Thread counts exercised against the sequential golden: a small pool, a
// pool larger than the task counts of most rounds (oversubscription), and
// whatever the host reports.
std::vector<size_t> SweepThreadCounts() {
  std::vector<size_t> counts = {2, 4};
  size_t hw = ThreadPool::HardwareConcurrency();
  if (hw != 2 && hw != 4) counts.push_back(hw);
  return counts;
}

void SweepFamily(Family family, size_t max_steps) {
  for (ChaseVariant variant : kAllVariants) {
    RunOutput golden = RunVariant(family, variant, max_steps, /*threads=*/1);
    for (size_t threads : SweepThreadCounts()) {
      RunOutput parallel = RunVariant(family, variant, max_steps, threads);
      ExpectBitIdentical(
          parallel, golden,
          FamilyName(family) + "/" + ChaseVariantName(variant) +
              "/threads=" + std::to_string(threads));
    }
  }
}

TEST(ParallelBitIdentity, AllVariantsStaircase) {
  SweepFamily(Family::kStaircase, /*max_steps=*/16);
}

TEST(ParallelBitIdentity, AllVariantsElevator) {
  SweepFamily(Family::kElevator, /*max_steps=*/12);
}

// Delta evaluation OFF exercises the other parallel section: the per-round
// naive re-enumeration (same code path as priming) with no seeded probes.
TEST(ParallelBitIdentity, NaiveEvaluationDeltaOff) {
  for (ChaseVariant variant :
       {ChaseVariant::kRestricted, ChaseVariant::kCore}) {
    RunOutput golden = RunVariant(Family::kStaircase, variant,
                                  /*max_steps=*/12, /*threads=*/1,
                                  /*delta_enabled=*/false);
    for (size_t threads : SweepThreadCounts()) {
      RunOutput parallel = RunVariant(Family::kStaircase, variant,
                                      /*max_steps=*/12, threads,
                                      /*delta_enabled=*/false);
      ExpectBitIdentical(parallel, golden,
                         std::string("delta-off/") + ChaseVariantName(variant) +
                             "/threads=" + std::to_string(threads));
    }
  }
}

TEST(ParallelOptions, ZeroThreadsRejectedByValidate) {
  ChaseOptions options;
  options.parallel.threads = 0;
  Status status = options.Validate();
  EXPECT_FALSE(status.ok());
  auto run = RunChase(FreshKb(Family::kStaircase), options);
  EXPECT_FALSE(run.ok());
}

// Records every ParallelRoundEvent.
class ParallelRoundCollector : public ChaseObserver {
 public:
  void OnParallelRound(const ParallelRoundEvent& event) override {
    events.push_back(event);
  }
  std::vector<ParallelRoundEvent> events;
};

// threads == 1 runs the task lists inline: nothing is dispatched, so every
// parallel_* stat stays zero and no ParallelRoundEvent fires.
TEST(ParallelStats, InlineRunnerReportsNoParallelWork) {
  for (ChaseVariant variant : kAllVariants) {
    KnowledgeBase kb = FreshKb(Family::kStaircase);
    ParallelRoundCollector collector;
    ChaseOptions options;
    options.variant = variant;
    options.limits.max_steps = 12;
    options.parallel.threads = 1;
    options.observer = &collector;
    auto run = RunChase(kb, options);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    const ChaseStats& stats = run->stats;
    const std::string context = ChaseVariantName(variant);
    EXPECT_GT(run->steps, 0u) << context;
    EXPECT_EQ(stats.parallel_rounds, 0u) << context;
    EXPECT_EQ(stats.parallel_tasks, 0u) << context;
    EXPECT_EQ(stats.parallel_eval_ms, 0.0) << context;
    EXPECT_EQ(stats.parallel_merge_ms, 0.0) << context;
    EXPECT_EQ(stats.parallel_max_imbalance, 0u) << context;
    EXPECT_TRUE(collector.events.empty()) << context;
  }
}

// Regression: a section that dispatched no task (no inserted fact, no
// touched rule) still counted toward parallel_rounds and
// ParallelRoundEvent.sections, so the final round of this program reported
// a parallel round with zero tasks. Only dispatching sections count.
TEST(ParallelStats, SectionsWithoutTasksAreNotCounted) {
  auto program = ParseProgram(R"(
works(alice, widgets). works(bob, widgets). works(carol, gizmos).
[head]  heads(H, D), works(H, D) :- works(X, D).
[mgmt]  manages(H, X) :- heads(H, D), works(X, D).
)");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  ParallelRoundCollector collector;
  ChaseOptions options;
  options.variant = ChaseVariant::kCore;
  options.parallel.threads = 4;
  options.observer = &collector;
  auto run = RunChase(program->kb, options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_FALSE(collector.events.empty());
  EXPECT_LT(collector.events.size(), run->rounds);
  EXPECT_EQ(run->stats.parallel_rounds, collector.events.size());
  size_t tasks = 0;
  for (const ParallelRoundEvent& event : collector.events) {
    EXPECT_GT(event.sections, 0u) << "round " << event.round;
    EXPECT_GE(event.tasks, event.sections) << "round " << event.round;
    tasks += event.tasks;
  }
  EXPECT_EQ(run->stats.parallel_tasks, tasks);
}

TEST(ParallelStats, TelemetryPopulatedOnlyWhenParallel) {
  RunOutput sequential =
      RunVariant(Family::kStaircase, ChaseVariant::kRestricted, 8, 1);
  EXPECT_EQ(sequential.result.stats.parallel_rounds, 0u);
  EXPECT_EQ(sequential.result.stats.parallel_tasks, 0u);

  RunOutput parallel =
      RunVariant(Family::kStaircase, ChaseVariant::kRestricted, 8, 4);
  EXPECT_GT(parallel.result.stats.parallel_rounds, 0u);
  EXPECT_GT(parallel.result.stats.parallel_tasks, 0u);
  EXPECT_LE(parallel.result.stats.parallel_rounds, parallel.result.rounds);
}

// The parallel-round observer hook fires at --threads > 1 but is skipped
// by EventLogObserver unless explicitly opted in, keeping event streams
// comparable across thread counts; opting in surfaces it.
TEST(ParallelStats, EventLogOptInEmitsParallelRounds) {
  KnowledgeBase kb = FreshKb(Family::kStaircase);
  std::ostringstream events;
  EventLogObserver log(&events, /*log_parallel_events=*/true);
  ChaseOptions options;
  options.limits.max_steps = 8;
  options.parallel.threads = 4;
  options.observer = &log;
  auto run = RunChase(kb, options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_NE(events.str().find("\"event\": \"parallel_round\""),
            std::string::npos);
}

// Regression: the chase.match.* registry counters are fed by per-round
// MatchPlanEvent deltas, so a run stopped between round ends (here: a
// fault-injected mid-round governor stop) used to leave the last partial
// round's counts in ChaseStats but NOT in the registry — and the gap
// differed between thread counts. The engine now flushes the tail before
// OnRunEnd; the registry must equal ChaseStats exactly, at any thread
// count, at any stop boundary.
TEST(ParallelStats, MatchCounterParityBetweenRegistryAndStats) {
  for (size_t threads : {size_t{1}, size_t{4}}) {
    for (bool interrupt : {false, true}) {
      KnowledgeBase kb = FreshKb(Family::kStaircase);
      MetricsRegistry registry;
      MetricsObserver metrics(&registry);
      ChaseOptions options;
      options.variant = ChaseVariant::kRestricted;
      options.limits.max_steps = 12;
      options.parallel.threads = threads;
      options.observer = &metrics;
      StatusOr<ChaseResult> run = Status::Internal("not run");
      if (interrupt) {
        FaultInjector injector;
        injector.Arm(FaultSite::kTriggerBoundary, 5, FaultAction::kCancel);
        FaultInjectorScope scope(&injector);
        run = RunChase(kb, options);
      } else {
        run = RunChase(kb, options);
      }
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      const std::string context = "threads=" + std::to_string(threads) +
                                  (interrupt ? " interrupted" : "");
      const ChaseStats& stats = run->stats;
      EXPECT_EQ(registry.GetCounter("chase.match.index_probes")->value(),
                stats.match_index_probes)
          << context;
      EXPECT_EQ(registry.GetCounter("chase.match.column_scans")->value(),
                stats.match_column_scans)
          << context;
      EXPECT_EQ(registry.GetCounter("chase.match.join_fallbacks")->value(),
                stats.match_join_fallbacks)
          << context;
      EXPECT_EQ(registry.GetCounter("chase.match.index_builds")->value(),
                stats.match_index_builds)
          << context;
      EXPECT_EQ(registry.GetCounter("chase.match.index_build_bytes")->value(),
                stats.match_index_build_bytes)
          << context;
    }
  }
}

TEST(ParallelStats, MetricsObserverRecordsParallelInstruments) {
  KnowledgeBase kb = FreshKb(Family::kStaircase);
  MetricsRegistry registry;
  MetricsObserver metrics(&registry);
  ChaseOptions options;
  options.limits.max_steps = 8;
  options.parallel.threads = 4;
  options.observer = &metrics;
  auto run = RunChase(kb, options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_GT(registry.GetCounter("chase.parallel.rounds")->value(), 0u);
  EXPECT_GT(registry.GetCounter("chase.parallel.tasks")->value(), 0u);
  EXPECT_EQ(registry.GetGauge("chase.parallel.threads")->value(), 4.0);
}

// Governance must thread through the workers: a pre-fired cancel token is
// observed inside the parallel section and the run stops with the
// consistent initial prefix.
TEST(ParallelGovernance, PreCancelledTokenStopsRun) {
  KnowledgeBase kb = FreshKb(Family::kStaircase);
  ChaseOptions options;
  options.limits.max_steps = 1000;
  options.limits.cancel = CancelToken::Create();
  options.limits.cancel.RequestCancel();
  options.parallel.threads = 4;
  auto run = RunChase(kb, options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run.value().stop_reason, StopReason::kCancelled);
  EXPECT_EQ(run.value().steps, 0u);
}

// Cross-thread cancellation: another thread fires the token while the
// oblivious chase (which never terminates on the staircase family) is
// mid-run at --threads=4. The run must stop with kCancelled and a
// consistent prefix rather than hang or crash.
TEST(ParallelGovernance, CrossThreadCancelStopsObliviousRun) {
  KnowledgeBase kb = FreshKb(Family::kStaircase);
  ChaseOptions options;
  options.variant = ChaseVariant::kOblivious;
  options.limits.max_steps = 100000000;
  options.limits.cancel = CancelToken::Create();
  options.parallel.threads = 4;
  CancelToken token = options.limits.cancel;
  std::thread canceller([token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    token.RequestCancel();
  });
  auto run = RunChase(kb, options);
  canceller.join();
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run.value().stop_reason, StopReason::kCancelled);
  EXPECT_GT(run.value().derivation.Last().size(), 0u);
}

// A tiny memory budget trips inside the parallel section (worker governors
// carry the budget) and the stop reason folds back to the main governor.
TEST(ParallelGovernance, MemoryBudgetStopsParallelRun) {
  for (size_t threads : {size_t{1}, size_t{4}}) {
    KnowledgeBase kb = FreshKb(Family::kStaircase);
    ChaseOptions options;
    options.limits.max_steps = 1000;
    options.limits.memory_budget_bytes = 1;
    options.parallel.threads = threads;
    auto run = RunChase(kb, options);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_EQ(run.value().stop_reason, StopReason::kMemoryBudget)
        << "threads=" << threads;
    EXPECT_EQ(run.value().steps, 0u) << "threads=" << threads;
  }
}

// An already-expired deadline stops at the first boundary with the initial
// instance unmodified, sequential and parallel alike.
TEST(ParallelGovernance, ExpiredDeadlineStopsAtFirstBoundary) {
  for (size_t threads : {size_t{1}, size_t{4}}) {
    KnowledgeBase kb = FreshKb(Family::kElevator);
    ChaseOptions options;
    options.limits.max_steps = 1000;
    options.limits.deadline_ms = 0;
    options.parallel.threads = threads;
    auto run = RunChase(kb, options);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_EQ(run.value().stop_reason, StopReason::kDeadline)
        << "threads=" << threads;
    EXPECT_EQ(run.value().steps, 0u) << "threads=" << threads;
  }
}

TEST(ThreadPoolTest, EveryWorkerIndexRunsExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.threads(), 4u);
  std::vector<std::atomic<int>> hits(4);
  for (auto& h : hits) h.store(0);
  pool.RunOnAllWorkers([&](size_t worker) { hits[worker].fetch_add(1); });
  for (size_t i = 0; i < 4; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
  // The pool is reusable: a second dispatch runs every index again.
  pool.RunOnAllWorkers([&](size_t worker) { hits[worker].fetch_add(1); });
  for (size_t i = 0; i < 4; ++i) EXPECT_EQ(hits[i].load(), 2) << i;
}

TEST(ThreadPoolTest, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.threads(), 1u);
  std::thread::id caller = std::this_thread::get_id();
  std::thread::id seen;
  pool.RunOnAllWorkers([&](size_t worker) {
    EXPECT_EQ(worker, 0u);
    seen = std::this_thread::get_id();
  });
  EXPECT_EQ(seen, caller);
}

TEST(ThreadPoolTest, HardwareConcurrencyIsAtLeastOne) {
  EXPECT_GE(ThreadPool::HardwareConcurrency(), 1u);
}

// The sharded counters behind MetricsRegistry must not lose increments
// under contention (workers bump them concurrently at --threads > 1).
TEST(MetricsConcurrency, CounterSumsExactlyUnderContention) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("test.contended");
  constexpr int kThreads = 8;
  constexpr int kIncrements = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([counter] {
      for (int i = 0; i < kIncrements; ++i) counter->Increment();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter->value(),
            static_cast<uint64_t>(kThreads) * kIncrements);
}

TEST(MetricsConcurrency, HistogramObservesExactlyUnderContention) {
  MetricsRegistry registry;
  Histogram* histogram = registry.GetHistogram("test.contended_histogram");
  constexpr int kThreads = 8;
  constexpr int kObservations = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([histogram] {
      for (int i = 0; i < kObservations; ++i) histogram->Observe(1.0);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(histogram->count(),
            static_cast<size_t>(kThreads) * kObservations);
  EXPECT_DOUBLE_EQ(histogram->sum(), kThreads * kObservations * 1.0);
}

}  // namespace
}  // namespace twchase
