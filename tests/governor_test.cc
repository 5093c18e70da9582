// Budget-boundary tests for the resource governor (satellite of the
// robustness PR): a deadline of 0ms, a memory budget smaller than the
// initial instance, and a cancellation requested before the first round
// must each return immediately with the correct StopReason and an
// unmodified instance — property-style across all five chase variants.
// Plus unit coverage of the governor itself: latching, parent chaining,
// and mid-run deadline stops.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "core/chase.h"
#include "kb/examples.h"
#include "model/atom_set.h"
#include "model/column_segment.h"
#include "util/governor.h"

namespace twchase {
namespace {

const ChaseVariant kAllVariants[] = {
    ChaseVariant::kOblivious, ChaseVariant::kSemiOblivious,
    ChaseVariant::kRestricted, ChaseVariant::kFrugal, ChaseVariant::kCore};

// Runs the variant under `limits` and asserts the immediate-return
// contract: zero steps, zero rounds, the expected stop reason, and a final
// instance identical to the input facts (no coring, no fresh nulls).
void ExpectImmediateStop(const KnowledgeBase& kb, ChaseVariant variant,
                         const ChaseOptions::LimitOptions& limits,
                         StopReason expected) {
  ChaseOptions options;
  options.variant = variant;
  options.limits = limits;
  options.limits.max_steps = 1000;
  size_t variables_before = kb.vocab->num_variables();
  auto run = RunChase(kb, options);
  ASSERT_TRUE(run.ok()) << ChaseVariantName(variant);
  EXPECT_EQ(run->stop_reason, expected) << ChaseVariantName(variant);
  EXPECT_FALSE(run->terminated) << ChaseVariantName(variant);
  EXPECT_EQ(run->steps, 0u) << ChaseVariantName(variant);
  EXPECT_EQ(run->rounds, 0u) << ChaseVariantName(variant);
  EXPECT_EQ(run->derivation.Last().size(), kb.facts.size())
      << ChaseVariantName(variant);
  EXPECT_EQ(run->derivation.Last().ContentHash(), kb.facts.ContentHash())
      << ChaseVariantName(variant);
  EXPECT_EQ(kb.vocab->num_variables(), variables_before)
      << ChaseVariantName(variant) << ": immediate stop minted fresh nulls";
}

TEST(GovernorBoundaryTest, ZeroDeadlineStopsBeforeAnyWork) {
  for (ChaseVariant variant : kAllVariants) {
    StaircaseWorld world;
    ChaseOptions::LimitOptions limits;
    limits.deadline_ms = 0;  // already expired, NOT unlimited
    ExpectImmediateStop(world.kb(), variant, limits, StopReason::kDeadline);
  }
}

TEST(GovernorBoundaryTest, MemoryBudgetBelowInitialInstanceStops) {
  for (ChaseVariant variant : kAllVariants) {
    ElevatorWorld world;
    ChaseOptions::LimitOptions limits;
    limits.memory_budget_bytes = 1;  // smaller than any non-empty instance
    ExpectImmediateStop(world.kb(), variant, limits,
                        StopReason::kMemoryBudget);
  }
}

TEST(GovernorBoundaryTest, PreCancelledTokenStopsBeforeFirstRound) {
  for (ChaseVariant variant : kAllVariants) {
    StaircaseWorld world;
    ChaseOptions::LimitOptions limits;
    limits.cancel = CancelToken::Create();
    limits.cancel.RequestCancel();
    ExpectImmediateStop(world.kb(), variant, limits, StopReason::kCancelled);
  }
}

TEST(GovernorBoundaryTest, AbsentDeadlineIsUnlimited) {
  // nullopt (the default) must not be confused with an expired deadline.
  auto kb = MakeTransitiveClosure(3);
  ChaseOptions options;
  options.variant = ChaseVariant::kRestricted;
  options.limits.max_steps = 200;
  ASSERT_FALSE(options.limits.deadline_ms.has_value());
  auto run = RunChase(kb, options);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->stop_reason, StopReason::kFixpoint);
  EXPECT_TRUE(run->terminated);
}

TEST(GovernorBoundaryTest, MidRunCancellationKeepsConsistentPrefix) {
  // Cancel from "another thread" (here: after a deadline-free run is
  // prepared) — the run must stop with a consistent prefix: every recorded
  // step count matches the derivation, and the result is still a valid
  // chase prefix (non-empty, contains the facts' image).
  for (ChaseVariant variant : kAllVariants) {
    StaircaseWorld world;
    ChaseOptions options;
    options.variant = variant;
    options.limits.max_steps = 1000000;
    options.limits.deadline_ms = 30;  // stop somewhere mid-run
    options.limits.max_instance_size = 20000;
    auto run = RunChase(world.kb(), options);
    ASSERT_TRUE(run.ok()) << ChaseVariantName(variant);
    EXPECT_TRUE(run->stop_reason == StopReason::kDeadline ||
                run->stop_reason == StopReason::kInstanceSizeGuard)
        << ChaseVariantName(variant);
    EXPECT_EQ(run->derivation.size(), run->steps + 1)
        << ChaseVariantName(variant);
    EXPECT_GE(run->derivation.Last().size(), 1u) << ChaseVariantName(variant);
  }
}

// Cross-thread cancellation, as the daemon does it: another thread fires the
// token while the oblivious chase (which never terminates on the staircase
// family) is mid-run. The run must stop with kCancelled and a consistent
// prefix rather than hang or crash.
TEST(GovernorBoundaryTest, CrossThreadCancelStopsObliviousRun) {
  ChaseOptions options;
  options.variant = ChaseVariant::kOblivious;
  options.limits.max_steps = 100000000;
  options.limits.cancel = CancelToken::Create();
  CancelToken token = options.limits.cancel;
  std::thread canceller([token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    token.RequestCancel();
  });
  auto run = RunChase(StaircaseWorld().kb(), options);
  canceller.join();
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->stop_reason, StopReason::kCancelled);
  EXPECT_EQ(run->derivation.size(), run->steps + 1);
  EXPECT_GT(run->derivation.Last().size(), 0u);
}

// ---------------------------------------------------------------------------
// Governor unit behaviour.
// ---------------------------------------------------------------------------

TEST(ResourceGovernorTest, LatchesFirstReasonAndStays) {
  ResourceLimits limits;
  limits.cancel = CancelToken::Create();
  limits.cancel.RequestCancel();
  ResourceGovernor governor(limits, /*parent=*/nullptr);
  EXPECT_TRUE(governor.ShouldStop(FaultSite::kRoundBoundary));
  EXPECT_EQ(governor.reason(), StopReason::kCancelled);
  // Adding memory pressure later must not overwrite the latched reason.
  governor.NoteMemoryUsage(1u << 30);
  EXPECT_TRUE(governor.ShouldStop(FaultSite::kTriggerBoundary));
  EXPECT_EQ(governor.reason(), StopReason::kCancelled);
}

TEST(ResourceGovernorTest, ChildInheritsParentStopReasonVerbatim) {
  ResourceLimits parent_limits;
  parent_limits.deadline_ms = 0;
  ResourceGovernor parent(parent_limits, /*parent=*/nullptr);
  EXPECT_TRUE(parent.ShouldStop(FaultSite::kRoundBoundary));
  ASSERT_EQ(parent.reason(), StopReason::kDeadline);

  ResourceLimits child_limits;  // no budgets of its own
  ResourceGovernor child(child_limits, &parent);
  EXPECT_TRUE(child.ShouldStop(FaultSite::kHomNode));
  EXPECT_EQ(child.reason(), StopReason::kDeadline);
}

TEST(ResourceGovernorTest, MemoryBudgetTripsOnReportedUsage) {
  ResourceLimits limits;
  limits.memory_budget_bytes = 1000;
  ResourceGovernor governor(limits, /*parent=*/nullptr);
  governor.NoteMemoryUsage(999);
  EXPECT_FALSE(governor.ShouldStop(FaultSite::kTriggerBoundary));
  governor.NoteMemoryUsage(1001);
  EXPECT_TRUE(governor.ShouldStop(FaultSite::kTriggerBoundary));
  EXPECT_EQ(governor.reason(), StopReason::kMemoryBudget);
}

TEST(MemoryAccountingTest, BudgetAtTheDedupedEstimateIsNotTrippedEarly) {
  // Pins that the governed estimate counts the live instance once: it is
  // the live instance plus the derivation's own bytes (F_0 and the
  // journal, which excludes the final instance). Measure that estimate
  // after exactly 6 steps, then run with it as the budget and a larger
  // step allowance. The restricted staircase run grows monotonically, so
  // the governed estimate reaches the budget exactly at the step-6
  // boundary (not over — NoteMemoryUsage trips on strictly-greater) and
  // exceeds it only at step 7: the run must get STRICTLY PAST step 6
  // before stopping on kMemoryBudget. Counting the final instance twice
  // would overshoot the budget at step 6 or earlier.
  ChaseOptions options;
  options.limits.max_steps = 6;
  auto golden = RunChase(StaircaseWorld().kb(), options);
  ASSERT_TRUE(golden.ok());
  ASSERT_EQ(golden->stop_reason, StopReason::kStepBudget);
  ASSERT_EQ(golden->steps, 6u);
  size_t deduped_at_6 = golden->derivation.Last().ApproxMemoryBytes() +
                        golden->derivation.ApproxMemoryBytes();

  ChaseOptions budgeted = options;
  budgeted.limits.max_steps = 1000;
  budgeted.limits.memory_budget_bytes = deduped_at_6;
  auto run = RunChase(StaircaseWorld().kb(), budgeted);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->stop_reason, StopReason::kMemoryBudget);
  EXPECT_GT(run->steps, 6u)
      << "stopped at or before step 6: the estimate overshot the budget "
         "(final instance double-counted?)";
}

TEST(MemoryAccountingTest, ColumnIndexAndDictionaryBytesAreCounted) {
  // The governed estimate must charge the columnar layer: the term
  // dictionary and, per segment, the column data plus the sorted index at
  // full materialisation (sizeof(uint32_t) per row per column — charged
  // whether or not the lazy build has run, so the estimate is independent
  // of probe schedules). Dropping any of these from ApproxMemoryBytes
  // makes a memory budget blind to real columnar growth and fails here.
  Vocabulary vocab;
  PredicateId p = vocab.MustPredicate("p", 2);
  AtomSet s;
  size_t empty_bytes = s.ApproxMemoryBytes();
  constexpr size_t kRows = 64;
  for (size_t i = 0; i < kRows; ++i) {
    s.Insert(Atom(p, {vocab.Constant("c" + std::to_string(i)),
                      vocab.Constant("d" + std::to_string(i))}));
  }
  const ColumnSegment* seg = s.SegmentFor(p);
  ASSERT_NE(seg, nullptr);
  size_t data_bytes = 2 * kRows * sizeof(TermId) + kRows * sizeof(uint32_t);
  size_t index_bytes = 2 * kRows * sizeof(uint32_t);
  EXPECT_GE(seg->ApproxMemoryBytes(), data_bytes + index_bytes);
  EXPECT_GE(s.ApproxMemoryBytes(),
            empty_bytes + s.dictionary().ApproxMemoryBytes() +
                seg->ApproxMemoryBytes());
}

TEST(ResourceGovernorTest, StopReasonNamesAreStable) {
  // The names feed the event log schema and the checkpoint format; changing
  // one silently breaks parsing of previously written artifacts.
  EXPECT_STREQ(StopReasonName(StopReason::kFixpoint), "fixpoint");
  EXPECT_STREQ(StopReasonName(StopReason::kStepBudget), "step-budget");
  EXPECT_STREQ(StopReasonName(StopReason::kInstanceSizeGuard),
               "instance-size-guard");
  EXPECT_STREQ(StopReasonName(StopReason::kDeadline), "deadline");
  EXPECT_STREQ(StopReasonName(StopReason::kMemoryBudget), "memory-budget");
  EXPECT_STREQ(StopReasonName(StopReason::kCancelled), "cancelled");
}

}  // namespace
}  // namespace twchase
