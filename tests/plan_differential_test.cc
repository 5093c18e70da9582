// Bit-identity oracle for the execution planner (ChaseOptions::plan): a
// planned run must be IDENTICAL to the unplanned run — same final instance,
// same derivation journal, same observer event stream — for every chase
// variant, on both paper worlds. The planner only
// ever skips work whose outcome is forced (dormant-rule enumerations are
// provably empty; a certified still-core proof stands in for a ComputeCore
// that would have found zero folds), so identity holds by construction;
// these tests are the oracle for that argument, and run under the asan and
// tsan presets via tools/check.sh (label: plan).
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/chase.h"
#include "hom/core.h"
#include "kb/examples.h"
#include "kb/knowledge_base.h"
#include "obs/stock_observers.h"

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
                     bool plan, bool round_end_coring = false) {
  KnowledgeBase kb = FreshKb(family);
  std::ostringstream events;
  EventLogObserver log(&events);
  ChaseOptions options;
  options.variant = variant;
  options.limits.max_steps = max_steps;
  options.plan.enabled = plan;
  options.core.core_at_round_end = round_end_coring;
  options.observer = &log;
  auto run = RunChase(kb, options);
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  return {std::move(run).value(), events.str()};
}

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

void ExpectBitIdentical(const RunOutput& planned, const RunOutput& golden,
                        const std::string& context) {
  EXPECT_EQ(planned.result.stop_reason, golden.result.stop_reason) << context;
  EXPECT_EQ(planned.result.steps, golden.result.steps) << context;
  EXPECT_EQ(planned.result.rounds, golden.result.rounds) << context;
  EXPECT_EQ(planned.result.derivation.Last().ContentHash(),
            golden.result.derivation.Last().ContentHash())
      << context;
  ExpectSameJournal(planned.result.derivation, golden.result.derivation,
                    context);
  EXPECT_EQ(planned.events, golden.events) << context;
}

void SweepFamily(Family family, size_t max_steps) {
  for (ChaseVariant variant : kAllVariants) {
    RunOutput golden =
        RunVariant(family, variant, max_steps, /*plan=*/false);
    RunOutput planned = RunVariant(family, variant, max_steps, /*plan=*/true);
    ExpectBitIdentical(planned, golden,
                       FamilyName(family) + "/" + ChaseVariantName(variant));
  }
}

TEST(PlanDifferential, StaircaseSweep) {
  SweepFamily(Family::kStaircase, 40);
}

TEST(PlanDifferential, ElevatorSweep) {
  SweepFamily(Family::kElevator, 40);
}

// Round-end coring drives the guard's other certification site; the core
// variant must stay bit-identical there too.
TEST(PlanDifferential, RoundEndCoringStaysIdentical) {
  for (Family family : {Family::kStaircase, Family::kElevator}) {
    RunOutput golden = RunVariant(family, ChaseVariant::kCore, 40,
                                  /*plan=*/false, /*round_end_coring=*/true);
    RunOutput planned = RunVariant(family, ChaseVariant::kCore, 40,
                                   /*plan=*/true, /*round_end_coring=*/true);
    ExpectBitIdentical(planned, golden, FamilyName(family) + "/round-end");
  }
}

// core_every > 1 makes the guard prove multi-application batches at once.
TEST(PlanDifferential, SpacedCoringStaysIdentical) {
  for (size_t every : {size_t{2}, size_t{3}}) {
    KnowledgeBase golden_kb = FreshKb(Family::kStaircase);
    ChaseOptions options;
    options.variant = ChaseVariant::kCore;
    options.limits.max_steps = 40;
    options.core.core_every = every;
    options.plan.enabled = false;
    auto golden = RunChase(golden_kb, options);
    ASSERT_TRUE(golden.ok());

    KnowledgeBase planned_kb = FreshKb(Family::kStaircase);
    options.plan.enabled = true;
    auto planned = RunChase(planned_kb, options);
    ASSERT_TRUE(planned.ok());
    ExpectSameJournal(planned->derivation, golden->derivation,
                      "core_every=" + std::to_string(every));
    EXPECT_EQ(planned->derivation.Last().ContentHash(),
              golden->derivation.Last().ContentHash());
  }
}

// The guard's certificates must be genuine: after every planned core run
// the final instance is a core, and the guard actually replaced folds
// (otherwise the oracle above would be vacuous for the guard path).
TEST(PlanDifferential, GuardCertifiesOnTheCoreVariant) {
  RunOutput planned = RunVariant(Family::kStaircase, ChaseVariant::kCore, 40,
                                 /*plan=*/true);
  EXPECT_GT(planned.result.stats.plan_core_proofs, 0u);
  EXPECT_GT(planned.result.stats.plan_core_certified, 0u);
  EXPECT_TRUE(IsCore(planned.result.derivation.Last()));

  RunOutput golden = RunVariant(Family::kStaircase, ChaseVariant::kCore, 40,
                                /*plan=*/false);
  EXPECT_EQ(golden.result.stats.plan_core_proofs, 0u);
  EXPECT_LT(planned.result.stats.core_full, golden.result.stats.core_full);
}

// Plan events only surface in the JSONL stream when explicitly opted in.
TEST(PlanDifferential, EventLogOptInEmitsPlanEvents) {
  KnowledgeBase kb = FreshKb(Family::kStaircase);
  std::ostringstream events;
  EventLogObserver log(&events, /*log_match_events=*/false,
                       /*log_plan_events=*/true);
  ChaseOptions options;
  options.variant = ChaseVariant::kCore;
  options.limits.max_steps = 12;
  options.observer = &log;
  auto run = RunChase(kb, options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_NE(events.str().find("\"event\": \"plan\""), std::string::npos);
}

}  // namespace
}  // namespace twchase
