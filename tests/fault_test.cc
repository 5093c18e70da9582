// Deterministic fault injection and the consistency invariant (tentpole of
// the robustness PR): a fault injected at ANY governed boundary stops the
// run with a consistent, checkpointable prefix, and resuming that
// checkpoint reproduces the uninterrupted golden run bit-identically —
// same final instance, same derivation journal, same observer event
// stream — across all five chase variants on the staircase and elevator
// families.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/chase.h"
#include "core/checkpoint.h"
#include "kb/examples.h"
#include "obs/observer.h"
#include "obs/stock_observers.h"
#include "util/fault.h"

namespace twchase {
namespace {

const ChaseVariant kAllVariants[] = {
    ChaseVariant::kOblivious, ChaseVariant::kSemiOblivious,
    ChaseVariant::kRestricted, ChaseVariant::kFrugal, ChaseVariant::kCore};

enum class Family { kStaircase, kElevator };

KnowledgeBase FreshKb(Family family) {
  // Each run gets a freshly constructed world so fresh-null minting starts
  // from the same vocabulary state; construction is deterministic, so two
  // fresh worlds have identical term-id assignment (and thus identical
  // ProgramFingerprint).
  if (family == Family::kStaircase) return StaircaseWorld().kb();
  return ElevatorWorld().kb();
}

struct RunOutput {
  ChaseResult result;
  std::string events;
};

RunOutput RunVariant(Family family, ChaseVariant variant, size_t max_steps,
              bool record_log, FaultInjector* injector) {
  KnowledgeBase kb = FreshKb(family);
  std::ostringstream events;
  EventLogObserver log(&events);
  ChaseOptions options;
  options.variant = variant;
  options.limits.max_steps = max_steps;
  options.resume.record_log = record_log;
  options.observer = &log;
  StatusOr<ChaseResult> run = Status::Internal("not run");
  if (injector != nullptr) {
    FaultInjectorScope scope(injector);
    run = RunChase(kb, options);
  } else {
    run = RunChase(kb, options);
  }
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  return {std::move(run).value(), events.str()};
}

RunOutput Resume(Family family, ChaseVariant variant, size_t max_steps,
                 const ChaseCheckpoint& checkpoint) {
  KnowledgeBase kb = FreshKb(family);
  std::ostringstream events;
  EventLogObserver log(&events);
  ChaseOptions options;
  options.variant = variant;
  options.limits.max_steps = max_steps;
  options.observer = &log;
  auto run = ResumeChase(kb, options, checkpoint);
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

void ExpectBitIdentical(const RunOutput& resumed, const RunOutput& golden,
                        const std::string& context) {
  EXPECT_EQ(resumed.result.stop_reason, golden.result.stop_reason) << context;
  EXPECT_EQ(resumed.result.steps, golden.result.steps) << context;
  EXPECT_EQ(resumed.result.rounds, golden.result.rounds) << context;
  EXPECT_EQ(resumed.result.derivation.Last().size(),
            golden.result.derivation.Last().size())
      << context;
  EXPECT_EQ(resumed.result.derivation.Last().ContentHash(),
            golden.result.derivation.Last().ContentHash())
      << context;
  ExpectSameJournal(resumed.result.derivation, golden.result.derivation,
                    context);
  EXPECT_EQ(resumed.events, golden.events) << context;
}

// Interrupts a recording run with `injector`, checkpoints it through the
// serialized text format, resumes, and demands bit-identity with the
// uninterrupted golden run. Returns false when the fault never fired (the
// run finished first), so sweeps know to stop probing deeper visits.
bool CheckInterruptResumeRoundTrip(Family family, ChaseVariant variant,
                                   size_t max_steps, FaultInjector injector,
                                   const RunOutput& golden,
                                   const std::string& context) {
  RunOutput interrupted =
      RunVariant(family, variant, max_steps, /*record_log=*/true, &injector);
  if (injector.fired_count() == 0) {
    // Budget reached before the armed visit; nothing was injected.
    EXPECT_EQ(interrupted.result.stop_reason, golden.result.stop_reason)
        << context;
    return false;
  }
  EXPECT_TRUE(interrupted.result.stop_reason == StopReason::kCancelled ||
              interrupted.result.stop_reason == StopReason::kMemoryBudget)
      << context;
  EXPECT_FALSE(interrupted.result.terminated) << context;
  // Injected stops are observer-visible.
  EXPECT_NE(interrupted.events.find("\"event\": \"fault_injected\""),
            std::string::npos)
      << context;

  ChaseOptions recorded_options;
  recorded_options.variant = variant;
  recorded_options.limits.max_steps = max_steps;
  recorded_options.resume.record_log = true;
  KnowledgeBase kb = FreshKb(family);
  ChaseCheckpoint checkpoint =
      MakeCheckpoint(kb, recorded_options, interrupted.result);

  // Round-trip through the text format, as the CLI does.
  auto parsed = ParseCheckpoint(SerializeCheckpoint(checkpoint));
  EXPECT_TRUE(parsed.ok()) << context << ": " << parsed.status().ToString();
  if (!parsed.ok()) return true;

  RunOutput resumed = Resume(family, variant, max_steps, parsed.value());
  ExpectBitIdentical(resumed, golden, context);
  return true;
}

// One line per (family, variant, armed site@visit) of
// InjectedStopPointsArePinned.
constexpr const char* kPinnedStopPoints = R"(staircase/oblivious/hom-node@3: fired=1 steps=0 rounds=1 considered=0
staircase/oblivious/hom-node@60: fired=1 steps=6 rounds=4 considered=6
staircase/oblivious/hom-node@200: fired=0 steps=8 rounds=4 considered=8
staircase/oblivious/core-fold@2: fired=0 steps=8 rounds=4 considered=8
staircase/oblivious/trigger-boundary@9: fired=0 steps=8 rounds=4 considered=8
staircase/semi-oblivious/hom-node@3: fired=1 steps=0 rounds=1 considered=0
staircase/semi-oblivious/hom-node@60: fired=1 steps=5 rounds=4 considered=6
staircase/semi-oblivious/hom-node@200: fired=0 steps=8 rounds=4 considered=9
staircase/semi-oblivious/core-fold@2: fired=0 steps=8 rounds=4 considered=9
staircase/semi-oblivious/trigger-boundary@9: fired=1 steps=7 rounds=4 considered=8
staircase/restricted/hom-node@3: fired=1 steps=0 rounds=1 considered=0
staircase/restricted/hom-node@60: fired=1 steps=3 rounds=4 considered=6
staircase/restricted/hom-node@200: fired=0 steps=8 rounds=8 considered=14
staircase/restricted/core-fold@2: fired=0 steps=8 rounds=8 considered=14
staircase/restricted/trigger-boundary@9: fired=1 steps=4 rounds=5 considered=8
staircase/frugal/hom-node@3: fired=1 steps=0 rounds=1 considered=0
staircase/frugal/hom-node@60: fired=1 steps=3 rounds=3 considered=10
staircase/frugal/hom-node@200: fired=1 steps=6 rounds=7 considered=38
staircase/frugal/core-fold@2: fired=0 steps=8 rounds=8 considered=58
staircase/frugal/trigger-boundary@9: fired=1 steps=2 rounds=3 considered=8
staircase/core/hom-node@3: fired=1 steps=0 rounds=1 considered=0
staircase/core/hom-node@60: fired=1 steps=2 rounds=2 considered=5
staircase/core/hom-node@200: fired=1 steps=3 rounds=4 considered=15
staircase/core/core-fold@2: fired=1 steps=2 rounds=3 considered=9
staircase/core/trigger-boundary@9: fired=1 steps=2 rounds=3 considered=8
elevator/oblivious/hom-node@3: fired=1 steps=0 rounds=1 considered=0
elevator/oblivious/hom-node@60: fired=1 steps=7 rounds=6 considered=7
elevator/oblivious/hom-node@200: fired=0 steps=8 rounds=6 considered=8
elevator/oblivious/core-fold@2: fired=0 steps=8 rounds=6 considered=8
elevator/oblivious/trigger-boundary@9: fired=0 steps=8 rounds=6 considered=8
elevator/semi-oblivious/hom-node@3: fired=1 steps=0 rounds=1 considered=0
elevator/semi-oblivious/hom-node@60: fired=1 steps=7 rounds=6 considered=7
elevator/semi-oblivious/hom-node@200: fired=0 steps=8 rounds=6 considered=8
elevator/semi-oblivious/core-fold@2: fired=0 steps=8 rounds=6 considered=8
elevator/semi-oblivious/trigger-boundary@9: fired=0 steps=8 rounds=6 considered=8
elevator/restricted/hom-node@3: fired=1 steps=0 rounds=1 considered=0
elevator/restricted/hom-node@60: fired=1 steps=6 rounds=6 considered=7
elevator/restricted/hom-node@200: fired=0 steps=8 rounds=6 considered=11
elevator/restricted/core-fold@2: fired=0 steps=8 rounds=6 considered=11
elevator/restricted/trigger-boundary@9: fired=1 steps=6 rounds=6 considered=8
elevator/frugal/hom-node@3: fired=1 steps=0 rounds=1 considered=0
elevator/frugal/hom-node@60: fired=1 steps=5 rounds=5 considered=20
elevator/frugal/hom-node@200: fired=0 steps=8 rounds=6 considered=32
elevator/frugal/core-fold@2: fired=0 steps=8 rounds=6 considered=32
elevator/frugal/trigger-boundary@9: fired=1 steps=3 rounds=3 considered=8
elevator/core/hom-node@3: fired=1 steps=0 rounds=1 considered=0
elevator/core/hom-node@60: fired=1 steps=3 rounds=4 considered=9
elevator/core/hom-node@200: fired=1 steps=7 rounds=6 considered=32
elevator/core/core-fold@2: fired=1 steps=0 rounds=0 considered=0
elevator/core/trigger-boundary@9: fired=1 steps=3 rounds=3 considered=8
)";

std::string Context(Family family, ChaseVariant variant,
                    const std::string& what) {
  return std::string(family == Family::kStaircase ? "staircase" : "elevator") +
         "/" + ChaseVariantName(variant) + "/" + what;
}

// Sweep every trigger boundary of a short prefix run: for visit v = 1, 2,
// ... arm a cancellation (odd v) or an allocation failure (even v) at the
// v-th trigger boundary and prove the stop is resumable.
void SweepTriggerBoundaries(Family family, size_t max_steps) {
  for (ChaseVariant variant : kAllVariants) {
    RunOutput golden =
        RunVariant(family, variant, max_steps, /*record_log=*/false, nullptr);
    int verified = 0;
    for (uint64_t visit = 1;; ++visit) {
      FaultInjector injector;
      injector.Arm(FaultSite::kTriggerBoundary, visit,
                   visit % 2 == 1 ? FaultAction::kCancel
                                  : FaultAction::kAllocationFailure);
      if (!CheckInterruptResumeRoundTrip(
              family, variant, max_steps, injector, golden,
              Context(family, variant,
                      "trigger-visit-" + std::to_string(visit)))) {
        break;
      }
      ++verified;
      if (::testing::Test::HasFatalFailure()) return;
    }
    // The sweep must not pass vacuously: a run with max_steps applications
    // crosses at least max_steps trigger boundaries.
    EXPECT_GE(verified, static_cast<int>(max_steps))
        << Context(family, variant, "sweep-coverage");
  }
}

TEST(FaultInjectionTest, EveryTriggerBoundaryIsResumableOnStaircase) {
  SweepTriggerBoundaries(Family::kStaircase, /*max_steps=*/6);
}

TEST(FaultInjectionTest, EveryTriggerBoundaryIsResumableOnElevator) {
  SweepTriggerBoundaries(Family::kElevator, /*max_steps=*/5);
}

TEST(FaultInjectionTest, RoundBoundaryStopsAreResumable) {
  for (ChaseVariant variant : kAllVariants) {
    for (Family family : {Family::kStaircase, Family::kElevator}) {
      const size_t max_steps = 6;
      RunOutput golden =
          RunVariant(family, variant, max_steps, /*record_log=*/false, nullptr);
      FaultInjector injector;
      injector.Arm(FaultSite::kRoundBoundary, 2, FaultAction::kCancel);
      CheckInterruptResumeRoundTrip(family, variant, max_steps, injector,
                                    golden,
                                    Context(family, variant, "round-2"));
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(FaultInjectionTest, SeededSchedulesAreResumable) {
  // Seed-derived schedules hit arbitrary sites (hom search nodes, core
  // folds, ...), exercising the interrupted-search degradation paths; a
  // failing seed printed by gtest reproduces the schedule exactly.
  for (ChaseVariant variant :
       {ChaseVariant::kRestricted, ChaseVariant::kFrugal,
        ChaseVariant::kCore}) {
    const size_t max_steps = 5;
    RunOutput golden = RunVariant(Family::kElevator, variant, max_steps,
                           /*record_log=*/false, nullptr);
    for (uint64_t seed = 1; seed <= 12; ++seed) {
      SCOPED_TRACE("seed " + std::to_string(seed));
      FaultInjector injector = FaultInjector::FromSeed(seed, /*max_visit=*/40);
      CheckInterruptResumeRoundTrip(
          Family::kElevator, variant, max_steps, injector, golden,
          Context(Family::kElevator, variant,
                  "seed-" + std::to_string(seed)));
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

// Where an injected stop lands, pinned. Match establishment runs on the
// calling thread and must poll the governor exactly where the engine always
// has: a fault armed at visit v of a site stops the run at the same step,
// round and trigger consideration.
TEST(FaultInjectionTest, InjectedStopPointsArePinned) {
  struct Arm {
    FaultSite site;
    uint64_t visit;
  };
  const Arm arms[] = {{FaultSite::kHomNode, 3},
                      {FaultSite::kHomNode, 60},
                      {FaultSite::kHomNode, 200},
                      {FaultSite::kCoreFold, 2},
                      {FaultSite::kTriggerBoundary, 9}};
  std::string got;
  for (Family family : {Family::kStaircase, Family::kElevator}) {
    for (ChaseVariant variant : kAllVariants) {
      for (const Arm& arm : arms) {
        FaultInjector injector;
        injector.Arm(arm.site, arm.visit, FaultAction::kCancel);
        RunOutput run = RunVariant(family, variant, /*max_steps=*/8,
                                   /*record_log=*/false, &injector);
        got += Context(family, variant,
                       std::string(FaultSiteName(arm.site)) + "@" +
                           std::to_string(arm.visit)) +
               ": fired=" + std::to_string(injector.fired_count()) +
               " steps=" + std::to_string(run.result.steps) +
               " rounds=" + std::to_string(run.result.rounds) +
               " considered=" +
               std::to_string(run.result.stats.triggers_considered) + "\n";
      }
    }
  }
  EXPECT_EQ(got, kPinnedStopPoints);
}

TEST(FaultInjectionTest, InjectorIsInertWithoutScope) {
  // An armed injector that is never installed must not perturb a run.
  FaultInjector injector;
  injector.Arm(FaultSite::kTriggerBoundary, 1, FaultAction::kCancel);
  RunOutput golden = RunVariant(Family::kStaircase, ChaseVariant::kRestricted, 4,
                         /*record_log=*/false, nullptr);
  // Note: injector deliberately NOT passed — no scope installed.
  RunOutput plain = RunVariant(Family::kStaircase, ChaseVariant::kRestricted, 4,
                        /*record_log=*/false, nullptr);
  EXPECT_EQ(injector.fired_count(), 0u);
  ExpectBitIdentical(plain, golden, "inert-injector");
}

TEST(FaultInjectionTest, SeedScheduleIsDeterministic) {
  for (uint64_t seed : {1ull, 7ull, 123456789ull}) {
    FaultInjector a = FaultInjector::FromSeed(seed, 10);
    FaultInjector b = FaultInjector::FromSeed(seed, 10);
    // Identical schedules fire at the same visit of the same site.
    for (size_t site = 0; site < kNumFaultSites; ++site) {
      for (uint64_t visit = 1; visit <= 10; ++visit) {
        FaultAction action_a;
        FaultAction action_b;
        bool fired_a = a.Poll(static_cast<FaultSite>(site), &action_a);
        bool fired_b = b.Poll(static_cast<FaultSite>(site), &action_b);
        ASSERT_EQ(fired_a, fired_b) << "seed " << seed;
        if (fired_a) {
          ASSERT_EQ(action_a, action_b) << "seed " << seed;
        }
      }
    }
  }
}

}  // namespace
}  // namespace twchase
