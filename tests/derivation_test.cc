#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "core/chase.h"
#include "core/checkpoint.h"
#include "core/derivation.h"
#include "kb/examples.h"
#include "kb/knowledge_base.h"
#include "obs/observer.h"
#include "parser/parser.h"

namespace twchase {
namespace {

TEST(DerivationTest, SigmaCompositionTracesVariables) {
  Vocabulary vocab;
  PredicateId p = vocab.MustPredicate("p", 1);
  Term x = vocab.NamedVariable("X"), y = vocab.NamedVariable("Y"),
       z = vocab.NamedVariable("Z");
  Derivation d;
  AtomSet f0;
  f0.Insert(Atom(p, {x}));
  d.AddInitial(f0, Substitution());

  Substitution s1;
  s1.Bind(x, y);
  d.AddStep(0, "r", Substitution(), s1, {Atom(p, {y})}, 1);

  Substitution s2;
  s2.Bind(y, z);
  d.AddStep(0, "r", Substitution(), s2, {Atom(p, {z})}, 1);

  EXPECT_EQ(d.SigmaBetween(0, 0).Apply(x), x);
  EXPECT_EQ(d.SigmaBetween(0, 1).Apply(x), y);
  EXPECT_EQ(d.SigmaBetween(0, 2).Apply(x), z);
  EXPECT_EQ(d.SigmaBetween(1, 2).Apply(y), z);

  // The cursor rebuilds F_1 = {p(Y)} and F_2 = {p(Z)} from the journal.
  DerivationCursor cursor(d);
  EXPECT_EQ(cursor.instance(), f0);
  ASSERT_TRUE(cursor.Next());
  EXPECT_EQ(cursor.instance(), AtomSet::FromAtoms({Atom(p, {y})}));
  EXPECT_EQ(cursor.pre_simplification(),
            AtomSet::FromAtoms({Atom(p, {x}), Atom(p, {y})}));
  ASSERT_TRUE(cursor.Next());
  EXPECT_EQ(cursor.instance(), AtomSet::FromAtoms({Atom(p, {z})}));
  EXPECT_FALSE(cursor.Next());
  EXPECT_EQ(cursor.index(), 2u);
}

TEST(DerivationTest, MonotonicityDetection) {
  auto kb = MakeTransitiveClosure(3);
  ChaseOptions options;
  options.variant = ChaseVariant::kRestricted;
  auto run = RunChase(kb, options);
  ASSERT_TRUE(run.ok());
  EXPECT_TRUE(run->terminated);
  EXPECT_TRUE(run->derivation.IsMonotonic());
}

TEST(DerivationTest, NaturalAggregationOfMonotonicIsLast) {
  auto kb = MakeTransitiveClosure(3);
  ChaseOptions options;
  options.variant = ChaseVariant::kRestricted;
  auto run = RunChase(kb, options);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->derivation.NaturalAggregation(), run->derivation.Last());
}

TEST(DerivationTest, CursorReconstructsAlpha) {
  auto kb = MakeBtsNotFes();
  ChaseOptions options;
  options.variant = ChaseVariant::kCore;
  options.limits.max_steps = 5;
  auto run = RunChase(kb, options);
  ASSERT_TRUE(run.ok());
  ASSERT_GE(run->derivation.size(), 2u);
  DerivationCursor cursor(run->derivation);
  AtomSet previous = cursor.instance();
  while (cursor.Next()) {
    const size_t i = cursor.index();
    const AtomSet& alpha = cursor.pre_simplification();
    // σ_i(A_i) = F_i.
    const Substitution& sigma = run->derivation.step(i).simplification;
    EXPECT_EQ(sigma.Apply(alpha), cursor.instance()) << "step " << i;
    // A_i ⊇ F_{i-1}.
    EXPECT_TRUE(previous.IsSubsetOf(alpha));
    previous = cursor.instance();
  }
}

TEST(DerivationTest, ProvenanceCoversNaturalAggregation) {
  StaircaseWorld world;
  ChaseOptions options;
  options.variant = ChaseVariant::kCore;
  options.limits.max_steps = 20;
  auto run = RunChase(world.kb(), options);
  ASSERT_TRUE(run.ok());
  auto provenance = run->derivation.ProvenanceIndex();
  AtomSet natural = run->derivation.NaturalAggregation();
  natural.ForEach([&](const Atom& atom) {
    auto it = provenance.find(atom);
    ASSERT_NE(it, provenance.end());
    EXPECT_LT(it->second, run->derivation.size());
  });
  // Initial atoms carry provenance 0.
  run->derivation.Initial().ForEach([&](const Atom& atom) {
    EXPECT_EQ(provenance.at(atom), 0u);
  });
}

TEST(DerivationTest, InstanceSizesRecorded) {
  auto kb = MakeTransitiveClosure(3);
  ChaseOptions options;
  auto run = RunChase(kb, options);
  ASSERT_TRUE(run.ok());
  EXPECT_GT(run->derivation.size(), 1u);
  EXPECT_EQ(run->derivation.step(run->derivation.size() - 1).instance_size,
            run->derivation.Last().size());
}

// ---------------------------------------------------------------------------
// The cursor rebuilds exactly what the live run held, in the live slot
// order: for every step, F_i's ToString and content hash equal the live
// instance's.

struct Snapshot {
  std::string text;
  uint64_t hash = 0;
};

// Records the live instance at every committed step. A round-end coring
// rewrites the round's last element after its TriggerAppliedEvent, so each
// CoreRetractionEvent re-records that element from the same live instance.
class LiveInstanceRecorder : public ChaseObserver {
 public:
  explicit LiveInstanceRecorder(const Vocabulary* vocab) : vocab_(vocab) {}

  void OnRunBegin(const RunBeginEvent& event) override {
    live_ = event.instance;
    Record(0);
  }
  void OnTriggerApplied(const TriggerAppliedEvent& event) override {
    live_ = event.instance;
    Record(event.step);
  }
  void OnCoreRetraction(const CoreRetractionEvent& event) override {
    Record(event.step);
  }

  const std::vector<Snapshot>& snapshots() const { return snapshots_; }

 private:
  void Record(size_t step) {
    ASSERT_NE(live_, nullptr);
    ASSERT_LE(step, snapshots_.size());
    if (step == snapshots_.size()) snapshots_.emplace_back();
    snapshots_[step] = {live_->ToString(*vocab_), live_->ContentHash()};
  }

  const Vocabulary* vocab_;
  const AtomSet* live_ = nullptr;
  std::vector<Snapshot> snapshots_;
};

void ExpectCursorMatchesLive(const Derivation& derivation,
                             const std::vector<Snapshot>& live,
                             const Vocabulary& vocab) {
  ASSERT_EQ(derivation.size(), live.size());
  DerivationCursor cursor(derivation);
  do {
    const size_t i = cursor.index();
    ASSERT_EQ(cursor.instance().ToString(vocab), live[i].text) << "F_" << i;
    ASSERT_EQ(cursor.instance().ContentHash(), live[i].hash) << "F_" << i;
  } while (cursor.Next());
  EXPECT_EQ(derivation.Last().ToString(vocab), live.back().text);
}

enum class Coring { kEvery1, kEvery3, kRoundEnd };

ChaseOptions MatrixOptions(ChaseVariant variant, Coring coring, bool plan,
                           size_t max_steps) {
  ChaseOptions options;
  options.variant = variant;
  options.limits.max_steps = max_steps;
  options.core.core_every = coring == Coring::kEvery3 ? 3 : 1;
  options.core.core_at_round_end = coring == Coring::kRoundEnd;
  options.plan.enabled = plan;
  return options;
}

// Fresh knowledge base per run, so fresh nulls mint identically.
struct Program {
  std::string name;
  std::function<KnowledgeBase()> make;
};

std::vector<Program> Programs() {
  std::vector<Program> programs;
  for (const char* file : {"company.twc", "staircase.twc", "elevator.twc"}) {
    std::ifstream in(std::string(TWCHASE_DATA_DIR) + "/" + file);
    std::stringstream text;
    text << in.rdbuf();
    std::string source = text.str();
    EXPECT_FALSE(source.empty()) << file;
    programs.push_back({file, [source] {
                          auto parsed = ParseProgram(source);
                          TWCHASE_CHECK(parsed.ok());
                          return parsed->kb;
                        }});
  }
  programs.push_back({"StaircaseWorld", [] { return StaircaseWorld().kb(); }});
  programs.push_back({"ElevatorWorld", [] { return ElevatorWorld().kb(); }});
  return programs;
}

TEST(DerivationCursorTest, RebuildEqualsLiveAcrossConfigurations) {
  for (const Program& program : Programs()) {
    for (ChaseVariant variant :
         {ChaseVariant::kOblivious, ChaseVariant::kSemiOblivious,
          ChaseVariant::kRestricted, ChaseVariant::kFrugal,
          ChaseVariant::kCore}) {
      for (Coring coring : {Coring::kEvery1, Coring::kEvery3,
                            Coring::kRoundEnd}) {
        for (bool plan : {true, false}) {
          SCOPED_TRACE(program.name + " " + ChaseVariantName(variant) +
                       " coring=" + std::to_string(static_cast<int>(coring)) +
                       " plan=" + std::to_string(plan));
          KnowledgeBase kb = program.make();
          LiveInstanceRecorder recorder(kb.vocab.get());
          ChaseOptions options = MatrixOptions(variant, coring, plan, 30);
          options.observer = &recorder;
          auto run = RunChase(kb, options);
          ASSERT_TRUE(run.ok()) << run.status();
          ExpectCursorMatchesLive(run->derivation, recorder.snapshots(),
                                  *kb.vocab);
        }
      }
    }
  }
}

TEST(DerivationCursorTest, RebuildEqualsLiveAfterResumeFromCheckpoint) {
  for (Coring coring : {Coring::kEvery1, Coring::kRoundEnd}) {
    SCOPED_TRACE(static_cast<int>(coring));
    ChaseOptions first = MatrixOptions(ChaseVariant::kCore, coring, true, 20);
    first.resume.record_log = true;
    auto stopped = RunChase(ElevatorWorld().kb(), first);
    ASSERT_TRUE(stopped.ok());
    ASSERT_EQ(stopped->stop_reason, StopReason::kStepBudget);
    ChaseCheckpoint checkpoint =
        MakeCheckpoint(ElevatorWorld().kb(), first, *stopped);

    KnowledgeBase kb = ElevatorWorld().kb();
    LiveInstanceRecorder recorder(kb.vocab.get());
    ChaseOptions resumed = first;
    resumed.limits.max_steps = 45;
    resumed.observer = &recorder;
    auto run = ResumeChase(kb, resumed, checkpoint);
    ASSERT_TRUE(run.ok()) << run.status();
    ASSERT_GT(run->steps, stopped->steps);
    ExpectCursorMatchesLive(run->derivation, recorder.snapshots(), *kb.vocab);
  }
}

}  // namespace
}  // namespace twchase
