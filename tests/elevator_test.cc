// End-to-end tests of Section 7 (the inflating elevator) against the chase
// engine:
//   * Proposition 7's engine: the ceiling chain I^v* is a treewidth-1
//     universal model — every chase element maps into it;
//   * Proposition 8 / Corollary 1: the core-chase sequence's treewidth grows
//     (1 → 2 → 3 within the test budget) and does not recur to a bound;
//   * the restricted chase on K_v stays cheap per element but its elements
//     contain the same obstructions.
#include <gtest/gtest.h>

#include "core/chase.h"
#include "core/measures.h"
#include "hom/core.h"
#include "hom/matcher.h"
#include "kb/examples.h"
#include "tw/treewidth.h"

namespace twchase {
namespace {

class ElevatorChaseTest : public ::testing::Test {
 protected:
  ElevatorChaseTest() {
    ChaseOptions options;
    options.variant = ChaseVariant::kCore;
    options.limits.max_steps = 50;
    auto run = RunChase(world_.kb(), options);
    TWCHASE_CHECK(run.ok());
    run_ = std::make_unique<ChaseResult>(std::move(run).value());
  }

  ElevatorWorld world_;
  std::unique_ptr<ChaseResult> run_;
};

TEST_F(ElevatorChaseTest, DoesNotTerminate) {
  EXPECT_FALSE(run_->terminated);
}

TEST_F(ElevatorChaseTest, TreewidthGrowsAndDoesNotRecur) {
  // Corollary 1: after some index, every element has treewidth ≥ m, for
  // every m the budget can reach. With 50 steps the bound reaches 3 and the
  // tail never falls back to 1.
  std::vector<int> series =
      MeasureSeries(run_->derivation, Measure::kTreewidthUpper);
  BoundednessSummary summary = SummarizeBoundedness(series, 10);
  EXPECT_GE(summary.uniform_bound, 3);
  EXPECT_GE(summary.recurring_estimate, 2);
  // The series starts at treewidth 1 (F_v is an edge): strict growth.
  EXPECT_EQ(series.front(), 1);
  // Once the treewidth reaches m it never drops below m again (the measured
  // series is non-decreasing up to the chase's local dynamics; assert the
  // weaker tail property which is what "recurring" boundedness denies).
  int last = series.back();
  EXPECT_GE(last, 3);
}

TEST_F(ElevatorChaseTest, ChaseElementsAreCoresAndEmbedInCeiling) {
  // Every element of the core chase is a core and universal for K_v, so it
  // maps into the treewidth-1 universal model I^v* (Proposition 7).
  AtomSet ceiling = world_.CeilingPrefix(120);
  const Derivation& d = run_->derivation;
  DerivationCursor cursor(d);
  do {
    const size_t i = cursor.index();
    if (i % 10 != 0) continue;
    EXPECT_TRUE(IsCore(cursor.instance())) << "step " << i;
    EXPECT_TRUE(ExistsHomomorphism(cursor.instance(), ceiling))
        << "step " << i;
  } while (cursor.Next());
  EXPECT_TRUE(ExistsHomomorphism(d.Last(), ceiling));
}

TEST_F(ElevatorChaseTest, ChaseElementsEmbedInUniversalModelPrefix) {
  AtomSet prefix = world_.UniversalModelPrefix(30);
  const Derivation& d = run_->derivation;
  EXPECT_TRUE(ExistsHomomorphism(d.Last(), prefix));
}

TEST_F(ElevatorChaseTest, ObstructionIsInducedSubsetOfUniversalModel) {
  // Definition 12 builds I^v_n inside I^v: it must embed *injectively*
  // (variables to variables) into the model prefix — a sharper check than
  // plain homomorphic embedding. (Proposition 8(3)'s appearance inside
  // every core-chase sequence happens at steps f(n) beyond small prefixes;
  // the chase-side growth is covered by the treewidth tests above.)
  for (int n = 1; n <= 3; ++n) {
    AtomSet obstruction = world_.CoreObstruction(n);
    AtomSet model = world_.UniversalModelPrefix(3 * n + 4);
    HomOptions options;
    options.limit = 1;
    options.injective = true;
    options.vars_to_vars = true;
    EXPECT_TRUE(FindHomomorphism(obstruction, model, options).has_value())
        << "n=" << n;
  }
}

TEST_F(ElevatorChaseTest, RestrictedChaseAlsoGrowsTreewidth) {
  // K_v is not bts either: its universal model of finite treewidth exists,
  // but chase sequences (restricted included) keep the growing box.
  ChaseOptions options;
  options.variant = ChaseVariant::kRestricted;
  options.limits.max_steps = 120;
  auto run = RunChase(world_.kb(), options);
  ASSERT_TRUE(run.ok());
  TreewidthResult tw = ComputeTreewidth(run->derivation.Last());
  EXPECT_GE(tw.lower_bound, 2);
}

TEST_F(ElevatorChaseTest, CoreEverySpacingPreservesGrowth) {
  // The paper allows coring after any finite number of applications; with
  // spacing 3 the sequence is still a core-chase sequence and its cored
  // elements show the same growth.
  ChaseOptions options;
  options.variant = ChaseVariant::kCore;
  options.core.core_every = 3;
  options.limits.max_steps = 60;
  auto run = RunChase(world_.kb(), options);
  ASSERT_TRUE(run.ok());
  int max_tw = -1;
  DerivationCursor cursor(run->derivation);
  do {
    if (cursor.index() % 5 != 0) continue;
    max_tw = std::max(max_tw,
                      ComputeTreewidth(cursor.instance()).upper_bound);
  } while (cursor.Next());
  EXPECT_GE(max_tw, 3);
}

}  // namespace
}  // namespace twchase
