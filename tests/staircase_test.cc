// End-to-end tests of Section 6 (the steepening staircase) against the
// actual chase engine:
//   * Proposition 4: the core-chase sequence is uniformly treewidth-bounded
//     by 2;
//   * Table 1 / Section 6 narrative: the application schedule between two
//     column collapses is R1 once, R2 k times, R3 once, R4 k+1 times
//     (2k + 3 applications for step k), and each collapse lands on a column
//     C^h_{k+1};
//   * Proposition 5's engine: the natural aggregation D* accumulates n×n
//     grids, so it has unbounded treewidth — while the core-chase elements
//     stay width-2;
//   * Section 8's worked example: the robust aggregation of the core chase
//     is the (prefix of the) infinite column Ỹ^h — a treewidth-1, finitely
//     universal model.
#include <gtest/gtest.h>

#include "core/chase.h"
#include "core/robust.h"
#include "hom/isomorphism.h"
#include "hom/matcher.h"
#include "kb/examples.h"
#include "tw/grid.h"
#include "tw/treewidth.h"

namespace twchase {
namespace {

class StaircaseChaseTest : public ::testing::Test {
 protected:
  StaircaseChaseTest() {
    ChaseOptions options;
    options.variant = ChaseVariant::kCore;
    options.limits.max_steps = 60;
    auto run = RunChase(world_.kb(), options);
    TWCHASE_CHECK(run.ok());
    run_ = std::make_unique<ChaseResult>(std::move(run).value());
  }

  // Indices i where F_i is a bare column (local minima after the collapse).
  std::vector<size_t> CollapseSteps() const {
    std::vector<size_t> out;
    const Derivation& d = run_->derivation;
    for (size_t i = 1; i + 1 < d.size(); ++i) {
      if (d.step(i).instance_size < d.step(i - 1).instance_size) {
        out.push_back(i);
      }
    }
    return out;
  }

  StaircaseWorld world_;
  std::unique_ptr<ChaseResult> run_;
};

TEST_F(StaircaseChaseTest, DoesNotTerminate) {
  EXPECT_FALSE(run_->terminated);
}

TEST_F(StaircaseChaseTest, CoreChaseUniformlyTreewidthBoundedByTwo) {
  // Proposition 4.
  DerivationCursor cursor(run_->derivation);
  do {
    TreewidthResult tw = ComputeTreewidth(cursor.instance());
    ASSERT_TRUE(tw.exact() || tw.upper_bound <= 2)
        << "step " << cursor.index();
    EXPECT_LE(tw.upper_bound, 2) << "step " << cursor.index();
  } while (cursor.Next());
}

TEST_F(StaircaseChaseTest, CollapsesLandOnColumns) {
  std::vector<size_t> collapses = CollapseSteps();
  ASSERT_GE(collapses.size(), 3u);
  // The c-th collapse (0-based) retracts step S^h_c onto column C^h_{c+1}.
  DerivationCursor cursor(run_->derivation);
  int k = 1;
  for (size_t idx : collapses) {
    while (cursor.index() < idx) cursor.Next();
    EXPECT_TRUE(AreIsomorphic(cursor.instance(), world_.Column(k)))
        << "collapse at step " << idx << " is not C^h_" << k;
    ++k;
  }
}

TEST_F(StaircaseChaseTest, ScheduleMatchesTableOne) {
  // Between collapse k and collapse k+1 the engine applies
  // R1 ×1, R2 ×k, R3 ×1, R4 ×(k+1): 2k + 3 applications.
  std::vector<size_t> collapses = CollapseSteps();
  ASSERT_GE(collapses.size(), 4u);
  for (size_t c = 0; c + 1 < collapses.size(); ++c) {
    int k = static_cast<int>(c) + 1;
    std::map<std::string, int> counts;
    for (size_t i = collapses[c] + 1; i <= collapses[c + 1]; ++i) {
      counts[run_->derivation.step(i).rule_label]++;
    }
    EXPECT_EQ(counts["Rh1"], 1) << "segment k=" << k;
    EXPECT_EQ(counts["Rh2"], k) << "segment k=" << k;
    EXPECT_EQ(counts["Rh3"], 1) << "segment k=" << k;
    EXPECT_EQ(counts["Rh4"], k + 1) << "segment k=" << k;
    EXPECT_EQ(collapses[c + 1] - collapses[c], static_cast<size_t>(2 * k + 3));
  }
}

TEST_F(StaircaseChaseTest, ChaseElementsEmbedInUniversalModelPrefix) {
  // Every F_i is universal for K_h (Proposition 1), hence maps into the
  // model I^h; with ~60 steps the column-8 prefix suffices.
  AtomSet prefix = world_.UniversalModelPrefix(9);
  DerivationCursor cursor(run_->derivation);
  do {
    if (cursor.index() % 7 != 0) continue;
    EXPECT_TRUE(ExistsHomomorphism(cursor.instance(), prefix))
        << "step " << cursor.index();
  } while (cursor.Next());
}

TEST_F(StaircaseChaseTest, NaturalAggregationGrowsGrids) {
  // Propositions 3 + 5: D* ⊇ growing grids ⇒ unbounded treewidth, even
  // though every single element has treewidth ≤ 2.
  AtomSet natural = run_->derivation.NaturalAggregation();
  EXPECT_GE(GridLowerBound(natural, 4), 4);
  TreewidthResult tw = ComputeTreewidth(natural);
  EXPECT_GE(tw.lower_bound, 3);
}

TEST_F(StaircaseChaseTest, RobustAggregationIsColumnPrefix) {
  // Section 8's worked example: cutting at a collapse, the robust
  // aggregation is isomorphic to a prefix of the infinite column Ỹ^h.
  std::vector<size_t> collapses = CollapseSteps();
  ASSERT_GE(collapses.size(), 4u);
  size_t cut = collapses.back() + 1;  // aggregate F_0 .. F_cut-1
  RobustAggregator agg =
      RobustAggregator::FromDerivation(run_->derivation, cut);
  const AtomSet& robust = agg.Aggregate();
  bool is_column = false;
  for (int h = 1; h <= 30 && !is_column; ++h) {
    is_column = AreIsomorphic(robust, world_.InfiniteColumnPrefix(h));
  }
  EXPECT_TRUE(is_column) << "robust aggregate (" << robust.size()
                         << " atoms) is not a column prefix";
  // Proposition 12: treewidth of D⊛ inherits the recurring bound (here the
  // column is even width 1).
  EXPECT_LE(ComputeTreewidth(robust).upper_bound, 2);
}

TEST_F(StaircaseChaseTest, RobustAggregationMonotoneForwarding) {
  // Lemma 1(i): π_i(G_{i-1}) ⊆ G_i along the robust sequence.
  RobustAggregator agg;
  const Derivation& d = run_->derivation;
  DerivationCursor cursor(d);
  agg.Begin(cursor.instance(), d.step(0).simplification);
  AtomSet prev_g = agg.CurrentG();
  while (cursor.Next()) {
    const size_t i = cursor.index();
    agg.Step(cursor.pre_simplification(), d.step(i).simplification);
    const Substitution& pi = agg.pis().back();
    EXPECT_TRUE(pi.Apply(prev_g).IsSubsetOf(agg.CurrentG())) << "step " << i;
    prev_g = agg.CurrentG();
  }
}

TEST_F(StaircaseChaseTest, RobustAggregationTreewidthStaysBounded) {
  // Proposition 12 on every prefix cut, not just collapses.
  const Derivation& d = run_->derivation;
  for (size_t cut : {10u, 25u, 40u, 55u}) {
    RobustAggregator agg = RobustAggregator::FromDerivation(d, cut);
    EXPECT_LE(ComputeTreewidth(agg.Aggregate()).upper_bound, 2)
        << "cut " << cut;
  }
}

TEST_F(StaircaseChaseTest, RobustStatsShowStabilisation) {
  // Proposition 10: variables stabilise; the stable count grows while the
  // per-step rename count stays bounded by the collapse size.
  RobustAggregator agg = RobustAggregator::FromDerivation(run_->derivation);
  size_t last_stable = agg.stats().back().stable_variables;
  EXPECT_GT(last_stable, 5u);
}

TEST_F(StaircaseChaseTest, RestrictedChaseTreewidthGrows) {
  // K_h is NOT bts (Figure 1: it has no treewidth-finite universal model,
  // which bts would imply): the monotone restricted chase accumulates the
  // staircase and its treewidth grows, in contrast to the core chase's
  // uniform bound of 2.
  ChaseOptions options;
  options.variant = ChaseVariant::kRestricted;
  options.limits.max_steps = 80;
  auto run = RunChase(world_.kb(), options);
  ASSERT_TRUE(run.ok());
  int max_lb = -1;
  DerivationCursor cursor(run->derivation);
  do {
    if (cursor.index() % 5 != 0) continue;
    max_lb = std::max(max_lb,
                      ComputeTreewidth(cursor.instance()).lower_bound);
  } while (cursor.Next());
  EXPECT_GE(max_lb, 3);
}

}  // namespace
}  // namespace twchase
