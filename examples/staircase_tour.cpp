// Tour of the steepening staircase K_h (Section 6 of the paper): runs the
// core chase and the restricted chase side by side and prints, per step,
// the instance size and certified treewidth. Shows the paper's headline
// contrast: the core-chase sequence stays treewidth-bounded by 2 while the
// natural aggregation of any chase grows n×n grids (unbounded treewidth);
// the robust aggregation recovers a treewidth-1 finitely universal model
// (the infinite column Ỹ^h).
#include <cstdio>

#include "core/chase.h"
#include "core/robust.h"
#include "hom/isomorphism.h"
#include "kb/examples.h"
#include "tw/grid.h"
#include "tw/treewidth.h"

int main() {
  using namespace twchase;

  StaircaseWorld world;
  std::printf("Steepening staircase KB (Definition 7):\n%s\n",
              world.kb().ToString().c_str());

  ChaseOptions core_options;
  core_options.variant = ChaseVariant::kCore;
  core_options.limits.max_steps = 60;
  auto core_run = RunChase(world.kb(), core_options);
  if (!core_run.ok()) {
    std::printf("core chase failed: %s\n", core_run.status().ToString().c_str());
    return 1;
  }

  std::printf("core chase: %zu steps, terminated=%d\n", core_run->steps,
              core_run->terminated);
  std::printf("%5s %6s %4s %s\n", "step", "|F_i|", "tw", "rule");
  const Derivation& d = core_run->derivation;
  int max_tw = -1;
  // The cursor rebuilds each F_i from the derivation's journal.
  DerivationCursor cursor(d);
  do {
    const size_t i = cursor.index();
    TreewidthResult tw = ComputeTreewidth(cursor.instance());
    max_tw = std::max(max_tw, tw.upper_bound);
    std::printf("%5zu %6zu %4d %s\n", i, cursor.instance().size(),
                tw.upper_bound, d.step(i).rule_label.c_str());
  } while (cursor.Next());
  std::printf("max treewidth along core chase: %d (paper: uniformly ≤ 2)\n\n",
              max_tw);

  AtomSet natural = d.NaturalAggregation();
  std::printf("natural aggregation D*: %zu atoms, contains grid up to %d\n",
              natural.size(), GridLowerBound(natural, 6));

  RobustAggregator agg = RobustAggregator::FromDerivation(d);
  const AtomSet& robust = agg.Aggregate();
  TreewidthResult robust_tw = ComputeTreewidth(robust);
  std::printf("robust aggregation D⊛: %zu atoms, tw ≤ %d\n", robust.size(),
              robust_tw.upper_bound);
  for (int h = 1; h <= 40; ++h) {
    if (AreIsomorphic(robust, world.InfiniteColumnPrefix(h))) {
      std::printf("D⊛ is isomorphic to the height-%d column prefix of Ỹ^h\n", h);
      break;
    }
  }
  std::printf("\nrobust per-step stats (|G_i|, |U_i|, renamed, stable):\n");
  for (size_t i = 0; i < agg.stats().size(); ++i) {
    const RobustStepStats& s = agg.stats()[i];
    std::printf("  %3zu: G=%3zu U=%3zu renamed=%2zu stable=%3zu\n", i, s.g_size,
                s.union_size, s.renamed_variables, s.stable_variables);
  }
  return 0;
}
