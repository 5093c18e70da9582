// Tour of the inflating elevator K_v (Section 7 of the paper): runs the
// core chase and prints per-step sizes and treewidth bounds, illustrating
// Corollary 1 — no core-chase sequence for K_v is treewidth-bounded —
// although the KB has a universal model of treewidth 1 (the ceiling chain
// I^v*, Definition 11).
#include <cstdio>

#include "core/chase.h"
#include "hom/matcher.h"
#include "kb/examples.h"
#include "tw/treewidth.h"

int main() {
  using namespace twchase;

  ElevatorWorld world;
  std::printf("Inflating elevator KB (Definition 9):\n%s\n",
              world.kb().ToString().c_str());

  ChaseOptions options;
  options.variant = ChaseVariant::kCore;
  options.limits.max_steps = 60;  // the coring cost grows steeply; see bench_fig3
  auto run = RunChase(world.kb(), options);
  if (!run.ok()) {
    std::printf("core chase failed: %s\n", run.status().ToString().c_str());
    return 1;
  }
  const Derivation& d = run->derivation;
  std::printf("core chase: %zu steps, terminated=%d\n", run->steps,
              run->terminated);
  std::printf("%5s %6s %6s %6s\n", "step", "|F_i|", "tw_lb", "tw_ub");
  int max_lb = -1;
  // The cursor rebuilds each F_i from the derivation's journal.
  DerivationCursor cursor(d);
  do {
    if (cursor.index() % 10 != 0) continue;
    TreewidthResult tw = ComputeTreewidth(cursor.instance());
    max_lb = std::max(max_lb, tw.lower_bound);
    std::printf("%5zu %6zu %6d %6d\n", cursor.index(),
                cursor.instance().size(), tw.lower_bound, tw.upper_bound);
  } while (cursor.Next());
  TreewidthResult final_tw = ComputeTreewidth(d.Last());
  std::printf("final: |F| = %zu, tw in [%d, %d]\n", d.Last().size(),
              final_tw.lower_bound, final_tw.upper_bound);

  // Every chase element is universal for K_v, so it must map into the
  // treewidth-1 universal model I^v* (ceiling prefix).
  AtomSet ceiling = world.CeilingPrefix(200);
  std::printf("last chase element maps into I^v* prefix: %d (expected 1)\n",
              ExistsHomomorphism(d.Last(), ceiling) ? 1 : 0);
  std::printf("tw(I^v* prefix) = %d (paper: 1)\n",
              ComputeTreewidth(world.CeilingPrefix(30)).upper_bound);
  return 0;
}
