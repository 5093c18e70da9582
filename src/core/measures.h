// Structural measures over derivations (Section 5): per-step series of size
// and treewidth, and uniform/recurring boundedness summaries. A sequence is
// uniformly μ-bounded by k if μ(F_i) ≤ k for all i, and recurringly
// μ-bounded by k if μ(F_i) ≤ k for infinitely many i; on a finite prefix the
// recurring bound is estimated as the minimum over a tail window.
#ifndef TWCHASE_CORE_MEASURES_H_
#define TWCHASE_CORE_MEASURES_H_

#include <vector>

#include "core/derivation.h"
#include "tw/treewidth.h"

namespace twchase {

enum class Measure {
  kSize,            // |F_i|
  kTreewidthUpper,  // certified upper bound (exact when the solver certifies)
  kTreewidthLower,  // certified lower bound
};

/// Per-step series of the measure over a derivation (ReplayDerivation).
std::vector<int> MeasureSeries(const Derivation& derivation, Measure measure,
                               const TreewidthOptions& tw_options = {});

struct BoundednessSummary {
  /// max over the series — the smallest uniform bound on this prefix.
  int uniform_bound = -1;

  /// min over the tail window — estimate of the recurring bound.
  int recurring_estimate = -1;

  /// Value at the last element.
  int final_value = -1;
};

BoundednessSummary SummarizeBoundedness(const std::vector<int>& series,
                                        size_t tail_window);

}  // namespace twchase

#endif  // TWCHASE_CORE_MEASURES_H_
