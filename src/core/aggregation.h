// Empirical checker for a semantic property of derivations: fairness
// (Definition 3), which with monotonicity makes the natural aggregation D*
// a model (Proposition 1). D* itself is Derivation::NaturalAggregation.
#ifndef TWCHASE_CORE_AGGREGATION_H_
#define TWCHASE_CORE_AGGREGATION_H_

#include "core/derivation.h"
#include "kb/knowledge_base.h"

namespace twchase {

/// Empirical fairness check on a finite derivation prefix: for every
/// i < size - skip_tail and every trigger tr for F_i, some j ≥ i has
/// σ^j_i(tr) satisfied in F_j. For a terminated chase use skip_tail = 0 (the
/// fixpoint satisfies everything); truncated runs necessarily leave triggers
/// open near the end, so pass a small skip_tail. One forward pass over the
/// derivation that carries each still-open trigger through every later σ_j
/// — intended for tests.
bool IsFairPrefix(const Derivation& derivation, const KnowledgeBase& kb,
                  size_t skip_tail = 0);

}  // namespace twchase

#endif  // TWCHASE_CORE_AGGREGATION_H_
