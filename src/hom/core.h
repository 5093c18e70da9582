// Core computation. The core of a finite atomset A is the unique-up-to-
// isomorphism smallest retract of A; A is a core iff its only retraction is
// the identity. The core chase (Deutsch, Nash, Remmel — "The chase
// revisited") retracts to a core after each rule application; this module
// supplies that simplification step.
#ifndef TWCHASE_HOM_CORE_H_
#define TWCHASE_HOM_CORE_H_

#include "model/atom_set.h"
#include "model/substitution.h"

namespace twchase {

struct CoreResult {
  /// The core retract.
  AtomSet core;

  /// A retraction of the input onto `core` (identity on core's terms).
  Substitution retraction;

  /// Fold operations performed (singular pre-pass folds plus general
  /// retractions applied). 0 iff the input was already a core.
  size_t folds = 0;
};

struct CoreOptions {
  /// Run the cheap singular-fold pre-pass (one variable moved, positional
  /// candidate generation) before the general search. Off only for the
  /// ablation benchmarks.
  bool singular_prepass = true;
};

/// Computes the core of `atoms` by repeated variable folding: while some
/// variable X admits an endomorphism whose image avoids X, retract along it.
/// A finite atomset is a core iff no variable can be folded away (constants
/// are always in the image of any endomorphism, so only variables can
/// disappear).
CoreResult ComputeCore(const AtomSet& atoms, const CoreOptions& options = {});

/// True iff `atoms` admits no proper retraction.
bool IsCore(const AtomSet& atoms);

}  // namespace twchase

#endif  // TWCHASE_HOM_CORE_H_
