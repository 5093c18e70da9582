#include "hom/core.h"

#include <optional>
#include <utility>
#include <vector>

#include "hom/endomorphism.h"
#include "util/fault.h"
#include "util/governor.h"
#include "util/status.h"

namespace twchase {
namespace {

// A "singular" fold moves exactly one variable X onto another term Y and
// leaves everything else fixed. It is a retraction iff replacing X by Y in
// every atom containing X yields atoms already present. Checking all (X, Y)
// pairs costs |ByTerm(X)| lookups per candidate Y — orders of magnitude
// cheaper than a general fold search, and in chase workloads most redundancy
// collapses this way. Candidate targets for X are derived positionally from
// the same-predicate postings of X's first atom; each is verified against
// all of X's atoms, and the first verified candidate wins.
bool FindSingularFold(const AtomSet& atoms, Term x, Substitution* fold) {
  std::vector<const Atom*> x_atoms = atoms.ByTerm(x);
  if (x_atoms.empty()) return false;
  const Atom& probe = *x_atoms.front();
  for (const Atom* cand : atoms.ByPredicate(probe.predicate())) {
    if (cand->arity() != probe.arity()) continue;
    std::optional<Term> y;
    bool consistent = true;
    for (size_t i = 0; i < probe.args().size() && consistent; ++i) {
      if (probe.arg(i) == x) {
        if (!y.has_value() || *y == cand->arg(i)) {
          y = cand->arg(i);
        } else {
          consistent = false;
        }
      } else if (probe.arg(i) != cand->arg(i)) {
        consistent = false;
      }
    }
    if (!consistent || !y.has_value() || *y == x) continue;
    Substitution attempt;
    attempt.Bind(x, *y);
    bool ok = true;
    for (const Atom* atom : x_atoms) {
      if (!atoms.Contains(attempt.Apply(*atom))) {
        ok = false;
        break;
      }
    }
    if (!ok) continue;
    *fold = std::move(attempt);
    return true;
  }
  return false;
}

// Fast pre-pass of ComputeCore: exhaust singular folds. Returns the number
// of folds applied.
size_t ApplySingularFolds(AtomSet* atoms, Substitution* accumulated) {
  size_t folds = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    for (Term x : atoms->Variables()) {
      Substitution fold;
      if (!FindSingularFold(*atoms, x, &fold)) continue;
      *atoms = fold.Apply(*atoms);
      *accumulated = Substitution::Compose(fold, *accumulated);
      changed = true;
      ++folds;
      break;  // variable snapshot is stale; restart
    }
  }
  return folds;
}

}  // namespace

CoreResult ComputeCore(const AtomSet& atoms, const CoreOptions& options) {
  CoreResult result;
  result.core = atoms;
  if (options.singular_prepass) {
    result.folds += ApplySingularFolds(&result.core, &result.retraction);
  }
  // Folding one variable can unlock folds of previously unfoldable variables
  // (removing atoms only makes the pattern side easier and never blocks a
  // fold whose image avoided the removed atoms — but blocked folds can become
  // possible). We therefore loop until a full pass eliminates nothing.
  bool changed = true;
  while (changed) {
    changed = false;
    for (Term var : result.core.Variables()) {
      // Cooperative checkpoint between folds. Aborting here leaves a valid
      // partial state (each committed fold's composition is a retraction of
      // the input), but the result is not a core — callers that run under a
      // governor must check GovernorStopped() and discard.
      if (GovernorPoll(FaultSite::kCoreFold)) return result;
      auto endo = FindFoldingEndomorphism(result.core, var);
      if (!endo.has_value()) continue;
      Substitution retraction =
          RetractionFromEndomorphism(result.core, *endo);
      result.core = retraction.Apply(result.core);
      result.retraction = Substitution::Compose(retraction, result.retraction);
      ++result.folds;
      if (options.singular_prepass) {
        result.folds += ApplySingularFolds(&result.core, &result.retraction);
      }
      changed = true;
    }
  }
  TWCHASE_CHECK(result.retraction.IsRetractionOf(atoms) ||
                result.retraction.empty());
  return result;
}

bool IsCore(const AtomSet& atoms) {
  for (Term var : atoms.Variables()) {
    if (FindFoldingEndomorphism(atoms, var).has_value()) return false;
  }
  return true;
}

}  // namespace twchase
