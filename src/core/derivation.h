// Derivations (Definition 1): sequences ((tr_i, σ_i, F_i)) where tr_i is a
// trigger for F_{i-1} not satisfied in it, σ_i is a retraction
// ("simplification"), and F_i = σ_i(α(F_{i-1}, tr_i)). Also provides the
// composed simplifications σ^j_i (Definition 2) used to trace triggers
// through a non-monotonic derivation, and the natural aggregation D*
// (Section 3). A Derivation stores F_0, the step journal and the final
// instance; DerivationCursor rebuilds the F_i in between.
#ifndef TWCHASE_CORE_DERIVATION_H_
#define TWCHASE_CORE_DERIVATION_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "model/atom_set.h"
#include "model/substitution.h"

namespace twchase {

struct DerivationStep {
  /// Rule applied at this step; -1 for the initial step 0.
  int rule_index = -1;
  std::string rule_label;

  /// Trigger homomorphism π_i (empty for step 0).
  Substitution match;

  /// Simplification σ_i: a retraction of α(F_{i-1}, tr_i) onto F_i
  /// (σ_0 retracts the initial fact set).
  Substitution simplification;

  /// Atoms α inserted into F_{i-1} (each absent from it), in order.
  std::vector<Atom> added_atoms;

  /// |F_i|.
  size_t instance_size = 0;
};

class Derivation {
 public:
  /// Installs F_0 = σ_0(F).
  void AddInitial(const AtomSet& f0, Substitution sigma0);

  /// Appends step i from its components; `instance_size` is |F_i|.
  void AddStep(int rule_index, std::string rule_label, Substitution match,
               Substitution sigma, std::vector<Atom> added_atoms,
               size_t instance_size);

  /// Composes an additional simplification into the most recent step (used
  /// by round-end coring, where the retraction conceptually belongs to the
  /// round's last rule application — the Deutsch–Nash–Remmel presentation
  /// of the core chase); `instance_size` is the new |F_i|.
  void AmendLastSimplification(const Substitution& sigma,
                               size_t instance_size);

  /// Installs the last element F_{size()-1}. The chase moves its live
  /// instance in when the run returns.
  void SetFinal(AtomSet last) { last_ = std::move(last); }

  /// Number of recorded elements F_0 .. F_{size()-1}.
  size_t size() const { return steps_.size(); }
  bool empty() const { return steps_.empty(); }

  const DerivationStep& step(size_t i) const { return steps_[i]; }

  /// F_0.
  const AtomSet& Initial() const { return initial_; }

  /// The last element (installed by SetFinal).
  const AtomSet& Last() const { return last_; }

  /// σ^j_i = σ_j • ... • σ_{i+1} (identity when i == j); a homomorphism from
  /// F_i to F_j.
  Substitution SigmaBetween(size_t i, size_t j) const;

  /// True iff F_{i-1} ⊆ F_i for all i.
  bool IsMonotonic() const;

  /// Natural aggregation D* = ∪_i F_i.
  AtomSet NaturalAggregation() const;

  /// Provenance: for every atom ever produced, the first step that created
  /// it (0 for initial atoms). Keys cover the natural aggregation.
  std::unordered_map<Atom, size_t, AtomHash> ProvenanceIndex() const;

  /// Rough estimate of resident bytes of F_0 and the journal, without the
  /// final instance (during a run, the chase's live instance). Maintained
  /// incrementally so the chase's memory-budget poll can read it per step.
  size_t ApproxMemoryBytes() const { return approx_bytes_; }

 private:
  static size_t StepBytes(const DerivationStep& step);

  std::vector<DerivationStep> steps_;
  AtomSet initial_;
  AtomSet last_;
  size_t approx_bytes_ = 0;
  size_t last_step_bytes_ = 0;
};

/// Forward cursor over a derivation's elements (the derivation must outlive
/// it), starting on F_0; each Next() rebuilds A_i = F_{i-1} ∪ added_i and
/// F_i = σ_i(A_i). The sets keep the live run's slot order: the chase
/// builds every retracted instance with Substitution::Apply, which keeps
/// first occurrences in order, as does applying the composed σ_i once.
class DerivationCursor {
 public:
  explicit DerivationCursor(const Derivation& derivation);

  /// Index i of the current element F_i.
  size_t index() const { return index_; }

  /// F_i.
  const AtomSet& instance() const { return instance_; }

  /// A_i = α(F_{i-1}, tr_i), the element before σ_i (i ≥ 1).
  const AtomSet& pre_simplification() const {
    return simplified_ ? pre_ : instance_;
  }

  /// Advances to F_{i+1}; false (and no move) on the last element.
  bool Next();

 private:
  const Derivation* derivation_;
  size_t index_ = 0;
  AtomSet instance_;
  AtomSet pre_;
  bool simplified_ = false;
};

}  // namespace twchase

#endif  // TWCHASE_CORE_DERIVATION_H_
