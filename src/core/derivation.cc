#include "core/derivation.h"

#include "util/status.h"

namespace twchase {

void Derivation::AddInitial(const AtomSet& f0, Substitution sigma0) {
  TWCHASE_CHECK(steps_.empty());
  DerivationStep step;
  step.simplification = std::move(sigma0);
  step.instance_size = f0.size();
  initial_ = f0;
  last_step_bytes_ = StepBytes(step);
  approx_bytes_ += initial_.ApproxMemoryBytes() + last_step_bytes_;
  steps_.push_back(std::move(step));
}

void Derivation::AddStep(int rule_index, std::string rule_label,
                         Substitution match, Substitution sigma,
                         std::vector<Atom> added_atoms, size_t instance_size) {
  TWCHASE_CHECK(!steps_.empty());
  DerivationStep step;
  step.rule_index = rule_index;
  step.rule_label = std::move(rule_label);
  step.match = std::move(match);
  step.simplification = std::move(sigma);
  step.added_atoms = std::move(added_atoms);
  step.instance_size = instance_size;
  last_step_bytes_ = StepBytes(step);
  approx_bytes_ += last_step_bytes_;
  steps_.push_back(std::move(step));
}

void Derivation::AmendLastSimplification(const Substitution& sigma,
                                         size_t instance_size) {
  TWCHASE_CHECK(!steps_.empty());
  DerivationStep& last = steps_.back();
  last.simplification = Substitution::Compose(sigma, last.simplification);
  last.instance_size = instance_size;
  approx_bytes_ -= last_step_bytes_;
  last_step_bytes_ = StepBytes(last);
  approx_bytes_ += last_step_bytes_;
}

size_t Derivation::StepBytes(const DerivationStep& step) {
  // Rough per-step footprint. The 48-byte constant approximates one
  // hash-map node per substitution entry.
  size_t bytes = sizeof(DerivationStep) + step.rule_label.capacity();
  bytes += (step.match.size() + step.simplification.size()) * 48;
  bytes += step.added_atoms.size() * 64;
  return bytes;
}

Substitution Derivation::SigmaBetween(size_t i, size_t j) const {
  TWCHASE_CHECK(i <= j && j < steps_.size());
  Substitution out;
  for (size_t k = i + 1; k <= j; ++k) {
    out = Substitution::Compose(steps_[k].simplification, out);
  }
  return out;
}

bool Derivation::IsMonotonic() const {
  if (steps_.size() < 2) return true;
  // σ_{i+1} retracts A_{i+1} ⊇ F_i, so it keeps an atom of F_i iff it fixes
  // the atom's terms.
  DerivationCursor cursor(*this);
  do {
    for (const auto& [var, image] :
         steps_[cursor.index() + 1].simplification.map()) {
      if (var != image && cursor.instance().ContainsTerm(var)) return false;
    }
  } while (cursor.Next() && cursor.index() + 1 < steps_.size());
  return true;
}

AtomSet Derivation::NaturalAggregation() const {
  AtomSet out;
  if (steps_.empty()) return out;
  DerivationCursor cursor(*this);
  do {
    out.InsertAll(cursor.instance());
  } while (cursor.Next());
  return out;
}

std::unordered_map<Atom, size_t, AtomHash> Derivation::ProvenanceIndex()
    const {
  std::unordered_map<Atom, size_t, AtomHash> out;
  if (steps_.empty()) return out;
  initial_.ForEach([&](const Atom& atom) { out.emplace(atom, 0); });
  for (size_t i = 1; i < steps_.size(); ++i) {
    for (const Atom& atom : steps_[i].added_atoms) {
      out.emplace(atom, i);
    }
  }
  return out;
}

DerivationCursor::DerivationCursor(const Derivation& derivation)
    : derivation_(&derivation) {
  TWCHASE_CHECK(!derivation.empty());
  instance_ = derivation.Initial();
}

bool DerivationCursor::Next() {
  if (index_ + 1 >= derivation_->size()) return false;
  const DerivationStep& step = derivation_->step(++index_);
  simplified_ = !step.simplification.IsIdentity();
  if (simplified_) {
    pre_ = std::move(instance_);
    for (const Atom& atom : step.added_atoms) pre_.Insert(atom);
    instance_ = step.simplification.Apply(pre_);
  } else {
    for (const Atom& atom : step.added_atoms) instance_.Insert(atom);
  }
  return true;
}

}  // namespace twchase
