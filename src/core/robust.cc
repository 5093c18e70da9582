#include "core/robust.h"

#include <algorithm>

#include "obs/observer.h"
#include "util/status.h"

namespace twchase {

Substitution RobustRenaming(const AtomSet& a, const Substitution& sigma) {
  AtomSet image = sigma.Apply(a);
  Substitution rho;
  for (Term y : image.Variables()) {
    std::vector<Term> preimage = sigma.Preimage(y);
    TWCHASE_CHECK_MSG(!preimage.empty(), "retraction image var has no preimage");
    Term best = preimage.front();
    for (Term cand : preimage) {
      if (cand.rank() < best.rank()) best = cand;
    }
    rho.Bind(y, best);
  }
  return rho;
}

void RobustAggregator::Begin(const AtomSet& pre, const Substitution& sigma0) {
  TWCHASE_CHECK(stats_.empty());
  // Complete σ_0 to full domain so Preimage sees fixed variables.
  Substitution sigma = sigma0;
  for (Term v : pre.Variables()) {
    if (!sigma.Lookup(v).has_value()) sigma.Bind(v, v);
  }
  Substitution rho_sigma = RobustRenaming(pre, sigma);
  AtomSet f0 = sigma.Apply(pre);
  g_ = rho_sigma.Apply(f0);
  pis_.push_back(Substitution::Compose(rho_sigma, sigma));
  // ρ_0 = ρ_{σ_0}, restricted to vars(F_0) so it stays an isomorphism
  // F_0 → G_0 (stale bindings would break invertibility later).
  rho_ = rho_sigma.RestrictTo(f0.Variables());
  union_ = g_;
  for (Term v : g_.Variables()) stable_since_.emplace(v, 0);
  RecordStats(0);
}

void RobustAggregator::Step(const AtomSet& pre, const Substitution& sigma_i) {
  TWCHASE_CHECK(!stats_.empty());
  // A'_i = ρ_{i-1}(A_i); fresh variables are untouched by ρ_{i-1}.
  AtomSet a_prime = rho_.Apply(pre);
  // σ'_i = ρ_{i-1} • σ_i • ρ_{i-1}⁻¹, completed to the full domain of A'_i.
  Substitution rho_inv = rho_.Inverse();
  Substitution sigma_prime;
  for (Term xp : a_prime.Variables()) {
    Term x = rho_inv.Apply(xp);
    Term yp = rho_.Apply(sigma_i.Apply(x));
    sigma_prime.Bind(xp, yp);
  }
  // Robust renaming of σ'_i, and the new G_i.
  Substitution rho_sigma = RobustRenaming(a_prime, sigma_prime);
  AtomSet f_prime = sigma_prime.Apply(a_prime);
  g_ = rho_sigma.Apply(f_prime);
  // π_i = ρ_{σ'_i} • σ'_i maps G_{i-1} (⊆ A'_i) to G_i.
  Substitution pi = Substitution::Compose(rho_sigma, sigma_prime);
  pis_.push_back(pi);
  // ρ_i = ρ_{σ'_i} • ρ_{i-1}, restricted to vars(F_i) to remain an
  // invertible isomorphism F_i → G_i.
  AtomSet f_i = sigma_i.Apply(pre);
  rho_ = Substitution::Compose(rho_sigma, rho_).RestrictTo(f_i.Variables());
  // Fresh variables of F_i fixed by both maps must still be in the domain
  // for Inverse()/completion logic; add explicit identities.
  for (Term v : f_i.Variables()) {
    if (!rho_.Lookup(v).has_value()) rho_.Bind(v, v);
  }

  // Forward the union: U_i = π_i(U_{i-1}) ∪ G_i, and track stability.
  size_t step_index = stats_.size();
  size_t renamed = 0;
  std::unordered_map<Term, size_t, TermHash> next_since;
  // Unmoved variables first: a variable that keeps its name stays stable
  // even if other variables fold onto it.
  for (Term v : union_.Variables()) {
    if (pi.Apply(v) != v) continue;
    auto it = stable_since_.find(v);
    next_since.emplace(v, it == stable_since_.end() ? step_index : it->second);
  }
  for (Term v : union_.Variables()) {
    Term image = pi.Apply(v);
    if (image == v) continue;
    ++renamed;
    next_since.emplace(image, step_index);
  }
  union_ = pi.Apply(union_);
  union_.InsertAll(g_);
  for (Term v : union_.Variables()) next_since.emplace(v, step_index);
  stable_since_ = std::move(next_since);
  RecordStats(renamed);
}

RobustAggregator RobustAggregator::FromDerivation(const Derivation& derivation,
                                                  size_t limit,
                                                  ChaseObserver* observer) {
  RobustAggregator agg;
  agg.set_observer(observer);
  TWCHASE_CHECK(!derivation.empty());
  size_t n = derivation.size();
  if (limit != 0 && limit < n) n = limit;
  // The derivation's F_0 is already simplified; reconstruct the original F
  // from σ_0? The simplification σ_0 retracts F onto F_0, but F itself is
  // not recorded. Since σ_0(F) = F_0 and the robust renaming of σ_0 only
  // renames within F's variables, we treat F_0 as `pre` with σ = identity
  // when σ_0's pre-image is unavailable; the resulting G_0 differs from the
  // paper's by an isomorphism, which is harmless for every downstream use.
  DerivationCursor cursor(derivation);
  agg.Begin(cursor.instance(), derivation.step(0).simplification);
  while (cursor.index() + 1 < n && cursor.Next()) {
    agg.Step(cursor.pre_simplification(),
             derivation.step(cursor.index()).simplification);
  }
  return agg;
}

void RobustAggregator::RecordStats(size_t renamed) {
  RobustStepStats s;
  s.g_size = g_.size();
  s.union_size = union_.size();
  s.renamed_variables = renamed;
  size_t step_index = stats_.size();
  for (const auto& [var, since] : stable_since_) {
    if (step_index > since) ++s.stable_variables;
  }
  stats_.push_back(s);
  if (observer_ != nullptr) {
    RobustRenameEvent event;
    event.step = step_index;
    event.renamed_variables = s.renamed_variables;
    event.stable_variables = s.stable_variables;
    event.g_size = s.g_size;
    event.union_size = s.union_size;
    observer_->OnRobustRename(event);
  }
}

}  // namespace twchase
