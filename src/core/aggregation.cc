#include "core/aggregation.h"

#include "core/trigger.h"

namespace twchase {

bool IsFairPrefix(const Derivation& derivation, const KnowledgeBase& kb,
                  size_t skip_tail) {
  if (derivation.empty()) return true;
  size_t n = derivation.size();
  size_t check_until = n > skip_tail ? n - skip_tail : 0;
  // Triggers not yet satisfied, each match mapped to the current element:
  // σ^j_i(tr) = σ_j • σ^{j-1}_i(tr).
  std::vector<Trigger> open;
  DerivationCursor cursor(derivation);
  do {
    const size_t j = cursor.index();
    const AtomSet& fj = cursor.instance();
    for (Trigger& tr : open) {
      tr.match = Substitution::Compose(derivation.step(j).simplification,
                                       tr.match);
    }
    for (int r = 0; j < check_until && r < std::ssize(kb.rules); ++r) {
      std::vector<Trigger> found = FindTriggers(kb.rules[r], r, fj);
      open.insert(open.end(), found.begin(), found.end());
    }
    std::erase_if(open, [&](const Trigger& tr) {
      return TriggerIsSatisfied(kb.rules[tr.rule_index], tr.match, fj);
    });
  } while (cursor.Next());
  return open.empty();
}

}  // namespace twchase
