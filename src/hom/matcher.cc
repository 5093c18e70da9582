#include "hom/matcher.h"

#include <algorithm>
#include <limits>
#include <unordered_map>
#include <unordered_set>

#include "util/fault.h"
#include "util/governor.h"
#include "util/status.h"

namespace twchase {

namespace {

// Ambient counters pointer, thread-local like the governor ambient.
thread_local MatchCounters* g_match_counters = nullptr;

}  // namespace

MatchCountersScope::MatchCountersScope(MatchCounters* counters)
    : previous_(g_match_counters) {
  g_match_counters = counters;
}

MatchCountersScope::~MatchCountersScope() { g_match_counters = previous_; }

MatchCounters* CurrentMatchCounters() { return g_match_counters; }

namespace {

constexpr uint32_t kUnbound = 0xFFFFFFFFu;

// One backtracking search instance with dynamic most-constrained-first atom
// selection: at every node the next pattern atom is the one with the fewest
// candidate target atoms under the current partial binding. Pattern
// variables are renumbered into a dense local index so that the hot path
// (estimates, unification, rollback) is array access, not hashing.
// Not reusable.
//
// Candidates come from one join path (JoinCandidates) over the target's
// per-predicate ColumnSegment: it picks the probe column as the first strict
// minimum of CountByTerm over the bound images, binary-searches the lazily
// sorted column index for the bound image id, and verifies the remaining
// bound columns / repeated-variable constraints / forbidden term directly
// on the column cells; TryUnify adds only the injective and vars-to-vars
// modes. The enumeration order is pinned to the historical per-atom posting
// walk: segment rows are in ascending slot order, and the identity-first
// reorder is that walk's swap projected onto the unifying candidates.
// Search() recursion — and with it governor polls and fault-injection visit
// schedules at kHomNode — therefore runs the pinned node sequence. See
// DESIGN.md §9 for the full argument.
class HomSearch {
 public:
  HomSearch(const AtomSet& pattern, const AtomSet& target,
            const HomOptions& options)
      : target_(target), options_(options), counters_(CurrentMatchCounters()) {
    // Collect pattern atoms and build the local variable table.
    for (const Atom& atom : pattern.Atoms()) {
      PatAtom pat;
      pat.predicate = atom.predicate();
      pat.static_best = target_.CountByPredicate(atom.predicate());
      for (Term t : atom.args()) {
        if (t.is_variable()) {
          pat.args.push_back(Arg{LocalIndex(t), Term()});
        } else {
          pat.args.push_back(Arg{kNotVar, t});
          pat.static_best = std::min(pat.static_best, target_.CountByTerm(t));
        }
        if (options_.forbidden_image_term.has_value() &&
            t == *options_.forbidden_image_term) {
          pat.focus = true;
        }
      }
      if (pat.focus) ++remaining_focus_;
      pattern_atoms_.push_back(std::move(pat));
    }
    binding_.assign(var_terms_.size(), Term::Variable(kUnbound & 0x7FFFFFFF));
    bound_.assign(var_terms_.size(), false);
    assigned_.assign(pattern_atoms_.size(), false);
    // Seed bindings for pattern variables; seed entries for other variables
    // ride along and are re-attached at emit time.
    for (const auto& [var, term] : options_.seed.map()) {
      auto it = var_index_.find(var);
      if (it != var_index_.end()) {
        binding_[it->second] = term;
        bound_[it->second] = true;
      }
      if (options_.injective) used_targets_.insert(term);
    }
  }

  std::vector<Substitution> Run() {
    // An empty pattern has exactly one homomorphism: the seed itself.
    Search(pattern_atoms_.size());
    return std::move(results_);
  }

 private:
  static constexpr uint32_t kNotVar = 0xFFFFFFFFu;
  static constexpr size_t kInfinity = std::numeric_limits<size_t>::max();

  struct Arg {
    uint32_t var = kNotVar;  // local variable index, or kNotVar
    Term constant;           // valid iff var == kNotVar
  };

  struct PatAtom {
    PredicateId predicate = 0;
    std::vector<Arg> args;
    size_t static_best = 0;  // min over predicate / constant-arg postings
    bool focus = false;      // contains the forbidden image term (fold crux)
  };

  uint32_t LocalIndex(Term var) {
    auto [it, inserted] =
        var_index_.emplace(var, static_cast<uint32_t>(var_terms_.size()));
    if (inserted) var_terms_.push_back(var);
    return it->second;
  }

  bool AtomContains(const Atom& atom, Term t) const {
    for (Term a : atom.args()) {
      if (a == t) return true;
    }
    return false;
  }

  // Zero means a certain dead end (selected immediately to fail fast).
  size_t EstimateCandidates(const PatAtom& pat) const {
    size_t best = pat.static_best;
    size_t bound_args = 0;
    for (const Arg& arg : pat.args) {
      if (arg.var == kNotVar) {
        ++bound_args;
      } else if (bound_[arg.var]) {
        ++bound_args;
        best = std::min(best, target_.CountByTerm(binding_[arg.var]));
      }
    }
    if (best == 0) return 0;
    // Prefer atoms with more bound arguments on ties.
    return best * 4 + (3 - std::min<size_t>(bound_args, 3));
  }

  // Candidate target atoms for `pat` under the current binding: one
  // EqualRange probe on the most selective bound column (or a full segment
  // scan when nothing is bound), then verification of every remaining
  // constraint against the column cells. Emits exactly the candidates that
  // unify with `pat` under the current binding (TryUnify checks only the
  // injective and vars-to-vars modes on top), in ascending slot order, then
  // applies the pinned identity-first reorder to that subsequence. A
  // predicate the target never stored, or stored at another arity, has no
  // candidates.
  std::vector<const Atom*> JoinCandidates(const PatAtom& pat) {
    std::vector<const Atom*> out;
    const ColumnSegment* segment = target_.SegmentFor(pat.predicate);
    if (segment == nullptr || segment->arity() != pat.args.size()) return out;
    const ColumnSegment& seg = *segment;
    const TermDictionary& dict = target_.dictionary();
    const size_t arity = pat.args.size();
    col_bound_.assign(arity, 0);
    col_ids_.assign(arity, TermDictionary::kNoId);
    col_vars_.assign(arity, kNotVar);
    // The probe column is the first strict minimum of CountByTerm over the
    // bound images, so that the identity reorder below can reconstruct which
    // posting list the pinned order walks.
    std::optional<Term> best_term;
    size_t best_count = kInfinity;
    uint32_t probe_col = 0;
    bool dead = false;
    for (size_t i = 0; i < arity; ++i) {
      const Arg& arg = pat.args[i];
      Term image;
      if (arg.var == kNotVar) {
        image = arg.constant;
      } else if (bound_[arg.var]) {
        image = binding_[arg.var];
      } else {
        col_vars_[i] = arg.var;
        continue;
      }
      col_bound_[i] = 1;
      col_ids_[i] = dict.Find(image);
      // An image the target never stored cannot appear in any row.
      if (col_ids_[i] == TermDictionary::kNoId) dead = true;
      size_t count = target_.CountByTerm(image);
      if (count < best_count) {
        best_count = count;
        best_term = image;
        probe_col = static_cast<uint32_t>(i);
      }
    }
    if (dead) return out;
    // Cells hold real ids, so comparing against kNoId (forbidden term not
    // in the dictionary) can never match — no extra guard needed.
    TermId forbidden_id = TermDictionary::kNoId;
    if (options_.forbidden_image_term.has_value()) {
      forbidden_id = dict.Find(*options_.forbidden_image_term);
    }
    auto verify_and_admit = [&](uint32_t row) {
      uint32_t slot = seg.slot(row);
      if (!target_.SlotAlive(slot)) return;
      for (size_t c = 0; c < arity; ++c) {
        TermId cell = seg.cell(row, static_cast<uint32_t>(c));
        if (cell == forbidden_id) return;
        if (col_bound_[c]) {
          if (cell != col_ids_[c]) return;
          continue;
        }
        // A repeated unbound variable must meet equal cells.
        for (size_t p = 0; p < c; ++p) {
          if (!col_bound_[p] && col_vars_[p] == col_vars_[c] &&
              seg.cell(row, static_cast<uint32_t>(p)) != cell) {
            return;
          }
        }
      }
      out.push_back(&target_.SlotAtom(slot));
    };
    if (best_term.has_value()) {
      IndexBuildStats build;
      const TermId probe_id = col_ids_[probe_col];
      ColumnSegment::ProbeResult range =
          seg.EqualRange(probe_col, probe_id, &build);
      if (counters_ != nullptr) {
        counters_->index_probes.fetch_add(1, std::memory_order_relaxed);
        if (build.builds > 0) {
          counters_->index_builds.fetch_add(build.builds,
                                            std::memory_order_relaxed);
          counters_->index_build_bytes.fetch_add(build.bytes,
                                                 std::memory_order_relaxed);
        }
      }
      for (const uint32_t* r = range.begin; r != range.end; ++r) {
        verify_and_admit(*r);
      }
      // Unmerged tail rows follow every sorted row, so scanning them second
      // keeps the enumeration in ascending slot order.
      for (uint32_t row = range.tail_begin; row != range.tail_end; ++row) {
        if (seg.cell(row, probe_col) == probe_id) verify_and_admit(row);
      }
    } else {
      if (counters_ != nullptr) {
        counters_->column_scans.fetch_add(1, std::memory_order_relaxed);
      }
      for (size_t row = 0; row < seg.rows(); ++row) {
        verify_and_admit(static_cast<uint32_t>(row));
      }
    }
    // Identity-first, restricted to the unifying subsequence. The pinned
    // order walks one posting list (the probe term's, or the predicate's),
    // filtered by the forbidden term, and swaps the identity candidate with
    // that list's head; projected onto the unifying candidates that is a
    // swap when the head unifies, and a rotate of the identity to the front
    // when it does not. With fewer than two unifying candidates any reorder
    // is the identity permutation.
    if (!options_.identity_first || out.size() < 2) return out;
    size_t identity_pos = out.size();
    for (size_t j = 0; j < out.size(); ++j) {
      if (IsIdentityCandidate(pat, *out[j])) {
        identity_pos = j;
        break;
      }
    }
    if (identity_pos == out.size() || identity_pos == 0) return out;
    const Atom* first_legacy = LegacyFirstCandidate(
        pat, seg, best_term,
        best_count <= target_.CountByPredicate(pat.predicate));
    if (first_legacy == out[0]) {
      std::swap(out[0], out[identity_pos]);
    } else {
      std::rotate(out.begin(), out.begin() + identity_pos,
                  out.begin() + identity_pos + 1);
    }
    return out;
  }

  // The head of the posting list the pinned order walks (the probe term's
  // when it is no longer than the predicate's, else the predicate's
  // segment rows), filtered by liveness and the forbidden term. Used only to
  // decide the identity reorder's swap-vs-rotate case.
  const Atom* LegacyFirstCandidate(const PatAtom& pat, const ColumnSegment& seg,
                                   const std::optional<Term>& best_term,
                                   bool term_beats_predicate) const {
    auto admit = [&](const Atom& cand) {
      return !options_.forbidden_image_term.has_value() ||
             !AtomContains(cand, *options_.forbidden_image_term);
    };
    if (best_term.has_value() && term_beats_predicate) {
      const std::vector<AtomSet::Slot>* posting =
          target_.TermPostingSlots(*best_term);
      if (posting == nullptr) return nullptr;
      for (AtomSet::Slot s : *posting) {
        if (!target_.SlotAlive(s)) continue;
        const Atom& cand = target_.SlotAtom(s);
        if (cand.predicate() == pat.predicate && admit(cand)) return &cand;
      }
      return nullptr;
    }
    for (size_t row = 0; row < seg.rows(); ++row) {
      const AtomSet::Slot s = seg.slot(row);
      if (!target_.SlotAlive(s)) continue;
      const Atom& cand = target_.SlotAtom(s);
      if (admit(cand)) return &cand;
    }
    return nullptr;
  }

  bool IsIdentityCandidate(const PatAtom& pat, const Atom& cand) const {
    for (size_t i = 0; i < pat.args.size(); ++i) {
      const Arg& arg = pat.args[i];
      Term expected = arg.var == kNotVar
                          ? arg.constant
                          : (bound_[arg.var] ? binding_[arg.var]
                                             : var_terms_[arg.var]);
      if (cand.arg(i) != expected) return false;
    }
    return true;
  }

  // Binds the pattern atom's unbound variables to the candidate's images.
  // JoinCandidates has already verified constants, bound variables and
  // repeated variables on the column cells; left here are the constraints on
  // the new images alone (vars-to-vars) or on mutable search state
  // (injectivity). Bindings go onto the shared trail_; RollbackTo(mark)
  // undoes everything pushed after the mark. One growing vector instead of
  // a fresh vector per search node.
  bool TryUnify(const PatAtom& pat, const Atom& cand) {
    for (size_t i = 0; i < pat.args.size(); ++i) {
      const Arg& arg = pat.args[i];
      if (arg.var == kNotVar || bound_[arg.var]) continue;
      Term image = cand.arg(i);
      if (options_.vars_to_vars && image.is_constant()) return false;
      if (options_.injective) {
        if (used_targets_.contains(image)) return false;
        used_targets_.insert(image);
      }
      binding_[arg.var] = image;
      bound_[arg.var] = true;
      trail_.push_back(arg.var);
    }
    return true;
  }

  void RollbackTo(size_t mark) {
    while (trail_.size() > mark) {
      uint32_t var = trail_.back();
      trail_.pop_back();
      if (options_.injective) used_targets_.erase(binding_[var]);
      bound_[var] = false;
    }
  }

  void Emit() {
    Substitution result = options_.seed;
    for (size_t v = 0; v < var_terms_.size(); ++v) {
      if (bound_[v]) result.Bind(var_terms_[v], binding_[v]);
    }
    results_.push_back(std::move(result));
  }

  // Returns true when the search should stop (limit reached, or the ambient
  // resource governor fired — callers that must distinguish check
  // GovernorStopped(): results found before the stop are returned, but the
  // enumeration may be incomplete and a "no homomorphism" verdict is then
  // not trustworthy).
  bool Search(size_t remaining) {
    if (GovernorPoll(FaultSite::kHomNode)) return true;
    if (remaining == 0) {
      Emit();
      return options_.limit != 0 && results_.size() >= options_.limit;
    }
    // While "focus" atoms (those containing the term being folded away)
    // remain, select among them only: the satisfiability crux of a folding
    // search lives there, and deciding it before the bulk of the pattern
    // keeps UNSAT proofs local.
    size_t chosen = pattern_atoms_.size();
    size_t best_score = kInfinity;
    for (size_t i = 0; i < pattern_atoms_.size(); ++i) {
      if (assigned_[i]) continue;
      if (remaining_focus_ > 0 && !pattern_atoms_[i].focus) continue;
      size_t score = EstimateCandidates(pattern_atoms_[i]);
      if (score < best_score) {
        best_score = score;
        chosen = i;
        if (score == 0) break;
      }
    }
    TWCHASE_CHECK(chosen < pattern_atoms_.size());
    const PatAtom& pat = pattern_atoms_[chosen];
    assigned_[chosen] = true;
    if (pat.focus) --remaining_focus_;
    bool stop = false;
    for (const Atom* cand : JoinCandidates(pat)) {
      size_t mark = trail_.size();
      if (TryUnify(pat, *cand)) {
        if (Search(remaining - 1)) {
          RollbackTo(mark);
          stop = true;
          break;
        }
      }
      RollbackTo(mark);
    }
    assigned_[chosen] = false;
    if (pat.focus) ++remaining_focus_;
    return stop;
  }

  const AtomSet& target_;
  const HomOptions& options_;
  std::vector<PatAtom> pattern_atoms_;
  std::unordered_map<Term, uint32_t, TermHash> var_index_;
  std::vector<Term> var_terms_;
  std::vector<Term> binding_;  // indexed by local variable
  std::vector<char> bound_;
  std::vector<char> assigned_;
  size_t remaining_focus_ = 0;
  std::vector<uint32_t> trail_;
  std::unordered_set<Term, TermHash> used_targets_;
  std::vector<Substitution> results_;
  MatchCounters* counters_ = nullptr;
  // JoinCandidates per-position plan, reused across nodes so the hot path
  // allocates nothing after warm-up.
  std::vector<uint8_t> col_bound_;
  std::vector<TermId> col_ids_;
  std::vector<uint32_t> col_vars_;
};

}  // namespace

std::vector<Substitution> FindAllHomomorphisms(const AtomSet& pattern,
                                               const AtomSet& target,
                                               const HomOptions& options) {
  HomSearch search(pattern, target, options);
  return search.Run();
}

std::optional<Substitution> FindHomomorphism(const AtomSet& pattern,
                                             const AtomSet& target) {
  return FindHomomorphism(pattern, target, HomOptions{});
}

std::optional<Substitution> FindHomomorphism(const AtomSet& pattern,
                                             const AtomSet& target,
                                             const HomOptions& options) {
  HomOptions opts = options;
  opts.limit = 1;
  auto results = FindAllHomomorphisms(pattern, target, opts);
  if (results.empty()) return std::nullopt;
  return std::move(results.front());
}

bool ExistsHomomorphism(const AtomSet& pattern, const AtomSet& target) {
  return FindHomomorphism(pattern, target).has_value();
}

bool ExistsHomomorphismExtending(const AtomSet& pattern, const AtomSet& target,
                                 const Substitution& seed) {
  HomOptions options;
  options.seed = seed;
  options.limit = 1;
  return FindHomomorphism(pattern, target, options).has_value();
}

}  // namespace twchase
