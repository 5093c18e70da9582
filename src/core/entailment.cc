#include "core/entailment.h"

#include <string>
#include <vector>

#include "core/robust.h"
#include "core/trigger.h"
#include "hom/core.h"
#include "hom/matcher.h"
#include "obs/observer.h"
#include "util/fault.h"
#include "util/governor.h"
#include "util/status.h"
#include "util/stopwatch.h"

namespace twchase {

namespace {

// Emits one OnPhase per completed sub-procedure.
void EmitPhase(ChaseObserver* observer, const char* name,
               const Stopwatch& watch, size_t chase_steps) {
  if (observer == nullptr) return;
  PhaseEvent phase;
  phase.name = name;
  phase.wall_ms = watch.ElapsedMillis();
  phase.chase_steps = chase_steps;
  observer->OnPhase(phase);
}

}  // namespace

const char* EntailmentVerdictName(EntailmentVerdict verdict) {
  switch (verdict) {
    case EntailmentVerdict::kEntailed:
      return "entailed";
    case EntailmentVerdict::kNotEntailed:
      return "not-entailed";
    case EntailmentVerdict::kUnknown:
      return "unknown";
  }
  return "?";
}

EntailmentResult DecideByCoreChase(const KnowledgeBase& kb,
                                   const AtomSet& query, size_t max_steps,
                                   ChaseObserver* observer) {
  Stopwatch watch;
  ChaseOptions options;
  options.variant = ChaseVariant::kCore;
  options.limits.max_steps = max_steps;
  options.observer = observer;
  auto run = RunChase(kb, options);
  TWCHASE_CHECK_MSG(run.ok(), run.status().ToString());
  EntailmentResult result;
  result.chase_steps = run->steps;
  result.method = "core-chase";
  bool maps = ExistsHomomorphism(query, run->derivation.Last());
  if (GovernorStopped() && !maps) {
    // The query match search may have been cut short: a found match is a
    // real certificate, but absence proves nothing once the governor fired.
    result.verdict = EntailmentVerdict::kUnknown;
  } else if (run->terminated) {
    // The fixpoint is the finite universal model: exact decision.
    result.verdict =
        maps ? EntailmentVerdict::kEntailed : EntailmentVerdict::kNotEntailed;
  } else {
    // Every prefix element is universal for K (Proposition 1), so a match
    // certifies entailment; absence proves nothing.
    result.verdict =
        maps ? EntailmentVerdict::kEntailed : EntailmentVerdict::kUnknown;
  }
  EmitPhase(observer, "core-chase", watch, result.chase_steps);
  return result;
}

EntailmentResult SaturationSemiDecision(const KnowledgeBase& kb,
                                        const AtomSet& query, size_t max_steps,
                                        ChaseObserver* observer) {
  Stopwatch watch;
  ChaseOptions options;
  options.variant = ChaseVariant::kRestricted;
  options.limits.max_steps = max_steps;
  options.observer = observer;
  auto run = RunChase(kb, options);
  TWCHASE_CHECK_MSG(run.ok(), run.status().ToString());
  EntailmentResult result;
  result.chase_steps = run->steps;
  result.method = "restricted-saturation";
  bool maps = ExistsHomomorphism(query, run->derivation.Last());
  if (maps) {
    result.verdict = EntailmentVerdict::kEntailed;
  } else if (run->terminated && !GovernorStopped()) {
    result.verdict = EntailmentVerdict::kNotEntailed;
  } else {
    result.verdict = EntailmentVerdict::kUnknown;
  }
  EmitPhase(observer, "restricted-saturation", watch, result.chase_steps);
  return result;
}

EntailmentResult DecideByRobustAggregation(const KnowledgeBase& kb,
                                           const AtomSet& query,
                                           size_t max_steps,
                                           ChaseObserver* observer) {
  Stopwatch watch;
  ChaseOptions options;
  options.variant = ChaseVariant::kCore;
  options.limits.max_steps = max_steps;
  options.observer = observer;
  auto run = RunChase(kb, options);
  TWCHASE_CHECK_MSG(run.ok(), run.status().ToString());
  RobustAggregator agg =
      RobustAggregator::FromDerivation(run->derivation, 0, observer);
  EntailmentResult result;
  result.chase_steps = run->steps;
  result.method = "robust-aggregation";
  bool maps = ExistsHomomorphism(query, agg.Aggregate());
  if (maps) {
    // The match image is a finite subset of a finitely universal model
    // prefix... the prefix U_i consists of forwarded images of the
    // (universal) G_k, so any match certifies entailment (Proposition 9's
    // forward direction via Lemma 1).
    result.verdict = EntailmentVerdict::kEntailed;
  } else if (run->terminated && !GovernorStopped()) {
    result.verdict = EntailmentVerdict::kNotEntailed;
  } else {
    result.verdict = EntailmentVerdict::kUnknown;
  }
  EmitPhase(observer, "robust-aggregation", watch, result.chase_steps);
  return result;
}

AtomSet MinimizeQuery(const AtomSet& query) {
  return ComputeCore(query).core;
}

namespace {

// Backtracking search for a finite model of (F, Σ) avoiding Q. Satisfies one
// unsatisfied trigger at a time, branching over all assignments of its
// existential variables to the finite domain; prunes branches where Q
// already maps (atoms only grow). The atom space over a finite domain is
// finite and every recursion inserts at least one atom, so the search tree
// is finite; max_nodes caps worst-case blowup.
class CounterModelSearch {
 public:
  CounterModelSearch(const KnowledgeBase& kb, const AtomSet& query,
                     const CounterModelOptions& options)
      : kb_(kb), query_(query), options_(options) {}

  std::optional<AtomSet> Run() {
    instance_ = kb_.facts;
    domain_ = kb_.facts.Terms();
    for (int i = 0; i < options_.max_extra_elements; ++i) {
      domain_.push_back(
          kb_.vocab->Constant("_cm" + std::to_string(i)));
    }
    if (domain_.empty()) return std::nullopt;
    if (Search()) return found_;
    return std::nullopt;
  }

 private:
  bool Search() {
    if (++nodes_ > options_.max_nodes) return false;
    if (ExistsHomomorphism(query_, instance_)) return false;
    // First unsatisfied trigger, in deterministic rule order.
    for (int r = 0; r < static_cast<int>(kb_.rules.size()); ++r) {
      const Rule& rule = kb_.rules[r];
      for (const Trigger& tr : FindTriggers(rule, r, instance_)) {
        if (TriggerIsSatisfied(rule, tr.match, instance_)) continue;
        return SatisfyAndRecurse(rule, tr.match, 0, tr.match);
      }
    }
    found_ = instance_;
    return true;
  }

  // Enumerates assignments of rule.existential()[index:] to the domain.
  bool SatisfyAndRecurse(const Rule& rule, const Substitution& match,
                         size_t index, Substitution assignment) {
    if (index == rule.existential().size()) {
      std::vector<Atom> added;
      rule.head().ForEach([&](const Atom& atom) {
        Atom image = assignment.Apply(atom);
        if (instance_.Insert(image)) added.push_back(image);
      });
      if (added.empty()) {
        // Head image already present: the trigger was satisfiable with this
        // assignment, contradicting the caller's check — cannot happen, but
        // guard against infinite recursion anyway.
        return false;
      }
      bool ok = Search();
      if (ok) return true;
      for (const Atom& atom : added) instance_.Erase(atom);
      return false;
    }
    Term ev = rule.existential()[index];
    for (Term candidate : domain_) {
      Substitution extended = assignment;
      extended.Bind(ev, candidate);
      if (SatisfyAndRecurse(rule, match, index + 1, std::move(extended))) {
        return true;
      }
      if (nodes_ > options_.max_nodes) return false;
    }
    return false;
  }

  const KnowledgeBase& kb_;
  const AtomSet& query_;
  CounterModelOptions options_;
  AtomSet instance_;
  std::vector<Term> domain_;
  AtomSet found_;
  size_t nodes_ = 0;
};

}  // namespace

std::optional<AtomSet> FindFiniteCounterModel(
    const KnowledgeBase& kb, const AtomSet& query,
    const CounterModelOptions& options) {
  CounterModelSearch search(kb, query, options);
  auto result = search.Run();
  // An interrupted search is untrustworthy in both directions: its internal
  // satisfaction / query checks may have been cut short, so a "model" could
  // be bogus and absence proves nothing. Degrade to "none found".
  if (GovernorStopped()) return std::nullopt;
  return result;
}

EntailmentResult DovetailEntailment(const KnowledgeBase& kb,
                                    const AtomSet& query, size_t base_steps,
                                    int rounds, ChaseObserver* observer) {
  EntailmentResult last;
  last.method = "dovetail/interrupted";
  size_t steps = base_steps;
  for (int r = 0; r < rounds; ++r) {
    // Cooperative checkpoint between dovetail rounds: a stop here returns
    // the best (sound) verdict so far — kUnknown unless a certificate was
    // already found.
    if (GovernorPoll(FaultSite::kEntailmentRound)) return last;
    EntailmentResult by_chase = DecideByCoreChase(kb, query, steps, observer);
    last = by_chase;
    if (by_chase.verdict != EntailmentVerdict::kUnknown) return by_chase;
    CounterModelOptions cm;
    cm.max_extra_elements = r;
    Stopwatch cm_watch;
    auto counter_model = FindFiniteCounterModel(kb, query, cm);
    EmitPhase(observer, "counter-model", cm_watch, 0);
    if (counter_model.has_value()) {
      EntailmentResult result;
      result.verdict = EntailmentVerdict::kNotEntailed;
      result.chase_steps = by_chase.chase_steps;
      result.method = "dovetail/counter-model(k=" + std::to_string(r) + ")";
      return result;
    }
    steps *= 2;
  }
  last.method = "dovetail/exhausted";
  return last;
}

EntailmentResult CombinedEntailment(const KnowledgeBase& kb,
                                    const AtomSet& query, size_t max_steps,
                                    const CounterModelOptions& cm_options,
                                    ChaseObserver* observer) {
  EntailmentResult by_chase = DecideByCoreChase(kb, query, max_steps, observer);
  if (by_chase.verdict != EntailmentVerdict::kUnknown) return by_chase;
  Stopwatch cm_watch;
  auto counter_model = FindFiniteCounterModel(kb, query, cm_options);
  EmitPhase(observer, "counter-model", cm_watch, 0);
  if (counter_model.has_value()) {
    EntailmentResult result;
    result.verdict = EntailmentVerdict::kNotEntailed;
    result.chase_steps = by_chase.chase_steps;
    result.method = "finite-counter-model";
    return result;
  }
  return by_chase;
}

}  // namespace twchase
