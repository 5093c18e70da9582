#include "core/chase.h"

#include <algorithm>
#include <atomic>
#include <optional>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/delta.h"
#include "core/session.h"
#include "core/trigger.h"
#include "core/trigger_key.h"
#include "hom/core.h"
#include "hom/endomorphism.h"
#include "hom/matcher.h"
#include "obs/observer.h"
#include "plan/core_guard.h"
#include "plan/execution_plan.h"
#include "util/fault.h"
#include "util/governor.h"
#include "util/logging.h"
#include "util/status.h"

namespace twchase {

const char* ChaseVariantName(ChaseVariant variant) {
  switch (variant) {
    case ChaseVariant::kOblivious:
      return "oblivious";
    case ChaseVariant::kSemiOblivious:
      return "semi-oblivious";
    case ChaseVariant::kRestricted:
      return "restricted";
    case ChaseVariant::kFrugal:
      return "frugal";
    case ChaseVariant::kCore:
      return "core";
  }
  return "unknown";
}

// Error messages lead with the full nested field path (limits. / core. /
// delta. / resume. / parallel.), so CLI users see which flag to fix and the
// HTTP surface (src/service/wire.cc) can lift the path into its structured
// 400 payload without guessing.
Status ChaseOptions::Validate() const {
  if (core.core_every == 0) {
    return Status::InvalidArgument("core.core_every must be positive");
  }
  if (parallel.threads == 0) {
    return Status::InvalidArgument(
        "parallel.threads must be positive (1 = sequential)");
  }
  if (preflight.auto_variant && !preflight.resolved) {
    return Status::InvalidArgument(
        "preflight.auto_variant requires resolution: run "
        "ResolveAutoVariant (analysis/preflight.h) before starting the "
        "chase — an unresolved --variant=auto must never reach the engine");
  }
  return Status::OK();
}

namespace {

// A body match of one rule. Under delta evaluation it is kept across rounds;
// under naive evaluation it lives for one round. `key` packs the full
// binding map and serves as both the deduplication identity and the
// within-rule sort key (via PackedBindings::LegacyLess, which reproduces the
// engine's historical string-key order exactly).
struct StoredMatch {
  Substitution match;
  PackedBindings key;

  // Monotone variants only: this match was considered this round and can
  // never be active again (applied, duplicate, or satisfied in a growing
  // instance); dropped from the stored set at round end.
  bool retired = false;
};

struct RuleState {
  bool datalog = false;

  // Predicates occurring in the rule body — the probe filter for inserted
  // atoms.
  std::unordered_set<PredicateId> body_predicates;

  // Invariant under delta evaluation (at every round start): `matches` is
  // exactly the set of homomorphisms body → current instance, minus retired
  // ones, and `match_keys` contains the key of every match ever stored and
  // not invalidated (retired keys are kept: their atoms can never be
  // re-inserted in a monotone run, so the probes cannot rediscover them).
  std::vector<StoredMatch> matches;
  std::unordered_set<PackedBindings, PackedBindingsHash> match_keys;

  // (Semi-)oblivious: keys already applied, persistent for the whole run.
  std::unordered_set<PackedBindings, PackedBindingsHash> applied;
};

// Records the effect of replacing `before` by retraction(before) into the
// delta index: exactly the atoms containing a moved variable disappear (a
// retraction is the identity on all terms of its image, so an atom of the
// image never contains a moved variable), and their images appear. An image
// atom may have existed already — recording it as inserted is harmless, the
// seeded probes deduplicate against the stored keys.
void RecordRetractionDelta(const Substitution& retraction,
                           const AtomSet& before, DeltaIndex* delta) {
  for (const auto& [var, image] : retraction.map()) {
    if (var == image) continue;
    for (const Atom* atom : before.ByTerm(var)) {
      delta->RecordErase(*atom);
      delta->RecordInsert(retraction.Apply(*atom));
    }
  }
}

// Telemetry of one round's planner decisions (src/plan/), aggregated for the
// per-round PlanEvent and ChaseStats.
struct RoundPlanStats {
  size_t active_strata = 0;
  size_t enumerations_skipped = 0;
  size_t probes_skipped = 0;
  size_t core_proofs = 0;
  size_t core_certified = 0;

  bool any() const {
    return active_strata + enumerations_skipped + probes_skipped +
               core_proofs + core_certified >
           0;
  }
};

// Walks a recorded ResumeLog in lock-step with the scheduler. While
// `active`, committed decisions come from the log instead of satisfaction
// checks, and recorded retractions are applied instead of recomputing
// cores. The cursor deactivates — execution "goes live" — exactly at the
// boundary where the recorded run stopped.
struct ReplayCursor {
  size_t round_index = 0;
  size_t bit_index = 0;
  size_t step_index = 0;
  bool active = false;
};

// One coring's retraction, obtained live or from the resume log, before the
// coring site commits it.
struct Coring {
  Substitution retraction;      // identity when certified
  std::optional<AtomSet> core;  // the retract, when ComputeCore built it
  size_t folds = 0;
  bool certified = false;  // the still-core proof stood in for ComputeCore
  bool aborted = false;    // the governor stopped ComputeCore; nothing moved
};

// One of a round's triggers: a stored match of one rule.
struct PendingTrigger {
  int rule_index;
  bool datalog;
  size_t match_index;
};

}  // namespace

// The engine state of one session's run: everything the scheduler carries
// from one boundary to the next, so a paused run continues in memory exactly
// where it parked. Each phase of a round is one method; Advance drives them
// for one segment under that segment's governor.
struct ChaseSession::Run {
  enum class Flow {
    kNext,      // go on with the round's next trigger
    kRoundEnd,  // the trigger loop is over; go on to round-end coring
    kStop,      // the governor or the replay stopped the run
    kPark,      // a pause was requested at this boundary
  };

  Run(const KnowledgeBase& kb, const ChaseOptions& options,
      std::optional<ResumeLog> replay)
      : kb(kb),
        options(options),
        vocab(kb.vocab.get()),
        obs(options.observer),
        is_core(options.variant == ChaseVariant::kCore),
        delta_on(options.delta.enabled),
        retire_considered(
            delta_on && (options.variant == ChaseVariant::kOblivious ||
                         options.variant == ChaseVariant::kSemiOblivious ||
                         options.variant == ChaseVariant::kRestricted)),
        plan_on(options.plan.enabled),
        core_guard_on(plan_on && options.plan.core_guard && is_core),
        rec(options.resume.record_log ? &result.resume_log : nullptr),
        current(kb.facts) {
    // A log that never committed anything records a run that stopped before
    // the initial element; replaying it is a plain fresh run.
    if (replay.has_value() && replay->have_initial) {
      replay_log = std::move(*replay);
      cursor.active = true;
    }
  }

  // Runs until the chase finishes (true) or parks at a boundary because
  // `pause_flag` was set (false). Error only when a resumed replay did not
  // land on the checkpointed state.
  StatusOr<bool> Advance(std::atomic<bool>* pause_flag) {
    ScopedCrashContext crash_context("chase run", &result.steps);
    ResourceLimits limits;
    limits.deadline_ms = options.limits.deadline_ms;
    limits.memory_budget_bytes = options.limits.memory_budget_bytes;
    limits.cancel = options.limits.cancel;
    ResourceGovernor segment_governor(limits);
    GovernorScope governor_scope(&segment_governor);
    MatchCountersScope match_scope(&match_counters);
    governor = &segment_governor;
    governor->NoteMemoryUsage(memory_estimate);
    pause = pause_flag;

    bool running = true;
    if (!began) {
      began = true;
      running = Begin();
    }
    while (running) {
      if (!in_round) {
        if (result.steps >= options.limits.max_steps) break;
        if (Parked()) return false;
        if (!BeginRound()) break;
      }
      const Flow flow = ConsiderTriggers();
      if (flow == Flow::kPark) return false;
      running = flow == Flow::kRoundEnd && RoundEndCoring() && EndRound();
    }
    if (!replay_error.ok()) return replay_error;
    Finish();
    return true;
  }

  // True (and consumed) when a pause was requested; polled only at round
  // and trigger boundaries, before their governor poll, so a parked run
  // re-enters the boundary without counting it twice.
  bool Parked() {
    return pause->load(std::memory_order_acquire) &&
           pause->exchange(false, std::memory_order_acq_rel);
  }

  void NoteMemory(size_t bytes) {
    memory_estimate = bytes;
    governor->NoteMemoryUsage(bytes);
  }

  void NoteCertified() {
    if (!core_guard_on) return;
    guard_base_established = true;
    guard_base_mark = static_cast<uint32_t>(vocab->num_variables());
    guard_atoms_since.clear();
  }

  // Deactivates the cursor (all further decisions are live) and, when the log
  // carries landing-verification data, cross-checks the reconstructed state
  // against the checkpointed one. Every deactivation site is a full
  // consumption of the log, so the check fires exactly at the recorded stop
  // boundary.
  void GoLive() {
    cursor.active = false;
    if (!replay_log.verify_landing) return;
    if (current.size() != replay_log.expected_instance_size ||
        current.ContentHash() != replay_log.expected_instance_hash ||
        vocab->num_variables() != replay_log.committed_num_variables) {
      replay_error = Status::FailedPrecondition(
          "resume replay did not reconstruct the checkpointed state "
          "(instance or fresh-null counter mismatch; the checkpoint does "
          "not belong to this knowledge base / options)");
    }
  }

  void EmitRunBegin(size_t initial_size_before, size_t initial_folds) {
    if (obs == nullptr) return;
    RunBeginEvent begin;
    begin.variant = options.variant;
    begin.rule_count = kb.rules.size();
    begin.initial_size = current.size();
    begin.initial_simplification = &result.derivation.step(0).simplification;
    begin.instance = &current;
    obs->OnRunBegin(begin);
    if (budget_stop || !is_core || !options.core.core_initial) return;
    CoreRetractionEvent retraction;
    retraction.step = 0;
    retraction.folds = initial_folds;
    retraction.size_before = initial_size_before;
    retraction.size_after = current.size();
    obs->OnCoreRetraction(retraction);
  }

  // The run's match counters so far.
  MatchPlanEvent MatchTotals() const {
    auto load = [](const std::atomic<uint64_t>& counter) {
      return counter.load(std::memory_order_relaxed);
    };
    MatchPlanEvent totals;
    totals.index_probes = load(match_counters.index_probes);
    totals.column_scans = load(match_counters.column_scans);
    totals.index_builds = load(match_counters.index_builds);
    totals.index_build_bytes = load(match_counters.index_build_bytes);
    return totals;
  }

  // Reports the counts since the last report. Besides the round ends, this
  // is flushed once when the run finishes, so a mid-round stop does not
  // drop the final round's counts from an attached MetricsRegistry while
  // ChaseStats keeps them.
  void EmitMatchPlanDelta(size_t round) {
    if (obs == nullptr) return;
    const MatchPlanEvent totals = MatchTotals();
    MatchPlanEvent plan;
    plan.round = round;
    plan.index_probes = totals.index_probes - match_reported.index_probes;
    plan.column_scans = totals.column_scans - match_reported.column_scans;
    plan.index_builds = totals.index_builds - match_reported.index_builds;
    plan.index_build_bytes =
        totals.index_build_bytes - match_reported.index_build_bytes;
    if (plan.index_probes + plan.column_scans + plan.index_builds +
            plan.index_build_bytes ==
        0) {
      return;
    }
    obs->OnMatchPlan(plan);
    match_reported = totals;
  }

  // Commits F_0 (cored, for the core chase), emits RunBegin and builds the
  // per-rule state and the execution plan. False when a budget stopped the run
  // before F_0 committed: the result is then the untouched input (zero steps,
  // a resume log with have_initial false — resuming is a fresh run).
  bool Begin() {
    NoteMemory(current.ApproxMemoryBytes());
    budget_stop = governor->ShouldStop(FaultSite::kRoundBoundary);
    Substitution sigma0;
    size_t initial_folds = 0;
    const size_t initial_size_before = current.size();
    if (!budget_stop && is_core && options.core.core_initial) {
      if (cursor.active) {
        sigma0 = replay_log.initial_sigma;
        initial_folds = replay_log.initial_folds;
        current = sigma0.Apply(current);
      } else {
        CoreResult cored = ComputeCore(current);
        if (governor->stopped()) {
          // Coring aborted mid-search: the partial retraction is not a
          // retraction of anything. Keep F untouched.
          budget_stop = true;
        } else {
          current = std::move(cored.core);
          sigma0 = std::move(cored.retraction);
          initial_folds = cored.folds;
          NoteCertified();
        }
      }
    }
    if (budget_stop) {
      result.derivation.AddInitial(current, {});
      result.stats.peak_instance_size = current.size();
      EmitRunBegin(initial_size_before, initial_folds);
      return false;
    }
    if (rec != nullptr) {
      rec->have_initial = true;
      rec->initial_sigma = sigma0;
      rec->initial_folds = initial_folds;
      rec->initial_num_variables = vocab->num_variables();
    }
    result.derivation.AddInitial(current, std::move(sigma0));
    if (rec != nullptr) rec->committed_num_variables = vocab->num_variables();
    result.stats.peak_instance_size = current.size();
    NoteMemory(current.ApproxMemoryBytes() +
               result.derivation.ApproxMemoryBytes());
    EmitRunBegin(initial_size_before, initial_folds);

    rule_states.resize(kb.rules.size());
    for (size_t r = 0; r < kb.rules.size(); ++r) {
      rule_states[r].datalog = kb.rules[r].IsDatalog();
      kb.rules[r].body().ForEach([&](const Atom& atom) {
        rule_states[r].body_predicates.insert(atom.predicate());
      });
    }

    // Execution plan (src/plan/): positive-reliance graph, SCC strata and
    // dormant rules. A pure function of the program and the input facts'
    // predicates, computed once and valid for the whole run: every atom any
    // chase instance can ever hold has a producible predicate (induction over
    // applications), so a dormant rule has no match in any reachable
    // instance, retractions included — see BuildExecutionPlan.
    if (plan_on) {
      exec_plan = BuildExecutionPlan(kb.rules, kb.facts);
      result.stats.plan_reliance_edges = exec_plan.graph.edge_count;
      result.stats.plan_strata = exec_plan.strata.size();
      result.stats.plan_dormant_rules = exec_plan.dormant_count;
      plan_body_predicates.reserve(rule_states.size());
      for (const RuleState& state : rule_states) {
        plan_body_predicates.push_back(state.body_predicates);
      }
      if (obs != nullptr) {
        PlanEvent plan_event;
        plan_event.rules = kb.rules.size();
        plan_event.reliance_edges = exec_plan.graph.edge_count;
        plan_event.strata = exec_plan.strata.size();
        plan_event.dormant_rules = exec_plan.dormant_count;
        obs->OnPlan(plan_event);
      }
    }
    skip_dormant =
        plan_on && options.plan.skip_dormant && exec_plan.dormant_count > 0;
    if (delta_on) current.EnableDeltaJournal();
    return true;
  }

  // Opens a round: the round-boundary poll, the replay's go-live check, match
  // establishment and trigger order. False when the run stops here.
  bool BeginRound() {
    if (governor->ShouldStop(FaultSite::kRoundBoundary)) {
      budget_stop = true;
      return false;
    }
    if (cursor.active && cursor.round_index >= replay_log.rounds.size()) {
      GoLive();
      if (!replay_error.ok()) return false;
    }
    ++result.rounds;
    if (rec != nullptr) rec->rounds.emplace_back();
    steps_at_round_start = result.steps;
    round_plan = RoundPlanStats{};
    Establish();
    // The match search polls the governor internally and may have returned
    // a partial enumeration; a round scheduled from one would not be a fair
    // round, so stop before ordering.
    if (governor->stopped()) {
      budget_stop = true;
      return false;
    }
    Order();
    return true;
  }

  // Establishes this round's match sets: naive evaluation re-enumerates from
  // scratch; delta evaluation repairs the stored sets from the atoms
  // inserted/erased since the last round. Either way, afterwards each rule's
  // matches (minus retired ones, which are inactive by construction) are
  // exactly its triggers for `current`.
  void Establish() {
    if (!delta_on || !delta_primed) {
      // Full enumeration, rule by rule (the enumeration within a rule is the
      // deterministic hom-search order).
      HomOptions all_matches;
      all_matches.limit = 0;
      for (size_t r = 0; r < kb.rules.size(); ++r) {
        RuleState& state = rule_states[r];
        state.matches.clear();
        // A dormant rule's enumeration is guaranteed empty.
        if (skip_dormant && exec_plan.dormant[r]) {
          ++result.stats.plan_enumerations_skipped;
          ++round_plan.enumerations_skipped;
          continue;
        }
        for (Substitution& match :
             FindAllHomomorphisms(kb.rules[r].body(), current, all_matches)) {
          PackedBindings key = PackedBindings::FromMatch(match);
          if (delta_on) state.match_keys.insert(key);
          state.matches.push_back(
              StoredMatch{std::move(match), std::move(key)});
        }
        ++result.stats.full_enumerations;
      }
      delta_primed = true;
      return;
    }
    pending_delta.Absorb(current.DrainDelta());
    DeltaRepairEvent repair;
    repair.round = result.rounds;
    repair.inserted_atoms = pending_delta.inserted().size();
    repair.erased_atoms = pending_delta.erased().size();
    if (pending_delta.has_erasures()) {
      // Revalidation fast path: insertions never falsify a stored match, so a
      // rule none of whose body predicates lost an atom keeps its whole match
      // set, and within a touched rule only matches whose body image meets
      // the erased segment need the full re-probe. Outcomes (and with them
      // retire events and counters) are exactly those of the unconditional
      // IsTriggerFor sweep. Each touched rule is compacted in match order.
      auto rule_touched_by_erasure = [&](size_t r) {
        for (PredicateId p : rule_states[r].body_predicates) {
          if (pending_delta.ErasedTouchesPredicate(p)) return true;
        }
        return false;
      };
      for (size_t r = 0; r < kb.rules.size(); ++r) {
        if (!rule_touched_by_erasure(r)) continue;
        const Rule& rule = kb.rules[r];
        RuleState& state = rule_states[r];
        size_t kept = 0;
        for (size_t i = 0; i < state.matches.size(); ++i) {
          const Substitution& match = state.matches[i].match;
          if (!MatchImageTouchesErased(rule, match, pending_delta) ||
              IsTriggerFor(rule, match, current)) {
            if (kept != i) state.matches[kept] = std::move(state.matches[i]);
            ++kept;
            continue;
          }
          state.match_keys.erase(state.matches[i].key);
          ++result.stats.matches_invalidated;
          ++repair.matches_invalidated;
          if (obs != nullptr) {
            obs->OnTriggerRetired({result.rounds, static_cast<int>(r),
                                   TriggerRetireReason::kInvalidated});
          }
        }
        state.matches.resize(kept);
      }
    }
    // One seeded probe per (inserted fact, rule) pair, in that order; the
    // key-deduplicated inserts keep each rule's first occurrence.
    for (const Atom& fact : pending_delta.inserted()) {
      // An atom inserted and erased again within the round yields no matches
      // (the probe pins a body atom's image to it).
      if (!current.Contains(fact)) continue;
      for (size_t r = 0; r < kb.rules.size(); ++r) {
        RuleState& state = rule_states[r];
        if (!state.body_predicates.contains(fact.predicate())) continue;
        // Skipped probes stay accounted: the DeltaRepairEvent payload (and
        // the seed_probes counters) must not depend on the planner.
        ++result.stats.seed_probes;
        ++repair.seed_probes;
        // A dormant rule's probe is guaranteed empty.
        if (skip_dormant && exec_plan.dormant[r]) {
          ++result.stats.plan_probes_skipped;
          ++round_plan.probes_skipped;
          continue;
        }
        for (Substitution& match :
             FindSeededMatches(kb.rules[r], fact, current)) {
          PackedBindings key = PackedBindings::FromMatch(match);
          if (state.match_keys.insert(key).second) {
            state.matches.push_back(
                StoredMatch{std::move(match), std::move(key)});
            ++repair.matches_added;
          }
        }
      }
    }
    if (plan_on) {
      round_plan.active_strata = CountActiveStrata(
          exec_plan, plan_body_predicates, pending_delta.InsertedPredicates());
    }
    pending_delta.Clear();
    if (obs != nullptr) obs->OnDeltaRepair(repair);
  }

  // Snapshots and orders the round's triggers. The order is total — within a
  // rule, distinct matches have distinct packed keys — and equals the
  // historical (datalog_first, rule_index, string sort key) order.
  void Order() {
    pending.clear();
    for (size_t r = 0; r < rule_states.size(); ++r) {
      for (size_t i = 0; i < rule_states[r].matches.size(); ++i) {
        pending.push_back(
            PendingTrigger{static_cast<int>(r), rule_states[r].datalog, i});
      }
    }
    std::sort(pending.begin(), pending.end(),
              [&](const PendingTrigger& a, const PendingTrigger& b) {
                if (options.datalog_first && a.datalog != b.datalog) {
                  return a.datalog;
                }
                if (a.rule_index != b.rule_index) {
                  return a.rule_index < b.rule_index;
                }
                return PackedBindings::LegacyLess(
                    rule_states[a.rule_index].matches[a.match_index].key,
                    rule_states[b.rule_index].matches[b.match_index].key);
              });
    result.stats.triggers_found += pending.size();
    if (obs != nullptr) {
      obs->OnRoundBegin({result.rounds, pending.size(), current.size()});
    }
    in_round = true;
    next_pending = 0;
    progressed = false;
    sigma_round = Substitution();
  }

  // Walks the round's ordered triggers from `next_pending`. Each boundary
  // first honours a pause, then polls the governor; during a replay it
  // consumes the consideration's committed decision, or detects the recorded
  // stop point and goes live at exactly this trigger.
  Flow ConsiderTriggers() {
    while (next_pending < pending.size()) {
      if (result.steps >= options.limits.max_steps) break;
      if (Parked()) return Flow::kPark;
      if (governor->ShouldStop(FaultSite::kTriggerBoundary)) {
        budget_stop = true;
        return Flow::kStop;
      }
      bool replaying = false;
      bool replay_bit = false;
      if (cursor.active) {
        const ResumeLog::RoundRecord& rr =
            replay_log.rounds[cursor.round_index];
        if (cursor.bit_index < rr.decisions.size()) {
          replaying = true;
          replay_bit = rr.decisions[cursor.bit_index++] != 0;
        } else if (rr.have_round_end) {
          // The recorded run left its trigger loop early (step budget or
          // size guard) and then cored at round end: follow it there.
          break;
        } else {
          GoLive();
          if (!replay_error.ok()) return Flow::kStop;
        }
      }
      const Flow flow =
          ConsiderAndApply(pending[next_pending++], replaying, replay_bit);
      if (flow != Flow::kNext) return flow;
    }
    return Flow::kRoundEnd;
  }

  // One trigger consideration: the activeness check of the variant, then (if
  // active) the application with its per-step coring or frugal folds, the
  // journal step, the resume-log record and the events. Returns kRoundEnd
  // when the size guard tripped, kStop when an interrupted search left
  // nothing to commit.
  Flow ConsiderAndApply(const PendingTrigger& p, bool replaying,
                        bool replay_bit) {
    const Rule& rule = kb.rules[p.rule_index];
    RuleState& state = rule_states[p.rule_index];
    StoredMatch& stored = state.matches[p.match_index];
    ++result.stats.triggers_considered;
    if (obs != nullptr) {
      obs->OnTriggerConsidered({result.rounds, p.rule_index});
    }
    // Re-map the trigger through the simplifications applied since the
    // round snapshot (σ^j_i of Definition 2); σ is a homomorphism between
    // successive instances, so the image is still a trigger.
    Substitution composed;
    const Substitution* match = &stored.match;
    if (!sigma_round.empty()) {
      composed = Substitution::Compose(sigma_round, stored.match);
      match = &composed;
    }
    // Activeness per variant. Replay substitutes the recorded decision for the
    // satisfaction check (the oblivious key bookkeeping still runs — it is
    // deterministic — and is cross-checked against the log).
    bool skip = false;
    switch (options.variant) {
      case ChaseVariant::kOblivious:
      case ChaseVariant::kSemiOblivious: {
        const bool oblivious = options.variant == ChaseVariant::kOblivious;
        PackedBindings key;
        if (!oblivious) {
          key = PackedBindings::FromRestricted(*match, rule.frontier());
        } else if (match == &stored.match) {
          key = stored.key;
        } else {
          key = PackedBindings::FromMatch(*match);
        }
        const bool fresh = state.applied.insert(std::move(key)).second;
        if (replaying) {
          TWCHASE_CHECK_MSG(fresh == replay_bit,
                            oblivious ? "resume log diverged from the "
                                        "oblivious application keys"
                                      : "resume log diverged from the "
                                        "semi-oblivious application keys");
        }
        stored.retired = true;
        if (obs != nullptr && retire_considered) {
          obs->OnTriggerRetired({result.rounds, p.rule_index,
                                 fresh ? TriggerRetireReason::kApplied
                                       : TriggerRetireReason::kDuplicate});
        }
        skip = !fresh;
        break;
      }
      case ChaseVariant::kRestricted:
      case ChaseVariant::kFrugal:
      case ChaseVariant::kCore: {
        bool satisfied;
        if (replaying) {
          satisfied = !replay_bit;
        } else {
          satisfied = TriggerIsSatisfied(rule, *match, current);
          // The satisfaction search aborted; its verdict is not trustworthy
          // and nothing has been committed for this consideration — stop
          // exactly here.
          if (governor->stopped()) {
            budget_stop = true;
            return Flow::kStop;
          }
        }
        if (retire_considered) {
          stored.retired = true;
          if (obs != nullptr) {
            obs->OnTriggerRetired({result.rounds, p.rule_index,
                                   satisfied ? TriggerRetireReason::kSatisfied
                                             : TriggerRetireReason::kApplied});
          }
        }
        skip = satisfied;
        break;
      }
    }
    if (skip) {
      if (rec != nullptr) rec->rounds.back().decisions.push_back(0);
      return Flow::kNext;
    }

    TriggerApplication application =
        ApplyTrigger(rule, *match, &current, vocab);
    if (core_guard_on && guard_base_established) {
      // Copied, not moved: added_atoms still feeds the derivation step (and
      // the abort rollback) below.
      guard_atoms_since.insert(guard_atoms_since.end(),
                               application.added_atoms.begin(),
                               application.added_atoms.end());
    }
    Substitution sigma;
    std::vector<Substitution> fold_sigmas;
    CoreRetractionEvent core_event;
    const bool do_core = is_core && !options.core.core_at_round_end &&
                         ++since_last_core >= options.core.core_every;
    if (do_core) since_last_core = 0;
    const ResumeLog::StepRecord* step_record = nullptr;
    if (replaying) {
      TWCHASE_CHECK_MSG(cursor.step_index < replay_log.steps.size(),
                        "resume log diverged: missing step record");
      step_record = &replay_log.steps[cursor.step_index++];
      TWCHASE_CHECK_MSG(step_record->cored == do_core,
                        "resume log diverged from the coring schedule");
    }
    if (do_core) {
      core_event.size_before = current.size();
      if (delta_on) pending_delta.Absorb(current.DrainDelta());
      Coring coring =
          step_record != nullptr
              ? ReplayedCoring(step_record->sigma, step_record->folds)
              : LiveCoring();
      if (coring.aborted) {
        // Roll the application back to the last committed step (its added
        // atoms are exactly what it inserted; everything else is untouched).
        for (const Atom& atom : application.added_atoms) current.Erase(atom);
        budget_stop = true;
        return Flow::kStop;
      }
      // A certified instance stays in place; its journal survived the drain.
      if (!coring.certified) Rebuild(coring);
      sigma = std::move(coring.retraction);
      core_event.folds = coring.folds;
      core_event.size_after = current.size();
    } else if (options.variant == ChaseVariant::kFrugal &&
               !rule.existential().empty()) {
      if (step_record != nullptr) {
        // Replay the recorded folds one by one through the same rebuild the
        // live path uses — journal entries included.
        for (const Substitution& fold : step_record->fold_sigmas) {
          ApplyRetractionRebuild(&current, fold);
          sigma = Substitution::Compose(fold, sigma);
          fold_sigmas.push_back(fold);
        }
      } else {
        std::vector<Term> fresh;
        for (Term ev : rule.existential()) {
          fresh.push_back(application.safe.Apply(ev));
        }
        // Each fold rebuilds the instance; interrupting between search and
        // rebuild would lose the committed prefix, so the fold loop is atomic
        // (bounded by the handful of fresh nulls of one rule).
        GovernorAtomicSection atomic_fold;
        sigma = FoldVariablesKeepingRestFixed(
            &current, fresh, rec != nullptr ? &fold_sigmas : nullptr);
      }
    }
    if (match == &composed) {
      result.derivation.AddStep(p.rule_index, rule.label(), std::move(composed),
                                sigma, std::move(application.added_atoms),
                                current.size());
    } else if (!delta_on || stored.retired) {
      // The stored match will not be used again: naive evaluation rebuilds
      // the set next round, and retired matches are dropped at round end.
      result.derivation.AddStep(p.rule_index, rule.label(),
                                std::move(stored.match), sigma,
                                std::move(application.added_atoms),
                                current.size());
    } else {
      result.derivation.AddStep(p.rule_index, rule.label(), stored.match, sigma,
                                std::move(application.added_atoms),
                                current.size());
    }
    if (!sigma.IsIdentity()) {
      sigma_round = Substitution::Compose(sigma, sigma_round);
    }
    ++result.steps;
    progressed = true;
    if (rec != nullptr) {
      rec->rounds.back().decisions.push_back(1);
      ResumeLog::StepRecord step_rec;
      step_rec.sigma = sigma;
      step_rec.fold_sigmas = std::move(fold_sigmas);
      step_rec.cored = do_core;
      step_rec.folds = core_event.folds;
      rec->steps.push_back(std::move(step_rec));
      rec->committed_num_variables = vocab->num_variables();
    }
    NoteMemory(current.ApproxMemoryBytes() +
               result.derivation.ApproxMemoryBytes());
    if (obs != nullptr) {
      const DerivationStep& last =
          result.derivation.step(result.derivation.size() - 1);
      TriggerAppliedEvent applied;
      applied.step = result.steps;
      applied.round = result.rounds;
      applied.rule_index = p.rule_index;
      applied.rule_label = &last.rule_label;
      applied.match = &last.match;
      applied.simplification = &last.simplification;
      applied.added_atoms = last.added_atoms.size();
      applied.instance_size = current.size();
      applied.instance = &current;
      obs->OnTriggerApplied(applied);
      if (do_core) {
        core_event.step = result.steps;
        obs->OnCoreRetraction(core_event);
      }
    }
    result.stats.peak_instance_size =
        std::max(result.stats.peak_instance_size, current.size());
    if (options.limits.max_instance_size != 0 &&
        current.size() > options.limits.max_instance_size) {
      result.size_guard_tripped = true;
      return Flow::kRoundEnd;
    }
    return Flow::kNext;
  }

  // Coring, shared by the per-application and the round-end site. Each site
  // drains the delta journal, takes its retraction from the log
  // (ReplayedCoring) or from the engine (LiveCoring), and commits it by its
  // own rule: the per-application site always rebuilds unless the proof
  // certified, the round-end site only on a proper retraction. Only live
  // successes certify the guard base: a replayed retraction predates the
  // replayed mutations.
  Coring LiveCoring() {
    Coring coring;
    if (core_guard_on && guard_base_established && !governor->stopped()) {
      ++result.stats.plan_core_proofs;
      ++round_plan.core_proofs;
      CoreGuardOutcome guard =
          ProveStillCore(current, guard_atoms_since, guard_base_mark);
      // An inner search the governor aborted can miss a refutation, so a
      // stopped run never certifies: it falls through to ComputeCore, whose
      // abort the site handles.
      coring.certified = guard.certified && !governor->stopped();
    }
    if (coring.certified) {
      // Proven still a core: ComputeCore would have returned the instance
      // itself with an identity retraction and zero folds, which is exactly
      // what `coring` holds, so records and events are bit-identical to the
      // unguarded run.
      ++result.stats.plan_core_certified;
      ++round_plan.core_certified;
    } else {
      CoreResult cored = ComputeCore(current);
      // Aborted mid-search: the partial retraction is not a retraction of
      // anything.
      if (governor->stopped()) {
        coring.aborted = true;
        return coring;
      }
      ++result.stats.core_full;
      coring.retraction = std::move(cored.retraction);
      coring.core = std::move(cored.core);
      coring.folds = cored.folds;
    }
    NoteCertified();
    return coring;
  }

  Coring ReplayedCoring(const Substitution& retraction, size_t folds) {
    ++result.stats.core_full;
    Coring coring;
    coring.retraction = retraction;
    coring.folds = folds;
    return coring;
  }

  // Replaces `current` by its retract under coring.retraction (the one
  // ComputeCore built, or the image computed here) and records the effect
  // into the delta index.
  void Rebuild(Coring& coring) {
    if (delta_on) {
      RecordRetractionDelta(coring.retraction, current, &pending_delta);
    }
    current = coring.core.has_value() ? std::move(*coring.core)
                                      : coring.retraction.Apply(current);
    if (delta_on) current.EnableDeltaJournal();
  }

  // Round-end coring (core.core_at_round_end). False when the run stops here:
  // an aborted ComputeCore mutated nothing — the round's committed
  // applications stand and the amendment simply has not happened yet (resume
  // re-runs it).
  bool RoundEndCoring() {
    if (!is_core || !options.core.core_at_round_end || !progressed) return true;
    const ResumeLog::RoundRecord* recorded = nullptr;
    if (cursor.active) {
      recorded = &replay_log.rounds[cursor.round_index];
      if (!recorded->have_round_end) {
        // The recorded run stopped at this round-end coring boundary; resume
        // runs it live.
        recorded = nullptr;
        GoLive();
        if (!replay_error.ok()) return false;
      }
    }
    if (delta_on) pending_delta.Absorb(current.DrainDelta());
    const size_t size_before = current.size();
    Coring coring = recorded != nullptr
                        ? ReplayedCoring(recorded->round_end_sigma,
                                         recorded->round_end_folds)
                        : LiveCoring();
    if (coring.aborted) {
      budget_stop = true;
      return false;
    }
    if (!coring.retraction.IsIdentity()) {
      Rebuild(coring);
      result.derivation.AmendLastSimplification(coring.retraction,
                                                current.size());
    }
    if (rec != nullptr) {
      rec->rounds.back().have_round_end = true;
      rec->rounds.back().round_end_sigma = coring.retraction;
      rec->rounds.back().round_end_folds = coring.folds;
    }
    if (obs != nullptr) {
      CoreRetractionEvent retraction;
      retraction.step = result.steps;
      retraction.folds = coring.folds;
      retraction.size_before = size_before;
      retraction.size_after = current.size();
      obs->OnCoreRetraction(retraction);
    }
    return true;
  }

  // Closes the round: drops retired matches, reports the round, advances the
  // replay cursor. False when the run ends with this round (fixpoint or size
  // guard).
  bool EndRound() {
    in_round = false;
    if (retire_considered) {
      for (RuleState& state : rule_states) {
        size_t kept = 0;
        for (size_t i = 0; i < state.matches.size(); ++i) {
          if (!state.matches[i].retired) {
            if (kept != i) state.matches[kept] = std::move(state.matches[i]);
            ++kept;
          }
        }
        state.matches.resize(kept);
      }
    }
    if (obs != nullptr) {
      // Match-phase telemetry of the whole round (establishment through
      // application and coring). Emitted only when the round did match work,
      // and skipped by the stock event log unless opted in.
      EmitMatchPlanDelta(result.rounds);
      if (plan_on && round_plan.any()) {
        PlanEvent plan_event;
        plan_event.round = result.rounds;
        plan_event.rules = kb.rules.size();
        plan_event.reliance_edges = exec_plan.graph.edge_count;
        plan_event.strata = exec_plan.strata.size();
        plan_event.dormant_rules = exec_plan.dormant_count;
        plan_event.active_strata = round_plan.active_strata;
        plan_event.enumerations_skipped = round_plan.enumerations_skipped;
        plan_event.probes_skipped = round_plan.probes_skipped;
        plan_event.core_proofs = round_plan.core_proofs;
        plan_event.core_certified = round_plan.core_certified;
        obs->OnPlan(plan_event);
      }
      obs->OnRoundEnd({result.rounds, result.steps - steps_at_round_start,
                       current.size(), progressed});
    }
    if (cursor.active) {
      ++cursor.round_index;
      cursor.bit_index = 0;
    }
    if (!progressed) {
      result.terminated = true;
      return false;
    }
    return !result.size_guard_tripped;
  }

  // Classifies the stop, reports the run's end and moves the live instance
  // into the derivation as its last element.
  void Finish() {
    const MatchPlanEvent totals = MatchTotals();
    result.stats.match_index_probes = totals.index_probes;
    result.stats.match_column_scans = totals.column_scans;
    result.stats.match_index_builds = totals.index_builds;
    result.stats.match_index_build_bytes = totals.index_build_bytes;
    if (budget_stop) {
      result.stop_reason = governor->reason();
    } else if (result.size_guard_tripped) {
      result.stop_reason = StopReason::kInstanceSizeGuard;
    } else if (result.terminated) {
      result.stop_reason = StopReason::kFixpoint;
    } else {
      result.stop_reason = StopReason::kStepBudget;
    }
    result.terminated = result.stop_reason == StopReason::kFixpoint;
    result.size_guard_tripped =
        result.stop_reason == StopReason::kInstanceSizeGuard;
    if (obs != nullptr) {
      if (governor->fault_fired()) {
        obs->OnFaultInjected({governor->fault_site(), governor->fault_visit(),
                              governor->reason()});
      }
      EmitMatchPlanDelta(result.rounds);
      obs->OnRunEnd({result.steps, result.rounds, result.terminated,
                     result.size_guard_tripped, current.size(),
                     result.stop_reason});
    }
    TWCHASE_LOG(Debug) << "chase " << ChaseVariantName(options.variant) << ": "
                       << result.steps << " steps, " << result.rounds
                       << " rounds, stop=" << StopReasonName(result.stop_reason)
                       << ", |F|=" << current.size();
    current.DrainDelta();  // the final element needs no pending delta
    result.derivation.SetFinal(std::move(current));
  }

  const KnowledgeBase& kb;
  const ChaseOptions& options;
  Vocabulary* const vocab;
  // The observer is a read-only tap; every emission site is a single
  // untaken branch when no observer is attached.
  ChaseObserver* const obs;
  const bool is_core;
  const bool delta_on;
  // Monotone variants never erase atoms, so a trigger once applied — or,
  // for the restricted chase, once satisfied — can never become active
  // again: the delta evaluation retires such matches instead of re-checking
  // them every round. Frugal and core runs erase atoms (satisfaction is not
  // stable), so their matches are kept and re-checked.
  const bool retire_considered;
  const bool plan_on;
  const bool core_guard_on;

  ChaseResult result;
  ResumeLog* const rec;

  // The recorded prefix a Resume replays, and the position in it. Set once,
  // when replay reaches the end of the log but the reconstructed state does
  // not match the checkpointed one: `replay_error`.
  ResumeLog replay_log;
  ReplayCursor cursor;
  Status replay_error = Status::OK();

  AtomSet current;

  // Cooperative resource governance: the segment's governor is polled at
  // every trigger/round boundary here and at every search node inside the
  // homomorphism, coring, entailment and treewidth procedures via the
  // ambient scope. Once it stops, nothing past the last committed step is
  // trusted: partial search results are discarded, uncommitted mutations
  // rolled back, and the run returns the consistent prefix. Each segment
  // gets a fresh governor, seeded with the last memory estimate.
  ResourceGovernor* governor = nullptr;
  size_t memory_estimate = 0;
  bool budget_stop = false;
  std::atomic<bool>* pause = nullptr;

  // Ambient chase.match.* telemetry: every homomorphism search of this run
  // (trigger enumeration, satisfaction checks, core folds) folds its
  // probe/scan/build counts in here. Totals are a pure function of the
  // searches performed. `match_reported` holds the totals already reported
  // through MatchPlanEvent, so each round's event carries deltas.
  MatchCounters match_counters;
  MatchPlanEvent match_reported;

  // Still-core guard (plan/core_guard.h). The instance is a certified core
  // exactly while `guard_base_established`: every certified variable was
  // minted before `guard_base_mark` and `guard_atoms_since` holds the atoms
  // added since certification. Certification sites are exactly the live
  // coring successes (initial, per-step, round-end) and guard proofs;
  // replayed retractions never certify (the base predates the replayed
  // mutations).
  bool guard_base_established = false;
  uint32_t guard_base_mark = 0;
  std::vector<Atom> guard_atoms_since;

  std::vector<RuleState> rule_states;
  ExecutionPlan exec_plan;
  std::vector<std::unordered_set<PredicateId>> plan_body_predicates;
  bool skip_dormant = false;
  DeltaIndex pending_delta;
  bool delta_primed = false;
  size_t since_last_core = 0;

  bool began = false;  // Begin() ran (in the first segment)

  // The round in progress, from Order to EndRound: its ordered triggers,
  // the next one to consider, and what the round did so far.
  bool in_round = false;
  std::vector<PendingTrigger> pending;
  size_t next_pending = 0;
  size_t steps_at_round_start = 0;
  RoundPlanStats round_plan;
  bool progressed = false;
  Substitution sigma_round;  // composition of simplifications this round
};

// ---------------------------------------------------------------------------
// ChaseSession

const char* ChaseSessionStateName(ChaseSession::State state) {
  switch (state) {
    case ChaseSession::State::kIdle: return "idle";
    case ChaseSession::State::kRunning: return "running";
    case ChaseSession::State::kPaused: return "paused";
    case ChaseSession::State::kDone: return "done";
  }
  return "unknown";
}

ChaseSession::ChaseSession(const KnowledgeBase& kb, const ChaseOptions& options)
    : kb_(&kb), options_(options) {
  // Cancel() needs a real token: a caller-provided one is kept and shared,
  // otherwise the session mints its own.
  if (!options_.limits.cancel.valid()) {
    options_.limits.cancel = CancelToken::Create();
  }
}

ChaseSession::~ChaseSession() = default;

StatusOr<std::unique_ptr<ChaseSession>> ChaseSession::Create(
    const KnowledgeBase& kb, const ChaseOptions& options) {
  if (kb.vocab == nullptr) {
    return Status::InvalidArgument("knowledge base has no vocabulary");
  }
  TWCHASE_RETURN_IF_ERROR(options.Validate());
  return std::unique_ptr<ChaseSession>(new ChaseSession(kb, options));
}

Status ChaseSession::Enter(State from, std::optional<ResumeLog> replay) {
  State expected = from;
  if (!state_.compare_exchange_strong(expected, State::kRunning,
                                      std::memory_order_acq_rel)) {
    return Status::FailedPrecondition(
        std::string(from == State::kIdle ? "session already started"
                                         : "session is not paused") +
        " (state: " + ChaseSessionStateName(expected) + ")");
  }
  if (from == State::kIdle) {
    run_ = std::make_unique<Run>(*kb_, options_, std::move(replay));
  }
  StatusOr<bool> finished = run_->Advance(&pause_requested_);
  if (!finished.ok()) {
    run_.reset();
    state_.store(State::kDone, std::memory_order_release);
    return finished.status();
  }
  if (*finished) {
    result_ = std::move(run_->result);
    run_.reset();
    has_result_ = true;
  }
  state_.store(*finished ? State::kDone : State::kPaused,
               std::memory_order_release);
  return Status::OK();
}

Status ChaseSession::Start() { return Enter(State::kIdle, std::nullopt); }

Status ChaseSession::Continue() { return Enter(State::kPaused, std::nullopt); }

Status ChaseSession::Resume(const ChaseCheckpoint& checkpoint) {
  // The decision bits are meaningless against a different schedule, and the
  // serialized substitutions refer to the term ids of one exact program.
  if (options_.variant != checkpoint.variant) {
    return Status::FailedPrecondition(
        std::string("resume: checkpoint was recorded with variant '") +
        ChaseVariantName(checkpoint.variant) + "', options request '" +
        ChaseVariantName(options_.variant) + "'");
  }
  if (options_.datalog_first != checkpoint.datalog_first ||
      options_.delta.enabled != checkpoint.delta_enabled ||
      options_.core.core_every != checkpoint.core_every ||
      options_.core.core_at_round_end != checkpoint.core_at_round_end ||
      options_.core.core_initial != checkpoint.core_initial) {
    return Status::FailedPrecondition(
        "resume: schedule-shaping options (datalog_first, delta.enabled, "
        "coring schedule) differ from the recorded run; the decision bits "
        "are meaningless against a different schedule");
  }
  if (CheckpointFingerprint(*kb_, options_) != checkpoint.program_fingerprint) {
    return Status::FailedPrecondition(
        "resume: fingerprint mismatch — the checkpoint belongs to a "
        "different rule set or fact base, or was recorded under a different "
        "--plan setting");
  }
  if (checkpoint.log.have_initial &&
      kb_->vocab->num_variables() != checkpoint.log.initial_num_variables) {
    return Status::FailedPrecondition(
        "resume: vocabulary is not in the recorded run's start state "
        "(expected " +
        std::to_string(checkpoint.log.initial_num_variables) +
        " variables, found " + std::to_string(kb_->vocab->num_variables()) +
        "); re-parse the program into a fresh vocabulary before resuming");
  }
  ResumeLog log = checkpoint.log;
  log.verify_landing = true;
  log.expected_instance_size = checkpoint.instance_size;
  log.expected_instance_hash = checkpoint.instance_hash;
  log.committed_num_variables = checkpoint.expected_variables;
  return Enter(State::kIdle, std::move(log));
}

void ChaseSession::Pause() {
  pause_requested_.store(true, std::memory_order_release);
}

void ChaseSession::Cancel() { options_.limits.cancel.RequestCancel(); }

const ChaseResult& ChaseSession::Result() const {
  TWCHASE_CHECK_MSG(has_result_, "ChaseSession::Result before completion");
  return result_;
}

ChaseResult ChaseSession::TakeResult() {
  TWCHASE_CHECK_MSG(has_result_, "ChaseSession::TakeResult before completion");
  has_result_ = false;
  return std::move(result_);
}

StatusOr<ChaseCheckpoint> ChaseSession::Checkpoint() const {
  const State state = state_.load(std::memory_order_acquire);
  if (state != State::kPaused && state != State::kDone) {
    return Status::FailedPrecondition(
        std::string("cannot checkpoint a session in state '") +
        ChaseSessionStateName(state) + "'");
  }
  if (!options_.resume.record_log || (state == State::kDone && !has_result_)) {
    return Status::FailedPrecondition(
        "cannot checkpoint: the session holds no recorded run "
        "(resume.record_log off, or the result was taken)");
  }
  if (state == State::kDone) return MakeCheckpoint(*kb_, options_, result_);
  // A paused run's last element is its live instance; the format records a
  // paused prefix as cancelled (resume does not read the stop reason).
  ChaseCheckpoint checkpoint = MakeCheckpoint(*kb_, options_, run_->result);
  checkpoint.stop_reason = StopReason::kCancelled;
  checkpoint.instance_size = run_->current.size();
  checkpoint.instance_hash = run_->current.ContentHash();
  return checkpoint;
}

// The one-shot surface: a session that is started once.
StatusOr<ChaseResult> RunChase(const KnowledgeBase& kb,
                               const ChaseOptions& options) {
  auto session = ChaseSession::Create(kb, options);
  if (!session.ok()) return session.status();
  TWCHASE_RETURN_IF_ERROR((*session)->Start());
  return (*session)->TakeResult();
}

}  // namespace twchase
