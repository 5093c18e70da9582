// Brute-force reference for the homomorphism matcher. For seeded random
// targets and patterns, the oracle below tries every map from vars(pattern)
// to terms(target) and keeps those whose image atoms are all live in the
// target; FindAllHomomorphisms with limit = 0 must return exactly that set,
// without duplicates, in every search mode. A bounded search must return a
// prefix of the unbounded one. The oracle uses only the model layer (Atom,
// AtomSet::Contains, Substitution) and shares no code with hom/matcher.cc.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "hom/matcher.h"
#include "model/atom_set.h"
#include "model/predicate.h"
#include "model/substitution.h"

namespace twchase {
namespace {

// A substitution as a sorted list of (variable, image) raw ids, so results
// compare as sets independently of the matcher's enumeration order.
using Canonical = std::vector<std::pair<uint32_t, uint32_t>>;

Canonical Canonicalize(const Substitution& sub) {
  Canonical out;
  for (const auto& [var, term] : sub.map()) out.push_back({var.raw(), term.raw()});
  std::sort(out.begin(), out.end());
  return out;
}

struct Mode {
  std::optional<Term> forbidden;
  bool injective = false;
  bool vars_to_vars = false;
  bool identity_first = true;
  Substitution seed;
};

// Distinct variables of the pattern, in first-occurrence order.
std::vector<Term> PatternVariables(const std::vector<Atom>& pattern) {
  std::vector<Term> vars;
  for (const Atom& atom : pattern) {
    for (Term t : atom.args()) {
      if (t.is_variable() &&
          std::find(vars.begin(), vars.end(), t) == vars.end()) {
        vars.push_back(t);
      }
    }
  }
  return vars;
}

// Every homomorphism pattern → target extending mode.seed, by exhaustive
// enumeration. The modes, as HomOptions defines them:
//   * forbidden: no image atom mentions the term;
//   * vars_to_vars: every variable the search binds maps to a variable;
//   * injective: the variables the search binds map to pairwise distinct
//     terms, none of which is an image of the seed (constants are fixed
//     points of every homomorphism and take no part).
std::vector<Canonical> OracleHomomorphisms(const std::vector<Atom>& pattern,
                                           const AtomSet& target,
                                           const Mode& mode) {
  std::vector<Term> free_vars;
  for (Term v : PatternVariables(pattern)) {
    if (!mode.seed.Lookup(v).has_value()) free_vars.push_back(v);
  }
  const std::vector<Term> terms = target.Terms();
  std::vector<Canonical> out;
  if (terms.empty() && !free_vars.empty()) return out;
  std::vector<size_t> choice(free_vars.size(), 0);
  // The image of a pattern term under the current choice vector.
  auto image_of = [&](Term t) {
    for (size_t i = 0; i < free_vars.size(); ++i) {
      if (free_vars[i] == t) return terms[choice[i]];
    }
    return mode.seed.Apply(t);  // seeded variable or constant
  };
  while (true) {
    bool ok = true;
    for (size_t i = 0; ok && i < free_vars.size(); ++i) {
      const Term image = terms[choice[i]];
      if (mode.vars_to_vars && !image.is_variable()) ok = false;
      if (mode.injective) {
        for (size_t j = 0; ok && j < i; ++j) {
          if (terms[choice[j]] == image) ok = false;
        }
        for (const auto& [var, seeded] : mode.seed.map()) {
          if (seeded == image) ok = false;
        }
      }
    }
    for (size_t a = 0; ok && a < pattern.size(); ++a) {
      std::vector<Term> args;
      for (Term t : pattern[a].args()) {
        args.push_back(image_of(t));
        if (mode.forbidden == args.back()) ok = false;
      }
      if (ok && !target.Contains(Atom(pattern[a].predicate(), args))) {
        ok = false;
      }
    }
    if (ok) {
      Substitution sub = mode.seed;
      for (size_t i = 0; i < free_vars.size(); ++i) {
        sub.Bind(free_vars[i], terms[choice[i]]);
      }
      out.push_back(Canonicalize(sub));
    }
    // Next choice vector (odometer); done after the last one.
    size_t pos = 0;
    while (pos < choice.size() && ++choice[pos] == terms.size()) {
      choice[pos++] = 0;
    }
    if (pos == choice.size()) break;
  }
  std::sort(out.begin(), out.end());
  return out;
}

HomOptions ToOptions(const Mode& mode, size_t limit) {
  HomOptions options;
  options.limit = limit;
  options.seed = mode.seed;
  options.forbidden_image_term = mode.forbidden;
  options.injective = mode.injective;
  options.vars_to_vars = mode.vars_to_vars;
  options.identity_first = mode.identity_first;
  return options;
}

// One random world: a fixed signature (arities 1 to 3), a small pool of
// constants and nulls for the target, and pattern-only variables.
class RandomWorld {
 public:
  explicit RandomWorld(uint64_t seed) : rng_(seed) {
    predicates_ = {{vocab_.MustPredicate("a", 1), 1},
                   {vocab_.MustPredicate("b", 2), 2},
                   {vocab_.MustPredicate("c", 2), 2},
                   {vocab_.MustPredicate("d", 3), 3}};
    absent_ = vocab_.MustPredicate("e", 2);
    for (int i = 0; i < 3; ++i) {
      pool_.push_back(vocab_.Constant("k" + std::to_string(i)));
    }
    for (int i = 0; i < 4; ++i) {
      pool_.push_back(vocab_.NamedVariable("N" + std::to_string(i)));
    }
    for (int i = 0; i < 3; ++i) {
      pattern_vars_.push_back(vocab_.NamedVariable("X" + std::to_string(i)));
    }
  }

  size_t Uniform(size_t n) { return static_cast<size_t>(rng_() % n); }
  bool Coin(int percent) { return Uniform(100) < static_cast<size_t>(percent); }

  // Up to 15 live atoms, with erased (tombstoned) and re-inserted ones; in
  // some worlds enough churn to force a slot compaction.
  AtomSet MakeTarget() {
    AtomSet target;
    std::vector<Atom> inserted;
    const size_t count = 1 + Uniform(15);
    while (target.size() < count && inserted.size() < 60) {
      Atom atom = RandomAtom(pool_);
      if (target.Insert(atom)) inserted.push_back(atom);
    }
    for (const Atom& atom : inserted) {
      if (Coin(20)) target.Erase(atom);
    }
    for (const Atom& atom : inserted) {
      if (!target.Contains(atom) && Coin(30)) target.Insert(atom);
    }
    if (Coin(10)) {
      // >= 64 tombstones outnumbering the live atoms trigger a compaction.
      for (int i = 0; i < 70; ++i) {
        Atom filler(predicates_[0].first,
                    {vocab_.Constant("filler" + std::to_string(i))});
        target.Insert(filler);
        target.Erase(filler);
      }
    }
    return target;
  }

  // One to three atoms. Endomorphism-style patterns are live target atoms
  // with some terms replaced by pattern variables; the rest are random atoms
  // over pattern variables, pool terms and repeated variables.
  std::vector<Atom> MakePattern(const AtomSet& target) {
    std::vector<Atom> pattern;
    const std::vector<Atom> live = target.Atoms();
    const size_t count = 1 + Uniform(3);
    std::vector<Term> terms = pattern_vars_;
    terms.push_back(PoolTerm());
    for (size_t i = 0; i < count; ++i) {
      if (!live.empty() && Coin(50)) {
        const Atom& source = live[Uniform(live.size())];
        std::vector<Term> args = source.args();
        for (Term& t : args) {
          if (Coin(25)) t = pattern_vars_[Uniform(pattern_vars_.size())];
        }
        pattern.push_back(Atom(source.predicate(), std::move(args)));
      } else if (Coin(5)) {
        pattern.push_back(
            Atom(absent_, {pattern_vars_[0], pattern_vars_[1]}));
      } else {
        pattern.push_back(RandomAtom(terms));
      }
    }
    // Deduplicate, keeping order, and keep at most four variables so the
    // oracle's exhaustive enumeration stays small.
    std::vector<Atom> unique;
    for (const Atom& atom : pattern) {
      if (std::find(unique.begin(), unique.end(), atom) == unique.end()) {
        unique.push_back(atom);
      }
    }
    while (unique.size() > 1 && PatternVariables(unique).size() > 4) {
      unique.pop_back();
    }
    return unique;
  }

  // A seed binding one pattern variable to a pool term, sometimes with an
  // entry for a variable outside the pattern riding along.
  Substitution MakeSeed(const std::vector<Atom>& pattern) {
    Substitution seed;
    const std::vector<Term> vars = PatternVariables(pattern);
    if (!vars.empty()) {
      seed.Bind(vars[Uniform(vars.size())], PoolTerm());
    }
    if (Coin(30)) {
      seed.Bind(vocab_.NamedVariable("Outside"), PoolTerm());
    }
    return seed;
  }

  Term PoolTerm() { return pool_[Uniform(pool_.size())]; }

 private:
  Atom RandomAtom(const std::vector<Term>& terms) {
    const auto& [predicate, arity] = predicates_[Uniform(predicates_.size())];
    std::vector<Term> args;
    for (uint32_t i = 0; i < arity; ++i) {
      // Repeat an earlier argument now and then.
      if (i > 0 && Coin(20)) {
        args.push_back(args[Uniform(args.size())]);
      } else {
        args.push_back(terms[Uniform(terms.size())]);
      }
    }
    return Atom(predicate, std::move(args));
  }

  std::mt19937_64 rng_;
  Vocabulary vocab_;
  std::vector<std::pair<PredicateId, uint32_t>> predicates_;
  PredicateId absent_ = 0;  // in the signature, never in a target
  std::vector<Term> pool_;
  std::vector<Term> pattern_vars_;
};

std::string Describe(const std::vector<Atom>& pattern, const AtomSet& target,
                     const Mode& mode) {
  std::string out = "pattern of " + std::to_string(pattern.size()) +
                    " atoms into " + std::to_string(target.size()) +
                    " live atoms (" + std::to_string(target.dead_slots()) +
                    " tombstones); seed " + std::to_string(mode.seed.size()) +
                    (mode.forbidden.has_value() ? ", forbidden" : "") +
                    (mode.injective ? ", injective" : "") +
                    (mode.vars_to_vars ? ", vars-to-vars" : "") +
                    (mode.identity_first ? ", identity-first" : "");
  return out;
}

// Returns whether the search found at least one homomorphism.
bool CheckAgainstOracle(const std::vector<Atom>& pattern_atoms,
                        const AtomSet& target, const Mode& mode) {
  SCOPED_TRACE(Describe(pattern_atoms, target, mode));
  const AtomSet pattern = AtomSet::FromAtoms(pattern_atoms);
  const std::vector<Canonical> want =
      OracleHomomorphisms(pattern_atoms, target, mode);
  const std::vector<Substitution> all =
      FindAllHomomorphisms(pattern, target, ToOptions(mode, 0));
  std::vector<Canonical> got;
  for (const Substitution& sub : all) got.push_back(Canonicalize(sub));
  std::sort(got.begin(), got.end());
  EXPECT_EQ(std::adjacent_find(got.begin(), got.end()), got.end())
      << "duplicate homomorphism";
  EXPECT_EQ(got, want);
  // A bounded search is a prefix of the unbounded enumeration.
  for (size_t k : {size_t{1}, size_t{2}, all.size() + 1}) {
    const std::vector<Substitution> first =
        FindAllHomomorphisms(pattern, target, ToOptions(mode, k));
    EXPECT_EQ(first.size(), std::min(k, all.size())) << "limit " << k;
    for (size_t i = 0; i < std::min(first.size(), all.size()); ++i) {
      EXPECT_EQ(first[i], all[i]) << "limit " << k << ", result " << i;
    }
  }
  return !want.empty();
}

TEST(HomOracleTest, MatcherAgreesWithBruteForceInEveryMode) {
  constexpr uint64_t kWorlds = 1000;
  constexpr int kModes = 32;
  size_t nonempty[kModes] = {};
  for (uint64_t world_seed = 1; world_seed <= kWorlds; ++world_seed) {
    RandomWorld world(world_seed);
    const AtomSet target = world.MakeTarget();
    const std::vector<Atom> pattern = world.MakePattern(target);
    const Substitution seed = world.MakeSeed(pattern);
    const Term forbidden = world.PoolTerm();
    for (int bits = 0; bits < kModes; ++bits) {
      Mode mode;
      if (bits & 1) mode.seed = seed;
      if (bits & 2) mode.forbidden = forbidden;
      mode.injective = (bits & 4) != 0;
      mode.vars_to_vars = (bits & 8) != 0;
      mode.identity_first = (bits & 16) != 0;
      if (CheckAgainstOracle(pattern, target, mode)) ++nonempty[bits];
      if (testing::Test::HasFailure()) return;
    }
  }
  // Every mode must see searches that find something, or the comparison
  // above proves little for it.
  for (int bits = 0; bits < kModes; ++bits) {
    EXPECT_GT(nonempty[bits], kWorlds / 20) << "mode bits " << bits;
  }
}

}  // namespace
}  // namespace twchase
