// Stress and fuzz-ish tests: parser robustness on malformed input,
// vocabulary scaling, and the robust aggregation on frugal (non-core,
// non-monotonic) derivations — Definition 15 applies to *any* derivation.
#include <gtest/gtest.h>

#include <string>

#include "core/chase.h"
#include "core/robust.h"
#include "hom/matcher.h"
#include "kb/examples.h"
#include "parser/parser.h"
#include "tw/treewidth.h"
#include "util/random.h"

namespace twchase {
namespace {

TEST(ParserFuzzTest, MalformedInputsReturnStatusNotCrash) {
  const char* inputs[] = {
      "",
      ".",
      "p",
      "p(",
      "p()",
      "p(a",
      "p(a))",
      ":-",
      "? :-",
      "?()",
      "?(X) :-",
      "[ p(a).",
      "[] p(a) :- q(a).",
      "p(a) :- .",
      "p(a) :- q(b) r(c).",
      "p(a, b) :- q(X), .",
      "p(a). p(a, b).",
      "p(a)..",
      "¿(a).",
      "p(a) q(b).",
  };
  for (const char* input : inputs) {
    auto program = ParseProgram(input);
    if (std::string(input).empty()) {
      EXPECT_TRUE(program.ok());
      continue;
    }
    // Either parses or reports a structured error — never crashes.
    if (!program.ok()) {
      EXPECT_FALSE(program.status().message().empty()) << input;
    }
  }
}

TEST(ParserFuzzTest, RandomTokenSoup) {
  Rng rng(2023);
  const char* pieces[] = {"p", "q(", ")", ",", ".", ":-", "?", "X", "a",
                          "[", "]", "(", "%c\n"};
  for (int trial = 0; trial < 200; ++trial) {
    std::string soup;
    int len = static_cast<int>(rng.Uniform(1, 15));
    for (int i = 0; i < len; ++i) {
      soup += pieces[rng.Uniform(0, std::size(pieces) - 1)];
      soup += ' ';
    }
    auto program = ParseProgram(soup);  // must not crash or hang
    (void)program;
  }
}

TEST(VocabularyStressTest, ManyFreshVariablesStayDistinct) {
  Vocabulary vocab;
  std::vector<Term> vars;
  for (int i = 0; i < 5000; ++i) vars.push_back(vocab.FreshVariable());
  // Distinct ids, distinct names, ranks strictly increasing.
  for (size_t i = 1; i < vars.size(); ++i) {
    EXPECT_LT(vars[i - 1].rank(), vars[i].rank());
  }
  EXPECT_EQ(vocab.num_variables(), 5000u);
  EXPECT_NE(vocab.TermName(vars[0]), vocab.TermName(vars[4999]));
}

TEST(VocabularyStressTest, FreshVariableHintCollision) {
  Vocabulary vocab;
  // Engineer a name collision with a generated hint name.
  Term planted = vocab.NamedVariable("_Z_1");
  Term z0 = vocab.NamedVariable("Z");
  (void)z0;
  Term fresh = vocab.FreshVariable("Z");  // would want "_Z_2"... or collide
  EXPECT_NE(fresh, planted);
  EXPECT_NE(vocab.TermName(fresh), vocab.TermName(planted));
}

TEST(RobustOnFrugalTest, AggregationIsFinitelyUniversalPrefix) {
  // The frugal chase produces non-monotonic, non-core derivations; the
  // robust machinery must still work: G_i ≅ F_i, U ⊆ G, and the aggregate
  // maps into the closed-form models.
  StaircaseWorld world;
  ChaseOptions options;
  options.variant = ChaseVariant::kFrugal;
  options.limits.max_steps = 35;
  auto run = RunChase(world.kb(), options);
  ASSERT_TRUE(run.ok());
  RobustAggregator agg = RobustAggregator::FromDerivation(run->derivation);
  EXPECT_TRUE(agg.Aggregate().IsSubsetOf(agg.CurrentG()));
  EXPECT_TRUE(
      ExistsHomomorphism(agg.Aggregate(), world.UniversalModelPrefix(8)));
  // Proposition 12 direction: treewidth of the aggregate is bounded by the
  // observed sequence bound.
  int max_tw = -1;
  DerivationCursor cursor(run->derivation);
  do {
    max_tw = std::max(max_tw,
                      ComputeTreewidth(cursor.instance()).upper_bound);
  } while (cursor.Next());
  EXPECT_LE(ComputeTreewidth(agg.Aggregate()).upper_bound, max_tw);
}

TEST(LargeChaseSmokeTest, LongTransitiveClosure) {
  // A larger terminating chase end-to-end (hundreds of applications).
  auto kb = MakeTransitiveClosure(12);
  ChaseOptions options;
  options.variant = ChaseVariant::kRestricted;
  options.limits.max_steps = 2000;
  auto run = RunChase(kb, options);
  ASSERT_TRUE(run.ok());
  EXPECT_TRUE(run->terminated);
  // 12 e-atoms + 12·13/2 t-atoms.
  EXPECT_EQ(run->derivation.Last().size(), 12u + 78u);
}

}  // namespace
}  // namespace twchase
