// The unified engine layer (src/engine/): registry lookup, cross-engine
// verdict parity on equivalent and mutated multiplier pairs, the
// budget-semantics contract (search budgets dry = Ok(kUnknown),
// representation budgets tripped = kResourceExhausted), and the acceptance
// check that a millisecond deadline stops *every* engine at the paper-scale
// k = 163 instance with kDeadlineExceeded.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "certify/certify.h"
#include "circuit/mastrovito.h"
#include "circuit/montgomery.h"
#include "circuit/mutate.h"
#include "engine/registry.h"
#include "engine/report.h"
#include "test_util.h"
#include "util/json_reader.h"

namespace gfa::engine {
namespace {

/// Budgets that keep every engine's unit-test run bounded: search budgets
/// (conflicts, reductions) may run dry — that is Ok(kUnknown) by contract —
/// while the fast engines still reach a definitive verdict. At k = 8 the
/// slow baselines (SAT proof, unguided Buchberger) are well past their
/// exponential wall, so their budgets shrink to keep the suite quick.
RunOptions budgeted_options(unsigned k) {
  RunOptions options;
  options.sat_conflict_limit = k >= 8 ? 2000 : 20000;
  options.gb_max_reductions = k >= 8 ? 200 : 2000;
  options.gb_max_poly_terms = k >= 8 ? 2000 : 0;
  return options;
}

TEST(EngineRegistry, GlobalHasTheSevenBuiltinsInOrder) {
  const std::vector<std::string> names = EngineRegistry::global().names();
  const std::vector<std::string> expected = {
      "abstraction", "sat",     "fraig",           "bdd",
      "full-gb",     "ideal-membership", "portfolio"};
  EXPECT_EQ(names, expected);
}

TEST(EngineRegistry, EnginesDescribeThemselves) {
  for (const EquivEngine* engine : EngineRegistry::global().engines()) {
    EXPECT_FALSE(engine->name().empty());
    EXPECT_FALSE(engine->description().empty());
    EXPECT_EQ(EngineRegistry::global().find(engine->name()), engine);
  }
}

TEST(EngineRegistry, FindUnknownReturnsNull) {
  EXPECT_EQ(EngineRegistry::global().find("no-such-engine"), nullptr);
}

TEST(EngineRegistry, RequireUnknownIsInvalidArgumentListingTheFleet) {
  const Result<const EquivEngine*> r =
      EngineRegistry::global().require("no-such-engine");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("abstraction"), std::string::npos);
  EXPECT_NE(r.status().message().find("ideal-membership"), std::string::npos);
}

TEST(EngineRegistry, VerdictNames) {
  EXPECT_STREQ(verdict_name(Verdict::kEquivalent), "equivalent");
  EXPECT_STREQ(verdict_name(Verdict::kNotEquivalent), "not-equivalent");
  EXPECT_STREQ(verdict_name(Verdict::kUnknown), "unknown");
}

class EngineParity : public ::testing::TestWithParam<unsigned> {};

TEST_P(EngineParity, AllDefinitiveVerdictsSayEquivalentOnMatchingPair) {
  const Gf2k field = Gf2k::make(GetParam());
  const Netlist spec = make_mastrovito_multiplier(field);
  const Netlist impl = make_montgomery_multiplier_flat(field);
  for (const EquivEngine* engine : EngineRegistry::global().engines()) {
    const EngineRun run =
        run_engine(*engine, spec, impl, field, budgeted_options(GetParam()));
    ASSERT_TRUE(run.status.ok())
        << engine->name() << ": " << run.status.to_string();
    if (run.verdict != Verdict::kUnknown) {
      EXPECT_EQ(run.verdict, Verdict::kEquivalent)
          << engine->name() << ": " << run.detail;
    }
  }
  // The paper's method must be definitive, not merely non-contradictory.
  const EngineRun abs = run_engine(*EngineRegistry::global().find("abstraction"),
                                   spec, impl, field, budgeted_options(GetParam()));
  EXPECT_EQ(abs.verdict, Verdict::kEquivalent);
}

TEST_P(EngineParity, DefinitiveVerdictsAgreeOnMutants) {
  const Gf2k field = Gf2k::make(GetParam());
  const Netlist spec = make_mastrovito_multiplier(field);
  const Netlist golden = make_montgomery_multiplier_flat(field);
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    BugDescription desc;
    const Netlist impl = inject_random_bug(golden, seed, &desc);
    const EngineRun abs = run_engine(
        *EngineRegistry::global().find("abstraction"), spec, impl, field,
        budgeted_options(GetParam()));
    ASSERT_TRUE(abs.status.ok()) << abs.status.to_string();
    ASSERT_NE(abs.verdict, Verdict::kUnknown);
    for (const EquivEngine* engine : EngineRegistry::global().engines()) {
      const EngineRun run =
          run_engine(*engine, spec, impl, field, budgeted_options(GetParam()));
      ASSERT_TRUE(run.status.ok())
          << engine->name() << ": " << run.status.to_string();
      if (run.verdict != Verdict::kUnknown) {
        EXPECT_EQ(run.verdict, abs.verdict)
            << engine->name() << " disagrees on seed=" << seed
            << " bug=" << desc.text;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, EngineParity, ::testing::Values(4u, 8u));

// ---------------------------------------------------------------------------
// Budget semantics.

TEST(EngineBudgets, SatConflictBudgetDryIsOkUnknown) {
  const Gf2k field = Gf2k::make(8);
  const Netlist spec = make_mastrovito_multiplier(field);
  const Netlist impl = make_montgomery_multiplier_flat(field);
  RunOptions options;
  options.sat_conflict_limit = 10;
  const Result<VerifyResult> r = EngineRegistry::global().find("sat")->verify(
      spec, impl, field, options);
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  EXPECT_EQ(r->verdict, Verdict::kUnknown);
  EXPECT_NE(r->detail.find("budget"), std::string::npos);
}

TEST(EngineBudgets, FullGbReductionBudgetDryIsOkUnknown) {
  const Gf2k field = Gf2k::make(4);
  const Netlist spec = make_mastrovito_multiplier(field);
  const Netlist impl = make_montgomery_multiplier_flat(field);
  RunOptions options;
  options.gb_max_reductions = 1;
  const Result<VerifyResult> r =
      EngineRegistry::global().find("full-gb")->verify(spec, impl, field,
                                                       options);
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  EXPECT_EQ(r->verdict, Verdict::kUnknown);
}

TEST(EngineBudgets, BddNodeBudgetTripIsResourceExhausted) {
  const Gf2k field = Gf2k::make(8);
  const Netlist spec = make_mastrovito_multiplier(field);
  const Netlist impl = make_montgomery_multiplier_flat(field);
  RunOptions options;
  options.bdd_node_limit = 100;
  const Result<VerifyResult> r = EngineRegistry::global().find("bdd")->verify(
      spec, impl, field, options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST(EngineBudgets, AbstractionTermBudgetTripIsResourceExhausted) {
  const Gf2k field = Gf2k::make(8);
  const Netlist spec = make_mastrovito_multiplier(field);
  const Netlist impl = make_montgomery_multiplier_flat(field);
  RunOptions options;
  options.max_terms = 2;
  const Result<VerifyResult> r =
      EngineRegistry::global().find("abstraction")->verify(spec, impl, field,
                                                           options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST(EngineBudgets, MismatchedInterfacesAreInvalidArgument) {
  const Gf2k f2 = Gf2k::make(2);
  const Gf2k f3 = Gf2k::make(3);
  const Netlist a = make_mastrovito_multiplier(f2);
  const Netlist b = make_mastrovito_multiplier(f3);
  const Result<VerifyResult> r =
      EngineRegistry::global().find("sat")->verify(a, b, f2, RunOptions{});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Deadlines and cancellation at the paper-scale instance. This is the
// acceptance criterion for the engine layer: a ~1 ms deadline must stop every
// engine on the k = 163 (NIST B-163) pair with kDeadlineExceeded — none of
// them can finish a 163-bit multiplier proof in a millisecond, and none may
// run away past the deadline either.

TEST(EngineDeadlines, MillisecondDeadlineStopsEveryEngineAt163) {
  const Gf2k field = Gf2k::make(163);
  const Netlist spec = make_mastrovito_multiplier(field);
  const Netlist impl = make_montgomery_multiplier_flat(field);
  for (const EquivEngine* engine : EngineRegistry::global().engines()) {
    RunOptions options;
    options.control.deadline = Deadline::after(0.001);
    const Result<VerifyResult> r = engine->verify(spec, impl, field, options);
    ASSERT_FALSE(r.ok()) << engine->name() << " ignored the deadline";
    EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded)
        << engine->name() << ": " << r.status().to_string();
  }
}

TEST(EngineDeadlines, CancellationWinsAndStopsEveryEngineAt163) {
  const Gf2k field = Gf2k::make(163);
  const Netlist spec = make_mastrovito_multiplier(field);
  const Netlist impl = make_montgomery_multiplier_flat(field);
  for (const EquivEngine* engine : EngineRegistry::global().engines()) {
    RunOptions options;
    options.control.deadline = Deadline::after(0.001);
    options.control.cancel.request_cancel();  // pre-fired: kCancelled wins
    const Result<VerifyResult> r = engine->verify(spec, impl, field, options);
    ASSERT_FALSE(r.ok()) << engine->name() << " ignored the cancellation";
    EXPECT_EQ(r.status().code(), StatusCode::kCancelled)
        << engine->name() << ": " << r.status().to_string();
  }
}

TEST(EngineRun, RefutationCarriesReplayedCounterexampleIntoTheReport) {
  const Gf2k field = Gf2k::make(4);
  const Netlist spec = make_mastrovito_multiplier(field);
  const EquivEngine* abstraction =
      EngineRegistry::global().find("abstraction");
  ASSERT_NE(abstraction, nullptr);
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    const Netlist buggy = inject_random_bug(spec, seed);
    const EngineRun run =
        run_engine(*abstraction, spec, buggy, field, RunOptions{});
    ASSERT_TRUE(run.status.ok()) << run.status.to_string();
    if (run.verdict != Verdict::kNotEquivalent) continue;  // benign mutation

    // The typed witness: simulator-replayed concrete field elements.
    ASSERT_FALSE(run.counterexample.empty());
    EXPECT_TRUE(run.counterexample.replayed);
    EXPECT_FALSE(run.counterexample.inputs.empty());
    EXPECT_NE(run.counterexample.expected, run.counterexample.actual);

    // And its JSON shape in the report.
    std::ostringstream out;
    write_run_report(out, "verify", 4, {run});
    const Result<JsonValue> report = parse_json(out.str());
    ASSERT_TRUE(report.ok()) << report.status().to_string();
    const JsonValue* runs = report->find("runs");
    ASSERT_NE(runs, nullptr);
    ASSERT_EQ(runs->items().size(), 1u);
    const JsonValue* cex = runs->items()[0].find("counterexample");
    ASSERT_NE(cex, nullptr);
    EXPECT_TRUE(cex->bool_or("replayed", false));
    EXPECT_FALSE(cex->string_or("output_word", "").empty());
    EXPECT_FALSE(cex->string_or("expected", "").empty());
    const JsonValue* inputs = cex->find("inputs");
    ASSERT_NE(inputs, nullptr);
    EXPECT_FALSE(inputs->members().empty());
    return;
  }
  FAIL() << "no mutation seed in 1..32 produced a refutation";
}

// ---------------------------------------------------------------------------
// The simulation round ahead of the reduction chain.

TEST(AbstractionRefutation, OneSimulationRoundRefutesAMutantBeforeTheChain) {
  const Gf2k field = Gf2k::make(16);
  const Netlist spec = make_mastrovito_multiplier(field);
  const Netlist impl =
      inject_random_bug(make_montgomery_multiplier_flat(field), 1);
  RunOptions options;
  options.export_canonical = true;
  const Result<VerifyResult> r =
      EngineRegistry::global().find("abstraction")->verify(spec, impl, field,
                                                           options);
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  EXPECT_EQ(r->verdict, Verdict::kNotEquivalent);
  EXPECT_NE(r->detail.find("refuted by simulation"), std::string::npos)
      << r->detail;
  EXPECT_TRUE(r->counterexample.replayed);
  EXPECT_NE(r->counterexample.expected, r->counterexample.actual);
  EXPECT_EQ(r->stats.at("refuted_by_simulation"), 1.0);
  EXPECT_EQ(r->stats.at("spec_substitutions"), 0.0);
  EXPECT_EQ(r->stats.at("impl_substitutions"), 0.0);
  // No chain ran, so there is no canonical form to export.
  EXPECT_TRUE(r->canonical_spec.empty());
  EXPECT_TRUE(r->canonical_impl.empty());
}

TEST(AbstractionRefutation, PairTheRoundCannotSeparateDecidesThroughTheChain) {
  const Gf2k field = Gf2k::make(4);
  const Netlist spec = make_mastrovito_multiplier(field);
  const Netlist impl = test::bug_the_round_misses(spec, field);
  // Premise: the round's 64 random lanes miss the single differing point.
  ASSERT_FALSE(
      certify::find_random_simulation_witness(spec, impl, field, 1).has_value());
  const EngineRun run =
      run_engine(*EngineRegistry::global().find("abstraction"), spec, impl,
                 field, RunOptions{});
  ASSERT_TRUE(run.status.ok()) << run.status.to_string();
  EXPECT_EQ(run.verdict, Verdict::kNotEquivalent);
  EXPECT_NE(run.detail.find("coefficients differ"), std::string::npos)
      << run.detail;
  EXPECT_EQ(run.stats.at("refuted_by_simulation"), 0.0);
  EXPECT_GT(run.stats.at("impl_substitutions"), 0.0);
  EXPECT_TRUE(run.counterexample.replayed);
}

TEST(AbstractionRefutation, WordsOfAnotherWidthAreStillInvalidArgument) {
  // A mutant pair of 4-bit words verified over F_2^8: the round must not
  // answer for circuits the chain rejects.
  const Gf2k f4 = Gf2k::make(4);
  const Netlist spec = make_mastrovito_multiplier(f4);
  const Netlist impl =
      inject_random_bug(make_montgomery_multiplier_flat(f4), 1);
  const Result<VerifyResult> r =
      EngineRegistry::global().find("abstraction")->verify(
          spec, impl, Gf2k::make(8), RunOptions{});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(AbstractionRefutation, EquivalentPairStillGoesThroughTheChain) {
  const Gf2k field = Gf2k::make(8);
  const Result<VerifyResult> r =
      EngineRegistry::global().find("abstraction")->verify(
          make_mastrovito_multiplier(field),
          make_montgomery_multiplier_flat(field), field, RunOptions{});
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  EXPECT_EQ(r->verdict, Verdict::kEquivalent);
  EXPECT_EQ(r->stats.at("refuted_by_simulation"), 0.0);
  EXPECT_GT(r->stats.at("spec_substitutions"), 0.0);
}

TEST(EngineRun, TimesTheCallAndNeverThrows) {
  const Gf2k field = Gf2k::make(4);
  const Netlist spec = make_mastrovito_multiplier(field);
  const Netlist impl = make_montgomery_multiplier_flat(field);
  const EngineRun run =
      run_engine(*EngineRegistry::global().find("abstraction"), spec, impl,
                 field, RunOptions{});
  EXPECT_TRUE(run.status.ok());
  EXPECT_EQ(run.engine, "abstraction");
  EXPECT_EQ(run.verdict, Verdict::kEquivalent);
  EXPECT_GE(run.wall_ms, 0.0);
  EXPECT_FALSE(run.stats.empty());
}

}  // namespace
}  // namespace gfa::engine
