// Tests for the portfolio meta-engine (src/engine/portfolio.cpp): escalation
// order, fall-through on mem-out/unknown, skip-after-definitive, racing, the
// composed failure status, and the attempt history in the JSON report.

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "circuit/mastrovito.h"
#include "circuit/montgomery.h"
#include "circuit/mutate.h"
#include "engine/registry.h"
#include "engine/report.h"
#include "test_util.h"

namespace gfa::engine {
namespace {

const EquivEngine& portfolio() {
  return *EngineRegistry::global().find("portfolio");
}

TEST(Portfolio, IsRegisteredAndManagesItsOwnBudgets) {
  EXPECT_EQ(portfolio().name(), "portfolio");
  EXPECT_TRUE(portfolio().manages_budget());
  EXPECT_FALSE(
      EngineRegistry::global().find("abstraction")->manages_budget());
}

TEST(Portfolio, FirstAttemptMemsOutFallbackDecidesEquivalent) {
  const Gf2k field = Gf2k::make(4);
  const Netlist spec = make_mastrovito_multiplier(field);
  const Netlist impl = make_montgomery_multiplier_flat(field);
  RunOptions options;
  options.portfolio_engines = {"abstraction", "sat"};
  options.max_terms = 2;  // deterministic mem-out for the abstraction attempt
  const Result<VerifyResult> r = portfolio().verify(spec, impl, field, options);
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  EXPECT_EQ(r->verdict, Verdict::kEquivalent);
  EXPECT_NE(r->detail.find("sat"), std::string::npos);
  ASSERT_EQ(r->attempts.size(), 2u);
  EXPECT_EQ(r->attempts[0].engine, "abstraction");
  EXPECT_FALSE(r->attempts[0].skipped);
  EXPECT_EQ(r->attempts[0].status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(r->attempts[1].engine, "sat");
  EXPECT_TRUE(r->attempts[1].status.ok());
  EXPECT_EQ(r->attempts[1].verdict, Verdict::kEquivalent);
  EXPECT_EQ(r->stats.at("attempts_run"), 2.0);
}

TEST(Portfolio, FallbackAlsoDecidesNotEquivalentOnABuggyImpl) {
  // A bug at a single input point: the abstraction's simulation round
  // misses it, so attempt 0 reaches the chain and mems out there.
  const Gf2k field = Gf2k::make(4);
  const Netlist spec = make_mastrovito_multiplier(field);
  const Netlist impl = test::bug_the_round_misses(spec, field);
  RunOptions options;
  options.portfolio_engines = {"abstraction", "sat"};
  options.max_terms = 2;
  const Result<VerifyResult> r = portfolio().verify(spec, impl, field, options);
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  EXPECT_EQ(r->verdict, Verdict::kNotEquivalent);
  ASSERT_EQ(r->attempts.size(), 2u);
  EXPECT_EQ(r->attempts[0].status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(r->attempts[1].verdict, Verdict::kNotEquivalent);
}

TEST(Portfolio, SimulationRefutedFirstAttemptSkipsTheFallback) {
  // A random mutant is refuted by the abstraction's simulation round before
  // the chain, so its term budget never comes into play.
  const Gf2k field = Gf2k::make(4);
  const Netlist spec = make_mastrovito_multiplier(field);
  const Netlist impl =
      inject_random_bug(make_montgomery_multiplier_flat(field), 1);
  RunOptions options;
  options.portfolio_engines = {"abstraction", "sat"};
  options.max_terms = 2;
  const Result<VerifyResult> r = portfolio().verify(spec, impl, field, options);
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  EXPECT_EQ(r->verdict, Verdict::kNotEquivalent);
  ASSERT_EQ(r->attempts.size(), 2u);
  EXPECT_TRUE(r->attempts[0].status.ok());
  EXPECT_EQ(r->attempts[0].verdict, Verdict::kNotEquivalent);
  EXPECT_NE(r->attempts[0].detail.find("refuted by simulation"),
            std::string::npos);
  EXPECT_TRUE(r->attempts[1].skipped);
}

TEST(Portfolio, DefinitiveFirstAttemptSkipsTheRest) {
  const Gf2k field = Gf2k::make(4);
  const Netlist spec = make_mastrovito_multiplier(field);
  const Netlist impl = make_montgomery_multiplier_flat(field);
  const Result<VerifyResult> r =
      portfolio().verify(spec, impl, field, RunOptions{});
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  EXPECT_EQ(r->verdict, Verdict::kEquivalent);
  ASSERT_EQ(r->attempts.size(), 3u);  // default abstraction → IM → sat
  EXPECT_FALSE(r->attempts[0].skipped);
  EXPECT_TRUE(r->attempts[1].skipped);
  EXPECT_TRUE(r->attempts[2].skipped);
  EXPECT_NE(r->attempts[1].detail.find("abstraction"), std::string::npos);
  EXPECT_EQ(r->stats.at("attempts_run"), 1.0);
  EXPECT_EQ(r->stats.at("attempts_total"), 3.0);
}

TEST(Portfolio, UnknownAttemptFallsThroughToADecider) {
  const Gf2k field = Gf2k::make(4);
  const Netlist spec = make_mastrovito_multiplier(field);
  const Netlist impl = make_montgomery_multiplier_flat(field);
  RunOptions options;
  options.portfolio_engines = {"full-gb", "sat"};
  options.gb_max_reductions = 1;  // full-gb runs dry: Ok(kUnknown)
  const Result<VerifyResult> r = portfolio().verify(spec, impl, field, options);
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  EXPECT_EQ(r->verdict, Verdict::kEquivalent);
  ASSERT_EQ(r->attempts.size(), 2u);
  EXPECT_TRUE(r->attempts[0].status.ok());
  EXPECT_EQ(r->attempts[0].verdict, Verdict::kUnknown);
}

TEST(Portfolio, AllAttemptsUndecidedIsOkUnknown) {
  const Gf2k field = Gf2k::make(8);
  const Netlist spec = make_mastrovito_multiplier(field);
  const Netlist impl = make_montgomery_multiplier_flat(field);
  RunOptions options;
  options.portfolio_engines = {"full-gb"};
  options.gb_max_reductions = 1;
  const Result<VerifyResult> r = portfolio().verify(spec, impl, field, options);
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  EXPECT_EQ(r->verdict, Verdict::kUnknown);
  EXPECT_NE(r->detail.find("full-gb"), std::string::npos);
}

TEST(Portfolio, AllAttemptsFailedComposesAFailureStatus) {
  const Gf2k field = Gf2k::make(4);
  const Netlist spec = make_mastrovito_multiplier(field);
  const Netlist impl = make_montgomery_multiplier_flat(field);
  RunOptions options;
  options.portfolio_engines = {"abstraction", "ideal-membership"};
  options.max_terms = 2;  // both attempts mem out
  const Result<VerifyResult> r = portfolio().verify(spec, impl, field, options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(r.status().message().find("all 2"), std::string::npos);
  EXPECT_NE(r.status().message().find("abstraction"), std::string::npos);
}

TEST(Portfolio, RejectsItselfInTheLineup) {
  const Gf2k field = Gf2k::make(4);
  const Netlist spec = make_mastrovito_multiplier(field);
  const Netlist impl = make_montgomery_multiplier_flat(field);
  RunOptions options;
  options.portfolio_engines = {"portfolio"};
  const Result<VerifyResult> r = portfolio().verify(spec, impl, field, options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(Portfolio, RejectsUnknownEngineNames) {
  const Gf2k field = Gf2k::make(4);
  const Netlist spec = make_mastrovito_multiplier(field);
  const Netlist impl = make_montgomery_multiplier_flat(field);
  RunOptions options;
  options.portfolio_engines = {"no-such-engine"};
  const Result<VerifyResult> r = portfolio().verify(spec, impl, field, options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(Portfolio, RaceModeProducesADefinitiveVerdict) {
  const Gf2k field = Gf2k::make(4);
  const Netlist spec = make_mastrovito_multiplier(field);
  const Netlist impl = make_montgomery_multiplier_flat(field);
  RunOptions options;
  options.portfolio_engines = {"abstraction", "sat"};
  options.portfolio_race = true;
  const Result<VerifyResult> r = portfolio().verify(spec, impl, field, options);
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  EXPECT_EQ(r->verdict, Verdict::kEquivalent);
  EXPECT_EQ(r->attempts.size(), 2u);
}

TEST(Portfolio, RaceReleasesEveryLoserBudgetLease) {
  // Regression: a cancelled race loser must unwind through its BudgetLease
  // destructors before the winner's result is reported. Any bytes an attempt
  // still held leased at retirement land in budget_leaked_bytes — which must
  // be zero. k = 32 makes the losing engines do real leased work before the
  // winner cancels them.
  const Gf2k field = Gf2k::make(32);
  const Netlist spec = make_mastrovito_multiplier(field);
  const Netlist impl = make_montgomery_multiplier_flat(field);
  RunOptions options;
  options.portfolio_engines = {"abstraction", "sat", "bdd"};
  options.portfolio_race = true;
  options.memory_budget_bytes = std::size_t{1} << 30;
  const Result<VerifyResult> r = portfolio().verify(spec, impl, field, options);
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  EXPECT_EQ(r->verdict, Verdict::kEquivalent);
  ASSERT_NE(r->stats.find("budget_leaked_bytes"), r->stats.end());
  EXPECT_EQ(r->stats.at("budget_leaked_bytes"), 0.0);
}

TEST(Portfolio, EscalationReportsZeroLeakedBudgetBytes) {
  const Gf2k field = Gf2k::make(4);
  const Netlist spec = make_mastrovito_multiplier(field);
  const Netlist impl = make_montgomery_multiplier_flat(field);
  RunOptions options;
  options.portfolio_engines = {"abstraction", "sat"};
  options.max_terms = 2;  // first attempt mem-outs, then sat decides
  options.memory_budget_bytes = std::size_t{1} << 30;
  const Result<VerifyResult> r = portfolio().verify(spec, impl, field, options);
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  EXPECT_EQ(r->stats.at("budget_leaked_bytes"), 0.0);
}

TEST(Portfolio, PerAttemptBudgetsGivePeaksPerAttempt) {
  const Gf2k field = Gf2k::make(4);
  const Netlist spec = make_mastrovito_multiplier(field);
  const Netlist impl = make_montgomery_multiplier_flat(field);
  RunOptions options;
  options.portfolio_engines = {"abstraction"};
  options.memory_budget_bytes = std::size_t{1} << 30;
  const Result<VerifyResult> r = portfolio().verify(spec, impl, field, options);
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  ASSERT_EQ(r->attempts.size(), 1u);
  EXPECT_GT(r->attempts[0].budget_peak_bytes, 0u);
}

TEST(Portfolio, AttemptHistoryLandsInTheJsonReport) {
  const Gf2k field = Gf2k::make(4);
  const Netlist spec = make_mastrovito_multiplier(field);
  const Netlist impl = make_montgomery_multiplier_flat(field);
  RunOptions options;
  options.portfolio_engines = {"abstraction", "sat"};
  options.max_terms = 2;
  const EngineRun run =
      run_engine(portfolio(), spec, impl, field, options);
  ASSERT_TRUE(run.status.ok()) << run.status.to_string();
  std::ostringstream out;
  write_run_report(out, "verify", 4, {run});
  const std::string json = out.str();
  EXPECT_NE(json.find("\"attempts\""), std::string::npos);
  EXPECT_NE(json.find("\"abstraction\""), std::string::npos);
  EXPECT_NE(json.find("\"sat\""), std::string::npos);
  EXPECT_NE(json.find("kResourceExhausted"), std::string::npos);
}

TEST(Portfolio, ExpiredParentDeadlineAbortsTheWholeRun) {
  const Gf2k field = Gf2k::make(32);
  const Netlist spec = make_mastrovito_multiplier(field);
  const Netlist impl = make_montgomery_multiplier_flat(field);
  RunOptions options;
  options.portfolio_engines = {"full-gb", "sat"};
  options.control.deadline = Deadline::after(0.001);
  const Result<VerifyResult> r = portfolio().verify(spec, impl, field, options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(r.status().message().find("attempt"), std::string::npos);
}

}  // namespace
}  // namespace gfa::engine
