// Tests for util/fault_inject.h, ending in the robustness acceptance sweep:
// at k = 32 (Mastrovito vs Montgomery), every engine is run with every fault
// site it owns armed to fire on its first hit, and must unwind to a clean
// non-OK Status of the right code — no crash, no leak (the CI job runs this
// under ASan+UBSan), no wrong verdict.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "circuit/mastrovito.h"
#include "circuit/montgomery.h"
#include "engine/registry.h"
#include "util/fault_inject.h"
#include "util/resource_budget.h"

namespace gfa {
namespace {

/// Disarms on scope exit so a failing assertion cannot poison later tests.
struct Disarmer {
  ~Disarmer() { fault::disarm(); }
};

TEST(FaultInject, RegistryListsEveryDocumentedSite) {
  if (!fault::compiled_in()) GTEST_SKIP() << "GFA_FAULT_INJECTION is off";
  const std::vector<std::string_view>& sites = fault::registered_sites();
  const std::vector<std::string_view> documented = {
      "budget:mpoly.terms", "budget:pair.queue",    "budget:bdd.nodes",
      "budget:sat.clauses", "budget:rewriter.terms", "oom:rewriter.add",
      "oom:bdd.make",       "oom:sat.learn",         "cancel:checkpoint",
      "worker:crash",       "worker:hang",           "cache:corrupt",
      "service:accept",     "certify:mismatch"};
  for (std::string_view site : documented)
    EXPECT_NE(std::find(sites.begin(), sites.end(), site), sites.end())
        << site;
  // ...and nothing else: a site the docs do not list is not armable.
  EXPECT_EQ(sites.size(), documented.size());
}

TEST(FaultInject, ArmRejectsUnknownSitesAndZeroCounts) {
  if (!fault::compiled_in()) GTEST_SKIP() << "GFA_FAULT_INJECTION is off";
  EXPECT_EQ(fault::arm("no:such.site", 1).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(fault::arm("cancel:checkpoint", 0).code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(fault::enabled());
}

TEST(FaultInject, FiresExactlyOnceOnTheNthHit) {
  if (!fault::compiled_in()) GTEST_SKIP() << "GFA_FAULT_INJECTION is off";
  Disarmer disarm;
  ASSERT_TRUE(fault::arm("cancel:checkpoint", 3).ok());
  EXPECT_TRUE(fault::enabled());
  fault::point("cancel:checkpoint");                   // hit 1
  fault::point("budget:mpoly.terms");                  // other site: no count
  fault::point("cancel:checkpoint");                   // hit 2
  EXPECT_FALSE(fault::fired());
  bool threw = false;
  try {
    fault::point("cancel:checkpoint");                 // hit 3 fires
  } catch (const StatusError& e) {
    threw = true;
    EXPECT_EQ(e.status.code(), StatusCode::kCancelled);
  }
  EXPECT_TRUE(threw);
  EXPECT_TRUE(fault::fired());
  EXPECT_EQ(fault::hits(), 3u);
  fault::point("cancel:checkpoint");  // one-shot: later hits pass through
  EXPECT_FALSE(fault::enabled());     // nothing armed anymore
}

TEST(FaultInject, ConsumeFiresOnceOnTheNthHitWithoutThrowing) {
  if (!fault::compiled_in()) GTEST_SKIP() << "GFA_FAULT_INJECTION is off";
  Disarmer disarm;
  ASSERT_TRUE(fault::arm("worker:crash", 2).ok());
  EXPECT_FALSE(fault::consume("worker:crash"));   // hit 1
  EXPECT_FALSE(fault::consume("worker:hang"));    // other site: no effect
  EXPECT_TRUE(fault::consume("worker:crash"));    // hit 2 fires
  EXPECT_TRUE(fault::fired());
  EXPECT_FALSE(fault::consume("worker:crash"));   // one-shot
  EXPECT_FALSE(fault::enabled());
}

TEST(FaultInject, ConsumeIsInertWhenNothingIsArmed) {
  if (!fault::compiled_in()) GTEST_SKIP() << "GFA_FAULT_INJECTION is off";
  EXPECT_FALSE(fault::consume("worker:crash"));
  EXPECT_FALSE(fault::consume("cache:corrupt"));
}

TEST(FaultInject, ArmSpecParsesSiteColonCount) {
  if (!fault::compiled_in()) GTEST_SKIP() << "GFA_FAULT_INJECTION is off";
  Disarmer disarm;
  EXPECT_TRUE(fault::arm_spec("cancel:checkpoint").ok());   // bare = :1
  EXPECT_TRUE(fault::arm_spec("oom:bdd.make:5").ok());      // last ':' splits
  EXPECT_FALSE(fault::arm_spec("oom:bdd.make:0").ok());
  EXPECT_FALSE(fault::arm_spec("oom:bdd.make:x").ok());
  EXPECT_FALSE(fault::arm_spec("").ok());
}

// ---------------------------------------------------------------------------
// The sweep. Each engine owns the sites its call graph hits; for each, arm
// the site to fire on the first hit and demand a clean unwind with the code
// the real failure would carry: kResourceExhausted for budget charges and
// allocation failures, kCancelled for the cooperative checkpoint.

struct SweepCase {
  const char* engine;
  const char* site;
};

// clang-format off
const SweepCase kSweep[] = {
    {"abstraction",      "budget:rewriter.terms"},
    {"abstraction",      "oom:rewriter.add"},
    {"abstraction",      "cancel:checkpoint"},
    {"ideal-membership", "budget:rewriter.terms"},
    {"ideal-membership", "oom:rewriter.add"},
    {"ideal-membership", "cancel:checkpoint"},
    {"sat",              "budget:sat.clauses"},
    {"sat",              "oom:sat.learn"},
    {"sat",              "cancel:checkpoint"},
    {"fraig",            "budget:sat.clauses"},
    {"fraig",            "oom:sat.learn"},
    {"fraig",            "cancel:checkpoint"},
    {"bdd",              "budget:bdd.nodes"},
    {"bdd",              "oom:bdd.make"},
    {"bdd",              "cancel:checkpoint"},
    {"full-gb",          "budget:pair.queue"},
    {"full-gb",          "budget:mpoly.terms"},
    {"full-gb",          "cancel:checkpoint"},
};
// clang-format on

StatusCode expected_code(std::string_view site) {
  return site.substr(0, 7) == "cancel:" ? StatusCode::kCancelled
                                        : StatusCode::kResourceExhausted;
}

TEST(FaultInjectSweep, EveryEngineUnwindsCleanlyFromEveryOwnedSiteAtK32) {
  if (!fault::compiled_in()) GTEST_SKIP() << "GFA_FAULT_INJECTION is off";
  const Gf2k field = Gf2k::make(32);
  const Netlist spec = make_mastrovito_multiplier(field);
  const Netlist impl = make_montgomery_multiplier_flat(field);
  // A measure-only budget so the "budget:*" charge points actually execute;
  // the armed fault, not the limit, is what trips the run.
  ResourceBudget budget;

  for (const SweepCase& c : kSweep) {
    SCOPED_TRACE(std::string(c.engine) + " / " + c.site);
    const engine::EquivEngine* eng =
        engine::EngineRegistry::global().find(c.engine);
    ASSERT_NE(eng, nullptr);
    Disarmer disarm;
    ASSERT_TRUE(fault::arm(c.site, 1).ok());
    engine::RunOptions options;
    options.control.budget = &budget;
    const Result<engine::VerifyResult> r =
        eng->verify(spec, impl, field, options);
    EXPECT_TRUE(fault::fired())
        << "the engine never reached this site — fix the sweep table";
    ASSERT_FALSE(r.ok()) << "fault fired but the engine still 'succeeded'";
    EXPECT_EQ(r.status().code(), expected_code(c.site))
        << r.status().to_string();
  }
}

TEST(FaultInjectSweep, PortfolioSurvivesAFaultInItsFirstAttempt) {
  if (!fault::compiled_in()) GTEST_SKIP() << "GFA_FAULT_INJECTION is off";
  // The rewriter OOM kills the abstraction attempt (and, one-shot, only that
  // attempt); the portfolio must fall through and still decide. k = 4 keeps
  // the SAT fallback proof quick.
  const Gf2k field = Gf2k::make(4);
  const Netlist spec = make_mastrovito_multiplier(field);
  const Netlist impl = make_montgomery_multiplier_flat(field);
  Disarmer disarm;
  ASSERT_TRUE(fault::arm("oom:rewriter.add", 1).ok());
  engine::RunOptions options;
  options.portfolio_engines = {"abstraction", "sat"};
  const Result<engine::VerifyResult> r =
      engine::EngineRegistry::global().find("portfolio")->verify(spec, impl,
                                                                 field,
                                                                 options);
  EXPECT_TRUE(fault::fired());
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  EXPECT_EQ(r->verdict, engine::Verdict::kEquivalent);
  ASSERT_EQ(r->attempts.size(), 2u);
  EXPECT_EQ(r->attempts[0].status.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(r->attempts[1].status.ok());
}

}  // namespace
}  // namespace gfa
