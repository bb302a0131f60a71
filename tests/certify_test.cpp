// Verdict certification (src/certify/): deterministic witness search,
// simulator replay, the per-engine guarantee that every kNotEquivalent
// verdict ships a replayed counterexample, the post-kEquivalent simulation
// cross-check (and its injected certify:mismatch failure -> exit 73 with a
// flight-recorder dump), and the wire carriage of counterexamples.

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "abstraction/equivalence.h"
#include "abstraction/extractor.h"
#include "certify/certify.h"
#include "circuit/mastrovito.h"
#include "circuit/montgomery.h"
#include "circuit/mutate.h"
#include "circuit/sim.h"
#include "engine/registry.h"
#include "engine/report.h"
#include "test_util.h"
#include "util/fault_inject.h"
#include "util/json_reader.h"
#include "worker/protocol.h"

namespace gfa::certify {
namespace {

struct Disarmer {
  ~Disarmer() { fault::disarm(); }
};

/// A mutated Mastrovito multiplier whose non-equivalence to the original is
/// established by the abstraction check itself (ground truth, not a guess
/// about seeds).
Netlist make_verified_mutant(const Netlist& spec, const Gf2k& field) {
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    const Netlist cand = inject_random_bug(spec, seed);
    const Result<EquivalenceResult> check =
        try_check_equivalence(spec, cand, field);
    if (check.ok() && !check->equivalent) return cand;
  }
  ADD_FAILURE() << "no functionally distinct mutation found for k="
                << field.k();
  return spec;
}

// ---------------------------------------------------------------------------
// The random-point stream.

TEST(ElemRng, DeterministicAndReduced) {
  for (const unsigned k : {8u, 163u}) {
    const Gf2k field = Gf2k::make(k);
    ElemRng a(42), b(42);
    for (int i = 0; i < 64; ++i) {
      const Gf2k::Elem ea = a.next_elem(field);
      EXPECT_EQ(ea, b.next_elem(field));
      EXPECT_LT(ea.degree(), static_cast<int>(k));
    }
  }
}

TEST(ElemRng, DifferentSeedsDiverge) {
  const Gf2k field = Gf2k::make(32);
  ElemRng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 32; ++i)
    if (a.next_elem(field) == b.next_elem(field)) ++same;
  EXPECT_LT(same, 4);
}

// ---------------------------------------------------------------------------
// Witness plumbing.

TEST(Witness, FromBitsGroupsWordCoordinatesLsbFirst) {
  const Netlist nl = test::make_fig2_multiplier();
  // inputs() order is a0 a1 b0 b1; set a1 and b0.
  const Witness w = witness_from_bits(nl, {false, true, true, false});
  ASSERT_EQ(w.size(), 2u);
  EXPECT_EQ(w.at("A"), Gf2Poly::from_bits(0b10));
  EXPECT_EQ(w.at("B"), Gf2Poly::from_bits(0b01));
}

TEST(Witness, FromBitsRejectsShortAssignments) {
  const Netlist nl = test::make_fig2_multiplier();
  EXPECT_THROW(witness_from_bits(nl, {true}), std::invalid_argument);
}

TEST(Witness, ReplayDistinguishesThePaperBug) {
  const Gf2k field = Gf2k::make(2);
  const Netlist good = test::make_fig2_multiplier(false);
  const Netlist bad = test::make_fig2_multiplier(true);

  const std::optional<Witness> w = find_simulation_witness(good, bad, field);
  ASSERT_TRUE(w.has_value());  // 4 input bits: exhaustively enumerated
  const Counterexample cx = replay_witness(good, bad, field, *w);
  EXPECT_TRUE(cx.replayed);
  EXPECT_EQ(cx.output_word, "Z");
  EXPECT_NE(cx.expected, cx.actual);
  EXPECT_EQ(cx.inputs.size(), 2u);
}

TEST(Witness, SimulationSearchFindsNothingOnEquivalentPair) {
  const Gf2k field = Gf2k::make(8);
  const Netlist spec = make_mastrovito_multiplier(field);
  const Netlist impl = make_montgomery_multiplier_flat(field);
  EXPECT_FALSE(find_simulation_witness(spec, impl, field, 8).has_value());
}

TEST(Witness, WordFunctionSearchFindsSchwartzZippelPoint) {
  const Gf2k field = Gf2k::make(2);
  const Netlist good = test::make_fig2_multiplier(false);
  const Netlist bad = test::make_fig2_multiplier(true);
  const Result<WordFunction> good_fn = try_extract_word_function(good, field);
  const Result<WordFunction> bad_fn = try_extract_word_function(bad, field);
  ASSERT_TRUE(good_fn.ok() && bad_fn.ok());

  const std::optional<Witness> w =
      find_word_function_witness(*good_fn, *bad_fn, field);
  ASSERT_TRUE(w.has_value());
  EXPECT_NE(eval_word_function(*good_fn, field, *w),
            eval_word_function(*bad_fn, field, *w));
  // The word-level witness replays at the gate level: the two layers agree
  // on what the bug does.
  EXPECT_TRUE(replay_witness(good, bad, field, *w).replayed);
}

// ---------------------------------------------------------------------------
// The kEquivalent cross-check.

TEST(Certify, EquivalentPairPassesAndCountsPoints) {
  const Gf2k field = Gf2k::make(8);
  const Netlist spec = make_mastrovito_multiplier(field);
  const Netlist impl = make_montgomery_multiplier_flat(field);
  const CertifyOutcome out = certify_equivalence(spec, impl, field);
  EXPECT_TRUE(out.status.ok()) << out.status.to_string();
  EXPECT_EQ(out.points, 256u);  // 4 rounds x 64 lanes
}

TEST(Certify, RealBugFailsTheCrossCheck) {
  const Gf2k field = Gf2k::make(8);
  const Netlist spec = make_mastrovito_multiplier(field);
  const Netlist bug = make_verified_mutant(spec, field);
  const CertifyOutcome out = certify_equivalence(spec, bug, field);
  ASSERT_FALSE(out.status.ok());
  EXPECT_EQ(out.status.code(), StatusCode::kCertificationFailed);
  EXPECT_NE(out.status.message().find("cross-check disagreed"),
            std::string::npos);
}

TEST(Certify, InjectedMismatchFailsLoudlyWithFlightDump) {
  if (!fault::compiled_in()) GTEST_SKIP() << "GFA_FAULT_INJECTION is off";
  Disarmer disarm;
  const Gf2k field = Gf2k::make(8);
  const Netlist spec = make_mastrovito_multiplier(field);
  const Netlist impl = make_montgomery_multiplier_flat(field);

  ASSERT_TRUE(fault::arm_spec("certify:mismatch").ok());
  engine::RunOptions options;
  options.certify = true;
  const engine::EngineRun run = engine::run_engine(
      *engine::EngineRegistry::global().find("abstraction"), spec, impl,
      field, options);
  EXPECT_TRUE(fault::fired());
  ASSERT_FALSE(run.status.ok());
  EXPECT_EQ(run.status.code(), StatusCode::kCertificationFailed);
  EXPECT_NE(run.detail.find("injected via certify:mismatch"),
            std::string::npos);
  // The flight recorder captured the offending point for the post-mortem.
  ASSERT_FALSE(run.flight_events.empty());
  bool noted = false;
  for (const std::string& line : run.flight_events)
    if (line.find("certify:mismatch") != std::string::npos) noted = true;
  EXPECT_TRUE(noted);
  // The report never prints a verdict for a failed run: a certification
  // failure can never read as a wrong answer.
  std::ostringstream json;
  engine::write_run_report(json, "verify", 8, {run});
  EXPECT_EQ(json.str().find("\"verdict\""), std::string::npos);
  EXPECT_NE(json.str().find("kCertificationFailed"), std::string::npos);
}

TEST(Certify, StatusCodeMapsToExit73AndRoundTrips) {
  EXPECT_EQ(exit_code_for(StatusCode::kCertificationFailed), 73);
  EXPECT_STREQ(status_code_name(StatusCode::kCertificationFailed),
               "kCertificationFailed");
  const Result<StatusCode> back = status_code_from_name("kCertificationFailed");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, StatusCode::kCertificationFailed);
}

TEST(Certify, CertifyOffLeavesEquivalentRunsUntouched) {
  if (!fault::compiled_in()) GTEST_SKIP() << "GFA_FAULT_INJECTION is off";
  Disarmer disarm;
  const Gf2k field = Gf2k::make(8);
  const Netlist spec = make_mastrovito_multiplier(field);
  const Netlist impl = make_montgomery_multiplier_flat(field);
  // Armed but never consumed: without options.certify the site is not hit.
  ASSERT_TRUE(fault::arm_spec("certify:mismatch").ok());
  const engine::EngineRun run = engine::run_engine(
      *engine::EngineRegistry::global().find("abstraction"), spec, impl,
      field, engine::RunOptions{});
  EXPECT_TRUE(run.status.ok());
  EXPECT_EQ(run.verdict, engine::Verdict::kEquivalent);
  EXPECT_FALSE(fault::fired());
}

// ---------------------------------------------------------------------------
// Every engine's kNotEquivalent verdict carries a replayed counterexample.

class EngineCounterexamples : public ::testing::TestWithParam<unsigned> {};

TEST_P(EngineCounterexamples, EveryDefinitiveRefutationIsReplayed) {
  const unsigned k = GetParam();
  const Gf2k field = Gf2k::make(k);
  const Netlist spec = make_mastrovito_multiplier(field);
  const Netlist bug = make_verified_mutant(spec, field);

  engine::RunOptions options;
  // Search budgets: engines that run dry report Ok(kUnknown) and are skipped
  // below — the contract under test is "definitive refutation => witness",
  // not "every baseline scales to k=32".
  options.sat_conflict_limit = 50000;
  options.bdd_node_limit = 500000;
  options.gb_max_reductions = k >= 16 ? 200 : 2000;
  options.gb_max_poly_terms = 2000;

  bool refuted = false;
  for (const engine::EquivEngine* eng :
       engine::EngineRegistry::global().engines()) {
    const engine::EngineRun run =
        engine::run_engine(*eng, spec, bug, field, options);
    if (!run.status.ok() || run.verdict != engine::Verdict::kNotEquivalent)
      continue;
    refuted = true;
    EXPECT_FALSE(run.counterexample.empty())
        << eng->name() << " refuted without a counterexample at k=" << k;
    EXPECT_TRUE(run.counterexample.replayed)
        << eng->name() << " counterexample did not replay at k=" << k;
    EXPECT_FALSE(run.counterexample.inputs.empty()) << eng->name();
    EXPECT_NE(run.counterexample.expected, run.counterexample.actual)
        << eng->name();
  }
  // At every size at least the abstraction engine must have refuted.
  EXPECT_TRUE(refuted) << "no engine refuted the mutant at k=" << k;
}

INSTANTIATE_TEST_SUITE_P(Sizes, EngineCounterexamples,
                         ::testing::Values(8u, 16u, 32u));

// ---------------------------------------------------------------------------
// Wire carriage.

TEST(CertifyWire, WorkerResponseRoundTripsCounterexample) {
  // The worker's response frame is the child's EngineRun.
  engine::EngineRun resp;
  resp.verdict = engine::Verdict::kNotEquivalent;
  resp.counterexample.inputs["A"] = "α^3 + 1";
  resp.counterexample.inputs["B"] = "α";
  resp.counterexample.output_word = "Z";
  resp.counterexample.expected = "α^2";
  resp.counterexample.actual = "α^2 + 1";
  resp.counterexample.replayed = true;
  const Result<engine::EngineRun> back =
      worker::decode_response(worker::encode_response(resp));
  ASSERT_TRUE(back.ok()) << back.status().to_string();
  EXPECT_EQ(back->counterexample.inputs, resp.counterexample.inputs);
  EXPECT_EQ(back->counterexample.output_word, "Z");
  EXPECT_EQ(back->counterexample.expected, "α^2");
  EXPECT_EQ(back->counterexample.actual, "α^2 + 1");
  EXPECT_TRUE(back->counterexample.replayed);
}

TEST(CertifyWire, RunReportEmitsTypedCounterexampleJson) {
  const Gf2k field = Gf2k::make(8);
  const Netlist spec = make_mastrovito_multiplier(field);
  const Netlist bug = make_verified_mutant(spec, field);
  const engine::EngineRun run = engine::run_engine(
      *engine::EngineRegistry::global().find("abstraction"), spec, bug, field,
      engine::RunOptions{});
  ASSERT_TRUE(run.status.ok());
  ASSERT_EQ(run.verdict, engine::Verdict::kNotEquivalent);

  std::ostringstream out;
  engine::write_run_report(out, "verify", 8, {run});
  const Result<JsonValue> doc = parse_json(out.str());
  ASSERT_TRUE(doc.ok()) << out.str();
  const JsonValue* runs = doc->find("runs");
  ASSERT_NE(runs, nullptr);
  ASSERT_EQ(runs->items().size(), 1u);
  const JsonValue* cx = runs->items()[0].find("counterexample");
  ASSERT_NE(cx, nullptr) << out.str();
  EXPECT_TRUE(cx->bool_or("replayed", false));
  EXPECT_EQ(cx->string_or("output_word", ""), "Z");
  EXPECT_NE(cx->string_or("expected", ""), cx->string_or("actual", ""));
  const JsonValue* inputs = cx->find("inputs");
  ASSERT_NE(inputs, nullptr);
  EXPECT_EQ(inputs->members().size(), 2u);
}

}  // namespace
}  // namespace gfa::certify
