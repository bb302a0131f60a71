// Units for the observability layer (src/obs): the metrics registry's
// thread-safety under concurrent parallel_for increments, snapshot/delta
// semantics, the Chrome-trace tracer, and log-level parsing.
//
// The thread-safety tests run under the sanitizer CI job, so a data race in
// Metric::add / record_max would trip ASan/TSan-style diagnostics as well as
// the exact-sum assertions here.

#include <gtest/gtest.h>
#include <stdlib.h>

#include <atomic>
#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "abstraction/bitpoly.h"
#include "abstraction/extractor.h"
#include "abstraction/rato.h"
#include "abstraction/word_lift.h"
#include "baselines/ideal_membership.h"
#include "circuit/mastrovito.h"
#include "circuit/montgomery.h"
#include "circuit/mutate.h"
#include "circuit/parser.h"
#include "engine/registry.h"
#include "gf/gf2k.h"
#include "obs/flight_recorder.h"
#include "obs/histogram.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "util/fault_inject.h"
#include "util/parallel_for.h"
#include "worker/harness.h"

namespace gfa::obs {
namespace {

// Every test toggles the global enable flags; restore them so test order
// never matters (gtest may shuffle, and other suites assume "disabled").
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    metrics_was_ = metrics_enabled();
    trace_was_ = trace_enabled();
  }
  void TearDown() override {
    set_metrics_enabled(metrics_was_);
    set_trace_enabled(trace_was_);
    Metrics::instance().reset_all();
    Tracer::instance().clear();
  }

 private:
  bool metrics_was_ = false;
  bool trace_was_ = false;
};

TEST_F(ObsTest, CountersDisabledByDefaultCostNothingAndRecordNothing) {
  set_metrics_enabled(false);
  Metrics::instance().reset_all();
  const auto before = Metrics::instance().snapshot();
  GFA_COUNT("normal_form.calls", 7);
  GFA_GAUGE_MAX("normal_form.peak_terms", 1234);
  EXPECT_EQ(Metrics::instance().snapshot(), before);
}

TEST_F(ObsTest, CounterAddAndGaugeMaxSemantics) {
  set_metrics_enabled(true);
  Metrics::instance().reset_all();
  Metric& c = Metrics::instance().counter("test.counter");
  c.add(3);
  c.add(4);
  EXPECT_EQ(c.value(), 7u);

  Metric& g = Metrics::instance().gauge("test.gauge");
  g.record_max(10);
  g.record_max(5);   // lower: ignored
  g.record_max(25);  // higher: wins
  EXPECT_EQ(g.value(), 25u);
}

TEST_F(ObsTest, KnownMetricSchemaIsPreRegistered) {
  // The run-report contract promises the Buchberger pair counters appear
  // even for engines that never run Buchberger; that only works if the
  // schema is pre-registered rather than created on first touch.
  const auto snap = Metrics::instance().snapshot();
  for (const char* name :
       {"reduction_steps", "buchberger.pairs_generated",
        "buchberger.pairs_skipped", "buchberger.pairs_reduced",
        "extract.substitutions", "lift.q_pairs", "lift.dot_products",
        "lift.reductions", "lift.general_terms", "sat.conflicts",
        "bdd.cache_hits",
        "fraig.merges", "parallel.items", "verify.sim_refutations",
        "worker.reap_signals", "gf.irreducibility_tests", "certify.runs",
        "certify.points", "witness.backfills", "netlist.parse_bytes",
        "netlist.parse_nets", "rato.levels", "chain.term_ops",
        "chain.cancellations", "chain.rehashes"}) {
    EXPECT_TRUE(snap.count(name)) << "missing pre-registered metric " << name;
  }
}

// The chain's work counters: the flat Montgomery's linear blocks sit under
// its bilinear middle block, so each XOR substitution rewrites many terms
// and the chain does ten times the term adds of a Mastrovito per gate. The
// ideal-membership miter Z + A·B reduces to zero, one cancellation at a time.
TEST_F(ObsTest, ChainCountsTermOpsCancellationsAndRehashes) {
  set_metrics_enabled(true);
  const Gf2k field = Gf2k::make(8);
  auto value = [](const char* name) {
    return Metrics::instance().counter(name).value();
  };
  struct Pin {
    std::uint64_t term_ops, cancellations, rehashes;
  };
  const auto run = [&](const Netlist& nl, bool ideal) {
    Metrics::instance().reset_all();
    if (ideal)
      EXPECT_TRUE(verify_multiplier_by_ideal_membership(nl, field).is_member);
    else
      (void)extract_word_function(nl, field);
    return Pin{value("chain.term_ops"), value("chain.cancellations"),
               value("chain.rehashes")};
  };
  const Netlist mastrovito = make_mastrovito_multiplier(field);
  const Netlist montgomery = make_montgomery_multiplier_flat(field);
  const Pin mas = run(mastrovito, false);
  EXPECT_EQ(mas.term_ops, 228u);  // 8 seeds + 220 expanded terms
  EXPECT_EQ(mas.cancellations, 0u);
  // Sized for half the gates at the first segment, the map moves only the
  // seeds; the miter's many seeds outgrow their arena before that.
  EXPECT_EQ(mas.rehashes, 1u);
  const Pin mon = run(montgomery, false);
  EXPECT_EQ(mon.term_ops, 2432u);
  EXPECT_EQ(mon.cancellations, 0u);
  EXPECT_EQ(mon.rehashes, 1u);
  const Pin ideal = run(mastrovito, true);
  EXPECT_EQ(ideal.term_ops, 292u);
  EXPECT_EQ(ideal.cancellations, 64u);  // every remainder term of Z cancels
  EXPECT_EQ(ideal.rehashes, 3u);
}

// Ingest work counts come from the library, so every caller of the parser
// (gfa_tool, the service, forked workers) reports them.
TEST_F(ObsTest, ParseAndRatoCountTheirWork) {
  set_metrics_enabled(true);
  Metrics::instance().reset_all();
  const std::string text =
      "input a b\nxor z t a   # gates in any order\nand t a b\noutput z\n";
  const Netlist nl = parse_netlist(text);
  auto value = [](const char* name) {
    return Metrics::instance().counter(name).value();
  };
  EXPECT_EQ(value("netlist.parse_bytes"), text.size());
  EXPECT_EQ(value("netlist.parse_nets"), 4u);
  // z is level 0, t level 1, a and b level 2: three levels.
  (void)rato_net_order(nl);
  EXPECT_EQ(Metrics::instance().gauge("rato.levels").value(), 3u);
  // A gauge keeps the deepest netlist ordered.
  (void)rato_net_order(parse_netlist("input a\nnot z a\noutput z\n"));
  EXPECT_EQ(Metrics::instance().gauge("rato.levels").value(), 3u);
  EXPECT_EQ(value("netlist.parse_nets"), 6u);
}

TEST_F(ObsTest, FieldBuildIsOneSpanAndCountsItsCandidates) {
  set_metrics_enabled(true);
  set_trace_enabled(true);
  Metrics::instance().reset_all();
  Tracer::instance().clear();
  // k = 96: the 95 trinomials are skipped (8 | k, Swan's theorem), and the
  // 118th pentanomial, x^96 + x^10 + x^9 + x^6 + 1, is the first irreducible.
  const Result<Gf2k> f96 = Gf2k::try_make(96);
  ASSERT_TRUE(f96.ok());
  EXPECT_EQ(f96->modulus(), Gf2Poly::from_exponents({96, 10, 9, 6, 0}));
  EXPECT_EQ(Metrics::instance().counter("gf.irreducibility_tests").value(),
            118u);
  Metrics::instance().reset_all();
  // A NIST size takes its polynomial from the table: nothing is tested.
  ASSERT_TRUE(Gf2k::try_make(163).ok());
  EXPECT_EQ(Metrics::instance().counter("gf.irreducibility_tests").value(), 0u);
  const auto events = Tracer::instance().events();
  ASSERT_EQ(events.size(), 2u);
  for (const auto& e : events) {
    EXPECT_EQ(e.name, "field_build");
    EXPECT_STREQ(e.category, "gf");
  }
}

TEST_F(ObsTest, SimRefutationsCountPairsRefutedBeforeTheChain) {
  set_metrics_enabled(true);
  Metrics::instance().reset_all();
  const Gf2k field = Gf2k::make(8);
  const Netlist spec = make_mastrovito_multiplier(field);
  const engine::EquivEngine& abstraction =
      *engine::EngineRegistry::global().find("abstraction");
  const auto equivalent = abstraction.verify(
      spec, make_montgomery_multiplier_flat(field), field, {});
  ASSERT_TRUE(equivalent.ok());
  EXPECT_EQ(Metrics::instance().counter("verify.sim_refutations").value(), 0u);
  const auto refuted = abstraction.verify(
      spec, inject_random_bug(make_montgomery_multiplier_flat(field), 1),
      field, {});
  ASSERT_TRUE(refuted.ok());
  ASSERT_EQ(refuted->verdict, engine::Verdict::kNotEquivalent);
  EXPECT_EQ(Metrics::instance().counter("verify.sim_refutations").value(), 1u);
}

TEST_F(ObsTest, CertificationAndWitnessBackfillAreSpannedAndCounted) {
  set_metrics_enabled(true);
  set_trace_enabled(true);
  Metrics::instance().reset_all();
  Tracer::instance().clear();
  const Gf2k field = Gf2k::make(8);
  const Netlist spec = make_mastrovito_multiplier(field);
  const engine::EngineRegistry& registry = engine::EngineRegistry::global();
  engine::RunOptions certified;
  certified.certify = true;
  const engine::EngineRun equal =
      engine::run_engine(*registry.find("abstraction"), spec,
                         make_montgomery_multiplier_flat(field), field,
                         certified);
  ASSERT_TRUE(equal.status.ok()) << equal.status.to_string();
  EXPECT_EQ(Metrics::instance().counter("certify.runs").value(), 1u);
  EXPECT_EQ(Metrics::instance().counter("certify.points").value(),
            static_cast<std::uint64_t>(equal.stats.at("certify_points")));
  EXPECT_EQ(Metrics::instance().counter("witness.backfills").value(), 0u);
  // Ideal membership decides without a witness of its own, so run_engine
  // searches for one.
  const engine::EngineRun refuted = engine::run_engine(
      *registry.find("ideal-membership"), spec,
      inject_random_bug(make_montgomery_multiplier_flat(field), 1), field,
      {});
  ASSERT_EQ(refuted.verdict, engine::Verdict::kNotEquivalent);
  EXPECT_EQ(Metrics::instance().counter("witness.backfills").value(), 1u);
  EXPECT_EQ(Metrics::instance().counter("certify.runs").value(), 1u);
  std::map<std::string, std::string> spans;
  for (const TraceEvent& e : Tracer::instance().events())
    spans[e.name] = e.category;
  EXPECT_EQ(spans["certify"], "engine");
  EXPECT_EQ(spans["witness_backfill"], "engine");
}

TEST_F(ObsTest, ReapSignalsStayZeroForCleanWorkersAndCountAHang) {
  set_metrics_enabled(true);
  Metrics::instance().reset_all();
  std::string tmpl = ::testing::TempDir() + "gfa_obs_XXXXXX";
  ASSERT_NE(mkdtemp(tmpl.data()), nullptr);
  const Gf2k field = Gf2k::make(8);
  worker::WorkerRequest req;
  req.spec_path = tmpl + "/spec.net";
  req.impl_path = tmpl + "/impl.net";
  req.k = 8;
  write_netlist_file(make_mastrovito_multiplier(field), req.spec_path);
  write_netlist_file(make_montgomery_multiplier_flat(field), req.impl_path);

  // A worker that answers exits on its own: reaped without a signal.
  for (int i = 0; i < 3; ++i) {
    const engine::EngineRun run = worker::run_in_worker(req);
    ASSERT_TRUE(run.status.ok()) << run.status.to_string();
  }
  EXPECT_EQ(Metrics::instance().counter("worker.reap_signals").value(), 0u);

  if (!fault::compiled_in()) GTEST_SKIP() << "GFA_FAULT_INJECTION is off";
  // The injected hang ignores SIGTERM, so reaping it takes SIGTERM, then
  // SIGKILL once the grace runs out.
  ASSERT_TRUE(fault::arm("worker:hang", 1).ok());
  req.timeout_seconds = 0.3;
  worker::WorkerConfig config;
  config.kill_grace_seconds = 0.2;
  const engine::EngineRun hung = worker::run_in_worker(req, config);
  fault::disarm();
  EXPECT_FALSE(hung.status.ok());
  EXPECT_GE(Metrics::instance().counter("worker.reap_signals").value(), 1u);
}

TEST_F(ObsTest, ConcurrentIncrementsFromParallelForSumExactly) {
  set_metrics_enabled(true);
  Metrics::instance().reset_all();
  constexpr std::size_t kItems = 100000;
  // Each iteration adds its index to a counter and records it as a gauge
  // candidate; with relaxed atomics the total must still be exact and the
  // max must be the largest index.
  parallel_for(kItems, [](std::size_t i) {
    GFA_COUNT("test.race.counter", i);
    GFA_GAUGE_MAX("test.race.gauge", i);
  });
  const std::uint64_t expected =
      static_cast<std::uint64_t>(kItems) * (kItems - 1) / 2;
  EXPECT_EQ(Metrics::instance().counter("test.race.counter").value(), expected);
  EXPECT_EQ(Metrics::instance().gauge("test.race.gauge").value(), kItems - 1);
}

TEST_F(ObsTest, DeltaSubtractsCountersAndReportsGauges) {
  set_metrics_enabled(true);
  Metrics::instance().reset_all();
  Metrics::instance().counter("test.delta.c").add(10);
  Metrics::instance().gauge("test.delta.g").record_max(50);
  const auto base = Metrics::instance().snapshot();
  Metrics::instance().counter("test.delta.c").add(5);
  Metrics::instance().gauge("test.delta.g").record_max(80);
  const auto d = Metrics::instance().delta(base);
  EXPECT_EQ(d.at("test.delta.c"), 5u);   // counter: increment since base
  EXPECT_EQ(d.at("test.delta.g"), 80u);  // gauge: current peak
}

TEST_F(ObsTest, TraceSpanRecordsOnlyWhenEnabled) {
  Tracer::instance().clear();
  set_trace_enabled(false);
  { const TraceSpan s("invisible", "test"); }
  set_trace_enabled(true);
  { const TraceSpan s("visible", "test"); }
  const auto events = Tracer::instance().events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "visible");
  EXPECT_STREQ(events[0].category, "test");
}

TEST_F(ObsTest, ChromeTraceOutputIsWellFormed) {
  Tracer::instance().clear();
  set_trace_enabled(true);
  {
    const TraceSpan outer("outer", "test");
    const TraceSpan inner("inner", "test");
  }
  std::ostringstream out;
  Tracer::instance().write_chrome_trace(out);
  const std::string json = out.str();
  // Chrome's about:tracing format essentials.
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"outer\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"inner\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
}

TEST_F(ObsTest, AggregateSumsPerPhaseName) {
  Tracer::instance().clear();
  set_trace_enabled(true);
  { const TraceSpan s("phase_a", "test"); }
  { const TraceSpan s("phase_a", "test"); }
  { const TraceSpan s("phase_b", "test"); }
  const auto totals = Tracer::instance().aggregate();
  ASSERT_TRUE(totals.count("phase_a"));
  ASSERT_TRUE(totals.count("phase_b"));
  EXPECT_EQ(totals.at("phase_a").count, 2u);
  EXPECT_EQ(totals.at("phase_b").count, 1u);
}

// ---------------------------------------------------------------------------
// Histograms.

TEST_F(ObsTest, HistogramBucketsAreLog2BitWidth) {
  EXPECT_EQ(Histogram::bucket_of(0), 0u);
  EXPECT_EQ(Histogram::bucket_of(1), 1u);
  EXPECT_EQ(Histogram::bucket_of(2), 2u);
  EXPECT_EQ(Histogram::bucket_of(3), 2u);
  EXPECT_EQ(Histogram::bucket_of(4), 3u);
  EXPECT_EQ(Histogram::bucket_of(1023), 10u);
  EXPECT_EQ(Histogram::bucket_of(1024), 11u);
  EXPECT_EQ(Histogram::bucket_of(~std::uint64_t{0}), 64u);
  EXPECT_EQ(Histogram::bucket_upper(0), 0u);
  EXPECT_EQ(Histogram::bucket_upper(1), 1u);
  EXPECT_EQ(Histogram::bucket_upper(10), 1023u);
  EXPECT_EQ(Histogram::bucket_upper(64), ~std::uint64_t{0});
}

TEST_F(ObsTest, HistogramPercentileReportsBucketUpperBounds) {
  Histogram h;
  EXPECT_EQ(h.percentile(0.5), 0u);  // empty
  // 90 samples of 1 and 10 samples of 1000: p50 lands in bucket 1 (upper
  // bound 1), p99 in 1000's bucket (upper bound 1023).
  for (int i = 0; i < 90; ++i) h.record(1);
  for (int i = 0; i < 10; ++i) h.record(1000);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.sum(), 90u + 10u * 1000u);
  EXPECT_EQ(h.percentile(0.50), 1u);
  EXPECT_EQ(h.percentile(0.90), 1u);
  EXPECT_EQ(h.percentile(0.99), 1023u);
  EXPECT_EQ(h.percentile(1.0), 1023u);
}

TEST_F(ObsTest, HistogramMacroDisabledRecordsNothing) {
  set_metrics_enabled(false);
  Metrics::instance().reset_all();
  GFA_HISTOGRAM("test.hist.disabled", 42);
  EXPECT_EQ(Metrics::instance().histogram("test.hist.disabled").count(), 0u);
}

TEST_F(ObsTest, HistogramConcurrentRecordsSumExactly) {
  set_metrics_enabled(true);
  Metrics::instance().reset_all();
  constexpr std::size_t kItems = 100000;
  parallel_for(kItems, [](std::size_t i) { GFA_HISTOGRAM("test.hist.race", i); });
  const Histogram& h = Metrics::instance().histogram("test.hist.race");
  EXPECT_EQ(h.count(), kItems);
  EXPECT_EQ(h.sum(),
            static_cast<std::uint64_t>(kItems) * (kItems - 1) / 2);
  // Per-bucket totals are exact too: bucket b holds [2^(b-1), 2^b - 1], so
  // bucket counts for a dense 0..N-1 range are the power-of-two strides.
  std::uint64_t bucket_total = 0;
  for (unsigned b = 0; b < Histogram::kBuckets; ++b)
    bucket_total += h.bucket(b);
  EXPECT_EQ(bucket_total, kItems);
  EXPECT_EQ(h.bucket(0), 1u);   // value 0
  EXPECT_EQ(h.bucket(1), 1u);   // value 1
  EXPECT_EQ(h.bucket(2), 2u);   // values 2..3
  EXPECT_EQ(h.bucket(10), 512u);  // values 512..1023
}

TEST_F(ObsTest, HistogramsFoldIntoSnapshotsOnlyWhenNonEmpty) {
  set_metrics_enabled(true);
  Metrics::instance().reset_all();
  const auto empty = Metrics::instance().snapshot();
  EXPECT_FALSE(empty.count("rewriter.substitution_us.count"));
  GFA_HISTOGRAM("rewriter.substitution_us", 7);
  GFA_HISTOGRAM("rewriter.substitution_us", 9);
  const auto snap = Metrics::instance().snapshot();
  EXPECT_EQ(snap.at("rewriter.substitution_us.count"), 2u);
  EXPECT_EQ(snap.at("rewriter.substitution_us.p50"), 7u);
  EXPECT_EQ(snap.at("rewriter.substitution_us.p99"), 15u);
  // Delta subtracts .count like a counter; percentiles stay current.
  GFA_HISTOGRAM("rewriter.substitution_us", 9);
  const auto d = Metrics::instance().delta(snap);
  EXPECT_EQ(d.at("rewriter.substitution_us.count"), 1u);
  EXPECT_EQ(d.at("rewriter.substitution_us.p50"), 15u);
}

// ---------------------------------------------------------------------------
// Progress sink.

TEST_F(ObsTest, ProgressSinkGatesAndDelivers) {
  EXPECT_FALSE(progress_active());
  report_progress(Progress{});  // no sink: harmless no-op
  std::vector<std::pair<std::string, std::uint64_t>> seen;
  set_progress_sink([&](const Progress& p) {
    seen.emplace_back(p.phase, p.step);
  });
  EXPECT_TRUE(progress_active());
  Progress p;
  p.phase = "reduction_chain";
  p.step = 42;
  report_progress(p);
  set_progress_sink(nullptr);
  EXPECT_FALSE(progress_active());
  report_progress(p);  // after removal: dropped
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].first, "reduction_chain");
  EXPECT_EQ(seen[0].second, 42u);
}

// ---------------------------------------------------------------------------
// Flight recorder.

TEST(FlightRecorder, RingKeepsTheLastEventsInOrder) {
  flight::clear();
  for (std::uint64_t i = 1; i <= flight::kRingSize + 40; ++i)
    flight::note("phase:step", i, i * 2);
  const std::vector<flight::Event> tail = flight::tail();
  ASSERT_EQ(tail.size(), flight::kRingSize);
  // Oldest surviving event is (total - ring + 1); strictly increasing seq.
  EXPECT_EQ(tail.front().seq, 41u);
  EXPECT_EQ(tail.back().seq, flight::kRingSize + 40);
  for (std::size_t i = 1; i < tail.size(); ++i)
    EXPECT_EQ(tail[i].seq, tail[i - 1].seq + 1);
  EXPECT_STREQ(tail.back().tag, "phase:step");
  EXPECT_EQ(tail.back().a, flight::kRingSize + 40);
  EXPECT_EQ(tail.back().b, (flight::kRingSize + 40) * 2);
  flight::clear();
  EXPECT_TRUE(flight::tail().empty());
}

TEST(FlightRecorder, LongTagsTruncateAndFormatIsReadable) {
  flight::clear();
  flight::note("a_very_long_tag_name_that_overflows", 1, 2);
  const std::vector<flight::Event> tail = flight::tail();
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(std::strlen(tail[0].tag), flight::kTagBytes - 1);
  const std::string line = flight::format(tail[0]);
  EXPECT_NE(line.find("a_very_long_tag_name_th"), std::string::npos);
  EXPECT_NE(line.find("a=1"), std::string::npos);
  EXPECT_NE(line.find("b=2"), std::string::npos);
  flight::clear();
}

// ---------------------------------------------------------------------------
// Trace thread lanes.

TEST_F(ObsTest, SpansFromDifferentThreadsLandInDifferentLanes) {
  Tracer::instance().clear();
  set_trace_enabled(true);
  // Keep both threads alive until both spans have closed: a joined thread's
  // std::thread::id may be reused, which would collapse the dense tids.
  std::atomic<int> done{0};
  const auto body = [&done](const char* name) {
    { const TraceSpan s(name, "test"); }
    ++done;
    while (done.load() < 2) std::this_thread::yield();
  };
  std::thread t1(body, "lane_a");
  std::thread t2(body, "lane_b");
  t1.join();
  t2.join();
  const auto events = Tracer::instance().events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_NE(events[0].tid, events[1].tid);
}

// The Case-2 lift's work counters, pinned on a lift of known shape: one
// word pair's k×k matrix through Cᵀ·Q·C (2k² dot products), one word's
// linear part (k more), and one reduction per dot product. A general-path
// lift counts its remainder terms instead.
TEST_F(ObsTest, LiftCountersPinTheBilinearAndGeneralWork) {
  set_metrics_enabled(true);
  Metrics::instance().reset_all();
  constexpr unsigned k = 8;
  const Gf2k field = Gf2k::make(k);
  const WordLift lift(&field);
  VarPool pool;
  std::vector<VarId> a, b;
  for (unsigned i = 0; i < k; ++i)
    a.push_back(pool.intern("a" + std::to_string(i), VarKind::kBit));
  for (unsigned i = 0; i < k; ++i)
    b.push_back(pool.intern("b" + std::to_string(i), VarKind::kBit));
  const std::vector<WordLift::WordBinding> words = {
      {pool.intern("A", VarKind::kWord), a},
      {pool.intern("B", VarKind::kWord), b}};
  BitPoly r(&field);  // Σ α^{i+j}·a_i·b_j + a_0: A·B + a_0
  for (unsigned i = 0; i < k; ++i)
    for (unsigned j = 0; j < k; ++j)
      r.add_term({a[i], b[j]}, field.alpha_pow(std::uint64_t{i} + j));
  r.add_term({a[0]}, field.one());
  lift.lift(r, words, pool);
  auto value = [](const char* name) {
    return Metrics::instance().counter(name).value();
  };
  EXPECT_EQ(value("lift.q_pairs"), 1u);
  EXPECT_EQ(value("lift.dot_products"), 2u * k * k + k);
  EXPECT_EQ(value("lift.reductions"), 2u * k * k + k);
  EXPECT_EQ(value("lift.general_terms"), 0u);

  BitPoly cubic(&field);
  cubic.add_term({a[0], a[1], b[2]}, field.alpha());
  cubic.add_term({b[3]}, field.one());
  lift.lift(cubic, words, pool);
  EXPECT_EQ(value("lift.general_terms"), 2u);
  EXPECT_EQ(value("lift.q_pairs"), 1u);
}

TEST(ObsMetrics, RssSamplingTracksAMonotonicPeak) {
  const std::uint64_t now = sample_rss_bytes();
  EXPECT_GT(now, 0u);  // /proc/self/statm exists on every CI target
  const std::uint64_t peak = peak_rss_bytes();
  EXPECT_GE(peak, now);
  // A second sample can only raise the recorded peak.
  sample_rss_bytes();
  EXPECT_GE(peak_rss_bytes(), peak);
}

TEST(ObsLog, ParseLogLevelAcceptsTheFourLevels) {
  EXPECT_EQ(*parse_log_level("error"), LogLevel::kError);
  EXPECT_EQ(*parse_log_level("warn"), LogLevel::kWarn);
  EXPECT_EQ(*parse_log_level("info"), LogLevel::kInfo);
  EXPECT_EQ(*parse_log_level("debug"), LogLevel::kDebug);
}

TEST(ObsLog, ParseLogLevelRejectsGarbage) {
  EXPECT_FALSE(parse_log_level("").ok());
  EXPECT_FALSE(parse_log_level("verbose").ok());
  EXPECT_FALSE(parse_log_level("DEBUG").ok());  // levels are lowercase
  EXPECT_FALSE(parse_log_level("2").ok());
}

TEST(ObsLog, LevelGatingIsMonotonic) {
  const LogLevel saved = log_level();
  set_log_level(LogLevel::kWarn);
  EXPECT_TRUE(log_enabled(LogLevel::kError));
  EXPECT_TRUE(log_enabled(LogLevel::kWarn));
  EXPECT_FALSE(log_enabled(LogLevel::kInfo));
  EXPECT_FALSE(log_enabled(LogLevel::kDebug));
  set_log_level(saved);
}

}  // namespace
}  // namespace gfa::obs
