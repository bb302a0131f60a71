// Tests for the process-isolation layer (src/worker/): the length-prefixed
// frame protocol and its JSON codecs, supervised forked runs, termination
// classification (clean exit, injected crash, real SIGKILL, hang past the
// wall clock), retry-with-backoff, and the portfolio's certify-once and
// counterexample rules, in-process and as a whole forked run alike, and
// parallel loops in forked children. The CI job runs this under ASan+UBSan:
// every fork/kill path must stay clean.

#include <gtest/gtest.h>
#include <pthread.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "circuit/mastrovito.h"
#include "circuit/montgomery.h"
#include "circuit/mutate.h"
#include "circuit/parser.h"
#include "engine/registry.h"
#include "obs/metrics.h"
#include "util/fault_inject.h"
#include "util/parallel_for.h"
#include "worker/harness.h"
#include "worker/protocol.h"
#include "worker/retry.h"

namespace gfa::worker {
namespace {

/// Disarms on scope exit so a failing assertion cannot poison later tests.
struct Disarmer {
  ~Disarmer() { fault::disarm(); }
};

/// The Mastrovito/Montgomery pair for F_2^k written under a fresh temp
/// directory, plus a request pointing at the files.
struct Instance {
  std::string dir;
  WorkerRequest req;
};

Instance make_instance(unsigned k) {
  Instance inst;
  std::string tmpl = ::testing::TempDir() + "gfa_worker_XXXXXX";
  const char* dir = mkdtemp(tmpl.data());
  EXPECT_NE(dir, nullptr);
  inst.dir = dir;
  const Gf2k field = Gf2k::make(k);
  write_netlist_file(make_mastrovito_multiplier(field),
                     inst.dir + "/spec.net");
  write_netlist_file(make_montgomery_multiplier_flat(field),
                     inst.dir + "/impl.net");
  inst.req.spec_path = inst.dir + "/spec.net";
  inst.req.impl_path = inst.dir + "/impl.net";
  inst.req.k = k;
  return inst;
}

// ---------------------------------------------------------------------------
// Wire protocol.

TEST(WorkerProtocol, RequestCodecRoundTrips) {
  // Every wire-carried field away from its default, so a field the codec
  // drops shows up as a mismatch.
  WorkerRequest req;
  req.spec_path = "/tmp/a \"quoted\".net";
  req.impl_path = "/tmp/b.net";
  req.k = 163;
  req.engine = "portfolio";
  req.timeout_seconds = 12.5;
  req.options.sat_conflict_limit = 1000;
  req.options.bdd_node_limit = 2000;
  req.options.max_terms = 3000;
  req.options.gb_max_reductions = 4000;
  req.options.gb_max_poly_terms = 5000;
  req.options.memory_budget_bytes = std::size_t{3} << 30;
  req.options.attempt_timeout_seconds = 1.25;
  req.options.portfolio_engines = {"abstraction", "sat"};
  req.options.portfolio_race = true;
  req.options.export_canonical = true;
  req.options.certify = true;
  req.simulate_crash = true;
  req.simulate_hang = true;
  req.heartbeat_interval_seconds = 0.25;
  req.stall_timeout_seconds = 7.5;
  req.trace = true;
  const Result<WorkerRequest> back = decode_request(encode_request(req));
  ASSERT_TRUE(back.ok()) << back.status().to_string();
  EXPECT_EQ(back->spec_path, req.spec_path);
  EXPECT_EQ(back->impl_path, req.impl_path);
  EXPECT_EQ(back->k, req.k);
  EXPECT_EQ(back->engine, req.engine);
  EXPECT_EQ(back->timeout_seconds, req.timeout_seconds);
  const engine::RunOptions& o = back->options;
  EXPECT_EQ(o.sat_conflict_limit, req.options.sat_conflict_limit);
  EXPECT_EQ(o.bdd_node_limit, req.options.bdd_node_limit);
  EXPECT_EQ(o.max_terms, req.options.max_terms);
  EXPECT_EQ(o.gb_max_reductions, req.options.gb_max_reductions);
  EXPECT_EQ(o.gb_max_poly_terms, req.options.gb_max_poly_terms);
  EXPECT_EQ(o.memory_budget_bytes, req.options.memory_budget_bytes);
  EXPECT_EQ(o.attempt_timeout_seconds, req.options.attempt_timeout_seconds);
  EXPECT_EQ(o.portfolio_engines, req.options.portfolio_engines);
  EXPECT_TRUE(o.portfolio_race);
  EXPECT_TRUE(o.export_canonical);
  EXPECT_TRUE(o.certify);
  EXPECT_TRUE(back->simulate_crash);
  EXPECT_TRUE(back->simulate_hang);
  EXPECT_EQ(back->heartbeat_interval_seconds, 0.25);
  EXPECT_EQ(back->stall_timeout_seconds, 7.5);
  EXPECT_TRUE(back->trace);
  // The child builds its own control from timeout_seconds.
  EXPECT_TRUE(o.control.deadline.is_infinite());
}

TEST(WorkerProtocol, RequestDecodeRejectsMissingPathsAndBadK) {
  WorkerRequest req;
  req.spec_path = "";
  req.impl_path = "/tmp/b.net";
  req.k = 8;
  EXPECT_FALSE(decode_request(encode_request(req)).ok());
  req.spec_path = "/tmp/a.net";
  req.k = 1;
  EXPECT_FALSE(decode_request(encode_request(req)).ok());
  EXPECT_FALSE(decode_request("not json").ok());
}

TEST(WorkerProtocol, ResponseCodecRoundTrips) {
  // The response frame is the child's EngineRun: every wire-carried field
  // away from its default.
  engine::EngineRun run;
  run.status = Status::resource_exhausted("out of terms");
  run.verdict = engine::Verdict::kNotEquivalent;
  run.detail = "counterexample at A=3";
  run.counterexample.inputs["A"] = "α^3 + 1";
  run.counterexample.output_word = "Z";
  run.counterexample.expected = "α";
  run.counterexample.actual = "1";
  run.counterexample.replayed = true;
  run.stats["substitutions"] = 123.0;
  run.stats["peak_terms"] = 456.0;
  run.wall_ms = 78.5;
  run.budget_limit_bytes = 1u << 20;
  run.budget_peak_bytes = 1234;
  run.peak_rss_bytes = std::uint64_t{123} << 20;
  run.canonical_spec = "spec form";
  run.canonical_impl = "impl form";
  engine::AttemptRecord a;
  a.engine = "abstraction";
  a.status = Status::worker_crashed("signal 11");
  a.detail = "attempt 1/2";
  a.wall_ms = 3.5;
  a.budget_peak_bytes = 2048;
  a.heartbeats = 4;
  a.last_phase = "lift";
  a.last_step = 9;
  run.attempts.push_back(a);
  engine::AttemptRecord b;
  b.engine = "sat";
  b.verdict = engine::Verdict::kEquivalent;
  b.skipped = true;
  b.detail = "already decided";
  run.attempts.push_back(b);
  const Result<engine::EngineRun> back = decode_response(encode_response(run));
  ASSERT_TRUE(back.ok()) << back.status().to_string();
  EXPECT_EQ(back->status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(back->status.message(), "out of terms");
  EXPECT_EQ(back->verdict, engine::Verdict::kNotEquivalent);
  EXPECT_EQ(back->detail, run.detail);
  EXPECT_EQ(back->counterexample.inputs, run.counterexample.inputs);
  EXPECT_EQ(back->counterexample.output_word, "Z");
  EXPECT_EQ(back->counterexample.expected, "α");
  EXPECT_EQ(back->counterexample.actual, "1");
  EXPECT_TRUE(back->counterexample.replayed);
  EXPECT_EQ(back->stats, run.stats);
  EXPECT_EQ(back->wall_ms, run.wall_ms);
  EXPECT_EQ(back->budget_limit_bytes, run.budget_limit_bytes);
  EXPECT_EQ(back->budget_peak_bytes, run.budget_peak_bytes);
  EXPECT_EQ(back->peak_rss_bytes, run.peak_rss_bytes);
  EXPECT_EQ(back->canonical_spec, "spec form");
  EXPECT_EQ(back->canonical_impl, "impl form");
  ASSERT_EQ(back->attempts.size(), 2u);
  const engine::AttemptRecord& a2 = back->attempts[0];
  EXPECT_EQ(a2.engine, "abstraction");
  EXPECT_EQ(a2.status.code(), StatusCode::kWorkerCrashed);
  EXPECT_EQ(a2.status.message(), "signal 11");
  EXPECT_FALSE(a2.skipped);
  EXPECT_EQ(a2.detail, "attempt 1/2");
  EXPECT_EQ(a2.wall_ms, 3.5);
  EXPECT_EQ(a2.budget_peak_bytes, 2048u);
  EXPECT_EQ(a2.heartbeats, 4u);
  EXPECT_EQ(a2.last_phase, "lift");
  EXPECT_EQ(a2.last_step, 9u);
  EXPECT_TRUE(back->attempts[1].skipped);
  EXPECT_EQ(back->attempts[1].verdict, engine::Verdict::kEquivalent);
  EXPECT_EQ(back->attempts[1].detail, "already decided");
}

TEST(WorkerProtocol, FramesCrossAPipe) {
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  const std::string payload = "{\"hello\": \"world\"}";
  ASSERT_TRUE(write_frame(fds[1], payload).ok());
  const Result<std::string> got = read_frame(fds[0], Deadline::infinite());
  ASSERT_TRUE(got.ok()) << got.status().to_string();
  EXPECT_EQ(*got, payload);
  close(fds[0]);
  close(fds[1]);
}

TEST(WorkerProtocol, ClosedPipeReadsAsWorkerCrashed) {
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  close(fds[1]);  // writer gone before any frame
  const Result<std::string> got = read_frame(fds[0], Deadline::infinite());
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kWorkerCrashed);
  close(fds[0]);
}

TEST(WorkerProtocol, OversizedLengthPrefixIsProtocolCorruption) {
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  const std::uint32_t huge = kMaxFrameBytes + 1;
  unsigned char header[4] = {
      static_cast<unsigned char>(huge & 0xFF),
      static_cast<unsigned char>((huge >> 8) & 0xFF),
      static_cast<unsigned char>((huge >> 16) & 0xFF),
      static_cast<unsigned char>((huge >> 24) & 0xFF)};
  ASSERT_EQ(write(fds[1], header, 4), 4);
  const Result<std::string> got = read_frame(fds[0], Deadline::infinite());
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
  close(fds[0]);
  close(fds[1]);
}

TEST(WorkerProtocol, FramesSurviveASignalStorm) {
  // Regression for the EINTR/partial-I/O hardening: a megabyte frame pushed
  // through a socketpair whose buffers hold only a few kilobytes forces many
  // partial read()/write() rounds, while a third thread storms both
  // endpoints with SIGUSR1 registered *without* SA_RESTART — so the
  // syscalls genuinely return EINTR instead of resuming silently. The frame
  // must round-trip intact; before the hardening this lost bytes mid-frame.
  int sv[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  const int tiny = 4096;
  setsockopt(sv[0], SOL_SOCKET, SO_SNDBUF, &tiny, sizeof(tiny));
  setsockopt(sv[1], SOL_SOCKET, SO_RCVBUF, &tiny, sizeof(tiny));

  struct sigaction storm_action {};
  storm_action.sa_handler = [](int) {};
  sigemptyset(&storm_action.sa_mask);
  storm_action.sa_flags = 0;  // deliberately no SA_RESTART
  struct sigaction old_action {};
  ASSERT_EQ(sigaction(SIGUSR1, &storm_action, &old_action), 0);

  std::string payload(1 << 20, '\0');
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<char>('a' + i % 23);

  Status write_status;
  std::thread writer([&] { write_status = write_frame(sv[0], payload); });
  const pthread_t writer_tid = writer.native_handle();
  const pthread_t reader_tid = pthread_self();
  std::atomic<bool> done{false};
  std::thread storm([&] {
    while (!done.load()) {
      pthread_kill(writer_tid, SIGUSR1);
      pthread_kill(reader_tid, SIGUSR1);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  const Result<std::string> got = read_frame(sv[1], Deadline::after(60.0));
  writer.join();
  done.store(true);
  storm.join();
  ASSERT_EQ(sigaction(SIGUSR1, &old_action, nullptr), 0);

  ASSERT_TRUE(write_status.ok()) << write_status.to_string();
  ASSERT_TRUE(got.ok()) << got.status().to_string();
  EXPECT_EQ(*got, payload);
  close(sv[0]);
  close(sv[1]);
}

TEST(WorkerProtocol, TelemetryRequestFieldsRoundTrip) {
  WorkerRequest req;
  req.spec_path = "/tmp/a.net";
  req.impl_path = "/tmp/b.net";
  req.k = 8;
  req.heartbeat_interval_seconds = 0.25;
  req.stall_timeout_seconds = 7.5;
  req.trace = true;
  const Result<WorkerRequest> back = decode_request(encode_request(req));
  ASSERT_TRUE(back.ok()) << back.status().to_string();
  EXPECT_EQ(back->heartbeat_interval_seconds, 0.25);
  EXPECT_EQ(back->stall_timeout_seconds, 7.5);
  EXPECT_TRUE(back->trace);
}

TEST(WorkerProtocol, ResponsePeakRssRoundTrips) {
  engine::EngineRun run;
  run.peak_rss_bytes = std::uint64_t{123} << 20;
  const Result<engine::EngineRun> back = decode_response(encode_response(run));
  ASSERT_TRUE(back.ok()) << back.status().to_string();
  EXPECT_TRUE(back->status.ok());
  EXPECT_EQ(back->peak_rss_bytes, run.peak_rss_bytes);
}

TEST(WorkerProtocol, FrameKindDiscriminatesTheStream) {
  const auto kind_of = [](std::string_view json) {
    const Result<JsonValue> doc = parse_json(json);
    EXPECT_TRUE(doc.ok());
    return frame_kind(*doc);
  };
  EXPECT_EQ(kind_of("{\"frame\": \"telemetry\"}"), FrameKind::kTelemetry);
  EXPECT_EQ(kind_of("{\"frame\": \"trace\"}"), FrameKind::kTrace);
  EXPECT_EQ(kind_of("{\"frame\": \"flight\"}"), FrameKind::kFlight);
  EXPECT_EQ(kind_of("{\"frame\": \"response\"}"), FrameKind::kResponse);
  // The legacy single-frame protocol has no "frame" key at all.
  EXPECT_EQ(kind_of("{\"status\": \"kOk\"}"), FrameKind::kResponse);
  EXPECT_EQ(kind_of("{\"frame\": \"???\"}"), FrameKind::kResponse);
}

TEST(WorkerProtocol, TelemetryFrameCodecRoundTrips) {
  TelemetryFrame t;
  t.phase = "reduction_chain";
  t.step = 1234;
  t.rss_bytes = std::uint64_t{2} << 30;
  const Result<JsonValue> doc = parse_json(encode_telemetry_frame(t));
  ASSERT_TRUE(doc.ok()) << doc.status().to_string();
  EXPECT_EQ(frame_kind(*doc), FrameKind::kTelemetry);
  const Result<TelemetryFrame> back = decode_telemetry_frame(*doc);
  ASSERT_TRUE(back.ok()) << back.status().to_string();
  EXPECT_EQ(back->phase, t.phase);
  EXPECT_EQ(back->step, t.step);
  EXPECT_EQ(back->rss_bytes, t.rss_bytes);
}

TEST(WorkerProtocol, TraceFrameCodecRoundTrips) {
  TraceFramePayload payload;
  payload.epoch_us = 99887766;
  obs::TraceEvent e;
  e.name = "reduction_chain";
  e.category = "abstraction";
  e.start_us = 100;
  e.duration_us = 250;
  e.tid = 3;
  payload.events.push_back(e);
  e.name = "case2_lift";
  e.start_us = 400;
  payload.events.push_back(e);
  const Result<JsonValue> doc = parse_json(encode_trace_frame(payload));
  ASSERT_TRUE(doc.ok()) << doc.status().to_string();
  EXPECT_EQ(frame_kind(*doc), FrameKind::kTrace);
  const Result<TraceFramePayload> back = decode_trace_frame(*doc);
  ASSERT_TRUE(back.ok()) << back.status().to_string();
  EXPECT_EQ(back->epoch_us, payload.epoch_us);
  ASSERT_EQ(back->events.size(), 2u);
  EXPECT_EQ(back->events[0].name, "reduction_chain");
  EXPECT_STREQ(back->events[0].category, "abstraction");
  EXPECT_EQ(back->events[0].start_us, 100u);
  EXPECT_EQ(back->events[0].duration_us, 250u);
  EXPECT_EQ(back->events[0].tid, 3u);
  EXPECT_EQ(back->events[1].name, "case2_lift");
}

TEST(WorkerProtocol, FlightDumpFrameDecodesWhatTheHandlerEmits) {
  // dump_frame is the hand-rolled async-signal-safe encoder the crash
  // handler runs; decode_flight_frame must parse exactly what it writes.
  obs::flight::clear();
  obs::flight::note("worker:start", 163);
  obs::flight::note("reduction_chain", 42, 98765);
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  obs::flight::dump_frame(fds[1]);
  const Result<std::string> raw = read_frame(fds[0], Deadline::infinite());
  close(fds[0]);
  close(fds[1]);
  ASSERT_TRUE(raw.ok()) << raw.status().to_string();
  const Result<JsonValue> doc = parse_json(*raw);
  ASSERT_TRUE(doc.ok()) << doc.status().to_string();
  EXPECT_EQ(frame_kind(*doc), FrameKind::kFlight);
  const Result<std::vector<obs::flight::Event>> events =
      decode_flight_frame(*doc);
  ASSERT_TRUE(events.ok()) << events.status().to_string();
  ASSERT_EQ(events->size(), 2u);
  EXPECT_STREQ((*events)[0].tag, "worker:start");
  EXPECT_EQ((*events)[0].a, 163u);
  EXPECT_STREQ((*events)[1].tag, "reduction_chain");
  EXPECT_EQ((*events)[1].a, 42u);
  EXPECT_EQ((*events)[1].b, 98765u);
  EXPECT_GT((*events)[1].seq, (*events)[0].seq);
  obs::flight::clear();
}

// ---------------------------------------------------------------------------
// Retry policy.

TEST(RetryPolicy, DelaysAreDeterministicBoundedAndClamped) {
  RetryPolicy p;
  p.backoff_seconds = 0.1;
  // No delay before the first attempt, then backoff_seconds doubling.
  EXPECT_EQ(p.delay_before_attempt(1), 0.0);
  EXPECT_DOUBLE_EQ(p.delay_before_attempt(2), 0.1);
  EXPECT_DOUBLE_EQ(p.delay_before_attempt(3), 0.2);
  EXPECT_DOUBLE_EQ(p.delay_before_attempt(4), 0.4);
  EXPECT_DOUBLE_EQ(p.delay_before_attempt(5), 0.8);
  // 0.1 * 2^8 = 25.6 s is below the cap; 51.2 s clamps to 30 s, and so does
  // every later attempt.
  EXPECT_DOUBLE_EQ(p.delay_before_attempt(10), 25.6);
  EXPECT_EQ(p.delay_before_attempt(11), 30.0);
  EXPECT_EQ(p.delay_before_attempt(1000), 30.0);
  // A base above the cap clamps from the first retry on.
  p.backoff_seconds = 45.0;
  EXPECT_EQ(p.delay_before_attempt(2), 30.0);
}

TEST(RetryPolicy, OnlyTransientCodesAreRetryable) {
  EXPECT_TRUE(RetryPolicy::retryable(StatusCode::kWorkerCrashed));
  EXPECT_TRUE(RetryPolicy::retryable(StatusCode::kResourceExhausted));
  EXPECT_TRUE(RetryPolicy::retryable(StatusCode::kInternal));
  EXPECT_FALSE(RetryPolicy::retryable(StatusCode::kInvalidArgument));
  EXPECT_FALSE(RetryPolicy::retryable(StatusCode::kParseError));
  EXPECT_FALSE(RetryPolicy::retryable(StatusCode::kUnsupported));
  EXPECT_FALSE(RetryPolicy::retryable(StatusCode::kDeadlineExceeded));
  EXPECT_FALSE(RetryPolicy::retryable(StatusCode::kCancelled));
}

// ---------------------------------------------------------------------------
// Supervised forked runs.

TEST(WorkerHarness, CleanIsolatedRunDecidesEquivalent) {
  const Instance inst = make_instance(8);
  const engine::EngineRun run = run_in_worker(inst.req);
  ASSERT_TRUE(run.status.ok()) << run.status.to_string();
  EXPECT_EQ(run.verdict, engine::Verdict::kEquivalent);
  EXPECT_GT(run.wall_ms, 0.0);
  EXPECT_GT(run.stats.at("spec_substitutions"), 0.0);
}

TEST(WorkerHarness, MissingCircuitFileFailsInsideTheSandbox) {
  Instance inst = make_instance(4);
  inst.req.spec_path = inst.dir + "/no_such_file.net";
  const engine::EngineRun run = run_in_worker(inst.req);
  ASSERT_FALSE(run.status.ok());
  // The child reports its own parse failure over the pipe — this is the
  // engine's status, not a supervisor crash classification.
  EXPECT_NE(run.status.code(), StatusCode::kWorkerCrashed);
  EXPECT_FALSE(RetryPolicy::retryable(run.status.code()));
}

TEST(WorkerHarness, InjectedCrashClassifiesAsWorkerCrashedExit71) {
  if (!fault::compiled_in()) GTEST_SKIP() << "GFA_FAULT_INJECTION is off";
  Disarmer disarm;
  const Instance inst = make_instance(8);
  ASSERT_TRUE(fault::arm("worker:crash", 1).ok());
  const engine::EngineRun run = run_in_worker(inst.req);
  EXPECT_TRUE(fault::fired());
  ASSERT_FALSE(run.status.ok());
  EXPECT_EQ(run.status.code(), StatusCode::kWorkerCrashed);
  EXPECT_EQ(exit_code_for(run.status.code()), 71);
}

TEST(WorkerHarness, RealSigkillMidRunIsWorkerCrashed) {
  const Instance inst = make_instance(32);
  WorkerConfig config;
  config.on_spawn = [](pid_t pid) { kill(pid, SIGKILL); };
  const engine::EngineRun run = run_in_worker(inst.req, config);
  ASSERT_FALSE(run.status.ok());
  EXPECT_EQ(run.status.code(), StatusCode::kWorkerCrashed);
  EXPECT_NE(run.status.message().find("signal 9"), std::string::npos)
      << run.status.message();
}

TEST(WorkerHarness, HangingWorkerIsKilledAtTheWallClock) {
  if (!fault::compiled_in()) GTEST_SKIP() << "GFA_FAULT_INJECTION is off";
  Disarmer disarm;
  Instance inst = make_instance(8);
  inst.req.timeout_seconds = 0.3;
  ASSERT_TRUE(fault::arm("worker:hang", 1).ok());
  WorkerConfig config;
  config.kill_grace_seconds = 0.2;  // the hang ignores SIGTERM; SIGKILL wins
  const engine::EngineRun run = run_in_worker(inst.req, config);
  EXPECT_TRUE(fault::fired());
  ASSERT_FALSE(run.status.ok());
  EXPECT_EQ(run.status.code(), StatusCode::kDeadlineExceeded)
      << run.status.to_string();
  EXPECT_LT(run.wall_ms, 10000.0);
}

TEST(WorkerHarness, RetryRecoversFromAnInjectedCrash) {
  if (!fault::compiled_in()) GTEST_SKIP() << "GFA_FAULT_INJECTION is off";
  Disarmer disarm;
  const Instance inst = make_instance(8);
  ASSERT_TRUE(fault::arm("worker:crash", 1).ok());
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.backoff_seconds = 0.01;  // keep the test fast
  const engine::EngineRun run = run_isolated_with_retry(inst.req, policy);
  ASSERT_TRUE(run.status.ok()) << run.status.to_string();
  EXPECT_EQ(run.verdict, engine::Verdict::kEquivalent);
  EXPECT_EQ(run.stats.at("worker_attempts"), 2.0);
  ASSERT_EQ(run.attempts.size(), 2u);
  EXPECT_EQ(run.attempts[0].status.code(), StatusCode::kWorkerCrashed);
  EXPECT_TRUE(run.attempts[1].status.ok());
}

TEST(WorkerHarness, RetriedPortfolioKeepsForksAndEngineAttempts) {
  if (!fault::compiled_in()) GTEST_SKIP() << "GFA_FAULT_INJECTION is off";
  Disarmer disarm;
  Instance inst = make_instance(8);
  inst.req.engine = "portfolio";
  ASSERT_TRUE(fault::arm("worker:crash", 1).ok());
  RetryPolicy policy;
  policy.max_attempts = 2;
  policy.backoff_seconds = 0.01;
  const engine::EngineRun run = run_isolated_with_retry(inst.req, policy);
  ASSERT_TRUE(run.status.ok()) << run.status.to_string();
  EXPECT_EQ(run.verdict, engine::Verdict::kEquivalent);
  // The two fork records, then the final fork's portfolio attempts.
  ASSERT_EQ(run.attempts.size(), 5u);
  EXPECT_EQ(run.attempts[0].engine, "portfolio");
  EXPECT_EQ(run.attempts[0].status.code(), StatusCode::kWorkerCrashed);
  EXPECT_EQ(run.attempts[1].engine, "portfolio");
  EXPECT_TRUE(run.attempts[1].status.ok());
  EXPECT_EQ(run.attempts[2].engine, "abstraction");
  EXPECT_EQ(run.attempts[2].verdict, engine::Verdict::kEquivalent);
  EXPECT_EQ(run.attempts[3].engine, "ideal-membership");
  EXPECT_EQ(run.attempts[4].engine, "sat");
}

TEST(WorkerHarness, CrashWithoutRetriesStaysFailed) {
  if (!fault::compiled_in()) GTEST_SKIP() << "GFA_FAULT_INJECTION is off";
  Disarmer disarm;
  const Instance inst = make_instance(8);
  ASSERT_TRUE(fault::arm("worker:crash", 1).ok());
  RetryPolicy policy;  // max_attempts = 1: never retry
  const engine::EngineRun run = run_isolated_with_retry(inst.req, policy);
  ASSERT_FALSE(run.status.ok());
  EXPECT_EQ(run.status.code(), StatusCode::kWorkerCrashed);
}

TEST(WorkerHarness, NonRetryableFailureRunsExactlyOnce) {
  Instance inst = make_instance(4);
  inst.req.spec_path = inst.dir + "/no_such_file.net";
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.backoff_seconds = 0.01;
  const engine::EngineRun run = run_isolated_with_retry(inst.req, policy);
  ASSERT_FALSE(run.status.ok());
  EXPECT_EQ(run.stats.at("worker_attempts"), 1.0);
}

// ---------------------------------------------------------------------------
// Telemetry across the worker boundary.

TEST(WorkerHarness, CleanIsolatedRunCarriesTelemetry) {
  Instance inst = make_instance(8);
  inst.req.heartbeat_interval_seconds = 0.01;
  const engine::EngineRun run = run_in_worker(inst.req);
  ASSERT_TRUE(run.status.ok()) << run.status.to_string();
  // Phase changes flush a frame immediately, so even a run far shorter than
  // the heartbeat interval reports its progression.
  EXPECT_GE(run.heartbeats, 1u);
  EXPECT_FALSE(run.last_phase.empty());
  EXPECT_GT(run.peak_rss_bytes, 0u);
}

TEST(WorkerHarness, HeartbeatZeroIsTheDarkBaseline) {
  Instance inst = make_instance(8);
  inst.req.heartbeat_interval_seconds = 0.0;
  const engine::EngineRun run = run_in_worker(inst.req);
  ASSERT_TRUE(run.status.ok()) << run.status.to_string();
  EXPECT_EQ(run.heartbeats, 0u);
  EXPECT_TRUE(run.last_phase.empty());
}

TEST(WorkerHarness, CrashReportCarriesTheFlightRecorderTail) {
  if (!fault::compiled_in()) GTEST_SKIP() << "GFA_FAULT_INJECTION is off";
  Disarmer disarm;
  const Instance inst = make_instance(8);
  ASSERT_TRUE(fault::arm("worker:crash", 1).ok());
  RetryPolicy policy;  // max_attempts = 1: the crash is the outcome
  const engine::EngineRun run = run_isolated_with_retry(inst.req, policy);
  ASSERT_FALSE(run.status.ok());
  EXPECT_EQ(run.status.code(), StatusCode::kWorkerCrashed);
  // The child's SIGABRT handler dumped the ring over the pipe before dying.
  ASSERT_FALSE(run.flight_events.empty());
  bool saw_start = false;
  for (const std::string& line : run.flight_events)
    if (line.find("worker:start") != std::string::npos) saw_start = true;
  EXPECT_TRUE(saw_start) << run.flight_events.front();
  // Even a lone failed attempt appears in the per-attempt history.
  ASSERT_EQ(run.attempts.size(), 1u);
  EXPECT_EQ(run.attempts[0].status.code(), StatusCode::kWorkerCrashed);
}

TEST(WorkerHarness, StallDetectorFiresBeforeTheWallClock) {
  if (!fault::compiled_in()) GTEST_SKIP() << "GFA_FAULT_INJECTION is off";
  Disarmer disarm;
  Instance inst = make_instance(8);
  inst.req.timeout_seconds = 30.0;  // the wall alone would wait far longer
  inst.req.heartbeat_interval_seconds = 0.05;
  inst.req.stall_timeout_seconds = 0.4;
  ASSERT_TRUE(fault::arm("worker:hang", 1).ok());
  WorkerConfig config;
  config.kill_grace_seconds = 0.2;  // the hang ignores SIGTERM; SIGKILL wins
  const auto t0 = std::chrono::steady_clock::now();
  const engine::EngineRun run = run_in_worker(inst.req, config);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_TRUE(fault::fired());
  ASSERT_FALSE(run.status.ok());
  // A stall is a crash-class (retryable) failure, not kDeadlineExceeded.
  EXPECT_EQ(run.status.code(), StatusCode::kWorkerCrashed)
      << run.status.to_string();
  EXPECT_NE(run.status.message().find("stalled"), std::string::npos)
      << run.status.message();
  EXPECT_EQ(run.stats.at("worker_stalled"), 1.0);
  EXPECT_LT(elapsed, 10.0) << "stall detector should beat the 30s wall";
}

TEST(WorkerHarness, ChildTraceEventsMergeOntoTheParentTimeline) {
  const bool was_enabled = obs::trace_enabled();
  obs::set_trace_enabled(true);
  obs::Tracer::instance().clear();
  Instance inst = make_instance(8);
  inst.req.heartbeat_interval_seconds = 0.01;
  const engine::EngineRun run = run_in_worker(inst.req);
  const std::vector<obs::TraceEvent> events = obs::Tracer::instance().events();
  obs::Tracer::instance().clear();
  obs::set_trace_enabled(was_enabled);
  ASSERT_TRUE(run.status.ok()) << run.status.to_string();
  bool parent_event = false;
  bool child_event = false;
  for (const obs::TraceEvent& e : events) {
    if (e.pid == 0) parent_event = true;  // the supervisor's own spans
    else child_event = true;              // re-stamped spans from the child
  }
  EXPECT_TRUE(parent_event);
  EXPECT_TRUE(child_event);
}

// A forked worker inherits the parent's memory but none of its threads. A
// parallel_for whose helper threads outlived their loop left the child a
// condition variable that only those threads could release: forked right
// after a loop, one child in ten or so hung in its first loop. Helpers that
// live for one loop leave nothing behind to wait on.
TEST(WorkerHarness, ChildLoopsNeverWaitOnParentThreads) {
  const unsigned before = parallel_thread_count();
  set_parallel_thread_count(4);
  constexpr int kChildren = 300;
  std::atomic<int> parent_items{0};
  int hung = 0;
  int failed = 0;
  for (int c = 0; c < kChildren; ++c) {
    parallel_for(64, [&](std::size_t) { parent_items.fetch_add(1); });
    const pid_t pid = fork();
    ASSERT_GE(pid, 0) << std::strerror(errno);
    if (pid == 0) {
      alarm(2);  // a hung child dies of SIGALRM
      std::atomic<int> items{0};
      for (int loop = 0; loop < 100; ++loop)
        parallel_for(64, [&](std::size_t) { items.fetch_add(1); });
      _exit(items.load() == 64 * 100 ? 0 : 1);
    }
    int wstatus = 0;
    ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
    if (WIFSIGNALED(wstatus) && WTERMSIG(wstatus) == SIGALRM) ++hung;
    else if (!WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0) ++failed;
  }
  set_parallel_thread_count(before);
  EXPECT_EQ(parent_items.load(), 64 * kChildren);
  EXPECT_EQ(hung, 0) << hung << " of " << kChildren << " children hung";
  EXPECT_EQ(failed, 0) << failed << " of " << kChildren << " children failed";
}

// ---------------------------------------------------------------------------
// The portfolio's verdict is the deciding attempt's, certified once — the
// same in-process and as a whole forked run.

/// Runs the portfolio on the instance's files: through run_engine() in this
/// process, or forked whole through run_isolated_with_retry().
engine::EngineRun run_portfolio(const std::string& spec_path,
                                const std::string& impl_path, unsigned k,
                                bool isolate, bool certify) {
  if (isolate) {
    WorkerRequest req;
    req.spec_path = spec_path;
    req.impl_path = impl_path;
    req.k = k;
    req.engine = "portfolio";
    req.options.certify = certify;
    return run_isolated_with_retry(req, RetryPolicy{});
  }
  const Gf2k field = Gf2k::make(k);
  const Result<Netlist> spec = try_read_netlist_file(spec_path);
  const Result<Netlist> impl = try_read_netlist_file(impl_path);
  EXPECT_TRUE(spec.ok() && impl.ok());
  engine::RunOptions options;
  options.certify = certify;
  return engine::run_engine(*engine::EngineRegistry::global().find("portfolio"),
                            *spec, *impl, field, options);
}

class PortfolioModes : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override { obs::set_metrics_enabled(true); }
  void TearDown() override { obs::set_metrics_enabled(false); }
};

TEST_P(PortfolioModes, CertifiesTheFinalVerdictExactlyOnce) {
  if (!fault::compiled_in()) GTEST_SKIP() << "GFA_FAULT_INJECTION is off";
  Disarmer disarm;
  const bool isolated = GetParam();
  const Instance inst = make_instance(8);
  // The first certification is the portfolio's own: it fails the run
  // instead of sending the portfolio on to the next engine. A forked run
  // inherits the armed site; it fires in the child, so only the run record
  // (not this process's fault state or metrics) shows it there.
  ASSERT_TRUE(fault::arm_spec("certify:mismatch:1").ok());
  obs::Metrics::instance().reset_all();
  const engine::EngineRun failed = run_portfolio(
      inst.req.spec_path, inst.req.impl_path, 8, isolated, true);
  if (!isolated) {
    EXPECT_TRUE(fault::fired());
  }
  EXPECT_EQ(failed.status.code(), StatusCode::kCertificationFailed)
      << failed.status.to_string();
  EXPECT_EQ(exit_code_for(failed.status.code()), 73);
  ASSERT_FALSE(failed.attempts.empty());
  EXPECT_EQ(failed.attempts[0].engine, "abstraction");
  EXPECT_TRUE(failed.attempts[0].status.ok());
  // There is no second certification for a fault at hit 2 to trip.
  fault::disarm();
  ASSERT_TRUE(fault::arm_spec("certify:mismatch:2").ok());
  obs::Metrics::instance().reset_all();
  const engine::EngineRun passed = run_portfolio(
      inst.req.spec_path, inst.req.impl_path, 8, isolated, true);
  EXPECT_FALSE(fault::fired());
  ASSERT_TRUE(passed.status.ok()) << passed.status.to_string();
  EXPECT_EQ(passed.verdict, engine::Verdict::kEquivalent);
  EXPECT_GT(passed.stats.at("certify_points"), 0.0);
  if (!isolated) {
    EXPECT_EQ(obs::Metrics::instance().counter("certify.runs").value(), 1u);
    EXPECT_GT(obs::Metrics::instance().counter("certify.points").value(), 0u);
  }
}

TEST_P(PortfolioModes, KeepsTheDecidingAttemptsCounterexample) {
  const Instance inst = make_instance(8);
  const std::string mutant = inst.dir + "/mutant.net";
  const Result<Netlist> impl = try_read_netlist_file(inst.req.impl_path);
  ASSERT_TRUE(impl.ok());
  write_netlist_file(inject_random_bug(*impl, 3), mutant);
  const Gf2k field = Gf2k::make(8);
  const Result<Netlist> spec = try_read_netlist_file(inst.req.spec_path);
  const Result<Netlist> bug = try_read_netlist_file(mutant);
  ASSERT_TRUE(spec.ok() && bug.ok());
  const engine::EngineRun alone = engine::run_engine(
      *engine::EngineRegistry::global().find("abstraction"), *spec, *bug,
      field, {});
  ASSERT_EQ(alone.verdict, engine::Verdict::kNotEquivalent);
  ASSERT_TRUE(alone.counterexample.replayed);

  obs::Metrics::instance().reset_all();
  const bool isolated = GetParam();
  const engine::EngineRun run =
      run_portfolio(inst.req.spec_path, mutant, 8, isolated, false);
  ASSERT_TRUE(run.status.ok()) << run.status.to_string();
  EXPECT_EQ(run.verdict, engine::Verdict::kNotEquivalent);
  EXPECT_EQ(run.counterexample.inputs, alone.counterexample.inputs);
  EXPECT_EQ(run.counterexample.output_word, alone.counterexample.output_word);
  EXPECT_EQ(run.counterexample.expected, alone.counterexample.expected);
  EXPECT_EQ(run.counterexample.actual, alone.counterexample.actual);
  EXPECT_TRUE(run.counterexample.replayed);
  ASSERT_FALSE(run.attempts.empty());
  EXPECT_EQ(run.attempts[0].engine, "abstraction");
  EXPECT_EQ(run.attempts[0].verdict, engine::Verdict::kNotEquivalent);
  // A forked run counts its backfills in the child; the exact match above
  // already shows the abstraction attempt's witness was kept.
  if (!isolated) {
    EXPECT_EQ(obs::Metrics::instance().counter("witness.backfills").value(),
              0u);
  }
}

INSTANTIATE_TEST_SUITE_P(InProcessAndIsolated, PortfolioModes,
                         ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Isolated" : "InProcess";
                         });

}  // namespace
}  // namespace gfa::worker
