// Tests for the verification service (src/service/): the job wire codecs,
// socket lifecycle (stale file takeover, live-server refusal), admission
// control (queue-full -> kResourceExhausted), graceful drain (in-flight jobs
// complete, late connects refused, serve() exits 0), crash containment, and
// the concurrency soak the ISSUE asks for — 8 concurrent clients, mixed k,
// injected worker:crash and cache:corrupt mid-run, every verdict correct,
// zero daemon restarts, cache hit-rate > 0. The CI robustness job runs this
// under ASan+UBSan.

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "abstraction/equivalence.h"
#include "circuit/mastrovito.h"
#include "circuit/montgomery.h"
#include "circuit/mutate.h"
#include "circuit/parser.h"
#include "service/client.h"
#include "service/service.h"
#include "test_util.h"
#include "util/fault_inject.h"
#include "util/json_reader.h"

namespace gfa {
namespace {

using service::JobRequest;
using service::JobResponse;
using service::ServerOptions;
using service::ServiceClient;

struct Disarmer {
  ~Disarmer() { fault::disarm(); }
};

std::string temp_dir() {
  std::string tmpl = ::testing::TempDir() + "gfa_service_XXXXXX";
  const char* dir = mkdtemp(tmpl.data());
  EXPECT_NE(dir, nullptr);
  return dir;
}

/// The Mastrovito/Montgomery pair for F_2^k plus a mutated (buggy) Mastrovito
/// whose non-equivalence is established by a direct in-process check, so the
/// soak asserts against ground truth rather than assumptions about seeds.
struct Instance {
  std::string dir;
  std::string spec;  // Mastrovito
  std::string impl;  // Montgomery (equivalent to spec)
  std::string bug;   // mutated Mastrovito (not equivalent to spec)
};

Instance make_instance(unsigned k) {
  Instance inst;
  inst.dir = temp_dir();
  const Gf2k field = Gf2k::make(k);
  const Netlist spec = make_mastrovito_multiplier(field);
  inst.spec = inst.dir + "/spec.net";
  inst.impl = inst.dir + "/impl.net";
  inst.bug = inst.dir + "/bug.net";
  write_netlist_file(spec, inst.spec);
  write_netlist_file(make_montgomery_multiplier_flat(field), inst.impl);
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    const Netlist cand = inject_random_bug(spec, seed);
    const Result<EquivalenceResult> check =
        try_check_equivalence(spec, cand, field);
    if (check.ok() && !check->equivalent) {
      write_netlist_file(cand, inst.bug);
      return inst;
    }
  }
  ADD_FAILURE() << "no functionally distinct mutation found for k=" << k;
  return inst;
}

/// An in-process daemon: start() binds and spawns the pool, serve() runs on a
/// background thread, drain_and_join() returns serve()'s exit code.
struct TestServer {
  std::unique_ptr<service::Server> server;
  std::thread thread;
  int exit_code = -1;

  Status start(ServerOptions options) {
    server = std::make_unique<service::Server>(std::move(options));
    Status s = server->start();
    if (!s.ok()) return s;
    thread = std::thread([this] { exit_code = server->serve(); });
    return {};
  }

  int drain_and_join() {
    server->request_drain();
    if (thread.joinable()) thread.join();
    return exit_code;
  }

  /// Polls the snapshot until `pred` holds (or ~10 s pass).
  template <typename Pred>
  bool wait_for(Pred pred) {
    for (int i = 0; i < 2000; ++i) {
      if (pred(server->snapshot())) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return false;
  }

  ~TestServer() {
    if (server != nullptr && thread.joinable()) {
      server->request_drain();
      thread.join();
    }
  }
};

ServerOptions base_options(const std::string& socket_path) {
  ServerOptions options;
  options.socket_path = socket_path;
  options.pool_size = 2;
  options.queue_depth = 16;
  options.cache_enabled = true;
  options.default_timeout_seconds = 60.0;
  options.max_attempts = 2;
  options.heartbeat_interval_seconds = 0.1;
  return options;
}

JobRequest verify_request(const std::string& spec, const std::string& impl,
                          unsigned k) {
  JobRequest req;
  req.op = "verify";
  req.spec_path = spec;
  req.impl_path = impl;
  req.k = k;
  return req;
}

// ---------------------------------------------------------------------------
// Wire codecs.

TEST(ServiceProtocol, RequestCodecRoundTrips) {
  JobRequest req;
  req.op = "verify";
  req.id = 99;
  req.spec_path = "/tmp/a \"q\".net";
  req.impl_path = "/tmp/b.net";
  req.k = 163;
  req.engine = "portfolio";
  req.timeout_seconds = 7.5;
  req.memory_budget_bytes = std::uint64_t{3} << 30;
  req.no_cache = true;
  const Result<JobRequest> back =
      service::decode_job_request(service::encode_job_request(req));
  ASSERT_TRUE(back.ok()) << back.status().to_string();
  EXPECT_EQ(back->op, req.op);
  EXPECT_EQ(back->id, req.id);
  EXPECT_EQ(back->spec_path, req.spec_path);
  EXPECT_EQ(back->impl_path, req.impl_path);
  EXPECT_EQ(back->k, req.k);
  EXPECT_EQ(back->engine, req.engine);
  EXPECT_EQ(back->timeout_seconds, req.timeout_seconds);
  EXPECT_EQ(back->memory_budget_bytes, req.memory_budget_bytes);
  EXPECT_EQ(back->no_cache, req.no_cache);
}

TEST(ServiceProtocol, ResponseCodecRoundTrips) {
  JobResponse resp;
  resp.op = "verify";
  resp.id = 7;
  resp.status = Status::with_code(StatusCode::kWorkerCrashed,
                                  "child died with signal 6");
  resp.verdict = engine::Verdict::kNotEquivalent;
  resp.detail = "coefficient mismatch at A^2B";
  resp.wall_ms = 123.5;
  resp.cache = "hit";
  resp.stats["worker_attempts"] = 2.0;
  resp.counterexample.inputs = {{"A", "x^2 + 1"}, {"B", "x"}};
  resp.counterexample.output_word = "Z";
  resp.counterexample.expected = "x^3 + x";
  resp.counterexample.actual = "x + 1";
  resp.counterexample.replayed = true;
  const Result<JobResponse> back =
      service::decode_job_response(service::encode_job_response(resp));
  ASSERT_TRUE(back.ok()) << back.status().to_string();
  EXPECT_EQ(back->id, resp.id);
  EXPECT_EQ(back->status.code(), StatusCode::kWorkerCrashed);
  EXPECT_EQ(back->status.message(), "child died with signal 6");
  EXPECT_EQ(back->verdict, engine::Verdict::kNotEquivalent);
  EXPECT_EQ(back->detail, resp.detail);
  EXPECT_EQ(back->wall_ms, resp.wall_ms);
  EXPECT_EQ(back->cache, resp.cache);
  EXPECT_EQ(back->stats, resp.stats);
  EXPECT_EQ(back->counterexample.inputs, resp.counterexample.inputs);
  EXPECT_EQ(back->counterexample.output_word, "Z");
  EXPECT_EQ(back->counterexample.expected, "x^3 + x");
  EXPECT_EQ(back->counterexample.actual, "x + 1");
  EXPECT_TRUE(back->counterexample.replayed);
}

TEST(ServiceProtocol, ClearQuarantineOpRoundTrips) {
  JobRequest req;
  req.op = "clear-quarantine";
  req.id = 12;
  const Result<JobRequest> back =
      service::decode_job_request(service::encode_job_request(req));
  ASSERT_TRUE(back.ok()) << back.status().to_string();
  EXPECT_EQ(back->op, "clear-quarantine");
  EXPECT_EQ(back->id, 12u);
}

TEST(ServiceProtocol, DecodeRejectsGarbage) {
  EXPECT_FALSE(service::decode_job_request("not json").ok());
  EXPECT_FALSE(service::decode_job_request("{\"op\":\"reboot\"}").ok());
  EXPECT_FALSE(service::decode_job_response("[]").ok());
}

// ---------------------------------------------------------------------------
// Socket lifecycle.

// The job-response bytes from before the outcome's JSON moved into shared
// writers (engine/report.h): clients parse these.
service::JobResponse golden_refuted_job() {
  service::JobResponse resp;
  resp.id = 7;
  resp.verdict = engine::Verdict::kNotEquivalent;
  resp.detail = "coefficients differ on 1 monomial(s)";
  resp.counterexample.inputs["A"] = "α^2";
  resp.counterexample.inputs["B"] = "1";
  resp.counterexample.output_word = "Z";
  resp.counterexample.expected = "α^2";
  resp.counterexample.actual = "0";
  resp.counterexample.replayed = true;
  resp.wall_ms = 9.75;
  resp.cache = "hit";
  resp.stats["cache_hit"] = 1;
  return resp;
}

service::JobResponse golden_crashed_job() {
  service::JobResponse resp;
  resp.id = 8;
  resp.status = Status::worker_crashed("worker killed by signal 11");
  resp.wall_ms = 0.5;
  return resp;
}
TEST(ServiceProtocol, ResponseEncodingKeepsItsBytes) {
  EXPECT_EQ(service::encode_job_response(golden_refuted_job()),
            R"json({"op":"verify","id":7,"status":"kOk","verdict":"not-equivalent","detail":"coefficients differ on 1 monomial(s)","counterexample":{"inputs":{"A":"α^2","B":"1"},"output_word":"Z","expected":"α^2","actual":"0","replayed":true},"wall_ms":9.75,"cache":"hit","stats":{"cache_hit":1}})json");
  EXPECT_EQ(service::encode_job_response(golden_crashed_job()),
            R"json({"op":"verify","id":8,"status":"kWorkerCrashed","message":"worker killed by signal 11","verdict":"unknown","wall_ms":0.5})json");
}

TEST(Service, StaleSocketReplacedLiveSocketRefused) {
  const std::string path = temp_dir() + "/gfa.sock";
  // Manufacture a stale socket file: bind, then close without unlinking —
  // exactly what a SIGKILLed daemon leaves behind.
  {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    ::close(fd);
  }

  TestServer a;
  ASSERT_TRUE(a.start(base_options(path)).ok());  // takes over the stale file

  // A second server on the same path must refuse: the first one is live.
  service::Server b(base_options(path));
  const Status s = b.start();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("already listening"), std::string::npos)
      << s.to_string();

  EXPECT_EQ(a.drain_and_join(), 0);
  // The drain unlinked the socket file.
  EXPECT_NE(::access(path.c_str(), F_OK), 0);
}

// ---------------------------------------------------------------------------
// Status endpoint.

TEST(Service, StatusReportsPoolQueueAndCache) {
  const std::string path = temp_dir() + "/gfa.sock";
  ServerOptions options = base_options(path);
  options.pool_size = 3;
  options.queue_depth = 5;
  TestServer srv;
  ASSERT_TRUE(srv.start(std::move(options)).ok());

  Result<ServiceClient> client = ServiceClient::connect(path);
  ASSERT_TRUE(client.ok()) << client.status().to_string();
  const Result<std::string> snapshot = client->status_json(30.0);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().to_string();

  const Result<JsonValue> doc = parse_json(*snapshot);
  ASSERT_TRUE(doc.ok()) << *snapshot;
  const JsonValue* pool = doc->find("pool");
  ASSERT_NE(pool, nullptr);
  EXPECT_EQ(pool->u64_or("size", 0), 3u);
  const JsonValue* queue = doc->find("queue");
  ASSERT_NE(queue, nullptr);
  EXPECT_EQ(queue->u64_or("capacity", 0), 5u);
  EXPECT_FALSE(doc->bool_or("draining", true));
  ASSERT_NE(doc->find("jobs"), nullptr);
  const JsonValue* cache = doc->find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_TRUE(cache->bool_or("enabled", false));
  EXPECT_EQ(srv.drain_and_join(), 0);
}

TEST(Service, CacheHitRefutationRepeatsTheMissesCounterexample) {
  // A bug the simulation round misses reaches the chain, so the miss stores
  // both canonical forms and the second send is answered from the cache.
  // Both answers end in the same witness search of the circuits.
  const std::string dir = temp_dir();
  const Gf2k field = Gf2k::make(11);
  const Netlist spec = make_mastrovito_multiplier(field);
  const std::string spec_path = dir + "/spec.net";
  const std::string bug_path = dir + "/cube.net";
  write_netlist_file(spec, spec_path);
  write_netlist_file(test::cube_the_round_misses(spec, field), bug_path);
  const std::string path = dir + "/gfa.sock";
  TestServer srv;
  ASSERT_TRUE(srv.start(base_options(path)).ok());
  Result<ServiceClient> client = ServiceClient::connect(path);
  ASSERT_TRUE(client.ok()) << client.status().to_string();

  const JobRequest req = verify_request(spec_path, bug_path, 11);
  const Result<JobResponse> miss = client->call(req, 120.0);
  ASSERT_TRUE(miss.ok()) << miss.status().to_string();
  ASSERT_TRUE(miss->status.ok()) << miss->status.to_string();
  const Result<JobResponse> hit = client->call(req, 120.0);
  ASSERT_TRUE(hit.ok()) << hit.status().to_string();
  ASSERT_TRUE(hit->status.ok()) << hit->status.to_string();
  EXPECT_EQ(miss->cache, "stored");
  EXPECT_EQ(hit->cache, "hit");
  EXPECT_EQ(hit->stats.at("cache_hit"), 1.0);
  for (const JobResponse* r : {&*miss, &*hit}) {
    EXPECT_EQ(r->verdict, engine::Verdict::kNotEquivalent);
    EXPECT_NE(r->detail.find("coefficients differ"), std::string::npos)
        << r->detail;
    EXPECT_TRUE(r->counterexample.replayed);
  }
  EXPECT_EQ(hit->counterexample.inputs, miss->counterexample.inputs);
  EXPECT_EQ(hit->counterexample.output_word, miss->counterexample.output_word);
  EXPECT_EQ(hit->counterexample.expected, miss->counterexample.expected);
  EXPECT_EQ(hit->counterexample.actual, miss->counterexample.actual);
  EXPECT_EQ(srv.drain_and_join(), 0);
}

// ---------------------------------------------------------------------------
// Admission control.

TEST(Service, QueueFullAnswersOverloadedImmediately) {
  if (!fault::compiled_in()) GTEST_SKIP() << "GFA_FAULT_INJECTION is off";
  Disarmer disarm;
  const Instance inst = make_instance(4);
  const std::string path = temp_dir() + "/gfa.sock";
  ServerOptions options = base_options(path);
  options.pool_size = 1;
  options.queue_depth = 1;
  options.cache_enabled = false;  // every job forks; no cache short-cuts
  options.max_attempts = 1;
  options.default_timeout_seconds = 20.0;
  options.stall_timeout_seconds = 0.5;  // reap the injected hang quickly
  TestServer srv;
  ASSERT_TRUE(srv.start(std::move(options)).ok());

  Result<ServiceClient> client = ServiceClient::connect(path);
  ASSERT_TRUE(client.ok()) << client.status().to_string();

  // Job 1 hangs in its forked worker (consumed parent-side, so exactly this
  // attempt misbehaves), pinning the single pool slot.
  ASSERT_TRUE(fault::arm_spec("worker:hang").ok());
  const Result<std::uint64_t> id1 =
      client->send(verify_request(inst.spec, inst.impl, 4));
  ASSERT_TRUE(id1.ok());
  ASSERT_TRUE(srv.wait_for([](const service::ServiceSnapshot& s) {
    return s.busy == 1;
  }));

  // Job 2 fills the one queue slot.
  const Result<std::uint64_t> id2 =
      client->send(verify_request(inst.spec, inst.impl, 4));
  ASSERT_TRUE(id2.ok());
  ASSERT_TRUE(srv.wait_for([](const service::ServiceSnapshot& s) {
    return s.queue_depth == 1;
  }));

  // Job 3 must be rejected *now* — admission control, not buffering.
  const Result<std::uint64_t> id3 =
      client->send(verify_request(inst.spec, inst.impl, 4));
  ASSERT_TRUE(id3.ok());

  std::map<std::uint64_t, JobResponse> responses;
  for (int i = 0; i < 3; ++i) {
    Result<JobResponse> resp = client->receive(60.0);
    ASSERT_TRUE(resp.ok()) << resp.status().to_string();
    responses[resp->id] = *resp;
  }
  // The rejection: immediate, kResourceExhausted, self-describing.
  ASSERT_TRUE(responses.count(*id3));
  EXPECT_EQ(responses[*id3].status.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(responses[*id3].status.message().find("overloaded"),
            std::string::npos);
  // The hung job was contained and classified; the daemon did not die.
  ASSERT_TRUE(responses.count(*id1));
  EXPECT_FALSE(responses[*id1].status.ok());
  // The queued job ran to a correct verdict once the slot freed.
  ASSERT_TRUE(responses.count(*id2));
  EXPECT_TRUE(responses[*id2].status.ok())
      << responses[*id2].status.to_string();
  EXPECT_EQ(responses[*id2].verdict, engine::Verdict::kEquivalent);

  const service::ServiceSnapshot snap = srv.server->snapshot();
  EXPECT_EQ(snap.jobs_rejected, 1u);
  EXPECT_EQ(snap.jobs_accepted, 2u);
  EXPECT_EQ(srv.drain_and_join(), 0);
}

// ---------------------------------------------------------------------------
// Graceful drain.

TEST(Service, DrainFinishesInFlightJobsAndRefusesLateConnects) {
  const Instance inst = make_instance(4);
  const std::string path = temp_dir() + "/gfa.sock";
  TestServer srv;
  ASSERT_TRUE(srv.start(base_options(path)).ok());

  Result<ServiceClient> client = ServiceClient::connect(path);
  ASSERT_TRUE(client.ok()) << client.status().to_string();
  const Result<std::uint64_t> id =
      client->send(verify_request(inst.spec, inst.impl, 4));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(srv.wait_for([](const service::ServiceSnapshot& s) {
    return s.jobs_accepted >= 1;
  }));

  // Drain with the job still in flight: it must complete and be answered
  // over the already-open connection.
  EXPECT_EQ(srv.drain_and_join(), 0);
  const Result<JobResponse> resp = client->receive(60.0);
  ASSERT_TRUE(resp.ok()) << resp.status().to_string();
  EXPECT_EQ(resp->id, *id);
  ASSERT_TRUE(resp->status.ok()) << resp->status.to_string();
  EXPECT_EQ(resp->verdict, engine::Verdict::kEquivalent);

  // Late arrivals find no socket at all.
  EXPECT_FALSE(ServiceClient::connect(path).ok());
}

// ---------------------------------------------------------------------------
// Crash containment.

TEST(Service, WorkerCrashIsContainedAndServerKeepsServing) {
  if (!fault::compiled_in()) GTEST_SKIP() << "GFA_FAULT_INJECTION is off";
  Disarmer disarm;
  const Instance inst = make_instance(4);
  const std::string path = temp_dir() + "/gfa.sock";
  ServerOptions options = base_options(path);
  options.cache_enabled = false;
  options.max_attempts = 1;  // no retry: the crash surfaces to the client
  TestServer srv;
  ASSERT_TRUE(srv.start(std::move(options)).ok());

  Result<ServiceClient> client = ServiceClient::connect(path);
  ASSERT_TRUE(client.ok()) << client.status().to_string();

  ASSERT_TRUE(fault::arm_spec("worker:crash").ok());
  const Result<JobResponse> crashed =
      client->call(verify_request(inst.spec, inst.impl, 4), 60.0);
  ASSERT_TRUE(crashed.ok()) << crashed.status().to_string();
  EXPECT_EQ(crashed->status.code(), StatusCode::kWorkerCrashed);
  EXPECT_TRUE(fault::fired());

  // Same server, next job: clean verdict. One crashing job never takes the
  // daemon down.
  const Result<JobResponse> clean =
      client->call(verify_request(inst.spec, inst.impl, 4), 60.0);
  ASSERT_TRUE(clean.ok()) << clean.status().to_string();
  ASSERT_TRUE(clean->status.ok()) << clean->status.to_string();
  EXPECT_EQ(clean->verdict, engine::Verdict::kEquivalent);

  const service::ServiceSnapshot snap = srv.server->snapshot();
  EXPECT_EQ(snap.jobs_failed, 1u);
  EXPECT_EQ(snap.jobs_completed, 2u);
  EXPECT_EQ(srv.drain_and_join(), 0);
}

// ---------------------------------------------------------------------------
// Poison-job quarantine.

TEST(Service, QuarantinedJobFastFailsWithoutForkingUntilCleared) {
  if (!fault::compiled_in()) GTEST_SKIP() << "GFA_FAULT_INJECTION is off";
  Disarmer disarm;
  const Instance inst = make_instance(4);
  const std::string path = temp_dir() + "/gfa.sock";
  ServerOptions options = base_options(path);
  options.cache_enabled = false;
  options.max_attempts = 1;
  options.quarantine_strikes = 1;  // a single crash trips the quarantine
  TestServer srv;
  ASSERT_TRUE(srv.start(std::move(options)).ok());

  Result<ServiceClient> client = ServiceClient::connect(path);
  ASSERT_TRUE(client.ok()) << client.status().to_string();

  // Strike one: the forked worker crashes and the fingerprint trips.
  ASSERT_TRUE(fault::arm_spec("worker:crash").ok());
  const Result<JobResponse> crashed =
      client->call(verify_request(inst.spec, inst.impl, 4), 60.0);
  ASSERT_TRUE(crashed.ok()) << crashed.status().to_string();
  EXPECT_EQ(crashed->status.code(), StatusCode::kWorkerCrashed);
  EXPECT_TRUE(fault::fired());
  fault::disarm();  // a re-run would now succeed — unless quarantined

  // The identical submission answers kWorkerCrashed without forking: no
  // worker_attempts stat, the telltale "quarantined" detail, and the fault is
  // no longer armed so an actual fork would have produced a clean verdict.
  const Result<JobResponse> blocked =
      client->call(verify_request(inst.spec, inst.impl, 4), 60.0);
  ASSERT_TRUE(blocked.ok()) << blocked.status().to_string();
  EXPECT_EQ(blocked->status.code(), StatusCode::kWorkerCrashed);
  EXPECT_EQ(blocked->detail, "quarantined");
  EXPECT_EQ(blocked->stats.count("worker_attempts"), 0u);

  // A *different* job (same spec, different impl content) is unaffected, and
  // its refutation carries the simulator-replayed counterexample.
  const Result<JobResponse> other =
      client->call(verify_request(inst.spec, inst.bug, 4), 60.0);
  ASSERT_TRUE(other.ok()) << other.status().to_string();
  ASSERT_TRUE(other->status.ok()) << other->status.to_string();
  EXPECT_EQ(other->verdict, engine::Verdict::kNotEquivalent);
  ASSERT_FALSE(other->counterexample.empty());
  EXPECT_TRUE(other->counterexample.replayed);
  EXPECT_NE(other->counterexample.expected, other->counterexample.actual);

  const service::ServiceSnapshot snap = srv.server->snapshot();
  EXPECT_EQ(snap.quarantine_tracked, 1u);
  EXPECT_EQ(snap.quarantine_active, 1u);
  EXPECT_EQ(snap.quarantine_trips, 1u);
  EXPECT_EQ(snap.quarantine_fast_fails, 1u);

  // The status op reports the same numbers over the wire.
  const Result<std::string> status_text = client->status_json(60.0);
  ASSERT_TRUE(status_text.ok()) << status_text.status().to_string();
  const Result<JsonValue> status_json = parse_json(*status_text);
  ASSERT_TRUE(status_json.ok()) << status_json.status().to_string();
  const JsonValue* quarantine = status_json->find("quarantine");
  ASSERT_NE(quarantine, nullptr);
  EXPECT_EQ(quarantine->u64_or("strikes", 0), 1u);
  EXPECT_EQ(quarantine->u64_or("active", 99), 1u);
  EXPECT_EQ(quarantine->u64_or("fast_fails", 99), 1u);

  // clear-quarantine wipes the record and the job runs (and passes) again.
  JobRequest clear;
  clear.op = "clear-quarantine";
  const Result<JobResponse> cleared = client->call(std::move(clear), 60.0);
  ASSERT_TRUE(cleared.ok()) << cleared.status().to_string();
  ASSERT_TRUE(cleared->status.ok()) << cleared->status.to_string();
  ASSERT_EQ(cleared->stats.count("cleared"), 1u);
  EXPECT_EQ(cleared->stats.at("cleared"), 1.0);

  const Result<JobResponse> healed =
      client->call(verify_request(inst.spec, inst.impl, 4), 60.0);
  ASSERT_TRUE(healed.ok()) << healed.status().to_string();
  ASSERT_TRUE(healed->status.ok()) << healed->status.to_string();
  EXPECT_EQ(healed->verdict, engine::Verdict::kEquivalent);
  EXPECT_EQ(srv.server->snapshot().quarantine_tracked, 0u);
  EXPECT_EQ(srv.drain_and_join(), 0);
}

TEST(Service, QuarantineTtlForgivesOldStrikes) {
  if (!fault::compiled_in()) GTEST_SKIP() << "GFA_FAULT_INJECTION is off";
  Disarmer disarm;
  const Instance inst = make_instance(4);
  const std::string path = temp_dir() + "/gfa.sock";
  ServerOptions options = base_options(path);
  options.cache_enabled = false;
  options.max_attempts = 1;
  options.quarantine_strikes = 1;
  options.quarantine_ttl_seconds = 0.05;
  TestServer srv;
  ASSERT_TRUE(srv.start(std::move(options)).ok());

  Result<ServiceClient> client = ServiceClient::connect(path);
  ASSERT_TRUE(client.ok()) << client.status().to_string();

  ASSERT_TRUE(fault::arm_spec("worker:crash").ok());
  const Result<JobResponse> crashed =
      client->call(verify_request(inst.spec, inst.impl, 4), 60.0);
  ASSERT_TRUE(crashed.ok()) << crashed.status().to_string();
  EXPECT_EQ(crashed->status.code(), StatusCode::kWorkerCrashed);
  fault::disarm();

  // After the TTL the strike record is forgotten and the job really runs.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  const Result<JobResponse> healed =
      client->call(verify_request(inst.spec, inst.impl, 4), 60.0);
  ASSERT_TRUE(healed.ok()) << healed.status().to_string();
  ASSERT_TRUE(healed->status.ok()) << healed->status.to_string();
  EXPECT_EQ(healed->verdict, engine::Verdict::kEquivalent);
  EXPECT_EQ(srv.server->snapshot().quarantine_tracked, 0u);
  EXPECT_EQ(srv.drain_and_join(), 0);
}

// ---------------------------------------------------------------------------
// The soak: 8 concurrent clients, mixed k, faults injected mid-run.

struct SoakResult {
  JobRequest request;
  Result<JobResponse> response = Result<JobResponse>(JobResponse{});
  engine::Verdict expected = engine::Verdict::kUnknown;
};

TEST(Service, SoakConcurrentClientsWithInjectedFaults) {
  if (!fault::compiled_in()) GTEST_SKIP() << "GFA_FAULT_INJECTION is off";
  Disarmer disarm;
  const Instance small = make_instance(4);
  const Instance medium = make_instance(8);
  const std::string path = temp_dir() + "/gfa.sock";
  ServerOptions options = base_options(path);
  options.pool_size = 4;
  options.queue_depth = 64;
  options.max_attempts = 2;  // injected crashes are retried transparently
  TestServer srv;
  ASSERT_TRUE(srv.start(std::move(options)).ok());

  // Job menu with ground-truth verdicts (established by make_instance).
  struct Menu {
    std::string spec, impl;
    unsigned k;
    engine::Verdict expected;
  };
  const std::vector<Menu> menu = {
      {small.spec, small.impl, 4, engine::Verdict::kEquivalent},
      {medium.spec, medium.impl, 8, engine::Verdict::kEquivalent},
      {small.spec, small.bug, 4, engine::Verdict::kNotEquivalent},
  };

  const auto run_wave = [&](std::vector<SoakResult>& results) {
    constexpr int kClients = 8;
    constexpr int kJobsPerClient = 3;
    results.assign(kClients * kJobsPerClient, SoakResult{});
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        Result<ServiceClient> client = ServiceClient::connect(path);
        if (!client.ok()) {
          for (int j = 0; j < kJobsPerClient; ++j)
            results[c * kJobsPerClient + j].response =
                Result<JobResponse>(client.status());
          return;
        }
        for (int j = 0; j < kJobsPerClient; ++j) {
          const Menu& m = menu[(c + j) % menu.size()];
          SoakResult& slot = results[c * kJobsPerClient + j];
          slot.request = verify_request(m.spec, m.impl, m.k);
          slot.expected = m.expected;
          slot.response = client->call(slot.request, 120.0);
        }
      });
    }
    for (std::thread& t : clients) t.join();
  };

  const auto check_wave = [&](const std::vector<SoakResult>& results,
                              const char* wave) {
    for (std::size_t i = 0; i < results.size(); ++i) {
      const SoakResult& r = results[i];
      ASSERT_TRUE(r.response.ok())
          << wave << " job " << i << ": " << r.response.status().to_string();
      ASSERT_TRUE(r.response->status.ok())
          << wave << " job " << i << ": " << r.response->status.to_string();
      EXPECT_EQ(r.response->verdict, r.expected) << wave << " job " << i;
    }
  };

  // Seed the cache with one circuit pair whose first stored entry is
  // corrupted by the armed fault. Done serially, before the waves, so no
  // concurrent clean re-put of the same key can paper over the damage: the
  // second call *must* catch the corruption, drop the entry, and recompute
  // to the correct verdict.
  Result<ServiceClient> probe = ServiceClient::connect(path);
  ASSERT_TRUE(probe.ok());
  ASSERT_TRUE(fault::arm_spec("cache:corrupt").ok());
  const Result<JobResponse> seeded =
      probe->call(verify_request(small.spec, small.impl, 4), 120.0);
  ASSERT_TRUE(seeded.ok() && seeded->status.ok());
  EXPECT_EQ(seeded->verdict, engine::Verdict::kEquivalent);
  EXPECT_TRUE(fault::fired());
  const Result<JobResponse> healed =
      probe->call(verify_request(small.spec, small.impl, 4), 120.0);
  ASSERT_TRUE(healed.ok() && healed->status.ok());
  EXPECT_EQ(healed->verdict, engine::Verdict::kEquivalent);
  EXPECT_GE(srv.server->snapshot().cache.corrupt_dropped, 1u);

  // Wave 1: the medium/bug pairs are still cold, so forks happen — and one
  // of them crashes (consumed parent-side); max_attempts=2 retries it
  // transparently to the correct verdict.
  ASSERT_TRUE(fault::arm_spec("worker:crash").ok());
  std::vector<SoakResult> wave1;
  run_wave(wave1);
  check_wave(wave1, "wave1");
  EXPECT_TRUE(fault::fired());

  // Wave 2: warm cache — repeated circuits answer from the cache.
  fault::disarm();
  std::vector<SoakResult> wave2;
  run_wave(wave2);
  check_wave(wave2, "wave2");

  // Cache-hit verdicts equal cold-cache verdicts, per job type. A pair the
  // simulation round refuted ran no chain and exported no canonical form,
  // so it stays a miss and carries a replayed counterexample instead; every
  // pair the abstraction decided is a warm hit.
  for (const Menu& m : menu) {
    JobRequest cold = verify_request(m.spec, m.impl, m.k);
    cold.no_cache = true;
    const Result<JobResponse> cold_resp = probe->call(cold, 120.0);
    ASSERT_TRUE(cold_resp.ok() && cold_resp->status.ok());
    const Result<JobResponse> warm_resp =
        probe->call(verify_request(m.spec, m.impl, m.k), 120.0);
    ASSERT_TRUE(warm_resp.ok() && warm_resp->status.ok());
    EXPECT_EQ(cold_resp->verdict, warm_resp->verdict);
    EXPECT_EQ(warm_resp->verdict, m.expected);
    const bool refuted =
        warm_resp->detail.find("refuted by simulation") != std::string::npos;
    EXPECT_EQ(refuted, m.expected == engine::Verdict::kNotEquivalent)
        << warm_resp->detail;
    EXPECT_EQ(warm_resp->cache, refuted ? "miss" : "hit");
    if (m.expected == engine::Verdict::kNotEquivalent) {
      EXPECT_TRUE(warm_resp->counterexample.replayed);
    }
  }

  const service::ServiceSnapshot snap = srv.server->snapshot();
  EXPECT_GT(snap.cache.hits, 0u);               // repeated circuits hit
  EXPECT_GE(snap.cache.corrupt_dropped, 1u);    // the damage was caught
  EXPECT_EQ(snap.jobs_rejected, 0u);            // queue_depth=64 was ample
  EXPECT_EQ(snap.jobs_completed, snap.jobs_accepted);
  // Zero daemon restarts: the one server answered everything and still
  // drains cleanly.
  EXPECT_EQ(srv.drain_and_join(), 0);
}

}  // namespace
}  // namespace gfa
