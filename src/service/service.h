#pragma once
// The verification service: a long-running daemon over a Unix-domain socket.
//
// gfa_serve turns the one-shot verification pipeline into a resident server
// for batch workloads (hierarchical designs, trojan/mutation sweeps) that
// submit many jobs over time. Architecture, in the order a job crosses it:
//
//   client ──frame──> acceptor ──> per-connection reader ──> bounded queue
//                                                             │ (admission)
//             worker pool (N threads) <───────────────────────┘
//             │  canonical-form cache probe (CanonCache)
//             │  hit:  decode + coefficient match + finish_verdict, no fork
//             │  miss: run_isolated_with_retry (forked worker, crash
//             │        containment, stall detector, retries) and store the
//             │        exported canonical forms
//             └──frame──> client (per-job JSON response, by job id)
//
// Robustness properties, each covered by tests/service_test.cpp:
//   * Admission control: a verify request arriving with the queue at
//     --queue-depth is answered immediately with kResourceExhausted
//     ("server overloaded") — memory is bounded by design, and clients get
//     explicit backpressure instead of silent latency.
//   * Containment: jobs run in forked workers via the existing harness; a
//     crashing (or stalling) job is classified kWorkerCrashed for *that*
//     client and the daemon keeps serving everyone else.
//   * Limit inheritance: per-job deadlines/budgets default from and are
//     capped by the server's --default/--max flags, so one client cannot
//     request an unbounded job on a shared server.
//   * Graceful drain: SIGTERM/SIGINT stops accepting (the socket file is
//     unlinked), finishes every queued and in-flight job, answers the
//     waiting clients, and exits 0.
//   * Health: a "status" request answers from the accept path with pool,
//     queue, job, cache, quarantine, and (when enabled) metrics snapshots.
//   * Verdict certification: a cache hit ends in engine::finish_verdict, as
//     a fresh run does, so one that claims kEquivalent is cross-checked by
//     random simulation before it is handed out (and cache misses ship
//     RunOptions::certify to the forked worker); a disagreement
//     answers kCertificationFailed — a loud internal error, never a silent
//     wrong answer. See DESIGN.md "Verdict certification".
//   * Poison-job quarantine: jobs are fingerprinted by (spec content hash,
//     impl content hash, engine); a fingerprint whose workers crashed
//     --quarantine-strikes times fast-fails with kWorkerCrashed *without
//     forking*, so one poisonous netlist cannot monopolize the pool with
//     crash-restart cycles. Entries expire after --quarantine-ttl, and a
//     "clear-quarantine" request resets the table.
//
// Wire protocol: the worker layer's length-prefixed JSON frames
// (worker/protocol.h) over SOCK_STREAM. Requests are
//   {"op":"verify","id":7,"spec_path":...,"impl_path":...,"k":8,...}
//   {"op":"status","id":1}
//   {"op":"clear-quarantine","id":2}
// and every response echoes the op and id, so a client may pipeline jobs and
// match answers out of order.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "certify/counterexample.h"
#include "engine/engine.h"
#include "gf/gf2k.h"
#include "service/canon_cache.h"
#include "util/status.h"

namespace gfa::service {

/// One client request off the wire. op is "verify", "status", or
/// "clear-quarantine".
struct JobRequest {
  std::string op = "verify";
  std::uint64_t id = 0;
  std::string spec_path;
  std::string impl_path;
  unsigned k = 0;
  std::string engine = "abstraction";
  /// 0 = inherit the server default (then the server cap still applies).
  double timeout_seconds = 0.0;
  std::uint64_t memory_budget_bytes = 0;
  /// Skip the canonical-form cache for this job (cold-run comparisons).
  bool no_cache = false;
};

/// One per-job answer. `cache` is "hit", "stored", "miss", or "" (status
/// replies and non-cacheable engines).
struct JobResponse {
  std::string op = "verify";
  std::uint64_t id = 0;
  Status status;
  engine::Verdict verdict = engine::Verdict::kUnknown;
  std::string detail;
  /// Typed simulator-replayed witness for kNotEquivalent verdicts (see
  /// certify/counterexample.h); empty otherwise.
  certify::Counterexample counterexample;
  double wall_ms = 0.0;
  std::string cache;
  std::map<std::string, double> stats;
};

std::string encode_job_request(const JobRequest& req);
Result<JobRequest> decode_job_request(std::string_view json);

std::string encode_job_response(const JobResponse& resp);
Result<JobResponse> decode_job_response(std::string_view json);

struct ServerOptions {
  std::string socket_path;
  /// Concurrent verification jobs (forked workers / cache probes).
  unsigned pool_size = 2;
  /// Jobs waiting beyond the pool before admission control rejects.
  std::size_t queue_depth = 16;
  /// Canonical-form cache: on by default, optionally disk-backed.
  bool cache_enabled = true;
  std::string cache_dir;
  std::uint64_t cache_max_bytes = 64ull << 20;
  /// Per-job limit inheritance: jobs not asking get the defaults; jobs
  /// asking for more than a cap are clamped to it (0 = no default / no cap).
  double default_timeout_seconds = 0.0;
  double max_timeout_seconds = 0.0;
  std::uint64_t default_memory_budget_bytes = 0;
  std::uint64_t max_memory_budget_bytes = 0;
  /// Crash containment: total forked attempts per job (>= 1).
  unsigned max_attempts = 2;
  /// Worker telemetry, passed through to every forked child.
  double heartbeat_interval_seconds = 1.0;
  double stall_timeout_seconds = 0.0;
  /// Poison-job quarantine: after this many final kWorkerCrashed outcomes
  /// for the same (spec hash, impl hash, engine) fingerprint, identical
  /// submissions fast-fail without forking. 0 disables quarantining.
  unsigned quarantine_strikes = 3;
  /// Seconds a fingerprint's strike record survives after its last crash
  /// (0 = until clear-quarantine or restart).
  double quarantine_ttl_seconds = 0.0;
  /// Cross-check every kEquivalent answer by random simulation: cache hits
  /// are certified in-process, cache misses ship RunOptions::certify to the
  /// forked worker (--no-certify turns this off).
  bool certify = true;
};

/// Point-in-time health snapshot, served for "status" requests.
struct ServiceSnapshot {
  unsigned pool_size = 0;
  unsigned busy = 0;
  std::size_t queue_depth = 0;
  std::size_t queue_capacity = 0;
  bool draining = false;
  double uptime_seconds = 0.0;
  std::uint64_t jobs_accepted = 0;
  std::uint64_t jobs_completed = 0;
  std::uint64_t jobs_rejected = 0;
  std::uint64_t jobs_failed = 0;     // completed with a non-OK status
  std::uint64_t accept_failures = 0;
  CacheStats cache;
  /// Quarantine table: fingerprints with at least one strike / past the
  /// strike threshold, plus lifetime fast-fail and trip counters.
  std::size_t quarantine_tracked = 0;
  std::size_t quarantine_active = 0;
  std::uint64_t quarantine_fast_fails = 0;
  std::uint64_t quarantine_trips = 0;
};

class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the socket (replacing a stale file, refusing a live server),
  /// opens the cache, and spawns the worker pool. kInvalidArgument on a bad
  /// socket/cache path, kInternal on socket errors.
  Status start();

  /// The accept loop; blocks until a drain completes. Returns the process
  /// exit code (0 for a clean drain). Call after start().
  int serve();

  /// Begin a graceful drain (idempotent, any thread). Signal handlers call
  /// notify_drain_from_signal() instead.
  void request_drain();

  /// Async-signal-safe drain kick for SIGTERM/SIGINT handlers: one write to
  /// the wake pipe; the accept loop does the actual state change.
  void notify_drain_from_signal();

  ServiceSnapshot snapshot() const;

  /// Drops every quarantine record (the "clear-quarantine" op); returns how
  /// many fingerprints were being tracked.
  std::size_t clear_quarantine();

 private:
  struct Connection;
  struct Job;

  /// The quarantine fingerprint: the job's *content*, not its paths, so a
  /// renamed copy of a poisonous netlist is still recognized.
  struct QuarantineKey {
    std::uint64_t spec_hash = 0;
    std::uint64_t impl_hash = 0;
    std::string engine;
    bool operator<(const QuarantineKey& o) const {
      if (spec_hash != o.spec_hash) return spec_hash < o.spec_hash;
      if (impl_hash != o.impl_hash) return impl_hash < o.impl_hash;
      return engine < o.engine;
    }
  };
  struct QuarantineEntry {
    unsigned strikes = 0;
    std::chrono::steady_clock::time_point last_strike;
  };

  void reader_loop(std::shared_ptr<Connection> conn);
  void worker_loop();
  void handle_request(const std::shared_ptr<Connection>& conn,
                      const std::string& frame);
  void run_job(Job job);
  JobResponse run_verify(const JobRequest& req);
  void respond(const std::shared_ptr<Connection>& conn,
               const JobResponse& resp);
  std::string encode_status_response(std::uint64_t id) const;
  const Gf2k* field_for(unsigned k);
  /// True when the fingerprint is past the strike threshold (expiring the
  /// record first when the TTL has lapsed).
  bool quarantine_lookup(const QuarantineKey& key);
  /// Records one final kWorkerCrashed outcome against the fingerprint.
  void quarantine_strike(const QuarantineKey& key);

  ServerOptions options_;
  CanonCache cache_;
  int listen_fd_ = -1;
  int wake_rd_ = -1;
  int wake_wr_ = -1;
  std::chrono::steady_clock::time_point started_;

  std::atomic<bool> draining_{false};
  std::atomic<bool> stop_workers_{false};
  std::atomic<bool> stop_readers_{false};

  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;   // workers wait for jobs
  std::condition_variable drain_cv_;   // serve() waits for quiescence
  std::deque<Job> queue_;
  unsigned busy_ = 0;

  std::vector<std::thread> workers_;
  std::mutex readers_mu_;
  std::vector<std::thread> readers_;

  std::mutex fields_mu_;
  std::map<unsigned, std::unique_ptr<Gf2k>> fields_;

  mutable std::mutex quarantine_mu_;
  std::map<QuarantineKey, QuarantineEntry> quarantine_;
  std::atomic<std::uint64_t> quarantine_fast_fails_{0};
  std::atomic<std::uint64_t> quarantine_trips_{0};

  std::atomic<std::uint64_t> jobs_accepted_{0};
  std::atomic<std::uint64_t> jobs_completed_{0};
  std::atomic<std::uint64_t> jobs_rejected_{0};
  std::atomic<std::uint64_t> jobs_failed_{0};
  std::atomic<std::uint64_t> accept_failures_{0};
};

}  // namespace gfa::service
