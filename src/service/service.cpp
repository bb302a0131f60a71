#include "service/service.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <sstream>

#include "abstraction/canon_serial.h"
#include "abstraction/equivalence.h"
#include "circuit/verilog.h"
#include "engine/registry.h"
#include "engine/report.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "util/fault_inject.h"
#include "util/json_reader.h"
#include "util/json_writer.h"
#include "worker/checkpoint.h"
#include "worker/harness.h"
#include "worker/retry.h"

namespace gfa::service {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Inherit-then-cap: a job not asking (0) gets the server default; a job
/// asking for more than the cap is clamped to it; no cap (0) passes the
/// request through. Works for both seconds and bytes.
template <typename T>
T clamp_limit(T requested, T fallback, T cap) {
  T v = requested > T{0} ? requested : fallback;
  if (cap > T{0} && (v <= T{0} || v > cap)) v = cap;
  return v;
}

/// A verify job's outcome fields, from the run that decided it.
void fill_response(JobResponse& resp, const engine::EngineRun& run) {
  resp.status = run.status;
  resp.verdict = run.verdict;
  resp.detail = run.detail;
  resp.counterexample = run.counterexample;
  resp.stats = run.stats;
}

}  // namespace

// ---------------------------------------------------------------------------
// Wire format

std::string encode_job_request(const JobRequest& req) {
  std::ostringstream out;
  JsonWriter w(out, 0);
  w.begin_object();
  w.member("op", req.op);
  w.member("id", req.id);
  if (req.op == "verify") {
    w.member("spec_path", req.spec_path);
    w.member("impl_path", req.impl_path);
    w.member("k", req.k);
    w.member("engine", req.engine);
    w.member("timeout_seconds", req.timeout_seconds);
    w.member("memory_budget_bytes", req.memory_budget_bytes);
    w.member("no_cache", req.no_cache);
  }
  w.end_object();
  return out.str();
}

Result<JobRequest> decode_job_request(std::string_view json) {
  Result<JsonValue> doc = parse_json(json);
  if (!doc.ok()) return doc.status();
  if (!doc->is_object())
    return Status::invalid_argument("job request is not a JSON object");
  JobRequest req;
  req.op = doc->string_or("op", "verify");
  req.id = doc->u64_or("id", 0);
  req.spec_path = doc->string_or("spec_path", "");
  req.impl_path = doc->string_or("impl_path", "");
  req.k = static_cast<unsigned>(doc->u64_or("k", 0));
  req.engine = doc->string_or("engine", "abstraction");
  req.timeout_seconds = doc->number_or("timeout_seconds", 0.0);
  req.memory_budget_bytes = doc->u64_or("memory_budget_bytes", 0);
  req.no_cache = doc->bool_or("no_cache", false);
  if (req.op != "verify" && req.op != "status" && req.op != "clear-quarantine")
    return Status::invalid_argument("unknown job op '" + req.op + "'");
  return req;
}

std::string encode_job_response(const JobResponse& resp) {
  std::ostringstream out;
  JsonWriter w(out, 0);
  w.begin_object();
  w.member("op", resp.op);
  w.member("id", resp.id);
  engine::write_status(w, resp.status, /*with_message=*/true);
  w.member("verdict", engine::verdict_name(resp.verdict));
  if (!resp.detail.empty()) w.member("detail", resp.detail);
  engine::write_counterexample(w, resp.counterexample);
  w.member("wall_ms", resp.wall_ms);
  if (!resp.cache.empty()) w.member("cache", resp.cache);
  if (!resp.stats.empty()) engine::write_stats(w, resp.stats);
  w.end_object();
  return out.str();
}

Result<JobResponse> decode_job_response(std::string_view json) {
  Result<JsonValue> doc = parse_json(json);
  if (!doc.ok()) return doc.status();
  if (!doc->is_object())
    return Status::invalid_argument("job response is not a JSON object");
  JobResponse resp;
  resp.op = doc->string_or("op", "verify");
  resp.id = doc->u64_or("id", 0);
  if (Status s = engine::read_status(*doc, &resp.status); !s.ok()) return s;
  if (Status s = engine::read_verdict(*doc, &resp.verdict); !s.ok()) return s;
  resp.detail = doc->string_or("detail", "");
  resp.counterexample = engine::read_counterexample(*doc);
  resp.wall_ms = doc->number_or("wall_ms", 0.0);
  resp.cache = doc->string_or("cache", "");
  resp.stats = engine::read_stats(*doc);
  return resp;
}

// ---------------------------------------------------------------------------
// Server internals

/// One client connection. The fd is owned by this struct and closed by the
/// last owner to let go — the reader thread plus every queued job hold a
/// shared_ptr, so a client that disconnects mid-batch still gets its fd kept
/// alive until its in-flight jobs have tried to answer (EPIPE is fine,
/// SIGPIPE is ignored daemon-wide).
struct Server::Connection {
  explicit Connection(int fd) : fd(fd) {}
  ~Connection() {
    if (fd >= 0) ::close(fd);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  int fd;
  /// Serializes response frames: pool threads and the reader (status
  /// replies) interleave whole frames, never bytes.
  std::mutex write_mu;
};

struct Server::Job {
  std::shared_ptr<Connection> conn;
  JobRequest req;
  Clock::time_point enqueued;
};

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      cache_(CanonCache::Options{options_.cache_dir, options_.cache_max_bytes}) {
  if (options_.pool_size == 0) options_.pool_size = 1;
  if (options_.max_attempts == 0) options_.max_attempts = 1;
}

Server::~Server() {
  // Belt and braces for error paths where serve() never ran: stop threads
  // and release fds. A normal lifecycle has already done all of this.
  stop_workers_.store(true);
  stop_readers_.store(true);
  queue_cv_.notify_all();
  for (std::thread& t : workers_)
    if (t.joinable()) t.join();
  {
    std::lock_guard<std::mutex> lock(readers_mu_);
    for (std::thread& t : readers_)
      if (t.joinable()) t.join();
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_rd_ >= 0) ::close(wake_rd_);
  if (wake_wr_ >= 0) ::close(wake_wr_);
}

Status Server::start() {
  if (options_.socket_path.empty())
    return Status::invalid_argument("service socket path is empty");
  struct sockaddr_un addr;
  if (options_.socket_path.size() >= sizeof(addr.sun_path))
    return Status::invalid_argument(
        "socket path '" + options_.socket_path + "' exceeds " +
        std::to_string(sizeof(addr.sun_path) - 1) + " bytes");

  // Worker pool threads fork; pre-warm every lazily-constructed singleton
  // now, on the single startup thread, so no fork can inherit a mid-
  // construction lock.
  ::signal(SIGPIPE, SIG_IGN);
  (void)obs::Metrics::instance();
  (void)engine::EngineRegistry::global();

  if (options_.cache_enabled) {
    if (Status s = cache_.open(); !s.ok()) return s;
  }

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0)
    return Status::internal(std::string("socket(): ") + std::strerror(errno));
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, options_.socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  if (::bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    if (errno != EADDRINUSE)
      return Status::internal("bind('" + options_.socket_path +
                              "'): " + std::strerror(errno));
    // A socket file already exists: probe it. A live server answers the
    // connect (refuse to clobber it); a stale file from a crashed daemon
    // refuses the connection and is safe to replace.
    const int probe = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    const bool live =
        probe >= 0 &&
        ::connect(probe, reinterpret_cast<struct sockaddr*>(&addr),
                  sizeof(addr)) == 0;
    if (probe >= 0) ::close(probe);
    if (live)
      return Status::invalid_argument("another server is already listening on '" +
                                      options_.socket_path + "'");
    ::unlink(options_.socket_path.c_str());
    if (::bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
               sizeof(addr)) != 0)
      return Status::internal("bind('" + options_.socket_path +
                              "'): " + std::strerror(errno));
    GFA_LOG_WARN("service", "replaced stale socket '" << options_.socket_path
                                                      << "'");
  }
  if (::listen(listen_fd_, 64) != 0)
    return Status::internal(std::string("listen(): ") + std::strerror(errno));

  int fds[2];
  if (::pipe(fds) != 0)
    return Status::internal(std::string("pipe(): ") + std::strerror(errno));
  wake_rd_ = fds[0];
  wake_wr_ = fds[1];
  // Non-blocking both ways: the drain read loop must stop at EAGAIN, and a
  // signal handler's wake write must never block on a full pipe.
  ::fcntl(wake_rd_, F_SETFL, O_NONBLOCK);
  ::fcntl(wake_wr_, F_SETFL, O_NONBLOCK);

  started_ = Clock::now();
  workers_.reserve(options_.pool_size);
  for (unsigned i = 0; i < options_.pool_size; ++i)
    workers_.emplace_back([this] { worker_loop(); });
  return Status();
}

void Server::notify_drain_from_signal() {
  // Async-signal-safe: one write, no locks, no allocation. The accept loop
  // owns the actual state change.
  const char byte = 'd';
  (void)!::write(wake_wr_, &byte, 1);
}

void Server::request_drain() {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    draining_.store(true);
  }
  notify_drain_from_signal();
  queue_cv_.notify_all();
}

int Server::serve() {
  while (!draining_.load()) {
    struct pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {wake_rd_, POLLIN, 0}};
    const int n = ::poll(fds, 2, 200);
    if (n < 0) {
      if (errno == EINTR) continue;
      GFA_LOG_WARN("service", "poll(): " << std::strerror(errno));
      break;
    }
    if (fds[1].revents != 0) {
      char buf[16];
      while (::read(wake_rd_, buf, sizeof(buf)) > 0) {
      }
      std::lock_guard<std::mutex> lock(queue_mu_);
      draining_.store(true);
      break;
    }
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      ++accept_failures_;
      GFA_LOG_WARN("service", "accept(): " << std::strerror(errno));
      continue;
    }
    if (fault::consume("service:accept")) {
      // Injected accept-path failure: drop this one connection on the floor
      // and keep serving — the loop, not the connection, is the unit that
      // must survive.
      ::close(client);
      ++accept_failures_;
      GFA_LOG_WARN("service", "injected accept failure, dropped a connection");
      continue;
    }
    auto conn = std::make_shared<Connection>(client);
    std::lock_guard<std::mutex> lock(readers_mu_);
    readers_.emplace_back([this, conn] { reader_loop(conn); });
  }

  // Graceful drain. Order matters: stop admitting (socket gone from the
  // filesystem, so a late connect is refused), let the pool finish every
  // queued and in-flight job — their clients are still waiting on open
  // connections — then take the threads down.
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    draining_.store(true);
  }
  queue_cv_.notify_all();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  ::unlink(options_.socket_path.c_str());
  {
    std::unique_lock<std::mutex> lock(queue_mu_);
    drain_cv_.wait(lock, [this] { return queue_.empty() && busy_ == 0; });
  }
  stop_workers_.store(true);
  queue_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
  workers_.clear();
  stop_readers_.store(true);
  {
    std::lock_guard<std::mutex> lock(readers_mu_);
    for (std::thread& t : readers_) t.join();
    readers_.clear();
  }
  GFA_LOG_INFO("service", "drained: " << jobs_completed_.load()
                                      << " jobs completed, "
                                      << jobs_rejected_.load() << " rejected");
  return 0;
}

void Server::reader_loop(std::shared_ptr<Connection> conn) {
  while (!stop_readers_.load()) {
    struct pollfd pfd = {conn->fd, POLLIN, 0};
    const int n = ::poll(&pfd, 1, 200);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if (n == 0) continue;
    // Only now that bytes are actually waiting is read_frame entered, with a
    // generous deadline of its own: read_frame consumes its buffer, so a
    // short poll-style deadline *inside* it could expire mid-frame and lose
    // the prefix. This split keeps the idle wait cheap and the framed read
    // whole.
    Result<std::string> frame =
        worker::read_frame(conn->fd, Deadline::after(30.0));
    if (!frame.ok()) return;  // EOF or a garbled stream: stop reading; any
                              // queued jobs still answer over the open fd.
    handle_request(conn, *frame);
  }
}

void Server::handle_request(const std::shared_ptr<Connection>& conn,
                            const std::string& frame) {
  Result<JobRequest> req = decode_job_request(frame);
  if (!req.ok()) {
    JobResponse resp;
    resp.status = req.status();
    respond(conn, resp);
    return;
  }

  if (req->op == "status") {
    const std::string payload = encode_status_response(req->id);
    std::lock_guard<std::mutex> lock(conn->write_mu);
    (void)worker::write_frame(conn->fd, payload);
    return;
  }

  if (req->op == "clear-quarantine") {
    // Answered inline like "status": dropping table entries never blocks on
    // the pool, so a wedged queue cannot delay an operator's reset.
    JobResponse resp;
    resp.op = "clear-quarantine";
    resp.id = req->id;
    resp.stats["cleared"] = static_cast<double>(clear_quarantine());
    respond(conn, resp);
    return;
  }

  JobResponse reject;
  reject.id = req->id;
  if (req->spec_path.empty() || req->impl_path.empty())
    reject.status = Status::invalid_argument("verify job is missing circuit paths");
  else if (req->k < 2)
    reject.status = Status::invalid_argument("verify job carries k < 2");
  else if (const auto engine =
               engine::EngineRegistry::global().require(req->engine);
           !engine.ok())
    reject.status = engine.status();
  if (!reject.status.ok()) {
    respond(conn, reject);
    return;
  }

  // Admission control, atomically with the queue: a full queue or a draining
  // server answers *now* with kResourceExhausted instead of buffering
  // without bound. draining_ flips under queue_mu_, so no job can slip in
  // behind a drain that already observed an empty queue.
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (draining_.load()) {
      reject.status = Status::with_code(StatusCode::kResourceExhausted,
                                        "server draining, not accepting new jobs");
    } else if (queue_.size() >= options_.queue_depth) {
      reject.status = Status::with_code(
          StatusCode::kResourceExhausted,
          "server overloaded: queue full (" + std::to_string(queue_.size()) +
              " jobs waiting)");
    } else {
      queue_.push_back(Job{conn, *req, Clock::now()});
      ++jobs_accepted_;
      GFA_COUNT("service.jobs_accepted", 1);
      queue_cv_.notify_one();
      return;
    }
  }
  ++jobs_rejected_;
  GFA_COUNT("service.jobs_rejected", 1);
  respond(conn, reject);
}

void Server::worker_loop() {
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] {
        return stop_workers_.load() || !queue_.empty();
      });
      if (queue_.empty()) {
        if (stop_workers_.load()) return;
        continue;
      }
      job = std::move(queue_.front());
      queue_.pop_front();
      ++busy_;
    }
    run_job(std::move(job));
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      --busy_;
      if (queue_.empty() && busy_ == 0) drain_cv_.notify_all();
    }
  }
}

void Server::run_job(Job job) {
  JobResponse resp = run_verify(job.req);
  resp.id = job.req.id;
  resp.wall_ms = ms_since(job.enqueued);  // queue wait included
  GFA_HISTOGRAM("service.job_wall_ms",
                static_cast<std::uint64_t>(resp.wall_ms));
  ++jobs_completed_;
  GFA_COUNT("service.jobs_completed", 1);
  if (!resp.status.ok()) {
    ++jobs_failed_;
    GFA_COUNT("service.jobs_failed", 1);
  }
  respond(job.conn, resp);
}

JobResponse Server::run_verify(const JobRequest& req) {
  JobResponse resp;
  const bool cacheable = options_.cache_enabled &&
                         req.engine == "abstraction" && !req.no_cache;

  // Content-address both circuits up front, for every engine: the hashes
  // drive the canonical-form cache *and* the poison-job quarantine. The
  // parse this costs is a small fraction of any engine's run, and a parse
  // failure is the job's real outcome — the forked worker would hit the
  // same wall — so report it directly, without forking.
  const Result<Netlist> spec = try_read_circuit_file(req.spec_path);
  if (!spec.ok()) {
    resp.status = spec.status();
    return resp;
  }
  const Result<Netlist> impl = try_read_circuit_file(req.impl_path);
  if (!impl.ok()) {
    resp.status = impl.status();
    return resp;
  }
  const QuarantineKey qkey{worker::netlist_content_hash(*spec),
                           worker::netlist_content_hash(*impl), req.engine};
  if (quarantine_lookup(qkey)) {
    // Fast-fail: same status a fresh crash would produce, but without
    // burning another fork (and another crash-restart cycle) on it.
    ++quarantine_fast_fails_;
    GFA_COUNT("service.quarantined.fast_fail", 1);
    resp.status = Status::worker_crashed(
        "job is quarantined after repeated worker crashes (send "
        "clear-quarantine to retry it)");
    resp.detail = "quarantined";
    return resp;
  }

  CacheKey spec_key, impl_key;
  bool have_keys = false;
  const Gf2k* field = nullptr;
  if (cacheable) {
    field = field_for(req.k);
    if (field == nullptr) {
      resp.status = Status::invalid_argument(
          "no field F_2^" + std::to_string(req.k) + " available");
      return resp;
    }
    const std::uint64_t fp = cache_fingerprint(*field);
    spec_key = CacheKey{qkey.spec_hash, req.k, fp};
    impl_key = CacheKey{qkey.impl_hash, req.k, fp};
    have_keys = true;

    const std::optional<std::string> spec_payload = cache_.get(spec_key);
    const std::optional<std::string> impl_payload =
        spec_payload ? cache_.get(impl_key) : std::nullopt;
    if (spec_payload && impl_payload) {
      Result<WordFunction> spec_fn = decode_canon_form(*spec_payload, *field);
      Result<WordFunction> impl_fn =
          spec_fn.ok() ? decode_canon_form(*impl_payload, *field)
                       : Result<WordFunction>(spec_fn.status());
      if (spec_fn.ok() && impl_fn.ok()) {
        // Cache hit: skip extraction, run the cheap coefficient match — the
        // same comparison a cold run ends with, so the verdict is identical
        // by construction — and end it as a cold run ends. A cached
        // equivalence claim is exactly the answer a corrupted or stale cache
        // would get wrong, so with certification on it is cross-checked
        // against the circuits themselves before it is handed out.
        engine::EngineRun run;
        run.engine = req.engine;
        run.verdict = same_word_function(*spec_fn, *impl_fn, &run.detail)
                          ? engine::Verdict::kEquivalent
                          : engine::Verdict::kNotEquivalent;
        run.stats["cache_hit"] = 1.0;
        engine::finish_verdict(run, *spec, *impl, *field, options_.certify);
        if (run.status.code() == StatusCode::kCertificationFailed) {
          GFA_COUNT("service.certify_failed", 1);
          GFA_LOG_ERROR("service",
                        "cache-hit certification failed: " << run.detail);
        }
        fill_response(resp, run);
        resp.cache = "hit";
        return resp;
      }
      // A decode failure is treated exactly like a CRC miss: fall through
      // and recompute (the entries will be overwritten by the fresh forms).
      GFA_LOG_WARN("service",
                   "cached canonical form failed to decode, recomputing: "
                       << (spec_fn.ok() ? impl_fn.status().message()
                                        : spec_fn.status().message()));
    }
  }

  worker::WorkerRequest wreq;
  wreq.spec_path = req.spec_path;
  wreq.impl_path = req.impl_path;
  wreq.k = req.k;
  wreq.engine = req.engine;
  wreq.timeout_seconds = clamp_limit(req.timeout_seconds,
                                     options_.default_timeout_seconds,
                                     options_.max_timeout_seconds);
  wreq.options.memory_budget_bytes = static_cast<std::size_t>(
      clamp_limit(req.memory_budget_bytes,
                  options_.default_memory_budget_bytes,
                  options_.max_memory_budget_bytes));
  wreq.options.export_canonical = cacheable;
  wreq.options.certify = options_.certify;
  wreq.heartbeat_interval_seconds = options_.heartbeat_interval_seconds;
  wreq.stall_timeout_seconds = options_.stall_timeout_seconds;

  worker::RetryPolicy policy;
  policy.max_attempts = options_.max_attempts;
  const engine::EngineRun run = worker::run_isolated_with_retry(wreq, policy);
  if (run.status.code() == StatusCode::kWorkerCrashed) quarantine_strike(qkey);

  fill_response(resp, run);  // stats include worker_attempts
  if (cacheable) resp.cache = "miss";
  if (have_keys && run.status.ok() && !run.canonical_spec.empty() &&
      !run.canonical_impl.empty()) {
    cache_.put(spec_key, run.canonical_spec);
    cache_.put(impl_key, run.canonical_impl);
    resp.cache = "stored";
  }
  return resp;
}

void Server::respond(const std::shared_ptr<Connection>& conn,
                     const JobResponse& resp) {
  const std::string payload = encode_job_response(resp);
  std::lock_guard<std::mutex> lock(conn->write_mu);
  if (Status s = worker::write_frame(conn->fd, payload); !s.ok())
    // The client hung up before its answer arrived; its loss, not ours.
    GFA_LOG_DEBUG("service", "response undeliverable: " << s.message());
}

std::string Server::encode_status_response(std::uint64_t id) const {
  const ServiceSnapshot snap = snapshot();
  std::ostringstream out;
  JsonWriter w(out, 0);
  w.begin_object();
  w.member("op", "status");
  w.member("id", id);
  w.member("status", status_code_name(StatusCode::kOk));
  w.key("pool");
  w.begin_object();
  w.member("size", snap.pool_size);
  w.member("busy", snap.busy);
  w.end_object();
  w.key("queue");
  w.begin_object();
  w.member("depth", static_cast<std::uint64_t>(snap.queue_depth));
  w.member("capacity", static_cast<std::uint64_t>(snap.queue_capacity));
  w.end_object();
  w.member("draining", snap.draining);
  w.member("uptime_seconds", snap.uptime_seconds);
  w.member("certify", options_.certify);
  w.key("jobs");
  w.begin_object();
  w.member("accepted", snap.jobs_accepted);
  w.member("completed", snap.jobs_completed);
  w.member("rejected", snap.jobs_rejected);
  w.member("failed", snap.jobs_failed);
  w.member("accept_failures", snap.accept_failures);
  w.end_object();
  w.key("cache");
  w.begin_object();
  w.member("enabled", options_.cache_enabled);
  w.member("hits", snap.cache.hits);
  w.member("misses", snap.cache.misses);
  w.member("insertions", snap.cache.insertions);
  w.member("evictions", snap.cache.evictions);
  w.member("corrupt_dropped", snap.cache.corrupt_dropped);
  w.member("entries", snap.cache.entries);
  w.member("bytes", snap.cache.bytes);
  w.member("max_bytes", snap.cache.max_bytes);
  w.end_object();
  w.key("quarantine");
  w.begin_object();
  w.member("strikes", static_cast<std::uint64_t>(options_.quarantine_strikes));
  w.member("ttl_seconds", options_.quarantine_ttl_seconds);
  w.member("tracked", static_cast<std::uint64_t>(snap.quarantine_tracked));
  w.member("active", static_cast<std::uint64_t>(snap.quarantine_active));
  w.member("fast_fails", snap.quarantine_fast_fails);
  w.member("trips", snap.quarantine_trips);
  w.end_object();
  if (obs::metrics_enabled()) {
    w.key("metrics");
    w.begin_object();
    for (const auto& [name, value] : obs::Metrics::instance().snapshot())
      w.member(name, value);
    w.end_object();
  }
  w.end_object();
  return out.str();
}

ServiceSnapshot Server::snapshot() const {
  ServiceSnapshot snap;
  snap.pool_size = options_.pool_size;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    snap.busy = busy_;
    snap.queue_depth = queue_.size();
  }
  snap.queue_capacity = options_.queue_depth;
  snap.draining = draining_.load();
  snap.uptime_seconds =
      std::chrono::duration<double>(Clock::now() - started_).count();
  snap.jobs_accepted = jobs_accepted_.load();
  snap.jobs_completed = jobs_completed_.load();
  snap.jobs_rejected = jobs_rejected_.load();
  snap.jobs_failed = jobs_failed_.load();
  snap.accept_failures = accept_failures_.load();
  snap.cache = cache_.stats();
  {
    std::lock_guard<std::mutex> lock(quarantine_mu_);
    snap.quarantine_tracked = quarantine_.size();
    for (const auto& [key, entry] : quarantine_)
      if (options_.quarantine_strikes > 0 &&
          entry.strikes >= options_.quarantine_strikes)
        ++snap.quarantine_active;
  }
  snap.quarantine_fast_fails = quarantine_fast_fails_.load();
  snap.quarantine_trips = quarantine_trips_.load();
  return snap;
}

bool Server::quarantine_lookup(const QuarantineKey& key) {
  if (options_.quarantine_strikes == 0) return false;
  std::lock_guard<std::mutex> lock(quarantine_mu_);
  const auto it = quarantine_.find(key);
  if (it == quarantine_.end()) return false;
  if (options_.quarantine_ttl_seconds > 0 &&
      std::chrono::duration<double>(Clock::now() - it->second.last_strike)
              .count() > options_.quarantine_ttl_seconds) {
    // Expired: the strike record is forgiven wholesale, so a once-poisonous
    // job gets a full fresh set of strikes, not an instant re-trip.
    quarantine_.erase(it);
    return false;
  }
  return it->second.strikes >= options_.quarantine_strikes;
}

void Server::quarantine_strike(const QuarantineKey& key) {
  if (options_.quarantine_strikes == 0) return;
  std::lock_guard<std::mutex> lock(quarantine_mu_);
  QuarantineEntry& entry = quarantine_[key];
  ++entry.strikes;
  entry.last_strike = Clock::now();
  GFA_COUNT("service.quarantined.strikes", 1);
  if (entry.strikes == options_.quarantine_strikes) {
    ++quarantine_trips_;
    GFA_COUNT("service.quarantined.tripped", 1);
    GFA_LOG_WARN("service", "quarantined a job fingerprint (engine "
                                << key.engine << ") after " << entry.strikes
                                << " worker crash(es)");
  }
}

std::size_t Server::clear_quarantine() {
  std::size_t cleared;
  {
    std::lock_guard<std::mutex> lock(quarantine_mu_);
    cleared = quarantine_.size();
    quarantine_.clear();
  }
  if (cleared > 0)
    GFA_LOG_INFO("service",
                 "clear-quarantine dropped " << cleared << " fingerprint(s)");
  return cleared;
}

const Gf2k* Server::field_for(unsigned k) {
  std::lock_guard<std::mutex> lock(fields_mu_);
  const auto it = fields_.find(k);
  if (it != fields_.end()) return it->second.get();
  Result<Gf2k> field = Gf2k::try_make(k);
  if (!field.ok()) return nullptr;
  // Fields live for the server's lifetime: decoded WordFunctions hold MPoly
  // values whose coefficient arithmetic points back at the field.
  return fields_.emplace(k, std::make_unique<Gf2k>(std::move(*field)))
      .first->second.get();
}

}  // namespace gfa::service
