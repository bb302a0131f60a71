#include "worker/harness.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>

#include <condition_variable>
#include <cstdint>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "circuit/parser.h"
#include "circuit/verilog.h"
#include "engine/registry.h"
#include "obs/flight_recorder.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "util/fault_inject.h"
#include "util/json_reader.h"

#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define GFA_ASAN 1
#endif
#elif defined(__SANITIZE_ADDRESS__)
#define GFA_ASAN 1
#endif

namespace gfa::worker {

namespace {

/// A worker child dying mid-conversation must surface as a classified
/// Status, not kill the supervisor with SIGPIPE.
void ignore_sigpipe_once() {
  static std::once_flag flag;
  std::call_once(flag, [] { std::signal(SIGPIPE, SIG_IGN); });
}

bool has_suffix(const std::string& s, const char* suffix) {
  const std::size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

Result<Netlist> load_circuit(const std::string& path) {
  return has_suffix(path, ".v") ? try_read_verilog_file(path)
                                : try_read_netlist_file(path);
}

/// Hard caps applied inside the child, between the handshake and the run.
/// These are the last line of defense behind the cooperative budget and
/// deadline: a loop that stops polling still cannot outlive RLIMIT_CPU, and
/// an allocation path the byte accounting cannot see still hits RLIMIT_AS.
void apply_child_rlimits(const WorkerRequest& req,
                         const WorkerConfig& config) {
#if !defined(GFA_ASAN)
  if (req.memory_budget_bytes != 0) {
    // Headroom over the counted budget for code, stacks, and allocator
    // slack; the cooperative ResourceBudget is expected to trip first.
    const double want =
        static_cast<double>(req.memory_budget_bytes) *
            config.address_space_headroom +
        256.0 * 1024 * 1024;
    struct rlimit as_limit;
    as_limit.rlim_cur = static_cast<rlim_t>(
        std::min(want, 9.0e18));
    as_limit.rlim_max = as_limit.rlim_cur;
    (void)setrlimit(RLIMIT_AS, &as_limit);  // best effort
  }
#else
  (void)config;
#endif
  if (req.timeout_seconds > 0) {
    struct rlimit cpu_limit;
    cpu_limit.rlim_cur = static_cast<rlim_t>(req.timeout_seconds) + 1 +
                         config.cpu_rlimit_slack_seconds;
    cpu_limit.rlim_max = cpu_limit.rlim_cur + 5;
    (void)setrlimit(RLIMIT_CPU, &cpu_limit);
  }
}

engine::RunOptions run_options_of(const WorkerRequest& req) {
  engine::RunOptions options;
  if (req.timeout_seconds > 0)
    options.control.deadline = Deadline::after(req.timeout_seconds);
  options.sat_conflict_limit = req.sat_conflict_limit;
  options.bdd_node_limit = static_cast<std::size_t>(req.bdd_node_limit);
  options.max_terms = static_cast<std::size_t>(req.max_terms);
  options.gb_max_reductions = static_cast<std::size_t>(req.gb_max_reductions);
  options.gb_max_poly_terms = static_cast<std::size_t>(req.gb_max_poly_terms);
  options.memory_budget_bytes =
      static_cast<std::size_t>(req.memory_budget_bytes);
  options.attempt_timeout_seconds = req.attempt_timeout_seconds;
  options.portfolio_engines = req.portfolio_engines;
  options.portfolio_race = req.portfolio_race;
  options.checkpoint_dir = req.checkpoint_dir;
  options.checkpoint_interval = req.checkpoint_interval;
  options.checkpoint_resume = req.checkpoint_resume;
  options.export_canonical = req.export_canonical;
  options.certify = req.certify;
  return options;
}

/// The child's engine run, already flattened into a response.
WorkerResponse execute_request(const WorkerRequest& req) {
  WorkerResponse resp;
  const Result<Netlist> spec = load_circuit(req.spec_path);
  if (!spec.ok()) {
    resp.status = spec.status();
    return resp;
  }
  const Result<Netlist> impl = load_circuit(req.impl_path);
  if (!impl.ok()) {
    resp.status = impl.status();
    return resp;
  }
  const Result<Gf2k> field = Gf2k::try_make(req.k);
  if (!field.ok()) {
    resp.status = field.status();
    return resp;
  }
  const Result<const engine::EquivEngine*> eng =
      engine::EngineRegistry::global().require(req.engine);
  if (!eng.ok()) {
    resp.status = eng.status();
    return resp;
  }
  const engine::EngineRun run =
      engine::run_engine(**eng, *spec, *impl, *field, run_options_of(req));
  resp.status = run.status;
  resp.verdict = run.verdict;
  resp.detail = run.detail;
  resp.counterexample = run.counterexample;
  resp.stats = run.stats;
  resp.attempts = run.attempts;
  resp.resumed = run.resumed;
  resp.wall_ms = run.wall_ms;
  resp.budget_limit_bytes = run.budget_limit_bytes;
  resp.budget_peak_bytes = run.budget_peak_bytes;
  resp.canonical_spec = run.canonical_spec;
  resp.canonical_impl = run.canonical_impl;
  return resp;
}

/// Child-side telemetry pump. While active it owns the process-wide progress
/// sink and a heartbeat timer thread; every frame written to the pipe —
/// telemetry, trace slices, the final response (written by the caller after
/// stop()) — is serialized behind one mutex so the stream stays framed.
/// With heartbeat_interval_seconds == 0 this is entirely inert: no sink, no
/// thread, no frames — the dark baseline the overhead bound is measured
/// against.
class ChildTelemetry {
 public:
  ChildTelemetry(int fd, const WorkerRequest& req)
      : fd_(fd),
        interval_(req.heartbeat_interval_seconds),
        trace_(req.trace) {
    if (interval_ <= 0) return;
    active_ = true;
    if (obs::metrics_enabled())
      last_metrics_ = obs::Metrics::instance().snapshot();
    obs::set_progress_sink(
        [this](const obs::Progress& p) { on_progress(p); });
    thread_ = std::thread([this] { heartbeat_loop(); });
  }

  ~ChildTelemetry() { stop(); }

  ChildTelemetry(const ChildTelemetry&) = delete;
  ChildTelemetry& operator=(const ChildTelemetry&) = delete;

  /// Uninstalls the sink, joins the timer thread, and flushes the remaining
  /// trace slice. After stop() the pipe is quiet: the caller may write the
  /// response frame without racing a heartbeat.
  void stop() {
    if (!active_) return;
    obs::set_progress_sink(nullptr);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = true;
    }
    cv_.notify_all();
    thread_.join();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      flush_trace_locked();
    }
    active_ = false;
  }

 private:
  /// Progress callbacks arrive from whatever thread runs the phase (pool
  /// threads included). A phase change is sent immediately — phase
  /// boundaries are the frames the supervisor's forensics care most about —
  /// and same-phase progress is rate-limited to the heartbeat interval.
  void on_progress(const obs::Progress& p) {
    std::lock_guard<std::mutex> lock(mutex_);
    const bool phase_change =
        std::strcmp(p.phase, last_.phase) != 0;
    last_ = p;
    const auto now = std::chrono::steady_clock::now();
    if (!phase_change &&
        std::chrono::duration<double>(now - last_send_).count() < interval_)
      return;
    send_locked(now);
  }

  void heartbeat_loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stopping_) {
      cv_.wait_for(lock, std::chrono::duration<double>(interval_));
      if (stopping_) break;
      send_locked(std::chrono::steady_clock::now());
      flush_trace_locked();
    }
  }

  void send_locked(std::chrono::steady_clock::time_point now) {
    TelemetryFrame t;
    t.seq = ++seq_;
    t.phase = last_.phase;
    t.step = last_.step;
    t.total = last_.total;
    t.terms = last_.terms;
    t.budget_bytes = last_.budget_bytes;
    t.rss_bytes = obs::sample_rss_bytes();
    if (obs::metrics_enabled()) {
      t.metrics = obs::Metrics::instance().delta(last_metrics_);
      last_metrics_ = obs::Metrics::instance().snapshot();
    }
    if (t.budget_bytes > budget_hwm_) {
      budget_hwm_ = t.budget_bytes;
      obs::flight::note("budget:hwm", budget_hwm_, t.rss_bytes);
    }
    (void)write_frame(fd_, encode_telemetry_frame(t));
    last_send_ = now;
  }

  /// Streams the not-yet-sent tail of the trace buffer, so all spans closed
  /// before the last heartbeat survive a later crash.
  void flush_trace_locked() {
    if (!trace_ || !obs::trace_enabled()) return;
    std::vector<obs::TraceEvent> events = obs::Tracer::instance().events();
    if (events.size() <= trace_sent_) return;
    TraceFramePayload payload;
    payload.epoch_us = obs::trace_epoch_us();
    payload.events.assign(events.begin() + static_cast<std::ptrdiff_t>(trace_sent_),
                          events.end());
    trace_sent_ = events.size();
    (void)write_frame(fd_, encode_trace_frame(payload));
  }

  const int fd_;
  const double interval_;
  const bool trace_;
  bool active_ = false;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
  std::thread thread_;
  obs::Progress last_;
  std::chrono::steady_clock::time_point last_send_{};
  obs::MetricsSnapshot last_metrics_;
  std::uint64_t seq_ = 0;
  std::uint64_t budget_hwm_ = 0;
  std::size_t trace_sent_ = 0;
};

/// Polls for the child's exit until `deadline`, napping between polls for
/// a time that starts at 50 µs and doubles up to 20 ms, so a child that is
/// already on its way out is reaped within tens of microseconds.
bool wait_for_exit(pid_t pid, std::chrono::steady_clock::time_point deadline,
                   int* wstatus) {
  auto nap = std::chrono::microseconds(50);
  for (;;) {
    const pid_t r = waitpid(pid, wstatus, WNOHANG);
    if (r == pid) return true;
    if (r < 0 && errno != EINTR) return false;
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return false;
    std::this_thread::sleep_for(std::min<std::chrono::steady_clock::duration>(
        nap, deadline - now));
    nap = std::min(nap * 2, std::chrono::microseconds(20000));
  }
}

/// Reaps the child and returns the raw waitpid status. A child that sent a
/// valid response is inside its own _exit(0): it gets `grace_seconds` to
/// finish without a signal. Otherwise, or past that bound, the supervisor
/// escalates SIGTERM -> (grace) -> SIGKILL.
int reap_child(pid_t pid, bool answered, double grace_seconds) {
  const obs::TraceSpan span("worker:reap", "worker");
  const auto grace = std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(grace_seconds));
  int wstatus = 0;
  if (answered) {
    if (wait_for_exit(pid, std::chrono::steady_clock::now() + grace, &wstatus))
      return wstatus;
  } else if (waitpid(pid, &wstatus, WNOHANG) == pid) {
    return wstatus;
  }
  kill(pid, SIGTERM);
  GFA_COUNT("worker.reap_signals", 1);
  if (wait_for_exit(pid, std::chrono::steady_clock::now() + grace, &wstatus))
    return wstatus;
  kill(pid, SIGKILL);
  GFA_COUNT("worker.reap_signals", 1);
  while (waitpid(pid, &wstatus, 0) < 0 && errno == EINTR) {
  }
  return wstatus;
}

/// Maps the child's raw termination status to a supervisor Status; only
/// consulted when no valid response frame arrived.
Status classify_termination(int wstatus, const Status& read_status) {
  if (WIFEXITED(wstatus)) {
    const int code = WEXITSTATUS(wstatus);
    if (code == 0)
      return Status::worker_crashed(
          "worker exited cleanly without a valid response frame (protocol "
          "corruption: " +
          read_status.message() + ")");
    return Status::worker_crashed("worker exited with status " +
                                  std::to_string(code) +
                                  " without a response (" +
                                  read_status.message() + ")");
  }
  if (WIFSIGNALED(wstatus)) {
    const int sig = WTERMSIG(wstatus);
    if (sig == SIGXCPU)
      return Status::deadline_exceeded(
          "worker exceeded its CPU rlimit (SIGXCPU)");
    const char* name = strsignal(sig);
    return Status::worker_crashed(
        "worker killed by signal " + std::to_string(sig) + " (" +
        (name != nullptr ? name : "?") +
        (sig == SIGKILL ? "; possibly the kernel OOM killer or an external "
                          "kill"
                        : "") +
        ")");
  }
  return Status::worker_crashed("worker ended with unrecognized wait status " +
                                std::to_string(wstatus));
}

}  // namespace

void worker_child_main(int in_fd, int out_fd, const WorkerConfig& config) {
  // Shed the parent's signal dispositions first: a service parent routes
  // SIGTERM/SIGINT into a self-pipe drain handler, and that handler — run in
  // a forked child that shares the pipe — would both neuter the supervisor's
  // SIGTERM escalation and inject a spurious drain into the parent.
  std::signal(SIGTERM, SIG_DFL);
  std::signal(SIGINT, SIG_DFL);
  WorkerRequest req;
  {
    // The request follows the fork immediately; EOF here means the parent
    // died, and anything unparseable is a protocol bug worth a loud exit.
    Result<std::string> frame = read_frame(in_fd, Deadline::infinite());
    if (!frame.ok()) _exit(3);
    Result<WorkerRequest> decoded = decode_request(*frame);
    if (!decoded.ok()) _exit(3);
    req = std::move(*decoded);
  }
  // Drop observability state inherited from the parent's address space —
  // the child's trace buffer and flight ring must tell only its own story —
  // then arm the crash path before anything else can die.
  obs::Tracer::instance().clear();
  obs::flight::clear();
  obs::flight::note("worker:start", req.k);
  obs::flight::install_crash_handler(out_fd);
  if (req.trace) obs::set_trace_enabled(true);
  if (req.simulate_crash) {
    // Injected "worker:crash": die the way a heap-corruption abort would.
    // The crash handler dumps the flight ring over the pipe first.
    std::abort();
  }
  if (req.simulate_hang) {
    // Injected "worker:hang": stop cooperating entirely — no frames, ignore
    // SIGTERM — so only the parent's stall detector (and ultimately its
    // SIGKILL escalation) can classify and end this process.
    std::signal(SIGTERM, SIG_IGN);
    for (;;) std::this_thread::sleep_for(std::chrono::seconds(1));
  }
  apply_child_rlimits(req, config);
  try {
    ChildTelemetry telemetry(out_fd, req);
    WorkerResponse resp = execute_request(req);
    telemetry.stop();
    obs::sample_rss_bytes();
    resp.peak_rss_bytes = obs::peak_rss_bytes();
    const std::string payload = encode_response(resp);
    if (!write_frame(out_fd, payload).ok()) _exit(3);
  } catch (...) {
    // The engine boundary catches everything in practice; if something still
    // escapes, ship the flight tail so the exit-4 report has forensics.
    obs::set_progress_sink(nullptr);
    obs::flight::dump_frame(out_fd);
    _exit(4);
  }
  _exit(0);
}

engine::EngineRun run_in_worker(const WorkerRequest& request,
                                const WorkerConfig& config) {
  ignore_sigpipe_once();
  // A parent-side span around the whole supervision: fork, frame loop, reap.
  // Also guarantees every merged --trace file has at least one event from
  // the supervisor's pid next to the imported worker events.
  const obs::TraceSpan supervise_span("worker:supervise", "worker");
  engine::EngineRun run;
  run.engine = request.engine;

  // Consume caller-enacted fault sites in the parent: forked children
  // inherit the armed one-shot state, so firing them child-side would
  // re-trigger on every retry. Consuming here disarms before fork() and
  // relays the fault through the request instead.
  WorkerRequest req = request;
  if (fault::consume("worker:crash")) req.simulate_crash = true;
  if (fault::consume("worker:hang")) req.simulate_hang = true;
  // Child trace streaming follows the parent's tracing state.
  req.trace = obs::trace_enabled();

  int to_child[2];   // parent writes request
  int from_child[2]; // child writes response
  if (pipe(to_child) != 0) {
    run.status = Status::internal(std::string("pipe failed: ") +
                                  std::strerror(errno));
    run.detail = run.status.message();
    return run;
  }
  if (pipe(from_child) != 0) {
    close(to_child[0]);
    close(to_child[1]);
    run.status = Status::internal(std::string("pipe failed: ") +
                                  std::strerror(errno));
    run.detail = run.status.message();
    return run;
  }

  const auto start = std::chrono::steady_clock::now();
  const pid_t pid = fork();
  if (pid < 0) {
    for (int fd : {to_child[0], to_child[1], from_child[0], from_child[1]})
      close(fd);
    run.status = Status::internal(std::string("fork failed: ") +
                                  std::strerror(errno));
    run.detail = run.status.message();
    return run;
  }
  if (pid == 0) {
    close(to_child[1]);
    close(from_child[0]);
    worker_child_main(to_child[0], from_child[1], config);  // never returns
  }
  close(to_child[0]);
  close(from_child[1]);
  if (config.on_spawn) config.on_spawn(pid);

  GFA_LOG_INFO("worker", "spawned worker " << pid << " for engine "
                                           << req.engine);

  Status outcome;
  WorkerResponse resp;
  bool have_response = false;
  {
    const Status sent = write_frame(to_child[1], encode_request(req));
    // An EPIPE here means the child is already dead; fall through to the
    // read (immediate EOF) so the crash is classified off waitpid.
    if (!sent.ok() && sent.code() != StatusCode::kWorkerCrashed)
      outcome = sent;
  }
  close(to_child[1]);

  // Frame-stream supervision. Telemetry/trace/flight frames accumulate into
  // the run record and refresh the stall detector; the response frame (or a
  // failure) ends the loop. Two clocks bound each read: the wall deadline
  // (the child's own deadline should end the run cleanly first; the extra
  // grace covers serialization and scheduling) and, when configured, the
  // stall timeout since the last frame — a worker silent past it is
  // classified distinctly from a wall overrun, and retryably.
  const Deadline wall_deadline =
      req.timeout_seconds > 0
          ? Deadline::after(req.timeout_seconds +
                            config.kill_grace_seconds + 1.0)
          : Deadline::infinite();
  const bool stall_active =
      req.stall_timeout_seconds > 0 && req.heartbeat_interval_seconds > 0;
  auto last_frame_time = std::chrono::steady_clock::now();
  bool stalled = false;
  std::uint64_t heartbeats = 0;
  std::string last_phase;
  std::uint64_t last_step = 0;
  std::uint64_t child_rss = 0;
  std::vector<std::string> flight_events;
  std::vector<obs::TraceEvent> child_events;
  std::uint64_t child_epoch_us = 0;
  while (outcome.ok() && !have_response) {
    Deadline read_deadline = wall_deadline;
    double stall_remaining = 0.0;
    if (stall_active) {
      const double since_last =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        last_frame_time)
              .count();
      stall_remaining = req.stall_timeout_seconds - since_last;
      if (stall_remaining <= 0.001) stall_remaining = 0.001;
      if (wall_deadline.is_infinite() ||
          stall_remaining < wall_deadline.remaining_seconds())
        read_deadline = Deadline::after(stall_remaining);
    }
    Result<std::string> frame = read_frame(from_child[0], read_deadline);
    if (!frame.ok()) {
      if (frame.status().code() == StatusCode::kDeadlineExceeded &&
          stall_active && !wall_deadline.expired()) {
        stalled = true;
        outcome = Status::worker_crashed(
            "worker stalled: no telemetry frame for " +
            std::to_string(req.stall_timeout_seconds) +
            "s (stall timeout; wall deadline not reached)");
      } else {
        outcome = frame.status();
      }
      break;
    }
    last_frame_time = std::chrono::steady_clock::now();
    Result<JsonValue> doc = parse_json(*frame);
    if (!doc.ok()) {
      outcome = Status::worker_crashed("worker frame unparseable: " +
                                       doc.status().message());
      break;
    }
    switch (frame_kind(*doc)) {
      case FrameKind::kTelemetry: {
        Result<TelemetryFrame> t = decode_telemetry_frame(*doc);
        if (t.ok()) {
          ++heartbeats;
          if (!t->phase.empty()) last_phase = t->phase;
          last_step = t->step;
          child_rss = std::max(child_rss, t->rss_bytes);
        }
        break;
      }
      case FrameKind::kTrace: {
        Result<TraceFramePayload> t = decode_trace_frame(*doc);
        if (t.ok()) {
          child_epoch_us = t->epoch_us;
          child_events.insert(child_events.end(),
                              std::make_move_iterator(t->events.begin()),
                              std::make_move_iterator(t->events.end()));
        }
        break;
      }
      case FrameKind::kFlight: {
        Result<std::vector<obs::flight::Event>> events =
            decode_flight_frame(*doc);
        if (events.ok()) {
          flight_events.clear();
          for (const obs::flight::Event& e : *events)
            flight_events.push_back(obs::flight::format(e));
        }
        break;
      }
      case FrameKind::kResponse: {
        Result<WorkerResponse> decoded = decode_response(*frame);
        if (decoded.ok()) {
          resp = std::move(*decoded);
          have_response = true;
        } else {
          outcome = Status::worker_crashed("worker response unparseable: " +
                                           decoded.status().message());
        }
        break;
      }
    }
  }
  // The crash handler's flight frame may still sit in the pipe buffer after
  // an EOF-classified death mid-stream never delivered it to the loop (the
  // handler can race a heartbeat write and garble one frame). Best effort:
  // nothing further to read once the loop ended.
  close(from_child[0]);

  const int wstatus =
      reap_child(pid, have_response, config.kill_grace_seconds);
  const auto end = std::chrono::steady_clock::now();
  run.wall_ms = std::chrono::duration<double, std::milli>(end - start).count();

  // Fold the accumulated telemetry into the record regardless of outcome —
  // for a dead worker the (last phase, last step, heartbeat count) triple is
  // exactly the forensic story the report needs.
  run.heartbeats = heartbeats;
  run.last_phase = last_phase;
  run.last_step = last_step;
  run.flight_events = std::move(flight_events);
  obs::sample_rss_bytes();  // parent-side boundary sample
  run.peak_rss_bytes = std::max(child_rss, resp.peak_rss_bytes);

  // Merge the child's trace spans into the parent buffer: re-base their
  // timestamps from the child's trace epoch onto ours (both are offsets of
  // the same CLOCK_MONOTONIC) and stamp the worker's real pid so the merged
  // --trace file renders the fork as its own process group.
  if (!child_events.empty() && obs::trace_enabled()) {
    const std::int64_t offset = static_cast<std::int64_t>(child_epoch_us) -
                                static_cast<std::int64_t>(obs::trace_epoch_us());
    for (obs::TraceEvent& e : child_events) {
      const std::int64_t ts = static_cast<std::int64_t>(e.start_us) + offset;
      e.start_us = ts > 0 ? static_cast<std::uint64_t>(ts) : 0;
      e.pid = static_cast<std::uint32_t>(pid);
    }
    obs::Tracer::instance().import_events(std::move(child_events));
  }

  if (have_response) {
    run.status = resp.status;
    run.verdict = resp.verdict;
    run.detail = resp.status.ok() ? resp.detail : resp.status.message();
    run.counterexample = std::move(resp.counterexample);
    run.stats = std::move(resp.stats);
    run.attempts = std::move(resp.attempts);
    run.resumed = resp.resumed;
    run.budget_limit_bytes =
        static_cast<std::size_t>(resp.budget_limit_bytes);
    run.budget_peak_bytes = static_cast<std::size_t>(resp.budget_peak_bytes);
    run.canonical_spec = std::move(resp.canonical_spec);
    run.canonical_impl = std::move(resp.canonical_impl);
    return run;
  }
  if (stalled) {
    run.status = outcome;
    run.stats["worker_stalled"] = 1.0;
  } else {
    run.status = outcome.code() == StatusCode::kDeadlineExceeded
                     ? Status::deadline_exceeded(
                           "worker exceeded the wall clock; terminated "
                           "(SIGTERM, then SIGKILL after " +
                           std::to_string(config.kill_grace_seconds) + "s)")
                     : classify_termination(wstatus, outcome);
  }
  run.detail = run.status.message();
  GFA_LOG_WARN("worker", "worker " << pid << " failed: "
                                   << run.status.to_string());
  return run;
}

engine::EngineRun run_isolated_with_retry(WorkerRequest request,
                                          const RetryPolicy& policy,
                                          const WorkerConfig& config) {
  const unsigned max_attempts = std::max(1u, policy.max_attempts);
  std::vector<engine::AttemptRecord> history;
  std::vector<std::string> last_flight;
  engine::EngineRun run;
  for (unsigned attempt = 1; attempt <= max_attempts; ++attempt) {
    const double delay = policy.delay_before_attempt(attempt);
    if (delay > 0)
      std::this_thread::sleep_for(std::chrono::duration<double>(delay));
    run = run_in_worker(request, config);
    GFA_HISTOGRAM("worker.attempt_wall_ms",
                  static_cast<std::uint64_t>(run.wall_ms));
    if (!run.flight_events.empty()) last_flight = run.flight_events;

    engine::AttemptRecord record;
    record.engine = request.engine;
    record.status = run.status;
    record.verdict = run.verdict;
    record.wall_ms = run.wall_ms;
    record.budget_peak_bytes = run.budget_peak_bytes;
    record.heartbeats = run.heartbeats;
    record.last_phase = run.last_phase;
    record.last_step = run.last_step;
    record.detail = "attempt " + std::to_string(attempt) + "/" +
                    std::to_string(max_attempts) +
                    (run.detail.empty() ? "" : ": " + run.detail);
    history.push_back(std::move(record));

    if (run.status.ok() || !RetryPolicy::retryable(run.status.code())) break;
    if (attempt < max_attempts) {
      GFA_LOG_WARN("worker", "attempt " << attempt << " failed ("
                                        << run.status.to_string()
                                        << "), retrying");
      if (policy.budget_escalation > 1.0 && request.memory_budget_bytes != 0)
        request.memory_budget_bytes = static_cast<std::uint64_t>(
            static_cast<double>(request.memory_budget_bytes) *
            policy.budget_escalation);
    }
  }
  run.stats["worker_attempts"] = static_cast<double>(history.size());
  // A failed final attempt without its own flight dump (e.g. a SIGKILLed
  // hang) still reports the most recent tail from an earlier crashed fork.
  if (!run.status.ok() && run.flight_events.empty())
    run.flight_events = std::move(last_flight);
  // With retries in play the crash/retry history is the interesting attempt
  // story; a single clean attempt keeps whatever the engine itself reported
  // (e.g. portfolio attempts from inside the worker). A single *failed*
  // attempt has no engine-side story to preserve — record it, so a crash
  // report always carries the attempt's telemetry triple.
  if (history.size() > 1 || (!run.status.ok() && run.attempts.empty()))
    run.attempts = std::move(history);
  return run;
}

}  // namespace gfa::worker
