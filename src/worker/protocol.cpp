#include "worker/protocol.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <sstream>

#include <poll.h>
#include <unistd.h>

#include "util/json_reader.h"
#include "util/json_writer.h"

namespace gfa::worker {

namespace {

/// Requests and responses use snake_case keys matching the RunOptions /
/// EngineRun field names.

void write_attempt(JsonWriter& w, const engine::AttemptRecord& a) {
  w.begin_object();
  w.member("engine", a.engine);
  w.member("skipped", a.skipped);
  engine::write_status(w, a.status, /*with_message=*/true);
  w.member("verdict", engine::verdict_name(a.verdict));
  w.member("detail", a.detail);
  w.member("wall_ms", a.wall_ms);
  w.member("budget_peak_bytes",
           static_cast<std::uint64_t>(a.budget_peak_bytes));
  w.member("heartbeats", a.heartbeats);
  w.member("last_phase", a.last_phase);
  w.member("last_step", a.last_step);
  w.end_object();
}

Result<engine::AttemptRecord> read_attempt(const JsonValue& v) {
  engine::AttemptRecord a;
  a.engine = v.string_or("engine", "");
  a.skipped = v.bool_or("skipped", false);
  if (Status s = engine::read_status(v, &a.status); !s.ok()) return s;
  if (Status s = engine::read_verdict(v, &a.verdict); !s.ok()) return s;
  a.detail = v.string_or("detail", "");
  a.wall_ms = v.number_or("wall_ms", 0.0);
  a.budget_peak_bytes =
      static_cast<std::size_t>(v.u64_or("budget_peak_bytes", 0));
  a.heartbeats = v.u64_or("heartbeats", 0);
  a.last_phase = v.string_or("last_phase", "");
  a.last_step = v.u64_or("last_step", 0);
  return a;
}

}  // namespace

std::string encode_request(const WorkerRequest& req) {
  const engine::RunOptions& o = req.options;
  std::ostringstream out;
  JsonWriter w(out, 0);
  w.begin_object();
  w.member("spec_path", req.spec_path);
  w.member("impl_path", req.impl_path);
  w.member("k", req.k);
  w.member("engine", req.engine);
  w.member("timeout_seconds", req.timeout_seconds);
  w.member("sat_conflict_limit", o.sat_conflict_limit);
  w.member("bdd_node_limit", static_cast<std::uint64_t>(o.bdd_node_limit));
  w.member("max_terms", static_cast<std::uint64_t>(o.max_terms));
  w.member("gb_max_reductions",
           static_cast<std::uint64_t>(o.gb_max_reductions));
  w.member("gb_max_poly_terms",
           static_cast<std::uint64_t>(o.gb_max_poly_terms));
  w.member("memory_budget_bytes",
           static_cast<std::uint64_t>(o.memory_budget_bytes));
  w.member("attempt_timeout_seconds", o.attempt_timeout_seconds);
  w.key("portfolio_engines");
  w.begin_array();
  for (const std::string& name : o.portfolio_engines) w.value(name);
  w.end_array();
  w.member("portfolio_race", o.portfolio_race);
  w.member("simulate_crash", req.simulate_crash);
  w.member("simulate_hang", req.simulate_hang);
  w.member("heartbeat_interval_seconds", req.heartbeat_interval_seconds);
  w.member("stall_timeout_seconds", req.stall_timeout_seconds);
  w.member("trace", req.trace);
  w.member("export_canonical", o.export_canonical);
  w.member("certify", o.certify);
  w.end_object();
  return out.str();
}

Result<WorkerRequest> decode_request(std::string_view json) {
  Result<JsonValue> doc = parse_json(json);
  if (!doc.ok()) return doc.status();
  if (!doc->is_object())
    return Status::invalid_argument("worker request is not a JSON object");
  WorkerRequest req;
  engine::RunOptions& o = req.options;
  req.spec_path = doc->string_or("spec_path", "");
  req.impl_path = doc->string_or("impl_path", "");
  req.k = static_cast<unsigned>(doc->u64_or("k", 0));
  req.engine = doc->string_or("engine", "abstraction");
  req.timeout_seconds = doc->number_or("timeout_seconds", 0.0);
  o.sat_conflict_limit = doc->u64_or("sat_conflict_limit", 0);
  o.bdd_node_limit = static_cast<std::size_t>(doc->u64_or("bdd_node_limit", 0));
  o.max_terms = static_cast<std::size_t>(doc->u64_or("max_terms", 0));
  o.gb_max_reductions =
      static_cast<std::size_t>(doc->u64_or("gb_max_reductions", 0));
  o.gb_max_poly_terms =
      static_cast<std::size_t>(doc->u64_or("gb_max_poly_terms", 0));
  o.memory_budget_bytes =
      static_cast<std::size_t>(doc->u64_or("memory_budget_bytes", 0));
  o.attempt_timeout_seconds = doc->number_or("attempt_timeout_seconds", 0.0);
  if (const JsonValue* engines = doc->find("portfolio_engines");
      engines != nullptr && engines->is_array()) {
    for (const JsonValue& item : engines->items())
      if (item.is_string()) o.portfolio_engines.push_back(item.as_string());
  }
  o.portfolio_race = doc->bool_or("portfolio_race", false);
  req.simulate_crash = doc->bool_or("simulate_crash", false);
  req.simulate_hang = doc->bool_or("simulate_hang", false);
  req.heartbeat_interval_seconds =
      doc->number_or("heartbeat_interval_seconds", 1.0);
  req.stall_timeout_seconds = doc->number_or("stall_timeout_seconds", 0.0);
  req.trace = doc->bool_or("trace", false);
  o.export_canonical = doc->bool_or("export_canonical", false);
  o.certify = doc->bool_or("certify", false);
  if (req.spec_path.empty() || req.impl_path.empty())
    return Status::invalid_argument("worker request is missing circuit paths");
  if (req.k < 2)
    return Status::invalid_argument("worker request carries k < 2");
  return req;
}

std::string encode_response(const engine::EngineRun& run) {
  std::ostringstream out;
  JsonWriter w(out, 0);
  w.begin_object();
  engine::write_status(w, run.status, /*with_message=*/true);
  w.member("verdict", engine::verdict_name(run.verdict));
  w.member("detail", run.detail);
  engine::write_counterexample(w, run.counterexample);
  engine::write_stats(w, run.stats);
  w.key("attempts");
  w.begin_array();
  for (const engine::AttemptRecord& a : run.attempts) write_attempt(w, a);
  w.end_array();
  w.member("wall_ms", run.wall_ms);
  w.member("budget_limit_bytes",
           static_cast<std::uint64_t>(run.budget_limit_bytes));
  w.member("budget_peak_bytes",
           static_cast<std::uint64_t>(run.budget_peak_bytes));
  w.member("peak_rss_bytes", run.peak_rss_bytes);
  if (!run.canonical_spec.empty())
    w.member("canonical_spec", run.canonical_spec);
  if (!run.canonical_impl.empty())
    w.member("canonical_impl", run.canonical_impl);
  w.end_object();
  return out.str();
}

Result<engine::EngineRun> decode_response(std::string_view json) {
  Result<JsonValue> doc = parse_json(json);
  if (!doc.ok()) return doc.status();
  if (!doc->is_object())
    return Status::invalid_argument("worker response is not a JSON object");
  engine::EngineRun run;
  if (Status s = engine::read_status(*doc, &run.status); !s.ok()) return s;
  if (Status s = engine::read_verdict(*doc, &run.verdict); !s.ok()) return s;
  run.detail = doc->string_or("detail", "");
  run.counterexample = engine::read_counterexample(*doc);
  run.stats = engine::read_stats(*doc);
  if (const JsonValue* attempts = doc->find("attempts");
      attempts != nullptr && attempts->is_array()) {
    for (const JsonValue& item : attempts->items()) {
      Result<engine::AttemptRecord> a = read_attempt(item);
      if (!a.ok()) return a.status();
      run.attempts.push_back(std::move(*a));
    }
  }
  run.wall_ms = doc->number_or("wall_ms", 0.0);
  run.budget_limit_bytes =
      static_cast<std::size_t>(doc->u64_or("budget_limit_bytes", 0));
  run.budget_peak_bytes =
      static_cast<std::size_t>(doc->u64_or("budget_peak_bytes", 0));
  run.peak_rss_bytes = doc->u64_or("peak_rss_bytes", 0);
  run.canonical_spec = doc->string_or("canonical_spec", "");
  run.canonical_impl = doc->string_or("canonical_impl", "");
  return run;
}

FrameKind frame_kind(const JsonValue& doc) {
  if (!doc.is_object()) return FrameKind::kResponse;
  const std::string kind = doc.string_or("frame", "response");
  if (kind == "telemetry") return FrameKind::kTelemetry;
  if (kind == "trace") return FrameKind::kTrace;
  if (kind == "flight") return FrameKind::kFlight;
  return FrameKind::kResponse;
}

std::string encode_telemetry_frame(const TelemetryFrame& t) {
  std::ostringstream out;
  JsonWriter w(out, 0);
  w.begin_object();
  w.member("frame", "telemetry");
  w.member("phase", t.phase);
  w.member("step", t.step);
  w.member("rss_bytes", t.rss_bytes);
  w.end_object();
  return out.str();
}

Result<TelemetryFrame> decode_telemetry_frame(const JsonValue& doc) {
  if (!doc.is_object())
    return Status::invalid_argument("telemetry frame is not a JSON object");
  TelemetryFrame t;
  t.phase = doc.string_or("phase", "");
  t.step = doc.u64_or("step", 0);
  t.rss_bytes = doc.u64_or("rss_bytes", 0);
  return t;
}

std::string encode_trace_frame(const TraceFramePayload& t) {
  std::ostringstream out;
  JsonWriter w(out, 0);
  w.begin_object();
  w.member("frame", "trace");
  w.member("epoch_us", t.epoch_us);
  w.key("events");
  w.begin_array();
  for (const obs::TraceEvent& e : t.events) {
    w.begin_object();
    w.member("name", e.name);
    w.member("cat", e.category);
    w.member("ts", e.start_us);
    w.member("dur", e.duration_us);
    w.member("tid", e.tid);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return out.str();
}

Result<TraceFramePayload> decode_trace_frame(const JsonValue& doc) {
  if (!doc.is_object())
    return Status::invalid_argument("trace frame is not a JSON object");
  TraceFramePayload t;
  t.epoch_us = doc.u64_or("epoch_us", 0);
  if (const JsonValue* events = doc.find("events");
      events != nullptr && events->is_array()) {
    for (const JsonValue& item : events->items()) {
      if (!item.is_object()) continue;
      obs::TraceEvent e;
      e.name = item.string_or("name", "");
      e.category = obs::intern_category(item.string_or("cat", "worker"));
      e.start_us = item.u64_or("ts", 0);
      e.duration_us = item.u64_or("dur", 0);
      e.tid = static_cast<std::uint32_t>(item.u64_or("tid", 0));
      t.events.push_back(std::move(e));
    }
  }
  return t;
}

Result<std::vector<obs::flight::Event>> decode_flight_frame(
    const JsonValue& doc) {
  if (!doc.is_object())
    return Status::invalid_argument("flight frame is not a JSON object");
  std::vector<obs::flight::Event> out;
  if (const JsonValue* events = doc.find("events");
      events != nullptr && events->is_array()) {
    for (const JsonValue& item : events->items()) {
      if (!item.is_object()) continue;
      obs::flight::Event e;
      e.seq = item.u64_or("seq", 0);
      e.t_us = item.u64_or("t_us", 0);
      const std::string tag = item.string_or("tag", "");
      const std::size_t n =
          std::min(tag.size(), obs::flight::kTagBytes - 1);
      std::memcpy(e.tag, tag.data(), n);
      e.tag[n] = '\0';
      e.a = item.u64_or("a", 0);
      e.b = item.u64_or("b", 0);
      out.push_back(e);
    }
  }
  return out;
}

Status write_frame(int fd, std::string_view payload) {
  if (payload.size() > kMaxFrameBytes)
    return Status::invalid_argument("frame payload exceeds 64 MiB");
  unsigned char header[4];
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i)
    header[i] = static_cast<unsigned char>((len >> (8 * i)) & 0xFF);
  std::string buf(reinterpret_cast<const char*>(header), 4);
  buf.append(payload);
  // Short writes and signal interruptions are routine here: frames cross
  // pipes *and* sockets, SIGTERM-driven drain delivers signals mid-frame,
  // and a socket send buffer can fill under concurrent clients. Every such
  // partial transfer resumes at the current offset — only a real error or a
  // closed peer ends the loop, so an interrupted frame can never be garbled
  // into a spurious kWorkerCrashed.
  std::size_t off = 0;
  while (off < buf.size()) {
    const ssize_t n = ::write(fd, buf.data() + off, buf.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // Non-blocking (or send-buffer-full) fd: wait for writability, then
        // retry from the same offset. poll() failing with EINTR just loops.
        struct pollfd pfd {fd, POLLOUT, 0};
        (void)::poll(&pfd, 1, 100);
        continue;
      }
      if (errno == EPIPE)
        return Status::worker_crashed(
            "peer closed the pipe before the frame was written");
      return Status::internal(std::string("frame write failed: ") +
                              std::strerror(errno));
    }
    off += static_cast<std::size_t>(n);
  }
  return Status();
}

namespace {

/// Reads exactly `n` bytes, polling against the deadline between reads.
Status read_exact(int fd, char* out, std::size_t n, const Deadline& deadline) {
  std::size_t off = 0;
  while (off < n) {
    if (!deadline.is_infinite()) {
      const double remaining = deadline.remaining_seconds();
      if (remaining <= 0) return Status::deadline_exceeded();
      struct pollfd pfd {fd, POLLIN, 0};
      const int timeout_ms =
          static_cast<int>(std::min(remaining * 1000.0, 2147483000.0)) + 1;
      const int pr = ::poll(&pfd, 1, timeout_ms);
      if (pr < 0) {
        if (errno == EINTR) continue;
        return Status::internal(std::string("poll failed: ") +
                                std::strerror(errno));
      }
      if (pr == 0) return Status::deadline_exceeded();
    }
    const ssize_t r = ::read(fd, out + off, n - off);
    if (r < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // A non-blocking fd with no data yet: wait briefly for readability
        // and retry at the same offset (the deadline poll above governs
        // bounded reads; this covers the infinite-deadline path).
        struct pollfd pfd {fd, POLLIN, 0};
        (void)::poll(&pfd, 1, 100);
        continue;
      }
      return Status::internal(std::string("frame read failed: ") +
                              std::strerror(errno));
    }
    if (r == 0)
      return Status::worker_crashed(
          off == 0 ? "pipe closed before a frame arrived"
                   : "pipe closed mid-frame");
    off += static_cast<std::size_t>(r);
  }
  return Status();
}

}  // namespace

Result<std::string> read_frame(int fd, const Deadline& deadline) {
  char header[4];
  if (Status s = read_exact(fd, header, 4, deadline); !s.ok()) return s;
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i)
    len |= static_cast<std::uint32_t>(static_cast<unsigned char>(header[i]))
           << (8 * i);
  if (len > kMaxFrameBytes)
    return Status::invalid_argument("frame length " + std::to_string(len) +
                                    " exceeds the 64 MiB cap (corrupt "
                                    "prefix?)");
  std::string payload(len, '\0');
  if (len > 0) {
    if (Status s = read_exact(fd, payload.data(), len, deadline); !s.ok())
      return s;
  }
  return payload;
}

}  // namespace gfa::worker
