#pragma once
// The supervisor <-> worker wire protocol.
//
// A worker child and its supervising parent talk over two pipes. A frame is
// a 32-bit little-endian payload length followed by that many bytes of JSON
// (written by util/json_writer.h, parsed by util/json_reader.h). The request
// carries everything the child needs to reconstruct the job — circuit file
// paths, the field degree, the engine name, its wall clock, and the run's
// engine::RunOptions — because the child re-reads the circuits itself rather
// than inheriting parent memory it cannot trust after a crashy run.
//
// The child-to-parent direction is a frame *stream*, discriminated by a
// top-level "frame" key:
//   * "telemetry" — periodic heartbeat/progress (phase, step, RSS);
//   * "trace"     — a slice of the child's Chrome trace buffer plus the
//     child's trace epoch, for parent-side re-stamping and merging;
//   * "flight"    — the crash flight-recorder ring, emitted by the child's
//     SIGSEGV/SIGABRT handler (hand-formatted there — keep the schema in
//     sync with obs/flight_recorder.cpp) or its catch-all exception path;
//   * absent / "response" — the engine::EngineRun that run_engine() returned
//     in the child, which ends the stream.
//
// The response carries the run's outcome: its Status (code name + message),
// verdict, detail, counterexample, stats, budget and RSS peaks, the
// portfolio attempt history when the isolated engine was itself a portfolio,
// and the canonical forms when the request asked for them. Status, verdict,
// counterexample and stats use the JSON spelling of engine/report.h.
//
// Frames are capped at 64 MiB: a length prefix beyond that is treated as
// protocol corruption, not an allocation request.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "engine/report.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "util/exec_control.h"
#include "util/json_reader.h"
#include "util/status.h"

namespace gfa::worker {

inline constexpr std::uint32_t kMaxFrameBytes = 64u << 20;

struct WorkerRequest {
  std::string spec_path;
  std::string impl_path;
  unsigned k = 0;
  std::string engine = "abstraction";
  /// Wall-clock limit the child turns into its own Deadline (0 = none). The
  /// parent enforces the same limit externally with SIGTERM-then-SIGKILL.
  double timeout_seconds = 0.0;
  /// The engine's settings. Everything but `control` (the child builds its
  /// own from timeout_seconds) crosses the wire; memory_budget_bytes also
  /// sizes the child's RLIMIT_AS.
  engine::RunOptions options;
  /// Fault-injection relays: the parent consumes "worker:crash" /
  /// "worker:hang" (see fault::consume) and sets these so exactly one
  /// attempt misbehaves even across retries of forked children.
  bool simulate_crash = false;
  bool simulate_hang = false;
  /// Heartbeat cadence for the child's telemetry frames; 0 disables
  /// telemetry entirely (no frames, no progress sink — the dark baseline).
  double heartbeat_interval_seconds = 1.0;
  /// Parent-side stall detector: a worker silent (no frame of any kind) for
  /// this long is classified kWorkerCrashed("worker stalled...") — distinct
  /// from a wall-clock overrun — before the wall deadline fires. 0 disables.
  /// Meaningless without heartbeats; the tool rejects that combination.
  double stall_timeout_seconds = 0.0;
  /// Child trace-buffer streaming: set iff the parent has tracing enabled.
  bool trace = false;
};

/// Discriminates the child-to-parent frame stream (see header comment).
enum class FrameKind { kResponse, kTelemetry, kTrace, kFlight };

/// Classifies a parsed frame by its top-level "frame" key; absent or
/// unrecognized values mean kResponse (the response frame has no such key).
FrameKind frame_kind(const JsonValue& doc);

/// One heartbeat/progress observation from the child.
struct TelemetryFrame {
  std::string phase;
  std::uint64_t step = 0;
  std::uint64_t rss_bytes = 0;
};

/// A slice of the child's trace buffer. Events carry child-local timestamps
/// (relative to `epoch_us`, the child's absolute trace epoch) and child
/// tids; the supervisor re-stamps both bases onto its own timeline.
struct TraceFramePayload {
  std::uint64_t epoch_us = 0;
  std::vector<obs::TraceEvent> events;
};

std::string encode_request(const WorkerRequest& req);
Result<WorkerRequest> decode_request(std::string_view json);

/// The response frame: the child's EngineRun minus what only the parent
/// observes or never ships (engine name, metrics, worker telemetry, flight
/// tail, cache disposition).
std::string encode_response(const engine::EngineRun& run);
Result<engine::EngineRun> decode_response(std::string_view json);

std::string encode_telemetry_frame(const TelemetryFrame& t);
Result<TelemetryFrame> decode_telemetry_frame(const JsonValue& doc);

std::string encode_trace_frame(const TraceFramePayload& t);
Result<TraceFramePayload> decode_trace_frame(const JsonValue& doc);

/// The flight frame's encoder lives in obs/flight_recorder.cpp (it must be
/// async-signal-safe); this decodes what it emits.
Result<std::vector<obs::flight::Event>> decode_flight_frame(
    const JsonValue& doc);

/// Writes one length-prefixed frame, retrying short writes. EPIPE (the child
/// died before reading) is kWorkerCrashed; other write errors kInternal.
Status write_frame(int fd, std::string_view payload);

/// Reads one frame, polling against `deadline` (infinite = block forever).
/// kDeadlineExceeded on timeout, kWorkerCrashed on EOF/short frame, and
/// kInvalidArgument on an oversized length prefix.
Result<std::string> read_frame(int fd, const Deadline& deadline);

}  // namespace gfa::worker
