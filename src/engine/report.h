#pragma once
// Structured run reports for the engine layer.
//
// run_engine() executes one engine under wall-clock timing and flattens the
// outcome — Status, verdict, detail, stats — into an EngineRun record;
// write_run_report() serializes a batch of records as JSON (via
// util/json_writer.h), the format shared by `gfa_tool verify --report` and
// `gfa_tool compare --report`.
//
// EngineRun is also what crosses the worker wire (worker/protocol.h), and the
// service's job response carries its outcome fields. The JSON spelling of
// those fields — status, verdict, counterexample, stats — is written and read
// by the helpers at the bottom of this header, so the run report, the worker
// response frame and the service job codec cannot drift apart.

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "engine/engine.h"

namespace gfa {
class JsonValue;
class JsonWriter;
}  // namespace gfa

namespace gfa::engine {

struct EngineRun {
  std::string engine;
  /// OK when the engine produced a verdict (including kUnknown); otherwise
  /// why it failed (kDeadlineExceeded, kResourceExhausted, …).
  Status status;
  /// Meaningful only when status.ok().
  Verdict verdict = Verdict::kUnknown;
  std::string detail;
  /// Typed witness for kNotEquivalent (simulator-replayed; see
  /// certify/counterexample.h), emitted as "counterexample" in JSON reports.
  certify::Counterexample counterexample;
  std::map<std::string, double> stats;
  double wall_ms = 0.0;
  /// Per-run delta of the global metrics registry (src/obs/metrics.h):
  /// counters are this run's increments, max-gauges the process peak so far.
  /// Empty unless metrics were enabled while the engine ran.
  std::map<std::string, std::uint64_t> metrics;
  /// Memory accounting when a ResourceBudget governed the run (both 0 when
  /// none did): the configured cap and the peak bytes charged against it —
  /// recorded on success *and* on a kResourceExhausted unwind.
  std::size_t budget_limit_bytes = 0;
  std::size_t budget_peak_bytes = 0;
  /// Portfolio attempt history (empty for ordinary engines) — or, for
  /// isolated runs under a retry policy, the per-fork attempt history.
  std::vector<AttemptRecord> attempts;
  /// Worker telemetry for isolated runs (see worker/harness.h): heartbeat
  /// frames received and the last phase/step reported. Zero/empty for
  /// in-process runs or when heartbeats were disabled.
  std::uint64_t heartbeats = 0;
  std::string last_phase;
  std::uint64_t last_step = 0;
  /// /proc-sampled peak resident set (max of parent samples and what the
  /// worker reported), next to the byte-accounted budget peak; 0 = never
  /// sampled.
  std::uint64_t peak_rss_bytes = 0;
  /// Crash flight-recorder tail (obs/flight_recorder.h, pre-formatted via
  /// flight::format), from the worker's signal handler. Non-empty only when
  /// a worker died with a dump on the pipe; emitted as "flight_recorder".
  std::vector<std::string> flight_events;
  /// Serialized canonical forms when the run exported them (see
  /// engine/engine.h RunOptions::export_canonical). Carried on the record —
  /// and over the worker wire — for the service's cache; never serialized
  /// into JSON reports (they can be large and are an internal format).
  std::string canonical_spec;
  std::string canonical_impl;
  /// Cache disposition for service-run jobs: "hit", "miss", or "stored"
  /// (miss whose forms were added to the cache). Empty for non-service runs;
  /// emitted as "cache" in JSON reports when non-empty.
  std::string cache_outcome;
};

/// Runs `engine` on the instance, timing the call. Never throws: failures are
/// reported through EngineRun::status. When options.memory_budget_bytes is
/// set and no budget is installed yet (and the engine does not manage its
/// own), the run executes under a fresh ResourceBudget whose peak lands in
/// the record.
/// A verdict then ends in finish_verdict(), with options.certify.
EngineRun run_engine(const EquivEngine& engine, const Netlist& spec,
                     const Netlist& impl, const Gf2k& field,
                     const RunOptions& options);

/// The ending of every verdict, whether an engine just produced it or the
/// service answered from its canonical cache (src/certify/ does the work):
///  * kNotEquivalent without a replayed counterexample gets one from the
///    circuits: a simulation witness search, replayed through the
///    simulator. Best-effort: a search that finds nothing leaves it empty.
///  * kEquivalent with `certify` set is cross-checked by random simulation;
///    a disagreement rewrites run.status to kCertificationFailed with the
///    flight-recorder tail attached.
/// A run whose status is not OK is left as it is.
void finish_verdict(EngineRun& run, const Netlist& spec, const Netlist& impl,
                    const Gf2k& field, bool certify);

/// Writes the batch as a JSON document:
///   {"tool": <tool>, "k": <k>, "runs": [{"engine", "status", "verdict",
///    "detail", "wall_ms", "stats": {...}}, ...]}
void write_run_report(std::ostream& out, const std::string& tool, unsigned k,
                      const std::vector<EngineRun>& runs);

/// The attempt-history entry for a finished run: engine, status, verdict,
/// detail, wall time, budget peak and worker telemetry.
AttemptRecord attempt_record_of(const EngineRun& run);

/// Writes "status" (the code name) and, for a failure when `with_message`,
/// "message". The run report leaves the message to "detail".
void write_status(JsonWriter& w, const Status& status, bool with_message);
/// Reads what write_status() wrote into `*status` (absent = kOk). An
/// unknown code name is kInvalidArgument.
Status read_status(const JsonValue& object, Status* status);
/// Reads the "verdict" member (spelled by verdict_name) into `*verdict`
/// (absent = kUnknown). An unknown spelling is kInvalidArgument.
Status read_verdict(const JsonValue& object, Verdict* verdict);

/// Writes the "counterexample" member; nothing for an empty one.
void write_counterexample(JsonWriter& w, const certify::Counterexample& cx);
/// Reads the "counterexample" member; empty when absent.
certify::Counterexample read_counterexample(const JsonValue& object);

/// Writes the "stats" member as a flat object of numbers.
void write_stats(JsonWriter& w, const std::map<std::string, double>& stats);
/// Reads the "stats" member; empty when absent.
std::map<std::string, double> read_stats(const JsonValue& object);

}  // namespace gfa::engine
