#pragma once
// The unified verification-engine interface.
//
// Every way this repository can decide "spec ≡ impl over F_{2^k}" — the
// paper's canonical abstraction, and the SAT / fraig / BDD / full-GB /
// ideal-membership baselines it is measured against — implements EquivEngine,
// so the CLI, the benches, and the cross-engine tests drive them through one
// name-keyed registry (see registry.h) instead of ad-hoc call sites.
//
// Error-reporting contract:
//  - verify() returns a non-OK Status for *failures*: malformed instances
//    (kInvalidArgument / kUnsupported), representation explosions past a hard
//    budget (kResourceExhausted), an expired deadline (kDeadlineExceeded), or
//    cancellation (kCancelled).
//  - A *search-effort* budget running dry (SAT conflict limits, Buchberger
//    reduction caps, fraig query budgets) is not a failure: the engine ran to
//    plan and simply does not know — that is Ok(Verdict::kUnknown).

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "certify/counterexample.h"
#include "circuit/netlist.h"
#include "gf/gf2k.h"
#include "util/exec_control.h"
#include "util/status.h"

namespace gfa::engine {

enum class Verdict {
  kEquivalent,
  kNotEquivalent,
  kUnknown,  // a search budget ran dry before a proof either way
};

/// Canonical lowercase spelling: "equivalent" / "not-equivalent" / "unknown".
const char* verdict_name(Verdict v);

/// Inverse of verdict_name(); unknown spellings are kInvalidArgument. Used by
/// read_verdict() (engine/report.h) to decode a verdict off the wire.
Result<Verdict> verdict_from_name(std::string_view name);

struct RunOptions {
  /// Deadline and cancellation, threaded into every engine's deep loops.
  ExecControl control;
  /// CDCL conflict budget for the sat and fraig engines (0 = unlimited).
  std::uint64_t sat_conflict_limit = 0;
  /// Hard node-table cap for the bdd engine (0 = unlimited); tripping it is
  /// kResourceExhausted.
  std::size_t bdd_node_limit = 0;
  /// Intermediate-polynomial term cap for the abstraction and
  /// ideal-membership engines (0 = unlimited); tripping it is
  /// kResourceExhausted.
  std::size_t max_terms = 0;
  /// S-polynomial reduction budget for the full-gb engine (0 = unlimited);
  /// running dry is Ok(kUnknown).
  std::size_t gb_max_reductions = 0;
  /// Per-polynomial term cap for the full-gb engine (0 = unlimited); running
  /// dry is Ok(kUnknown) — Buchberger ends gracefully rather than unwinding.
  std::size_t gb_max_poly_terms = 0;
  /// Byte cap on the counted allocation hot spots (0 = unbounded). When set
  /// and control.budget is null, run_engine() installs a fresh
  /// ResourceBudget for the run; the portfolio engine instead gives every
  /// attempt its own budget of this size. Tripping it is kResourceExhausted.
  std::size_t memory_budget_bytes = 0;
  /// Per-attempt wall-clock cap for the portfolio engine, seconds (0 = only
  /// the overall control.deadline applies). An attempt that times out is a
  /// local failure — the portfolio moves on; the overall deadline still
  /// bounds the whole run.
  double attempt_timeout_seconds = 0.0;
  /// Ordered engine names the portfolio engine tries (empty = the default
  /// abstraction → ideal-membership → sat escalation).
  std::vector<std::string> portfolio_engines;
  /// Portfolio mode: false = try engines in order, falling through on
  /// failure/unknown; true = race them via parallel_for, first definitive
  /// verdict (lowest index on ties) wins and cancels the rest.
  bool portfolio_race = false;
  /// Ask the abstraction engine to serialize the extracted canonical forms
  /// into VerifyResult::canonical_spec/_impl (see abstraction/canon_serial.h).
  /// The verification service sets this so a forked worker's extraction work
  /// can be stored in the content-addressed cache; other engines ignore it.
  bool export_canonical = false;
  /// Cross-check a kEquivalent verdict by random simulation of both circuits
  /// (src/certify/certify.h) after the engine returns. A disagreement is
  /// kCertificationFailed (exit 73) — a loud internal error, never a silent
  /// wrong answer. Enacted by run_engine(), not by individual engines; a
  /// portfolio's attempts run with it off, so only the portfolio's own
  /// verdict is cross-checked.
  bool certify = false;
};

/// One portfolio attempt, embedded in VerifyResult/EngineRun and serialized
/// into the JSON report's "attempts" array so a caller can see which engine
/// produced the verdict and why the others were skipped or failed.
struct AttemptRecord {
  std::string engine;
  /// OK when the attempt produced a verdict; otherwise why it failed.
  Status status;
  Verdict verdict = Verdict::kUnknown;  // meaningful only when status.ok()
  std::string detail;
  double wall_ms = 0.0;
  /// Peak bytes charged against the attempt's ResourceBudget (0 = none).
  std::size_t budget_peak_bytes = 0;
  /// True when the attempt never ran (an earlier attempt was definitive, or
  /// the overall control fired first); `detail` says why.
  bool skipped = false;
  /// Worker telemetry, filled for the forks of an isolated run under a retry
  /// policy whose child ran with heartbeats on: frames received, and the
  /// last phase/step the worker reported before finishing (or dying — the
  /// crash-forensics triple).
  std::uint64_t heartbeats = 0;
  std::string last_phase;
  std::uint64_t last_step = 0;
};

struct VerifyResult {
  Verdict verdict = Verdict::kUnknown;
  /// Human-readable context: the coefficient diff for abstraction, the dry
  /// budget for kUnknown. Empty when there is nothing to add.
  std::string detail;
  /// Typed witness for kNotEquivalent: the distinguishing input as field
  /// elements, replayed through the bit-parallel simulator. Engines with a
  /// native witness (abstraction's simulation round, SAT/BDD/fraig models)
  /// fill it directly, the portfolio carries its deciding attempt's, and
  /// run_engine() backfills the rest by simulation search.
  /// Empty otherwise.
  certify::Counterexample counterexample;
  /// Engine-specific counters (substitutions, conflicts, nodes, …), flat for
  /// direct serialization into run reports.
  std::map<std::string, double> stats;
  /// Per-attempt history; only the portfolio engine fills this in.
  std::vector<AttemptRecord> attempts;
  /// Serialized canonical forms (abstraction/canon_serial.h), filled only by
  /// the abstraction engine when RunOptions::export_canonical is set. Empty
  /// otherwise.
  std::string canonical_spec;
  std::string canonical_impl;
};

class EquivEngine {
 public:
  virtual ~EquivEngine() = default;

  /// Registry key, e.g. "abstraction", "sat", "bdd".
  virtual std::string name() const = 0;

  /// One-line description for `gfa_tool engines` listings.
  virtual std::string description() const = 0;

  /// Decides spec ≡ impl. Both netlists must declare matching input words of
  /// width field.k(). Thread-compatible: engines hold no mutable state, so
  /// one instance may serve concurrent verify() calls.
  virtual Result<VerifyResult> verify(const Netlist& spec, const Netlist& impl,
                                      const Gf2k& field,
                                      const RunOptions& options) const = 0;

  /// True for engines (the portfolio) that install their own per-attempt
  /// ResourceBudgets; run_engine() then leaves RunOptions::memory_budget_bytes
  /// to the engine instead of wrapping the whole run in one budget.
  virtual bool manages_budget() const { return false; }
};

}  // namespace gfa::engine
