#include "engine/report.h"

#include <chrono>
#include <optional>

#include "certify/certify.h"
#include "obs/flight_recorder.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/json_reader.h"
#include "util/json_writer.h"
#include "util/parallel_for.h"

namespace gfa::engine {

EngineRun run_engine(const EquivEngine& engine, const Netlist& spec,
                     const Netlist& impl, const Gf2k& field,
                     const RunOptions& original_options) {
  EngineRun run;
  run.engine = engine.name();
  // Install a fresh ResourceBudget for this run when one was requested and
  // nothing upstream (a portfolio attempt, a caller-owned budget) provides
  // it. `options` aliases either the original or the budgeted copy.
  RunOptions budgeted;
  std::optional<ResourceBudget> local_budget;
  const bool wrap = original_options.memory_budget_bytes != 0 &&
                    original_options.control.budget == nullptr &&
                    !engine.manages_budget();
  if (wrap) {
    budgeted = original_options;
    local_budget.emplace(original_options.memory_budget_bytes);
    budgeted.control.budget = &*local_budget;
  }
  const RunOptions& options = wrap ? budgeted : original_options;
  GFA_LOG_INFO("engine", "running " << run.engine << " (k=" << field.k()
                                    << ", spec " << spec.num_logic_gates()
                                    << " gates, impl "
                                    << impl.num_logic_gates() << " gates)");
  const bool measured = obs::metrics_enabled();
  const obs::MetricsSnapshot before =
      measured ? obs::Metrics::instance().snapshot() : obs::MetricsSnapshot{};
  if (measured) obs::sample_rss_bytes();
  const auto start = std::chrono::steady_clock::now();
  Result<VerifyResult> r = [&]() -> Result<VerifyResult> {
    const obs::TraceSpan span("verify:" + run.engine, "engine");
    try {
      return engine.verify(spec, impl, field, options);
    } catch (...) {
      // Engines return Status rather than throw, but a belt-and-braces
      // boundary keeps one misbehaving engine from killing a compare batch.
      return status_from_current_exception();
    }
  }();
  const auto end = std::chrono::steady_clock::now();
  run.wall_ms =
      std::chrono::duration<double, std::milli>(end - start).count();
  if (measured) {
    obs::sample_rss_bytes();
    run.metrics = obs::Metrics::instance().delta(before);
    run.peak_rss_bytes = obs::peak_rss_bytes();
  }
  if (const ResourceBudget* b = options.control.budget) {
    run.budget_limit_bytes = b->limit_bytes();
    run.budget_peak_bytes = b->peak_bytes();
  }
  if (r.ok()) {
    run.verdict = r->verdict;
    run.detail = std::move(r->detail);
    run.counterexample = std::move(r->counterexample);
    run.stats = std::move(r->stats);
    run.attempts = std::move(r->attempts);
    run.canonical_spec = std::move(r->canonical_spec);
    run.canonical_impl = std::move(r->canonical_impl);
    finish_verdict(run, spec, impl, field, options.certify);
  } else {
    run.status = r.status();
    run.detail = r.status().message();
  }
  GFA_LOG_INFO("engine",
               run.engine << " finished: "
                          << (run.status.ok() ? verdict_name(run.verdict)
                                              : run.status.to_string())
                          << " in " << run.wall_ms << " ms");
  return run;
}

void finish_verdict(EngineRun& run, const Netlist& spec, const Netlist& impl,
                    const Gf2k& field, bool certify) {
  if (!run.status.ok()) return;
  if (run.verdict == Verdict::kNotEquivalent && !run.counterexample.replayed) {
    const obs::TraceSpan span("witness_backfill", "engine");
    GFA_COUNT("witness.backfills", 1);
    try {
      if (const std::optional<certify::Witness> w =
              certify::find_simulation_witness(spec, impl, field))
        run.counterexample = certify::replay_witness(spec, impl, field, *w);
    } catch (...) {
      // Circuits without the word structure the simulator needs keep their
      // verdict; the witness is a certification extra.
    }
    return;
  }
  if (run.verdict != Verdict::kEquivalent || !certify) return;
  const obs::TraceSpan span("certify", "engine");
  certify::CertifyOutcome outcome;
  try {
    outcome = certify::certify_equivalence(spec, impl, field);
  } catch (...) {
    return;  // malformed word structure: nothing to cross-check
  }
  GFA_COUNT("certify.runs", 1);
  GFA_COUNT("certify.points", outcome.points);
  run.stats["certify_points"] = static_cast<double>(outcome.points);
  if (outcome.status.ok()) return;
  run.status = outcome.status;
  run.detail = outcome.status.message();
  for (const obs::flight::Event& e : obs::flight::tail())
    run.flight_events.push_back(obs::flight::format(e));
  GFA_LOG_ERROR("engine", "certification failed for " << run.engine << ": "
                                                      << run.detail);
}

void write_run_report(std::ostream& out, const std::string& tool, unsigned k,
                      const std::vector<EngineRun>& runs) {
  JsonWriter w(out);
  w.begin_object();
  w.member("tool", tool);
  w.member("k", k);
  w.member("threads", parallel_thread_count());
  w.key("runs");
  w.begin_array();
  for (const EngineRun& run : runs) {
    w.begin_object();
    w.member("engine", run.engine);
    write_status(w, run.status, /*with_message=*/false);
    if (run.status.ok()) w.member("verdict", verdict_name(run.verdict));
    w.member("detail", run.detail);
    write_counterexample(w, run.counterexample);
    w.member("wall_ms", run.wall_ms);
    if (!run.cache_outcome.empty()) w.member("cache", run.cache_outcome);
    write_stats(w, run.stats);
    if (!run.metrics.empty()) {
      w.key("metrics");
      w.begin_object();
      for (const auto& [key, value] : run.metrics) w.member(key, value);
      w.end_object();
    }
    if (run.budget_limit_bytes != 0 || run.budget_peak_bytes != 0) {
      w.member("budget_limit_bytes",
               static_cast<std::uint64_t>(run.budget_limit_bytes));
      w.member("budget_peak_bytes",
               static_cast<std::uint64_t>(run.budget_peak_bytes));
    }
    if (run.peak_rss_bytes != 0)
      w.member("peak_rss_bytes", run.peak_rss_bytes);
    if (run.heartbeats != 0) {
      w.key("telemetry");
      w.begin_object();
      w.member("heartbeats", run.heartbeats);
      w.member("last_phase", run.last_phase);
      w.member("last_step", run.last_step);
      w.end_object();
    }
    if (!run.flight_events.empty()) {
      w.key("flight_recorder");
      w.begin_array();
      for (const std::string& line : run.flight_events) w.value(line);
      w.end_array();
    }
    if (!run.attempts.empty()) {
      w.key("attempts");
      w.begin_array();
      for (const AttemptRecord& a : run.attempts) {
        w.begin_object();
        w.member("engine", a.engine);
        if (a.skipped) {
          w.member("skipped", true);
        } else {
          write_status(w, a.status, /*with_message=*/false);
          if (a.status.ok()) w.member("verdict", verdict_name(a.verdict));
          w.member("wall_ms", a.wall_ms);
          if (a.budget_peak_bytes != 0)
            w.member("budget_peak_bytes",
                     static_cast<std::uint64_t>(a.budget_peak_bytes));
          if (a.heartbeats != 0) {
            w.member("heartbeats", a.heartbeats);
            w.member("last_phase", a.last_phase);
            w.member("last_step", a.last_step);
          }
        }
        w.member("detail", a.detail);
        w.end_object();
      }
      w.end_array();
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  out << "\n";
}

AttemptRecord attempt_record_of(const EngineRun& run) {
  AttemptRecord a;
  a.engine = run.engine;
  a.status = run.status;
  a.verdict = run.verdict;
  a.detail = run.detail;
  a.wall_ms = run.wall_ms;
  a.budget_peak_bytes = run.budget_peak_bytes;
  a.heartbeats = run.heartbeats;
  a.last_phase = run.last_phase;
  a.last_step = run.last_step;
  return a;
}

void write_status(JsonWriter& w, const Status& status, bool with_message) {
  w.member("status", status_code_name(status.code()));
  if (with_message && !status.ok()) w.member("message", status.message());
}

Status read_status(const JsonValue& object, Status* status) {
  const Result<StatusCode> code =
      status_code_from_name(object.string_or("status", "kOk"));
  if (!code.ok()) return code.status();
  *status = *code == StatusCode::kOk
                ? Status()
                : Status::with_code(*code, object.string_or("message", ""));
  return Status();
}

Status read_verdict(const JsonValue& object, Verdict* verdict) {
  const Result<Verdict> v =
      verdict_from_name(object.string_or("verdict", "unknown"));
  if (!v.ok()) return v.status();
  *verdict = *v;
  return Status();
}

void write_counterexample(JsonWriter& w, const certify::Counterexample& cx) {
  if (cx.empty()) return;
  w.key("counterexample");
  w.begin_object();
  w.key("inputs");
  w.begin_object();
  for (const auto& [name, elem] : cx.inputs) w.member(name, elem);
  w.end_object();
  w.member("output_word", cx.output_word);
  w.member("expected", cx.expected);
  w.member("actual", cx.actual);
  w.member("replayed", cx.replayed);
  w.end_object();
}

certify::Counterexample read_counterexample(const JsonValue& object) {
  certify::Counterexample cx;
  const JsonValue* v = object.find("counterexample");
  if (v == nullptr || !v->is_object()) return cx;
  if (const JsonValue* inputs = v->find("inputs");
      inputs != nullptr && inputs->is_object()) {
    for (const auto& [name, value] : inputs->members())
      if (value.is_string()) cx.inputs[name] = value.as_string();
  }
  cx.output_word = v->string_or("output_word", "");
  cx.expected = v->string_or("expected", "");
  cx.actual = v->string_or("actual", "");
  cx.replayed = v->bool_or("replayed", false);
  return cx;
}

void write_stats(JsonWriter& w, const std::map<std::string, double>& stats) {
  w.key("stats");
  w.begin_object();
  for (const auto& [key, value] : stats) w.member(key, value);
  w.end_object();
}

std::map<std::string, double> read_stats(const JsonValue& object) {
  std::map<std::string, double> stats;
  if (const JsonValue* v = object.find("stats"); v != nullptr && v->is_object())
    for (const auto& [key, value] : v->members())
      if (value.is_number()) stats[key] = value.as_number();
  return stats;
}

}  // namespace gfa::engine
