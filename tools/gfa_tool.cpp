// gfa_tool — command-line front end for the library.
//
//   gfa_tool gen <arch> <k> <file>         generate a circuit
//       arch: mastrovito | montgomery | karatsuba | squarer | adder | mac
//   gfa_tool mutate <in> <seed> <out>      inject one random gate-level bug
//   gfa_tool extract <file> <k> [--timeout=<s>]
//   gfa_tool verify <spec> <impl> <k> [--engine=<name>] [--timeout=<s>]
//                   [--report=<file>] [--memory-budget=<bytes|64K|512M|2G>]
//                   [--attempt-timeout=<s>] [--portfolio-engines=<a,b,…>]
//                   [--race] [--certify]
//                   [--isolate] [--retries=<n>] [--retry-backoff=<dur>]
//                   [--heartbeat-interval=<s>] [--stall-timeout=<s>]
//   gfa_tool compare <spec> <impl> <k> [--engines=<a,b,…>] [--timeout=<s>]
//                    [--report=<file>]
//   gfa_tool engines                       list registered engines
//   gfa_tool stats <file>                  netlist statistics
//
// Observability (any command; see DESIGN.md "Observability"):
//   --metrics            enable the metrics registry; every metric prints
//                        after the command and embeds into --report JSON
//   --trace=<file>       record phase spans, write Chrome trace-event JSON
//   --log-level=<level>  error|warn|info|debug (overrides GFA_LOG)
//
// Fault injection (test/debug builds only; see DESIGN.md "Robustness"):
//   --inject=<site[:n]>  arm a deterministic fault at the named site's nth
//                        hit (same syntax as GFA_INJECT); exits 69 when the
//                        binary was built with -DGFA_FAULT_INJECTION=OFF
//
// Flags accept both --name=value and --name value.
//
// Circuit files may be the native netlist format (.net, see
// src/circuit/parser.h) or the structural Verilog subset (.v).
//
// Exit codes (see util/status.h):
//   0  OK / EQUIVALENT             65 parse error (file or number)
//   1  NOT EQUIVALENT              66 invalid argument
//   2  internal error              69 unsupported instance
//   3  UNKNOWN verdict             70 resource budget exhausted
//   64 usage                       71 worker process crashed (--isolate)
//                                  73 certification failed (--certify)
//                                  74 cancelled
//                                  75 deadline (--timeout) exceeded

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "abstraction/extractor.h"
#include "circuit/arith_extras.h"
#include "circuit/karatsuba.h"
#include "circuit/mastrovito.h"
#include "circuit/montgomery.h"
#include "circuit/mutate.h"
#include "circuit/parser.h"
#include "circuit/verilog.h"
#include "engine/registry.h"
#include "engine/report.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/fault_inject.h"
#include "util/parallel_for.h"
#include "util/parse_number.h"
#include "worker/harness.h"
#include "worker/retry.h"

namespace {

using namespace gfa;

constexpr int kUsage = 64;
constexpr int kVerdictNotEquivalent = 1;
constexpr int kVerdictUnknown = 3;

/// Prints the status one-line and converts it to the documented exit code.
int fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.to_string().c_str());
  return exit_code_for(status.code());
}

Result<Netlist> load(const std::string& path) {
  const gfa::obs::TraceSpan span("parse", "io");
  return try_read_circuit_file(path);
}

void save(const Netlist& nl, const std::string& path) {
  if (path.ends_with(".v"))
    write_verilog_file(nl, path);
  else
    write_netlist_file(nl, path);
}

/// `--engine=x` / `--timeout=1.5` / `--report=out.json` / `--engines=a,b` /
/// `--trace=t.json` / `--log-level=info` / boolean `--metrics`. Value flags
/// also accept the space-separated form (`--engine abstraction`). Positional
/// arguments land in `positional` in order; the engine settings land in
/// `options`, which every command's engine run starts from.
struct Flags {
  std::vector<std::string> positional;
  std::string engine = "abstraction";
  std::vector<std::string> engines;  // compare: a subset, empty = all
  double timeout_seconds = 0;  // 0 = unbounded
  std::string report;
  std::string trace;    // Chrome trace-event output file, empty = off
  bool metrics = false;
  std::string log_level;  // empty = GFA_LOG / default
  engine::RunOptions options;
  std::string inject;             // fault site spec, empty = off
  // Worker isolation & recovery (verify only).
  bool isolate = false;           // fork the whole run into a supervised child
  unsigned retries = 0;           // extra isolated attempts after the first
  bool retries_set = false;       // --retries given (needs --isolate)
  double retry_backoff_seconds = 0.25;
  double heartbeat_interval_seconds = 1.0;  // worker telemetry cadence; 0 = off
  double stall_timeout_seconds = 0.0;       // 0 = stall detector off
  unsigned threads = 0;              // 0 = GFA_THREADS / hardware default
};

/// Splits a comma-separated engine list, dropping empty names.
std::vector<std::string> split_names(std::string_view list) {
  std::vector<std::string> names;
  while (!list.empty()) {
    const std::size_t comma = list.find(',');
    const std::string_view name = list.substr(0, comma);
    if (!name.empty()) names.emplace_back(name);
    list = comma == std::string_view::npos ? std::string_view{}
                                           : list.substr(comma + 1);
  }
  return names;
}

/// The flags that take a value; `assign` below handles each of them.
constexpr std::string_view kValueFlags[] = {
    "--engine",          "--engines",          "--timeout",
    "--report",          "--trace",            "--log-level",
    "--memory-budget",   "--attempt-timeout",  "--portfolio-engines",
    "--inject",          "--retries",          "--retry-backoff",
    "--heartbeat-interval", "--stall-timeout", "--threads"};

Result<Flags> parse_flags(int argc, char** argv) {
  Flags flags;
  const auto assign = [&](std::string_view name,
                          std::string_view value) -> Status {
    if (name == "--engine") {
      flags.engine = value;
    } else if (name == "--engines") {
      flags.engines = split_names(value);
    } else if (name == "--timeout") {
      Result<double> t = parse_double(value, 0.0, 1e9);
      if (!t.ok()) return t.status();
      flags.timeout_seconds = *t;
    } else if (name == "--report") {
      flags.report = value;
    } else if (name == "--trace") {
      flags.trace = value;
    } else if (name == "--log-level") {
      Result<obs::LogLevel> level = obs::parse_log_level(value);
      if (!level.ok()) return level.status();
      flags.log_level = value;
    } else if (name == "--memory-budget") {
      Result<std::uint64_t> bytes = parse_byte_size(value);
      if (!bytes.ok()) return bytes.status();
      flags.options.memory_budget_bytes = static_cast<std::size_t>(*bytes);
    } else if (name == "--attempt-timeout") {
      Result<double> t = parse_double(value, 0.0, 1e9);
      if (!t.ok()) return t.status();
      flags.options.attempt_timeout_seconds = *t;
    } else if (name == "--portfolio-engines") {
      flags.options.portfolio_engines = split_names(value);
    } else if (name == "--inject") {
      flags.inject = value;
    } else if (name == "--retries") {
      Result<unsigned> n = parse_unsigned(value, 0, 1000);
      if (!n.ok()) return n.status();
      flags.retries = *n;
      flags.retries_set = true;
    } else if (name == "--retry-backoff") {
      Result<double> d = parse_duration_seconds(value);
      if (!d.ok()) return d.status();
      flags.retry_backoff_seconds = *d;
    } else if (name == "--heartbeat-interval") {
      Result<double> d = parse_double(value, 0.0, 1e9);
      if (!d.ok()) return d.status();
      flags.heartbeat_interval_seconds = *d;
    } else if (name == "--stall-timeout") {
      Result<double> d = parse_double(value, 0.0, 1e9);
      if (!d.ok()) return d.status();
      flags.stall_timeout_seconds = *d;
    } else if (name == "--threads") {
      // Same domain as GFA_THREADS; 0 and garbage are rejected here as
      // kInvalidArgument (exit 66, like a bad engine name) so the pool
      // never sees them.
      Result<unsigned> n = parse_unsigned(value, 1, 1024);
      if (!n.ok())
        return Status::invalid_argument(
            "--threads: " + std::string(n.status().message()));
      flags.threads = *n;
    } else {
      return Status::invalid_argument("unknown flag '" + std::string(name) +
                                      "'");
    }
    return Status();
  };
  for (int i = 0; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      flags.positional.emplace_back(arg);
      continue;
    }
    if (arg == "--metrics") {
      flags.metrics = true;
      continue;
    }
    if (arg == "--race") {
      flags.options.portfolio_race = true;
      continue;
    }
    if (arg == "--certify") {
      flags.options.certify = true;
      continue;
    }
    if (arg == "--isolate") {
      flags.isolate = true;
      continue;
    }
    const std::size_t eq = arg.find('=');
    const std::string_view name = arg.substr(0, eq);
    if (std::find(std::begin(kValueFlags), std::end(kValueFlags), name) ==
        std::end(kValueFlags))
      return Status::invalid_argument("unknown flag '" + std::string(name) +
                                      "'");
    Status s;
    if (eq != std::string_view::npos) {
      s = assign(name, arg.substr(eq + 1));
    } else if (i + 1 < argc) {
      s = assign(arg, argv[++i]);
    } else {
      s = Status::invalid_argument("flag '" + std::string(arg) +
                                   "' expects a value");
    }
    if (!s.ok()) return s;
  }
  return flags;
}

/// Applies the observability flags to the process-wide switches.
void apply_observability_flags(const Flags& flags) {
  if (flags.threads != 0) set_parallel_thread_count(flags.threads);
  if (flags.metrics) obs::set_metrics_enabled(true);
  if (!flags.trace.empty()) obs::set_trace_enabled(true);
  if (!flags.log_level.empty())
    obs::set_log_level(*obs::parse_log_level(flags.log_level));
  else
    obs::log_level();  // resolve GFA_LOG now: a malformed value must exit 2
                       // at startup, not whenever the first message fires
}

/// With --trace, writes the accumulated spans as Chrome trace-event JSON.
void maybe_write_trace(const Flags& flags) {
  if (flags.trace.empty()) return;
  std::ofstream out(flags.trace);
  if (!out) {
    GFA_LOG_WARN("gfa_tool",
                 "cannot write trace file '" << flags.trace << "'");
    return;
  }
  obs::Tracer::instance().write_chrome_trace(out);
}

/// With --metrics, prints every registered metric after the command's
/// output, those at 0 included.
void maybe_print_metrics(const Flags& flags) {
  if (!flags.metrics) return;
  std::printf("-- metrics --\n");
  for (const auto& [name, value] : obs::Metrics::instance().snapshot())
    std::printf("%-32s %llu\n", name.c_str(),
                static_cast<unsigned long long>(value));
}

/// The flags' engine settings under a deadline that starts now.
engine::RunOptions run_options_from(const Flags& flags) {
  engine::RunOptions options = flags.options;
  if (flags.timeout_seconds > 0)
    options.control.deadline = Deadline::after(flags.timeout_seconds);
  return options;
}

/// Arms --inject (same spec syntax as GFA_INJECT). A binary compiled with
/// -DGFA_FAULT_INJECTION=OFF reports kUnsupported — exit 69 — rather than
/// silently running without the fault.
Status apply_inject_flag(const Flags& flags) {
  if (flags.inject.empty()) return Status();
  return fault::arm_spec(flags.inject);
}

/// Writes the report file when --report was given; warns on I/O failure
/// without changing the exit code (the verdict already happened).
void maybe_write_report(const Flags& flags, const std::string& tool, unsigned k,
                        const std::vector<engine::EngineRun>& runs) {
  if (flags.report.empty()) return;
  std::ofstream out(flags.report);
  if (!out) {
    GFA_LOG_WARN("gfa_tool",
                 "cannot write report file '" << flags.report << "'");
    return;
  }
  engine::write_run_report(out, tool, k, runs);
}

int cmd_gen(const Flags& flags) {
  if (flags.positional.size() != 3) return kUsage;
  const std::string& arch = flags.positional[0];
  const Result<unsigned> k = parse_unsigned(flags.positional[1], 2, 100000);
  if (!k.ok()) return fail(k.status());
  const Result<Gf2k> field = Gf2k::try_make(*k);
  if (!field.ok()) return fail(field.status());
  Netlist nl;
  if (arch == "mastrovito") nl = make_mastrovito_multiplier(*field);
  else if (arch == "montgomery") nl = make_montgomery_multiplier_flat(*field);
  else if (arch == "karatsuba") nl = make_karatsuba_multiplier(*field);
  else if (arch == "squarer") nl = make_squarer(*field);
  else if (arch == "adder") nl = make_adder(*field);
  else if (arch == "mac") nl = make_multiply_accumulate(*field);
  else
    return fail(Status::invalid_argument("unknown architecture '" + arch +
                                         "'"));
  save(nl, flags.positional[2]);
  std::printf("wrote %s: %zu gates over F_2^%u (P = %s)\n",
              flags.positional[2].c_str(), nl.num_logic_gates(), *k,
              field->modulus().to_string().c_str());
  return 0;
}

int cmd_mutate(const Flags& flags) {
  if (flags.positional.size() != 3) return kUsage;
  const Result<Netlist> nl = load(flags.positional[0]);
  if (!nl.ok()) return fail(nl.status());
  const Result<std::uint64_t> seed = parse_u64(flags.positional[1]);
  if (!seed.ok()) return fail(seed.status());
  BugDescription desc;
  const Netlist buggy = inject_random_bug(*nl, *seed, &desc);
  save(buggy, flags.positional[2]);
  std::printf("wrote %s: injected bug [%s]\n", flags.positional[2].c_str(),
              desc.text.c_str());
  return 0;
}

int cmd_extract(const Flags& flags) {
  if (flags.positional.size() != 2) return kUsage;
  const Result<Netlist> nl = load(flags.positional[0]);
  if (!nl.ok()) return fail(nl.status());
  const Result<unsigned> k = parse_unsigned(flags.positional[1], 2, 100000);
  if (!k.ok()) return fail(k.status());
  const Result<Gf2k> field = Gf2k::try_make(*k);
  if (!field.ok()) return fail(field.status());
  const engine::RunOptions run = run_options_from(flags);
  ExtractionOptions options;
  options.control = &run.control;
  const Result<std::vector<WordFunction>> fns =
      try_extract_all_word_functions(*nl, *field, options);
  if (!fns.ok()) return fail(fns.status());
  for (const WordFunction& fn : *fns) {
    std::printf("%s = %s\n", fn.output_word.c_str(),
                fn.g.to_string(fn.pool).c_str());
    std::printf("  [%zu substitutions, peak %zu terms, remainder %zu terms]\n",
                fn.stats.substitutions, fn.stats.peak_terms,
                fn.stats.remainder_terms);
  }
  return 0;
}

Status check_verify_flags(const Flags& flags) {
  if (flags.retries_set && !flags.isolate)
    return Status::invalid_argument(
        "--retries only applies to isolated runs; add --isolate");
  if (flags.stall_timeout_seconds > 0 && !flags.isolate)
    return Status::invalid_argument(
        "--stall-timeout watches a worker's heartbeat stream; add --isolate");
  if (flags.stall_timeout_seconds > 0 &&
      flags.heartbeat_interval_seconds <= 0)
    return Status::invalid_argument(
        "--stall-timeout needs heartbeats; --heartbeat-interval=0 disables "
        "them");
  return Status();
}

int cmd_verify(const Flags& flags) {
  if (flags.positional.size() != 3) return kUsage;
  if (const Status s = check_verify_flags(flags); !s.ok()) return fail(s);
  const Result<unsigned> k = parse_unsigned(flags.positional[2], 2, 100000);
  if (!k.ok()) return fail(k.status());

  engine::EngineRun run;
  if (flags.isolate) {
    worker::RetryPolicy policy;
    policy.max_attempts = flags.retries + 1;
    policy.backoff_seconds = flags.retry_backoff_seconds;
    // The child gets the circuit *paths* and parses them itself, so a parse
    // crash stays inside the sandbox too.
    worker::WorkerRequest req;
    req.spec_path = flags.positional[0];
    req.impl_path = flags.positional[1];
    req.k = *k;
    req.engine = flags.engine;
    req.timeout_seconds = flags.timeout_seconds;
    req.options = flags.options;
    req.heartbeat_interval_seconds = flags.heartbeat_interval_seconds;
    req.stall_timeout_seconds = flags.stall_timeout_seconds;
    run = worker::run_isolated_with_retry(req, policy);
  } else {
    const Result<Netlist> spec = load(flags.positional[0]);
    if (!spec.ok()) return fail(spec.status());
    const Result<Netlist> impl = load(flags.positional[1]);
    if (!impl.ok()) return fail(impl.status());
    const Result<Gf2k> field = Gf2k::try_make(*k);
    if (!field.ok()) return fail(field.status());
    const Result<const engine::EquivEngine*> eng =
        engine::EngineRegistry::global().require(flags.engine);
    if (!eng.ok()) return fail(eng.status());
    run = engine::run_engine(**eng, *spec, *impl, *field,
                             run_options_from(flags));
  }
  maybe_write_report(flags, "verify", *k, {run});
  if (!run.status.ok()) return fail(run.status);
  for (const auto& [key, value] : run.stats)
    std::printf("  %s = %g\n", key.c_str(), value);
  switch (run.verdict) {
    case engine::Verdict::kEquivalent:
      std::printf("EQUIVALENT [engine %s, %.2f ms]\n", run.engine.c_str(),
                  run.wall_ms);
      return 0;
    case engine::Verdict::kNotEquivalent:
      std::printf("NOT EQUIVALENT [engine %s, %.2f ms]%s%s\n",
                  run.engine.c_str(), run.wall_ms,
                  run.detail.empty() ? "" : ": ", run.detail.c_str());
      if (!run.counterexample.empty()) {
        std::printf("counterexample%s:",
                    run.counterexample.replayed ? " (replayed)" : "");
        for (const auto& [name, elem] : run.counterexample.inputs)
          std::printf(" %s=%s", name.c_str(), elem.c_str());
        std::printf(" -> %s: spec=%s, impl=%s\n",
                    run.counterexample.output_word.c_str(),
                    run.counterexample.expected.c_str(),
                    run.counterexample.actual.c_str());
      }
      return kVerdictNotEquivalent;
    case engine::Verdict::kUnknown:
      break;
  }
  std::printf("UNKNOWN [engine %s, %.2f ms]%s%s\n", run.engine.c_str(),
              run.wall_ms, run.detail.empty() ? "" : ": ",
              run.detail.c_str());
  return kVerdictUnknown;
}

int cmd_compare(const Flags& flags) {
  if (flags.positional.size() != 3) return kUsage;
  const Result<Netlist> spec = load(flags.positional[0]);
  if (!spec.ok()) return fail(spec.status());
  const Result<Netlist> impl = load(flags.positional[1]);
  if (!impl.ok()) return fail(impl.status());
  const Result<unsigned> k = parse_unsigned(flags.positional[2], 2, 100000);
  if (!k.ok()) return fail(k.status());
  const Result<Gf2k> field = Gf2k::try_make(*k);
  if (!field.ok()) return fail(field.status());

  const engine::EngineRegistry& registry = engine::EngineRegistry::global();
  std::vector<const engine::EquivEngine*> engines;
  if (flags.engines.empty()) engines = registry.engines();
  for (const std::string& name : flags.engines) {
    Result<const engine::EquivEngine*> eng = registry.require(name);
    if (!eng.ok()) return fail(eng.status());
    engines.push_back(*eng);
  }

  std::vector<engine::EngineRun> runs;
  runs.reserve(engines.size());
  for (const engine::EquivEngine* eng : engines) {
    // Fresh deadline per engine: --timeout bounds each method individually
    // (the paper's per-method timeout), not the whole batch.
    const engine::RunOptions options = run_options_from(flags);
    runs.push_back(engine::run_engine(*eng, *spec, *impl, *field, options));
  }
  maybe_write_report(flags, "compare", *k, runs);

  std::printf("%-18s %-16s %10s  %s\n", "engine", "verdict", "wall_ms",
              "detail");
  bool saw_equivalent = false, saw_not_equivalent = false;
  for (const engine::EngineRun& run : runs) {
    const char* verdict = run.status.ok()
                              ? engine::verdict_name(run.verdict)
                              : status_code_name(run.status.code());
    std::printf("%-18s %-16s %10.2f  %s\n", run.engine.c_str(), verdict,
                run.wall_ms, run.detail.c_str());
    if (run.status.ok() && run.verdict == engine::Verdict::kEquivalent)
      saw_equivalent = true;
    if (run.status.ok() && run.verdict == engine::Verdict::kNotEquivalent)
      saw_not_equivalent = true;
  }
  if (saw_equivalent && saw_not_equivalent) {
    std::fprintf(stderr,
                 "CONTRADICTION: engines disagree on a definitive verdict\n");
    return kVerdictNotEquivalent;
  }
  if (saw_not_equivalent) return kVerdictNotEquivalent;
  if (saw_equivalent) return 0;
  return kVerdictUnknown;  // nobody reached a definitive verdict
}

int cmd_engines(const Flags& flags) {
  if (!flags.positional.empty()) return kUsage;
  for (const engine::EquivEngine* eng :
       engine::EngineRegistry::global().engines())
    std::printf("%-18s %s\n", eng->name().c_str(),
                eng->description().c_str());
  return 0;
}

int cmd_stats(const Flags& flags) {
  if (flags.positional.size() != 1) return kUsage;
  const Result<Netlist> loaded = load(flags.positional[0]);
  if (!loaded.ok()) return fail(loaded.status());
  const Netlist& nl = *loaded;
  const std::string problem = nl.validate();
  std::printf("module %s: %zu nets, %zu gates, %zu inputs, %zu outputs\n",
              nl.name().c_str(), nl.num_nets(), nl.num_logic_gates(),
              nl.inputs().size(), nl.outputs().size());
  for (const Word& w : nl.words())
    std::printf("  word %s: %zu bits\n", w.name.c_str(), w.bits.size());
  std::size_t by_type[16] = {};
  for (NetId n = 0; n < nl.num_nets(); ++n)
    ++by_type[static_cast<int>(nl.gate(n).type)];
  for (int t = 0; t < 16; ++t) {
    if (by_type[t] == 0) continue;
    std::printf("  %-7s %zu\n", gate_type_name(static_cast<GateType>(t)),
                by_type[t]);
  }
  std::printf("validate: %s\n", problem.empty() ? "ok" : problem.c_str());
  return problem.empty() ? 0 : kVerdictNotEquivalent;
}

void usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  gfa_tool gen <arch> <k> <file>\n"
      "  gfa_tool mutate <in> <seed> <out>\n"
      "  gfa_tool extract <file> <k> [--timeout=<s>]\n"
      "  gfa_tool verify <spec> <impl> <k> [--engine=<name>] [--timeout=<s>]"
      " [--report=<file>]\n"
      "          [--memory-budget=<bytes|64K|512M|2G>] [--attempt-timeout=<s>]"
      " [--portfolio-engines=<a,b,...>] [--race] [--certify]\n"
      "          [--isolate] [--retries=<n>] [--retry-backoff=<dur>]\n"
      "          [--heartbeat-interval=<s>] [--stall-timeout=<s>]\n"
      "  gfa_tool compare <spec> <impl> <k> [--engines=<a,b,...>]"
      " [--timeout=<s>] [--report=<file>]\n"
      "  gfa_tool engines\n"
      "  gfa_tool stats <file>\n"
      "observability flags (any command):\n"
      "  --threads=<n>          parallel loop width, 1..1024 (default:"
      " GFA_THREADS or all cores)\n"
      "  --metrics              collect + print engine metrics\n"
      "  --trace=<file>         write Chrome trace-event JSON\n"
      "  --log-level=<level>    error|warn|info|debug (default: GFA_LOG or"
      " warn)\n"
      "fault injection (requires a -DGFA_FAULT_INJECTION=ON build):\n"
      "  --inject=<site[:n]>    arm a deterministic fault at the site's nth"
      " hit\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return kUsage;
  }
  const std::string cmd = argv[1];
  const Result<Flags> flags = parse_flags(argc - 2, argv + 2);
  if (!flags.ok()) return fail(flags.status());
  apply_observability_flags(*flags);
  if (const Status s = apply_inject_flag(*flags); !s.ok()) return fail(s);
  try {
    int rc = kUsage;
    if (cmd == "gen") rc = cmd_gen(*flags);
    else if (cmd == "mutate") rc = cmd_mutate(*flags);
    else if (cmd == "extract") rc = cmd_extract(*flags);
    else if (cmd == "verify") rc = cmd_verify(*flags);
    else if (cmd == "compare") rc = cmd_compare(*flags);
    else if (cmd == "engines") rc = cmd_engines(*flags);
    else if (cmd == "stats") rc = cmd_stats(*flags);
    if (rc == kUsage) usage();
    maybe_print_metrics(*flags);
    maybe_write_trace(*flags);
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    maybe_write_trace(*flags);
    return 2;
  }
}
