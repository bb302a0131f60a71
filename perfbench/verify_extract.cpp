// verify_k64 and extract_k96: the `gfa_tool verify --certify` and
// `gfa_tool extract` paths, run in-process from netlist text in memory.

#include <algorithm>
#include <stdexcept>

#include "abstraction/equivalence.h"
#include "certify/certify.h"
#include "circuit/karatsuba.h"
#include "circuit/mastrovito.h"
#include "circuit/montgomery.h"
#include "circuit/parser.h"
#include "engine/registry.h"
#include "engine/report.h"
#include "perfbench.h"

namespace perfbench {

using namespace gfa;

namespace {

constexpr unsigned kVerifyK = 64;
constexpr unsigned kExtractK = 96;
/// Traced jobs per traced run; verify alternates its two pairs, and each
/// pair runs its layered job first as often as its untraced one.
constexpr int kTracedJobs = 8;

struct Circuit {
  std::string name;
  Netlist generated;
  std::string text;  // seeded gate-line order
};

/// Generates each circuit and writes its text; the benchmark's set-up.
std::vector<Circuit> make_circuits(const Gf2k& field,
                                   const std::vector<std::string>& names,
                                   std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Circuit> out;
  for (const std::string& name : names) {
    Circuit c;
    c.name = name;
    if (name == "mastrovito") c.generated = make_mastrovito_multiplier(field);
    else if (name == "montgomery")
      c.generated = make_montgomery_multiplier_flat(field);
    else c.generated = make_karatsuba_multiplier(field);
    c.text = shuffled_netlist_text(c.generated, rng.next());
    out.push_back(std::move(c));
  }
  return out;
}

/// The untraced run: blocks of at least kBlockSeconds of jobs until
/// `seconds` have passed, each block right after one timed set-up, so the
/// set-ups sample the whole run as the jobs do. A block holds whole rounds
/// of `round` jobs; `job(circuits, n)` runs a block's n-th job on the
/// set-up's circuits and returns its wall time.
template <class Job>
void block_loop(const Gf2k& field, const std::vector<std::string>& names,
                std::size_t round, const Options& options, Report& report,
                Job job) {
  std::vector<double> setup_s;
  std::vector<JobSample> jobs;
  const Clock::time_point loop = Clock::now();
  for (std::size_t b = 0; b == 0 || seconds_since(loop) < options.seconds;
       ++b) {
    const Clock::time_point t0 = Clock::now();
    const std::vector<Circuit> circuits =
        make_circuits(field, names, options.seed);
    setup_s.push_back(seconds_since(t0));
    const double block_start = seconds_since(loop);
    for (std::size_t n = 0;
         n % round != 0 || seconds_since(loop) - block_start < kBlockSeconds;
         ++n) {
      const double start = seconds_since(loop);
      jobs.push_back({b, start, job(circuits, n)});
    }
  }
  add_job_metrics(report, jobs, setup_s,
                  "generate the netlists and write their text",
                  peak_rss_mb(false), "this process");
}

Netlist parse_or_throw(const std::string& text) {
  Result<Netlist> nl = try_parse_netlist(text);
  if (!nl.ok())
    throw std::runtime_error("parse: " + std::string(nl.status().message()));
  return std::move(*nl);
}

/// The expected canonical polynomial of every multiplier: Z = A·B.
WordFunction product_function(const Gf2k& field) {
  WordFunction f{VarPool{}, MPoly(&field), "Z", {"A", "B"}, {}};
  const VarId a = f.pool.intern("A", VarKind::kWord);
  const VarId b = f.pool.intern("B", VarKind::kWord);
  f.g = MPoly::variable(&field, a) * MPoly::variable(&field, b);
  return f;
}

/// One `gfa_tool verify spec impl k --certify` job; returns its wall time.
double verify_job(const Circuit& spec, const Circuit& impl, Report& report) {
  const Clock::time_point t0 = Clock::now();
  const Netlist s = parse_or_throw(spec.text);
  const Netlist i = parse_or_throw(impl.text);
  const Result<Gf2k> field = Gf2k::try_make(kVerifyK);
  if (!field.ok()) throw std::runtime_error("no field for k=64");
  const Result<const engine::EquivEngine*> eng =
      engine::EngineRegistry::global().require("abstraction");
  if (!eng.ok()) throw std::runtime_error("no abstraction engine");
  engine::RunOptions options;
  options.certify = true;
  const engine::EngineRun run = engine::run_engine(**eng, s, i, *field, options);
  const double wall = seconds_since(t0);

  ++report.attempted;
  if (run.status.code() == StatusCode::kCertificationFailed) {
    report.wrong(impl.name + ": certification failed");
  } else if (!run.status.ok()) {
    ++report.failed;
  } else if (run.verdict != engine::Verdict::kEquivalent) {
    report.wrong(impl.name + ": verdict " + engine::verdict_name(run.verdict));
  } else if (run.stats.count("certify_points") == 0 ||
             run.stats.at("certify_points") <= 0) {
    report.wrong(impl.name + ": EQUIVALENT without certification");
  }
  return wall;
}

/// One `gfa_tool extract` job; returns its wall time.
double extract_job(const Circuit& circuit, const WordFunction& expected,
                   Report& report) {
  const Clock::time_point t0 = Clock::now();
  const Netlist nl = parse_or_throw(circuit.text);
  const Result<Gf2k> f = Gf2k::try_make(kExtractK);
  if (!f.ok()) throw std::runtime_error("no field for k=96");
  const Result<std::vector<WordFunction>> fns =
      try_extract_all_word_functions(nl, *f);
  const double wall = seconds_since(t0);
  ++report.attempted;
  if (!fns.ok()) {
    ++report.failed;
  } else if (fns->size() != 1 || !same_word_function((*fns)[0], expected)) {
    report.wrong("extracted polynomial is not A*B");
  }
  return wall;
}

/// The certify layer on two circuits that must agree.
void timed_certify(const Netlist& spec, const Netlist& impl, const Gf2k& field,
                   LayerTotals& t, Report& report) {
  const Clock::time_point t0 = Clock::now();
  const certify::CertifyOutcome cert =
      certify::certify_equivalence(spec, impl, field);
  t.certify_ms += ms_since(t0);
  t.certify_points += static_cast<double>(cert.points);
  t.certify_runs += 1;
  if (!cert.status.ok()) report.wrong("certification failed");
}

/// The witness search on two functions that agree everywhere: it has to
/// exhaust its samples and come back empty.
void timed_witness_search(const WordFunction& spec_fn,
                          const WordFunction& impl_fn, const Gf2k& field,
                          LayerTotals& t, Report& report) {
  const Clock::time_point t0 = Clock::now();
  const auto witness =
      certify::find_word_function_witness(spec_fn, impl_fn, field);
  t.witness_ms += ms_since(t0);
  t.witness_runs += 1;
  if (witness) report.wrong("a witness separates two equal functions");
}

/// The per-layer metrics every traced run ends with.
void finish_traced(Report& report, const LayerTotals& t, const Gf2k& field,
                   const Options& options,
                   const std::vector<double>& overhead_ms) {
  add_layer_metrics(report, t);
  Rng rng(options.seed);
  add_gf_metrics(report, field, rng);
  add_service_metrics(report, service_probe(options.workdir, report),
                      "k=16 probe: this workload never enters the service");
  report.set("trace.overhead_ms", median(overhead_ms), "ms",
             overhead_ms.size(),
             "median per job: layered job minus the untraced run's job");
}

/// The verify job one public call at a time, each layer timed; its
/// polynomials must be bit-identical to the engine's in `plain`.
void layered_verify(const Circuit& spec, const Circuit& impl,
                    const Gf2k& field, const EquivalenceResult& plain,
                    LayerTotals& t, double& layered_ms, Report& report) {
  ++t.jobs;
  const Clock::time_point t0 = Clock::now();
  const Netlist s = timed_parse(spec.text, t);
  const Netlist i = timed_parse(impl.text, t);
  Clock::time_point tf = Clock::now();
  const WordLift lift(&field);
  t.frobenius_ms += ms_since(tf);
  const WordFunction spec_fn = layered_extract(s, field, lift, t);
  const WordFunction impl_fn = layered_extract(i, field, lift, t);
  tf = Clock::now();
  const bool same = same_word_function(spec_fn, impl_fn);
  t.match_ms += ms_since(tf);
  t.match_terms +=
      static_cast<double>(spec_fn.g.num_terms() + impl_fn.g.num_terms());
  timed_certify(s, i, field, t, report);
  layered_ms += ms_since(t0);
  ++report.attempted;
  if (!same) report.wrong("layered verify did not find EQUIVALENT");
  if (!identical(spec_fn, plain.spec) || !identical(impl_fn, plain.impl))
    report.wrong("layer-by-layer polynomial differs from extract_word_function");
  timed_witness_search(spec_fn, impl_fn, field, t, report);
}

void traced_verify(const std::vector<Circuit>& circuits, const Gf2k& field,
                   const Options& options, Report& report) {
  LayerTotals t;
  PhaseSpans spans;
  double untraced_ms = 0, layered_ms = 0;
  std::vector<double> overhead_ms;
  // Warm-up, not counted: one untraced job of each pair.
  verify_job(circuits[0], circuits[1], report);
  verify_job(circuits[0], circuits[2], report);
  for (int n = 0; n < kTracedJobs; ++n) {
    const Circuit& spec = circuits[0];
    const Circuit& impl = circuits[1 + n % 2];

    // The program's own phase spans: the engine's calls with tracing on.
    begin_phase_spans();
    const Netlist ps = parse_or_throw(spec.text);
    const Netlist pi = parse_or_throw(impl.text);
    const Result<EquivalenceResult> plain = try_check_equivalence(ps, pi, field);
    const certify::CertifyOutcome plain_cert =
        certify::certify_equivalence(ps, pi, field);
    spans += end_phase_spans();
    ++report.attempted;
    if (!plain.ok() || !plain->equivalent || !plain_cert.status.ok())
      throw std::runtime_error("plain traced verify did not certify EQUIVALENT");

    const double before = layered_ms - untraced_ms;
    untraced_and_layered(
        n, [&] { untraced_ms += 1e3 * verify_job(spec, impl, report); },
        [&] {
          layered_verify(spec, impl, field, *plain, t, layered_ms, report);
        });
    overhead_ms.push_back(layered_ms - untraced_ms - before);
  }
  check_layer_accounting(report, t, layered_ms, spans);
  finish_traced(report, t, field, options, overhead_ms);
}

/// The extract job one public call at a time, each layer timed, then the
/// known-answer checks, timed as the match, certify and witness layers after
/// the job: the polynomial against A·B, the parsed circuit against the
/// generated one. The polynomial must be bit-identical to `plain`.
void layered_extract_job(const Circuit& circuit, const Gf2k& field,
                         const WordFunction& plain,
                         const WordFunction& expected, LayerTotals& t,
                         double& layered_ms, Report& report) {
  ++t.jobs;
  const Clock::time_point t0 = Clock::now();
  const Netlist nl = timed_parse(circuit.text, t);
  Clock::time_point tf = Clock::now();
  const WordLift lift(&field);
  t.frobenius_ms += ms_since(tf);
  const WordFunction fn = layered_extract(nl, field, lift, t);
  layered_ms += ms_since(t0);
  ++report.attempted;
  if (!identical(fn, plain))
    report.wrong("layer-by-layer polynomial differs from extract_word_function");

  tf = Clock::now();
  const bool same = same_word_function(fn, expected);
  t.match_ms += ms_since(tf);
  t.match_terms +=
      static_cast<double>(fn.g.num_terms() + expected.g.num_terms());
  if (!same) report.wrong("extracted polynomial is not A*B");
  timed_certify(nl, circuit.generated, field, t, report);
  timed_witness_search(fn, expected, field, t, report);
}

void traced_extract(const Circuit& circuit, const Gf2k& field,
                    const Options& options, Report& report) {
  LayerTotals t;
  PhaseSpans spans;
  double untraced_ms = 0, layered_ms = 0;
  std::vector<double> overhead_ms;
  const WordFunction expected = product_function(field);
  extract_job(circuit, expected, report);  // warm-up, not counted
  for (int n = 0; n < kTracedJobs; ++n) {
    begin_phase_spans();
    const Netlist pn = parse_or_throw(circuit.text);
    const Result<std::vector<WordFunction>> plain =
        try_extract_all_word_functions(pn, field);
    spans += end_phase_spans();
    ++report.attempted;
    if (!plain.ok() || plain->size() != 1)
      throw std::runtime_error("plain traced extract failed");

    const double before = layered_ms - untraced_ms;
    untraced_and_layered(
        n, [&] { untraced_ms += 1e3 * extract_job(circuit, expected, report); },
        [&] {
          layered_extract_job(circuit, field, (*plain)[0], expected, t,
                              layered_ms, report);
        });
    overhead_ms.push_back(layered_ms - untraced_ms - before);
  }
  // Coverage counts the job's own layers only, not the checks after it.
  LayerTotals job = t;
  job.match_ms = job.certify_ms = 0;
  check_layer_accounting(report, job, layered_ms, spans);
  finish_traced(report, t, field, options, overhead_ms);
}

}  // namespace

void add_job_metrics(Report& report, const std::vector<JobSample>& jobs,
                     const std::vector<double>& setup_s,
                     const std::string& setup_note, double rss_mb,
                     const std::string& rss_note) {
  // Set-ups follow the jobs' rule: the lowest median of kSetupGroup
  // consecutive set-ups, a short tail joining the last group.
  double best_setup = 0;
  for (std::size_t b = 0, e = 0; b < setup_s.size(); b = e) {
    e = setup_s.size() - b < 2 * kSetupGroup ? setup_s.size()
                                             : b + kSetupGroup;
    const double m =
        median(std::vector<double>(setup_s.begin() + static_cast<long>(b),
                                   setup_s.begin() + static_cast<long>(e)));
    if (b == 0 || m < best_setup) best_setup = m;
  }
  report.set("setup_s", best_setup, "s", setup_s.size(),
             "lowest median of " + std::to_string(kSetupGroup) +
                 " consecutive set-ups, one before each block: " + setup_note);
  // Jobs arrive block by block; a block's span runs from its first job's
  // start to its last job's end, so the set-up before it stays out.
  std::vector<double> block_p50, block_rate;
  double busy_s = 0;
  for (std::size_t b = 0, e = 0; b < jobs.size(); b = e) {
    std::vector<double> wall;
    for (e = b; e < jobs.size() && jobs[e].block == jobs[b].block; ++e)
      wall.push_back(jobs[e].wall_s);
    const double span =
        jobs[e - 1].start_s + jobs[e - 1].wall_s - jobs[b].start_s;
    block_p50.push_back(median(wall));
    block_rate.push_back(static_cast<double>(wall.size()) / span);
    busy_s += span;
  }
  std::vector<double> all;
  for (const JobSample& j : jobs) all.push_back(j.wall_s);
  const std::string note =
      "decile of " + std::to_string(block_p50.size()) + " blocks";
  report.set("job_s_p50", percentile(block_p50, kBlockDecile), "s", all.size(),
             "median job per block, lowest " + note);
  report.set("jobs_per_s", percentile(block_rate, 1 - kBlockDecile), "1/s",
             all.size(),
             "closed loop, one job outstanding, rate per block, highest " + note);
  report.set("peak_rss_mb", rss_mb, "MB", 1, rss_note);
  // Printed only: whole-run figures, which follow the host's slow spells.
  const std::string whole = "whole run, " + std::to_string(all.size()) + " jobs";
  report.set("job_s_p50.run", median(all), "s", all.size(), whole, false);
  report.set("jobs_per_s.run", static_cast<double>(all.size()) / busy_s,
             "1/s", all.size(), whole + ", set-ups left out", false);
  report.set("job_s_p90", percentile(all, 0.9), "s", all.size(), whole, false);
  report.set("failed_ratio",
             static_cast<double>(report.failed) /
                 static_cast<double>(report.attempted),
             "ratio", report.attempted,
             "failed " + std::to_string(report.failed) + " of attempted " +
                 std::to_string(report.attempted),
             false);
}

void run_verify(const Options& options, Report& report) {
  const Gf2k field = Gf2k::make(kVerifyK);
  report.header.emplace_back("k", std::to_string(kVerifyK));
  report.header.emplace_back("kernel_tier", to_string(field.kernel_tier()));
  const std::vector<std::string> names = {"mastrovito", "montgomery",
                                          "karatsuba"};
  if (options.trace) {
    traced_verify(make_circuits(field, names, options.seed), field, options,
                  report);
    return;
  }
  // Jobs alternate the two pairs, and a block holds as many of one as of
  // the other: the Montgomery pair is about 10% slower.
  std::vector<double> pair_s[2];
  block_loop(field, names, 2, options, report,
             [&](const std::vector<Circuit>& circuits, std::size_t n) {
               const double wall =
                   verify_job(circuits[0], circuits[1 + n % 2], report);
               pair_s[n % 2].push_back(wall);
               return wall;
             });
  for (int p = 0; p < 2; ++p)
    report.set("job_s_p50." + names[1 + p], median(pair_s[p]), "s",
               pair_s[p].size(), "this pair's jobs only", /*in_json=*/false);
}

void run_extract(const Options& options, Report& report) {
  const Gf2k field = Gf2k::make(kExtractK);
  report.header.emplace_back("k", std::to_string(kExtractK));
  report.header.emplace_back("kernel_tier", to_string(field.kernel_tier()));
  if (options.trace) {
    traced_extract(make_circuits(field, {"mastrovito"}, options.seed)[0], field,
                   options, report);
    return;
  }
  const WordFunction expected = product_function(field);
  block_loop(field, {"mastrovito"}, 1, options, report,
             [&](const std::vector<Circuit>& circuits, std::size_t) {
               return extract_job(circuits[0], expected, report);
             });
}

}  // namespace perfbench
