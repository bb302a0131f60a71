// The traced runs' view of a job: each layer timed around the calls the
// benchmark makes into that module's public functions.

#include <algorithm>
#include <cstdint>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "abstraction/bitpoly.h"
#include "abstraction/rato.h"
#include "abstraction/rewriter.h"
#include "circuit/parser.h"
#include "obs/trace.h"
#include "perfbench.h"
#include "util/parallel_for.h"

namespace perfbench {

using namespace gfa;

Netlist timed_parse(const std::string& text, LayerTotals& t) {
  const Clock::time_point t0 = Clock::now();
  Result<Netlist> nl = try_parse_netlist(text);
  t.parse_ms += ms_since(t0);
  t.parse_bytes += static_cast<double>(text.size());
  if (!nl.ok())
    throw std::runtime_error("parse: " + std::string(nl.status().message()));
  return std::move(*nl);
}

ShardedRewriter::TermMap chain_remainder(const Netlist& netlist,
                                         const Gf2k& field,
                                         const std::vector<NetId>& rato,
                                         std::size_t max_terms,
                                         ExtractionStats& stats) {
  const unsigned k = field.k();
  const std::vector<const Word*> outs = output_words(netlist);
  if (outs.size() != 1)
    throw std::invalid_argument("the benchmark's circuits have one output word");
  std::vector<bool> substitutable(netlist.num_nets(), true);
  for (NetId n : netlist.inputs()) substitutable[n] = false;
  std::vector<NetId> gates;
  gates.reserve(rato.size());
  for (NetId n : rato)
    if (substitutable[n]) gates.push_back(n);
  const unsigned shards = std::min(parallel_available_width(), k);
  ShardedRewriter chain(field, std::move(substitutable), shards, max_terms);
  for (unsigned j = 0; j < k; ++j)
    chain.seed(BitMono{outs[0]->bits[j]}, field.alpha_pow(std::uint64_t{j}));
  chain.run_segment(netlist, gates, 0, gates.size());
  stats.substitutions = gates.size();
  stats.peak_terms = chain.peak_terms();
  ShardedRewriter::TermMap remainder = chain.take_merged();
  stats.remainder_terms = remainder.size();
  return remainder;
}

WordFunction layered_extract(const Netlist& netlist, const Gf2k& field,
                             const WordLift& lift, LayerTotals& t) {
  // abstraction/rato
  Clock::time_point t0 = Clock::now();
  const std::vector<NetId> rato = rato_net_order(netlist);
  t.rato_ms += ms_since(t0);
  t.rato_nets += static_cast<double>(rato.size());

  // abstraction/rewriter
  t0 = Clock::now();
  ExtractionStats stats;
  const ShardedRewriter::TermMap remainder =
      chain_remainder(netlist, field, rato, 0, stats);
  t.chain_ms += ms_since(t0);
  t.chain_substitutions += static_cast<double>(stats.substitutions);
  t.chain_remainder_terms += static_cast<double>(stats.remainder_terms);
  t.chain_peak_terms =
      std::max(t.chain_peak_terms, static_cast<double>(stats.peak_terms));

  // Remap onto word bindings (benchmark glue, not a layer).
  WordFunction result{VarPool{}, MPoly(&field), output_words(netlist)[0]->name,
                      {}, {}};
  const std::vector<const Word*> in_words = input_words(netlist);
  std::vector<WordLift::WordBinding> bindings;
  std::vector<VarId> net_to_var(netlist.num_nets(), UINT32_MAX);
  for (const Word* w : in_words) {
    WordLift::WordBinding b;
    for (NetId bit : w->bits) {
      const VarId v = result.pool.intern(netlist.gate(bit).name, VarKind::kBit);
      net_to_var[bit] = v;
      b.bit_vars.push_back(v);
    }
    b.word_var = result.pool.intern(w->name, VarKind::kWord);
    bindings.push_back(std::move(b));
    result.input_words.push_back(w->name);
  }
  BitPoly r(&field);
  r.reserve(remainder.size());
  std::vector<VarId> mapped;
  bool any_bits = false;
  for (const auto& [m, c] : remainder) {
    stats.remainder_degree = std::max(stats.remainder_degree, m.size());
    if (!m.empty()) any_bits = true;
    mapped.clear();
    for (VarId v : m) mapped.push_back(net_to_var[v]);
    std::sort(mapped.begin(), mapped.end());
    r.add_term(BitMono::from_sorted(mapped.data(), mapped.size()), c);
  }
  stats.case1 = !any_bits;

  // abstraction/word_lift
  t0 = Clock::now();
  if (stats.case1) {
    result.g = MPoly::constant(&field, r.coeff(BitMono{}));
  } else {
    result.g = lift.lift(r, bindings, result.pool);
    if (r.max_monomial_size() > 2) t.lift_general += 1;
  }
  t.lift_ms += ms_since(t0);
  t.lift_terms += static_cast<double>(result.g.num_terms());
  result.stats = stats;
  return result;
}

bool identical(const WordFunction& a, const WordFunction& b) {
  if (a.output_word != b.output_word || a.input_words != b.input_words ||
      a.pool.size() != b.pool.size())
    return false;
  for (VarId v = 0; v < a.pool.size(); ++v)
    if (a.pool.name(v) != b.pool.name(v) || a.pool.kind(v) != b.pool.kind(v))
      return false;
  return a.g == b.g && a.stats.substitutions == b.stats.substitutions &&
         a.stats.peak_terms == b.stats.peak_terms &&
         a.stats.remainder_terms == b.stats.remainder_terms &&
         a.stats.remainder_degree == b.stats.remainder_degree &&
         a.stats.case1 == b.stats.case1;
}

void begin_phase_spans() {
  obs::Tracer::instance().clear();
  obs::set_trace_enabled(true);
}

PhaseSpans end_phase_spans() {
  obs::set_trace_enabled(false);
  const auto totals = obs::Tracer::instance().aggregate();
  obs::Tracer::instance().clear();
  auto ms = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.total_ms;
  };
  return PhaseSpans{ms("rato_sort"), ms("reduction_chain"),
                    ms("frobenius_basis_change"), ms("case2_lift")};
}

void check_layer_accounting(Report& report, const LayerTotals& t,
                            double layered_job_ms, const PhaseSpans& spans) {
  const double coverage = t.job_layer_ms() / layered_job_ms;
  report.set("trace.coverage", coverage, "ratio", t.jobs,
             "layer time / traced job time");
  if (coverage < 0.9)
    report.wrong("layer times cover only " + std::to_string(coverage) +
                 " of the traced job");
  // Layer and span come from two interleaved runs of the same jobs, so they
  // differ by run-to-run noise (up to 21%, on rato at k=96); a missing or
  // double-counted layer is off by far more.
  const struct {
    const char* layer;
    double layer_ms;
    const char* span;
    double span_ms;
  } pairs[] = {{"rato.ms", t.rato_ms, "rato_sort", spans.rato_ms},
               {"chain.ms", t.chain_ms, "reduction_chain", spans.chain_ms},
               {"frobenius.ms", t.frobenius_ms, "frobenius_basis_change",
                spans.frobenius_ms},
               {"lift.ms", t.lift_ms, "case2_lift", spans.lift_ms}};
  for (const auto& p : pairs) {
    char line[128];
    std::snprintf(line, sizeof(line), "%.3f ms vs %s %.3f ms", p.layer_ms,
                  p.span, p.span_ms);
    report.header.emplace_back(std::string("span ") + p.layer, line);
    const double tolerance =
        std::max(std::max(p.layer_ms, p.span_ms) / 3, 5.0);
    if (std::abs(p.layer_ms - p.span_ms) > tolerance)
      report.wrong(std::string(p.layer) + " disagrees with the program's " +
                   p.span + " span");
  }
}

void add_gf_metrics(Report& report, const Gf2k& field, Rng& rng) {
  constexpr std::size_t kOps = 4096;
  constexpr int kReps = 7;
  std::vector<Gf2k::Elem> a, b;
  for (std::size_t i = 0; i < kOps; ++i) {
    a.push_back(random_elem(field, rng));
    b.push_back(random_elem(field, rng));
  }
  volatile int sink = 0;
  auto time_ns = [&](auto&& op) {
    std::vector<double> reps;
    for (int r = 0; r < kReps; ++r) {
      const Clock::time_point t0 = Clock::now();
      int acc = 0;
      for (std::size_t i = 0; i < kOps; ++i) acc ^= op(i).degree();
      reps.push_back(1e9 * seconds_since(t0) / kOps);
      sink = sink ^ acc;
    }
    return median(reps);
  };
  const std::string note = "median of " + std::to_string(kReps) +
                           " loops at k=" + std::to_string(field.k());
  report.set("gf.mul_ns", time_ns([&](std::size_t i) {
               return field.mul(a[i], b[i]);
             }),
             "ns", kOps * kReps, note);
  report.set("gf.square_ns", time_ns([&](std::size_t i) {
               return field.square(a[i]);
             }),
             "ns", kOps * kReps, note);
}

void add_layer_metrics(Report& report, const LayerTotals& t) {
  const double jobs = static_cast<double>(t.jobs);
  const std::string per_job =
      "per traced job, mean of " + std::to_string(t.jobs);
  report.set("parse.ms", t.parse_ms / jobs, "ms", t.jobs, per_job);
  report.set("parse.bytes", t.parse_bytes / jobs, "bytes", t.jobs, per_job);
  report.set("parse.mb_per_s", t.parse_bytes / 1e3 / t.parse_ms, "MB/s",
             t.jobs);
  report.set("rato.ms", t.rato_ms / jobs, "ms", t.jobs, per_job);
  report.set("rato.nets", t.rato_nets / jobs, "count", t.jobs, per_job);
  report.set("chain.ms", t.chain_ms / jobs, "ms", t.jobs, per_job);
  report.set("chain.substitutions", t.chain_substitutions / jobs, "count",
             t.jobs, per_job);
  report.set("chain.peak_terms", t.chain_peak_terms, "count", t.jobs,
             "largest over the traced jobs");
  report.set("chain.remainder_terms", t.chain_remainder_terms / jobs, "count",
             t.jobs, per_job);
  report.set("chain.ns_per_substitution",
             1e6 * t.chain_ms / t.chain_substitutions, "ns", t.jobs);
  report.set("frobenius.ms", t.frobenius_ms / jobs, "ms", t.jobs, per_job);
  report.set("lift.ms", t.lift_ms / jobs, "ms", t.jobs, per_job);
  report.set("lift.terms", t.lift_terms / jobs, "count", t.jobs, per_job);
  report.set("lift.general", t.lift_general, "count", t.jobs,
             "lifts that left the bilinear fast path, all traced jobs");
  report.set("match.ms", t.match_ms / jobs, "ms", t.jobs, per_job);
  report.set("match.terms", t.match_terms / jobs, "count", t.jobs, per_job);
  const auto runs = static_cast<std::uint64_t>(t.certify_runs);
  report.set("certify.ms", t.certify_ms / t.certify_runs, "ms", runs,
             "per certification");
  report.set("certify.points", t.certify_points / t.certify_runs, "count",
             runs, "per certification");
  report.set("witness.ms", t.witness_ms / t.witness_runs, "ms",
             static_cast<std::uint64_t>(t.witness_runs),
             "per witness search (+ replay when one is found)");
}

void add_service_metrics(Report& report, const ServiceSamples& s,
                         const std::string& note) {
  report.set("service.hit_ms", median(s.hit_ms), "ms", s.hit_ms.size(),
             "median round trip, " + note);
  report.set("service.miss_ms", median(s.miss_ms), "ms", s.miss_ms.size(),
             "median round trip, " + note);
  report.set("cache.hit_ratio",
             static_cast<double>(s.hits) / static_cast<double>(s.lookups),
             "ratio", s.lookups,
             "hits " + std::to_string(s.hits) + " over lookups " +
                 std::to_string(s.lookups));
  report.set("service.overhead_ms", median(s.overhead_ms), "ms",
             s.overhead_ms.size(),
             "median miss round trip minus in-process engine time");
}

}  // namespace perfbench
