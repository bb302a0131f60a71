#pragma once
// Shared pieces of the end-to-end benchmark (README.md in this directory):
// timing and percentiles, the seeded stream every input choice draws from,
// the report every run prints, and the layer-by-layer job the traced runs
// decompose each verify/extract job into.

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "abstraction/extractor.h"
#include "abstraction/rewriter.h"
#include "abstraction/word_lift.h"
#include "circuit/netlist.h"
#include "gf/gf2k.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double ms_since(Clock::time_point t0) { return 1e3 * seconds_since(t0); }

/// splitmix64: every seeded choice (gate-line order, mutant seeds, repeat
/// positions, gf operands) draws from one of these.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, n); n > 0.
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

/// A uniformly random field element.
gfa::Gf2k::Elem random_elem(const gfa::Gf2k& field, Rng& rng);

/// The netlist's text with its gate lines in a seeded order: the same circuit
/// and function, but a different parse input and net numbering per seed.
std::string shuffled_netlist_text(const gfa::Netlist& netlist,
                                  std::uint64_t seed);

/// Linear-interpolation percentile (q in [0, 1]) of a non-empty sample.
double percentile(std::vector<double> v, double q);
inline double median(std::vector<double> v) {
  return percentile(std::move(v), 0.5);
}

/// Peak resident set in MB: this process, or the larger of this process and
/// its largest reaped child.
double peak_rss_mb(bool include_children);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for netlist files and the service socket; relative
  /// to the working directory so the socket path stays short.
  std::string workdir;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// Samples behind the value (jobs, setups, lookups ...), printed beside it.
  std::uint64_t samples = 0;
  std::string note;
  /// False for metrics printed for people only, left out of the JSON line.
  bool in_json = true;
};

/// Everything one run prints: an environment header, the metrics, and the
/// verdict bookkeeping for the final JSON line.
struct Report {
  std::vector<std::pair<std::string, std::string>> header;
  std::vector<Metric> metrics;
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void set(std::string name, double value, std::string unit,
           std::uint64_t samples, std::string note = {}, bool in_json = true);
  /// Records a wrong answer: the run prints correct=false and exits nonzero.
  void wrong(const std::string& why);
  /// Human-readable lines, then the one-line JSON result.
  void print() const;
};

/// Work and time per layer, summed over the traced jobs.
struct LayerTotals {
  std::size_t jobs = 0;
  double parse_ms = 0, parse_bytes = 0;
  double rato_ms = 0, rato_nets = 0;
  double chain_ms = 0, chain_substitutions = 0, chain_remainder_terms = 0;
  double chain_peak_terms = 0;  // max, not sum
  double frobenius_ms = 0;
  double lift_ms = 0, lift_terms = 0, lift_general = 0;
  double match_ms = 0, match_terms = 0;
  double certify_ms = 0, certify_points = 0, certify_runs = 0;
  double witness_ms = 0, witness_runs = 0;
  /// Layer time inside the timed jobs (witness searches are checks, not job
  /// work, and stay out of it).
  double job_layer_ms() const {
    return parse_ms + rato_ms + chain_ms + frobenius_ms + lift_ms + match_ms +
           certify_ms;
  }
};

/// Parses netlist text, timing the `circuit` layer.
gfa::Netlist timed_parse(const std::string& text, LayerTotals& t);

/// The reduction chain as the extractor runs it: a ShardedRewriter seeded
/// with Σ α^j·z_j, run over the non-input nets of `rato`, then merged. Fills
/// substitutions, peak_terms and remainder_terms of `stats`. A nonzero
/// `max_terms` throws gfa::RewriteBudgetExceeded past that many terms.
gfa::ShardedRewriter::TermMap chain_remainder(const gfa::Netlist& netlist,
                                              const gfa::Gf2k& field,
                                              const std::vector<gfa::NetId>& rato,
                                              std::size_t max_terms,
                                              gfa::ExtractionStats& stats);

/// extract_word_function's steps, one public call at a time: rato_net_order,
/// a ShardedRewriter seeded as the extractor seeds it (run_segment then
/// take_merged), the remap onto word bindings, and WordLift::lift. Adds each
/// layer's time and work to `t`.
gfa::WordFunction layered_extract(const gfa::Netlist& netlist,
                                  const gfa::Gf2k& field,
                                  const gfa::WordLift& lift, LayerTotals& t);

/// True when the two word functions are bit-identical: same pool, same
/// polynomial term for term, same chain statistics.
bool identical(const gfa::WordFunction& a, const gfa::WordFunction& b);

/// Program phase spans (obs/trace.h) a plain job emitted, in ms.
struct PhaseSpans {
  double rato_ms = 0, chain_ms = 0, frobenius_ms = 0, lift_ms = 0;
  PhaseSpans& operator+=(const PhaseSpans& o) {
    rato_ms += o.rato_ms;
    chain_ms += o.chain_ms;
    frobenius_ms += o.frobenius_ms;
    lift_ms += o.lift_ms;
    return *this;
  }
};
/// Clears the span buffer and turns program tracing on.
void begin_phase_spans();
/// Turns program tracing off and folds the buffer into PhaseSpans.
PhaseSpans end_phase_spans();

/// Checks that the layer times cover at least 90% of the traced job and
/// agree with the program's own phase spans; reports both.
void check_layer_accounting(Report& report, const LayerTotals& t,
                            double layered_job_ms, const PhaseSpans& spans);

/// Runs traced job n twice: as the untraced run's job, and layer by layer.
/// Every other pair of jobs runs the layered one first, so that neither
/// always runs on a heap the other has warmed.
template <class Untraced, class Layered>
void untraced_and_layered(int n, Untraced untraced, Layered layered) {
  if (n / 2 % 2 == 0) {
    untraced();
    layered();
  } else {
    layered();
    untraced();
  }
}

/// gf.mul_ns / gf.square_ns: median over repetitions of a loop over random
/// operands at the field's k.
void add_gf_metrics(Report& report, const gfa::Gf2k& field, Rng& rng);

/// The per-layer metrics of `t`, as per-job means over t.jobs.
void add_layer_metrics(Report& report, const LayerTotals& t);

/// Service-layer samples: round trips by cache outcome, and per-miss
/// overhead over the in-process engine time for the same pair.
struct ServiceSamples {
  std::vector<double> hit_ms, miss_ms, overhead_ms;
  std::uint64_t hits = 0, lookups = 0;
};
void add_service_metrics(Report& report, const ServiceSamples& s,
                         const std::string& note);

/// One miss and one hit of a k=16 pair through a fresh in-process server:
/// the service layer's fixed cost, for the workloads that never enter it.
ServiceSamples service_probe(const std::string& workdir, Report& report);

/// One job of an untraced closed loop, times in seconds from the loop's
/// start. The loop runs in blocks, each right after one timed set-up.
struct JobSample {
  std::size_t block = 0;
  double start_s = 0;
  double wall_s = 0;
};

/// Shortest stretch of jobs in one block (a serve block is one pass).
constexpr double kBlockSeconds = 1.0;
/// Consecutive set-ups whose median is one setup_s candidate.
constexpr std::size_t kSetupGroup = 4;

/// Where job_s_p50 and jobs_per_s sit among a run's blocks: a change that
/// slows nine blocks in ten moves them, a slow spell of a shared host over a
/// tenth of the run does not. The first quartile moved by 27% between seeds
/// when the host was slow for most of some runs.
constexpr double kBlockDecile = 0.1;

/// The end-to-end metrics of an untraced closed loop. job_s_p50 is the
/// lowest decile over blocks of each block's median job, jobs_per_s the
/// highest decile of block rates, and setup_s the lowest median of
/// kSetupGroup consecutive set-ups. Also printed, but left out of the JSON line: the whole-run
/// median and rate, job_s_p90 and failed_ratio.
void add_job_metrics(Report& report, const std::vector<JobSample>& jobs,
                     const std::vector<double>& setup_s,
                     const std::string& setup_note, double rss_mb,
                     const std::string& rss_note);

void run_verify(const Options& options, Report& report);
void run_extract(const Options& options, Report& report);
void run_serve(const Options& options, Report& report);
/// Classifies `count` unfiltered mutant draws per golden circuit of the
/// serve workload by remainder shape and job time against the job limit.
void run_survey(const Options& options, std::size_t count, Report& report);

}  // namespace perfbench
