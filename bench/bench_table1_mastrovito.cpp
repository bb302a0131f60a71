// Paper Table 1: "Abstraction of Mastrovito multipliers."
//
// For each field size k, generates the flattened Mastrovito multiplier and
// measures the time to derive its canonical word-level polynomial Z = A·B by
// the RATO-guided reduction. Counters report the gate count (the paper's
// "# of Gates" column) and the intermediate/remainder term counts (our memory
// proxy; the paper reports Max Mem).
//
// Paper reference (Intel Xeon, 2014): k=163: 153K gates, 4351 s; k=233: 167K,
// 5777 s; k=283: 399K, 40114 s; k=409: 508K, 72708 s; k=571: 1.6M, timeout.
// Expected shape here: superlinear but tractable growth through k=163+ —
// the method scales where SAT/BDD/full-GB baselines die (see other benches).

#include <benchmark/benchmark.h>

#include <chrono>

#include "abstraction/extractor.h"
#include "abstraction/word_lift.h"
#include "circuit/mastrovito.h"
#include "obs/trace.h"
#include "bench_util.h"

namespace {

gfa::bench::JsonReporter& reporter() {
  static gfa::bench::JsonReporter r("table1_mastrovito");
  return r;
}

void BM_MastrovitoAbstraction(benchmark::State& state) {
  const unsigned k = static_cast<unsigned>(state.range(0));
  const gfa::Gf2k field = gfa::Gf2k::make(k);
  const gfa::Netlist netlist = make_mastrovito_multiplier(field);
  const gfa::WordLift lift(&field);
  gfa::ExtractionOptions options;
  options.shared_lift = &lift;

  gfa::ExtractionStats stats;
  double wall_ms = 0;
  bool is_ab = false;
  std::vector<std::pair<std::string, double>> phases;
  for (auto _ : state) {
    gfa::obs::Tracer::instance().clear();
    const auto t0 = std::chrono::steady_clock::now();
    const gfa::WordFunction fn =
        gfa::extract_word_function(netlist, field, options);
    wall_ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
    stats = fn.stats;
    phases = gfa::bench::drain_phase_times();
    // Sanity: polynomial must be exactly A·B.
    const gfa::MPoly ab = gfa::MPoly::variable(&field, fn.pool.id("A")) *
                          gfa::MPoly::variable(&field, fn.pool.id("B"));
    is_ab = fn.g == ab;
    benchmark::DoNotOptimize(is_ab);
  }
  if (!is_ab) state.SkipWithError("extracted polynomial is not A*B");
  state.counters["gates"] = static_cast<double>(netlist.num_logic_gates());
  state.counters["peak_terms"] = static_cast<double>(stats.peak_terms);
  state.counters["remainder_terms"] = static_cast<double>(stats.remainder_terms);
  gfa::bench::BenchRecord rec;
  rec.name = "Table1/Mastrovito";
  rec.k = k;
  rec.wall_ms = wall_ms;
  rec.peak_terms = stats.peak_terms;
  rec.substitutions = stats.substitutions;
  rec.extra = {{"gates", static_cast<double>(netlist.num_logic_gates())}};
  rec.phases = std::move(phases);
  reporter().add(rec);
}

}  // namespace

int main(int argc, char** argv) {
  // Record per-phase times (rato_sort / reduction_chain / case2_lift / ...)
  // into BENCH_table1_mastrovito.json alongside the wall totals.
  gfa::obs::set_trace_enabled(true);
  benchmark::AddCustomContext("table", "Paper Table 1: Mastrovito abstraction");
  benchmark::AddCustomContext(
      "paper_reference",
      "k=163:4351s/153K gates, k=233:5777s/167K, k=283:40114s/399K, "
      "k=409:72708s/508K, k=571:TO/1.6M (24h limit, 2014 Xeon)");
  // k=233 is on the default ladder (its extraction takes well under a
  // second); GFA_BENCH_MAX_K still trims it for CI.
  const std::vector<unsigned> sizes = gfa::bench::ladder({16, 32, 64, 96, 128}, 233);
  for (unsigned k : sizes) {
    benchmark::RegisterBenchmark("Table1/Mastrovito", BM_MastrovitoAbstraction)
        ->Arg(static_cast<int>(k))
        ->Unit(benchmark::kMillisecond)
        ->Iterations(1)
        ->MeasureProcessCPUTime();
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  // Scaling section: reduction-chain time vs pool width at the ladder's top
  // k, with the cross-width determinism check.
  if (!sizes.empty()) {
    const unsigned k = sizes.back();
    const gfa::Gf2k field = gfa::Gf2k::make(k);
    const gfa::Netlist netlist = make_mastrovito_multiplier(field);
    const gfa::WordLift lift(&field);
    gfa::ExtractionOptions options;
    options.shared_lift = &lift;
    gfa::bench::add_scaling_records(reporter(), "Table1/ScalingReductionChain",
                                    field, netlist, options);
  }
  reporter().write();
  return 0;
}
