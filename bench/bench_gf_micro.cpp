// Microbenchmarks of the F_{2^k} substrate: field construction,
// multiplication, squaring, inversion and GF(2)[x] products across the NIST
// sizes. Not a paper table;
// these calibrate the constant factors underlying Tables 1 and 2 (every
// abstraction coefficient operation is one of these).
//
// Besides the google-benchmark registrations, main() measures the tiered
// kernels (gf/gf2k_kernels.h) against the generic schoolbook-multiply +
// long-division path and writes the per-k speedups to BENCH_gf_micro.json —
// the recorded evidence that the fast path actually is one.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>

#include "gf/gf2k.h"
#include "gf/gf2k_kernels.h"
#include "bench_util.h"

namespace {

gfa::Gf2Poly pseudo_elem(const gfa::Gf2k& field, std::uint64_t seed) {
  gfa::Gf2Poly p;
  std::uint64_t s = seed;
  for (unsigned i = 0; i < field.k(); ++i) {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    if (s >> 63) p.set_coeff(i, true);
  }
  if (p.is_zero()) p = field.one();
  return p;
}

void BM_FieldMul(benchmark::State& state) {
  const gfa::Gf2k field = gfa::Gf2k::make(static_cast<unsigned>(state.range(0)));
  auto a = pseudo_elem(field, 1), b = pseudo_elem(field, 2);
  for (auto _ : state) {
    a = field.mul(a, b);
    benchmark::DoNotOptimize(a);
  }
}

void BM_FieldMulGeneric(benchmark::State& state) {
  // The pre-kernel path: schoolbook carry-less multiply + long division.
  const gfa::Gf2k field = gfa::Gf2k::make(static_cast<unsigned>(state.range(0)));
  auto a = pseudo_elem(field, 1), b = pseudo_elem(field, 2);
  for (auto _ : state) {
    a = gfa::Gf2Poly::mulmod(a, b, field.modulus());
    benchmark::DoNotOptimize(a);
  }
}

void BM_FieldSquare(benchmark::State& state) {
  const gfa::Gf2k field = gfa::Gf2k::make(static_cast<unsigned>(state.range(0)));
  auto a = pseudo_elem(field, 3);
  for (auto _ : state) {
    a = field.square(a);
    benchmark::DoNotOptimize(a);
  }
}

void BM_FieldInv(benchmark::State& state) {
  const gfa::Gf2k field = gfa::Gf2k::make(static_cast<unsigned>(state.range(0)));
  auto a = pseudo_elem(field, 4);
  for (auto _ : state) {
    a = field.inv(a);
    benchmark::DoNotOptimize(a);
    if (a.is_zero()) a = field.alpha();
  }
}

void BM_FieldPowQ(benchmark::State& state) {
  // a^q (k squarings): the Frobenius ladder cost in the word lift.
  const gfa::Gf2k field = gfa::Gf2k::make(static_cast<unsigned>(state.range(0)));
  const auto a = pseudo_elem(field, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(field.pow(a, field.order()));
  }
}

void BM_FieldBuild(benchmark::State& state) {
  // Gf2k::try_make: the modulus (NIST table, else the low-weight search with
  // one Rabin test per candidate) and the kernel set-up; every job pays it.
  const unsigned k = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(gfa::Gf2k::try_make(k));
  }
}

void BM_Gf2PolyMul(benchmark::State& state) {
  const unsigned deg = static_cast<unsigned>(state.range(0));
  gfa::Gf2Poly a, b;
  for (unsigned i = 0; i <= deg; i += 3) a.set_coeff(i, true);
  for (unsigned i = 1; i <= deg; i += 2) b.set_coeff(i, true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a * b);
  }
}

/// ns/op of `op`, run in batches until >= 20 ms have elapsed.
template <typename Fn>
double measure_ns(const Fn& op) {
  const auto start = std::chrono::steady_clock::now();
  long iters = 0;
  double elapsed = 0;
  do {
    for (int i = 0; i < 512; ++i) op();
    iters += 512;
    elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            start)
                  .count();
  } while (elapsed < 0.02);
  return elapsed * 1e9 / static_cast<double>(iters);
}

/// Kernel-vs-generic speedups per op and field size -> BENCH_gf_micro.json.
void write_speedup_report() {
  gfa::bench::JsonReporter reporter("gf_micro");
  for (unsigned k : gfa::bench::ladder({16, 32, 64}, 571)) {
    const gfa::Gf2k field = gfa::Gf2k::make(k);
    gfa::Gf2Poly a = pseudo_elem(field, 1);
    const gfa::Gf2Poly b = pseudo_elem(field, 2);

    const double mul_fast = measure_ns([&] { a = field.mul(a, b); });
    a = pseudo_elem(field, 1);
    const double mul_generic =
        measure_ns([&] { a = gfa::Gf2Poly::mulmod(a, b, field.modulus()); });
    const double sq_fast = measure_ns([&] { a = field.square(a); });
    a = pseudo_elem(field, 1);
    const double sq_generic =
        measure_ns([&] { a = a.squared().mod(field.modulus()); });

    gfa::bench::BenchRecord mul_rec;
    mul_rec.name = "mul";
    mul_rec.k = k;
    mul_rec.wall_ms = mul_fast * 1e-6;
    mul_rec.extra = {{"fast_ns", mul_fast},
                     {"generic_ns", mul_generic},
                     {"speedup", mul_generic / mul_fast}};
    reporter.add(mul_rec);

    gfa::bench::BenchRecord sq_rec;
    sq_rec.name = "square";
    sq_rec.k = k;
    sq_rec.wall_ms = sq_fast * 1e-6;
    sq_rec.extra = {{"fast_ns", sq_fast},
                    {"generic_ns", sq_generic},
                    {"speedup", sq_generic / sq_fast}};
    reporter.add(sq_rec);

    std::printf("k=%-4u tier=%-11s mul %8.1f ns (generic %9.1f ns, %5.1fx)  "
                "square %8.1f ns (generic %9.1f ns, %5.1fx)\n",
                k, gfa::to_string(field.kernel_tier()), mul_fast, mul_generic,
                mul_generic / mul_fast, sq_fast, sq_generic,
                sq_generic / sq_fast);
  }
  reporter.write();
  std::printf("wrote %s\n", "BENCH_gf_micro.json");
}

}  // namespace

BENCHMARK(BM_FieldMul)->Arg(8)->Arg(16)->Arg(64)->Arg(163)->Arg(233)->Arg(409)->Arg(571);
BENCHMARK(BM_FieldMulGeneric)->Arg(16)->Arg(64)->Arg(163)->Arg(233)->Arg(409)->Arg(571);
BENCHMARK(BM_FieldSquare)->Arg(64)->Arg(163)->Arg(233)->Arg(409)->Arg(571);
BENCHMARK(BM_FieldInv)->Arg(8)->Arg(16)->Arg(64)->Arg(163)->Arg(233)->Arg(571);
BENCHMARK(BM_FieldPowQ)->Arg(64)->Arg(163)->Arg(233);
BENCHMARK(BM_FieldBuild)->Arg(16)->Arg(64)->Arg(96)->Arg(128)->Arg(163)->Arg(256)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Gf2PolyMul)->Arg(63)->Arg(163)->Arg(571)->Arg(2048);

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  write_speedup_report();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
