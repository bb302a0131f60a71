// Determinism suite for the reduction chain (rewriter.h): the extracted
// canonical polynomial and the chain's statistics must be bit-identical at
// every pool width — including when a mid-chain fault unwinds a run.
// "Identical" here is exact: the same term set with the same GF(2^k)
// coefficients, compared both structurally and via to_string.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "abstraction/extractor.h"
#include "circuit/mastrovito.h"
#include "circuit/montgomery.h"
#include "util/fault_inject.h"
#include "util/parallel_for.h"

namespace gfa {
namespace {

struct Disarmer {
  ~Disarmer() { fault::disarm(); }
};

/// Restores the pool width the test found, however the test exits.
struct WidthGuard {
  unsigned before = parallel_thread_count();
  ~WidthGuard() { set_parallel_thread_count(before); }
};

WordFunction extract_at(unsigned threads, const Netlist& nl, const Gf2k& field,
                        const ExtractionOptions& options = {}) {
  set_parallel_thread_count(threads);
  return extract_word_function(nl, field, options);
}

/// Extracts at 1/2/8 threads and asserts every result — polynomial and chain
/// statistics — is identical to the 1-thread run.
void expect_width_invariant(const Netlist& nl, const Gf2k& field) {
  WidthGuard guard;
  const WordFunction ref = extract_at(1, nl, field);
  const std::string ref_poly = ref.g.to_string(ref.pool);
  for (unsigned threads : {2u, 8u}) {
    const WordFunction fn = extract_at(threads, nl, field);
    EXPECT_TRUE(fn.g == ref.g) << "k=" << field.k() << " threads=" << threads;
    EXPECT_EQ(fn.g.to_string(fn.pool), ref_poly)
        << "k=" << field.k() << " threads=" << threads;
    // One serial chain: the same work and the same true peak at every width.
    EXPECT_EQ(fn.stats.substitutions, ref.stats.substitutions);
    EXPECT_EQ(fn.stats.peak_terms, ref.stats.peak_terms)
        << "k=" << field.k() << " threads=" << threads;
    EXPECT_EQ(fn.stats.remainder_terms, ref.stats.remainder_terms)
        << "k=" << field.k() << " threads=" << threads;
  }
}

TEST(ReductionDeterminism, MastrovitoIsBitIdenticalAcrossThreadCounts) {
  for (unsigned k : {8u, 32u, 64u}) {
    const Gf2k field = Gf2k::make(k);
    expect_width_invariant(make_mastrovito_multiplier(field), field);
  }
}

TEST(ReductionDeterminism, MontgomeryFlatIsBitIdenticalAcrossThreadCounts) {
  for (unsigned k : {8u, 32u, 64u}) {
    const Gf2k field = Gf2k::make(k);
    expect_width_invariant(make_montgomery_multiplier_flat(field), field);
  }
}

TEST(ReductionDeterminism, CleanRerunAfterMidChainFaultIsIdentical) {
  if (!fault::compiled_in()) GTEST_SKIP() << "GFA_FAULT_INJECTION is off";
  Disarmer disarm;
  WidthGuard guard;
  const Gf2k field = Gf2k::make(32);
  const Netlist nl = make_mastrovito_multiplier(field);
  const WordFunction ref = extract_at(1, nl, field);

  for (unsigned threads : {2u, 8u}) {
    set_parallel_thread_count(threads);
    // Kill the chain partway through (the 400th add lands mid-substitution);
    // the failure must unwind as a clean status, and a rerun in the same
    // process must not be perturbed by the aborted chain.
    ASSERT_TRUE(fault::arm("oom:rewriter.add", 400).ok());
    const Result<WordFunction> interrupted =
        try_extract_word_function(nl, field);
    EXPECT_TRUE(fault::fired()) << "threads=" << threads;
    ASSERT_FALSE(interrupted.ok()) << "threads=" << threads;
    EXPECT_EQ(interrupted.status().code(), StatusCode::kResourceExhausted);
    fault::disarm();

    const WordFunction rerun = extract_word_function(nl, field);
    EXPECT_TRUE(rerun.g == ref.g) << "threads=" << threads;
    EXPECT_EQ(rerun.g.to_string(rerun.pool), ref.g.to_string(ref.pool));
  }
}

}  // namespace
}  // namespace gfa
