#include <gtest/gtest.h>

#include <string>

#include "abstraction/extractor.h"
#include "circuit/mastrovito.h"
#include "circuit/montgomery.h"
#include "gf/gf2k.h"

namespace gfa {
namespace {

// How the reduction chain lays out its intermediate polynomial is a pure
// representation choice: one term map walked by the serial chain, or the
// seed split into several sub-chains, each with its own term map, merged at
// the end. For any circuit both layouts must produce the *identical*
// word-level polynomial — same MPoly, same rendering, same remainder. These
// tests pin that equivalence on the two paper multiplier families across
// field sizes that exercise 1-word and multi-word coefficients.

void expect_identical_extraction(const Netlist& netlist, const Gf2k& field) {
  ExtractionOptions serial;
  serial.chain_shards = 1;
  ExtractionOptions sharded;
  sharded.chain_shards = 3;

  const WordFunction a = extract_word_function(netlist, field, serial);
  const WordFunction b = extract_word_function(netlist, field, sharded);

  EXPECT_EQ(a.g, b.g);
  EXPECT_EQ(a.g.to_string(a.pool), b.g.to_string(b.pool));
  EXPECT_EQ(a.output_word, b.output_word);
  EXPECT_EQ(a.input_words, b.input_words);
  // Same remainder — the layouts differ in where terms live mid-chain, not
  // in what the chain reduces to.
  EXPECT_EQ(a.stats.remainder_terms, b.stats.remainder_terms);
  EXPECT_EQ(a.stats.remainder_degree, b.stats.remainder_degree);
  EXPECT_EQ(a.stats.case1, b.stats.case1);
}

class PolyReprDifferentialTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(PolyReprDifferentialTest, MastrovitoExtractionIsReprIndependent) {
  const Gf2k field = Gf2k::make(GetParam());
  expect_identical_extraction(make_mastrovito_multiplier(field), field);
}

TEST_P(PolyReprDifferentialTest, MontgomeryExtractionIsReprIndependent) {
  const Gf2k field = Gf2k::make(GetParam());
  expect_identical_extraction(make_montgomery_multiplier_flat(field), field);
}

INSTANTIATE_TEST_SUITE_P(FieldSizes, PolyReprDifferentialTest,
                         ::testing::Values(8u, 32u, 64u),
                         [](const ::testing::TestParamInfo<unsigned>& info) {
                           return "k" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace gfa
