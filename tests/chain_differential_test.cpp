// The reduction chain pinned to values taken from the tombstone term map
// with one occurrence entry per (term, substitutable variable): for
// Mastrovito, flat Montgomery and Karatsuba at k ∈ {8, 16, 64}, a digest of
// the sorted remainder, peak_terms, and the gate at which a max_terms of
// half the peak first trips; and for seeded k = 16 mutants under the
// 2048-term budget perfbench classifies mutants with, the same digest and
// peak or the trip. The values were taken by running these same chains
// on that earlier implementation.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "abstraction/rato.h"
#include "abstraction/rewriter.h"
#include "circuit/karatsuba.h"
#include "circuit/mastrovito.h"
#include "circuit/montgomery.h"
#include "circuit/mutate.h"
#include "gf/gf2k.h"

namespace gfa {
namespace {

struct ChainRun {
  std::uint64_t digest = 0;  // of the sorted remainder; 0 when tripped
  std::size_t peak = 0;      // peak_terms; 0 when tripped
  std::size_t trip_gate = 0; // 1 + index of the tripping gate; 0 if none
};

std::uint64_t fnv(std::uint64_t h, std::uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    h ^= (word >> (8 * i)) & 0xFF;
    h *= 0x100000001b3ull;
  }
  return h;
}

/// The chain as the extractor seeds and runs it, one gate per segment so a
/// trip names its gate.
ChainRun run_chain(const Netlist& nl, const Gf2k& field, std::size_t max_terms) {
  std::vector<bool> substitutable(nl.num_nets(), true);
  for (NetId n : nl.inputs()) substitutable[n] = false;
  std::vector<NetId> gates;
  for (NetId n : rato_net_order(nl))
    if (substitutable[n]) gates.push_back(n);
  BackwardRewriter chain(substitutable, max_terms);
  const Word* out = output_words(nl).at(0);
  for (unsigned j = 0; j < field.k(); ++j)
    chain.add(BitMono{out->bits[j]}, field.alpha_pow(std::uint64_t{j}));
  ChainRun run;
  for (std::size_t i = 0; i < gates.size(); ++i) {
    try {
      chain.run_segment(nl, gates, i, i + 1);
    } catch (const RewriteBudgetExceeded&) {
      run.trip_gate = i + 1;
      return run;
    }
  }
  run.peak = chain.peak_terms();
  std::vector<const BackwardRewriter::TermMap::value_type*> terms;
  for (const auto& t : chain.terms()) terms.push_back(&t);
  std::sort(terms.begin(), terms.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const auto* t : terms) {
    h = fnv(h, t->first.size());
    for (VarId v : t->first) h = fnv(h, v);
    const auto words = t->second.words();
    h = fnv(h, words.size());
    for (std::uint64_t w : words) h = fnv(h, w);
  }
  run.digest = h;
  return run;
}

Netlist make(const std::string& arch, const Gf2k& field) {
  if (arch == "mastrovito") return make_mastrovito_multiplier(field);
  if (arch == "montgomery") return make_montgomery_multiplier_flat(field);
  return make_karatsuba_multiplier(field);
}

struct CircuitPin {
  const char* arch;
  unsigned k;
  std::uint64_t digest;
  std::size_t peak;
  std::size_t half_peak_trip_gate;
};

TEST(ChainDifferential, RemainderPeakAndTripPointArePinned) {
  const CircuitPin pins[] = {
      {"mastrovito", 8, 0xa56aaeaca3c44ed6ull, 64, 50},
      {"montgomery", 8, 0xa56aaeaca3c44ed6ull, 169, 166},
      {"karatsuba", 8, 0xa56aaeaca3c44ed6ull, 64, 69},
      {"mastrovito", 16, 0x126781c121cd8956ull, 256, 206},
      {"montgomery", 16, 0x126781c121cd8956ull, 676, 590},
      {"karatsuba", 16, 0x126781c121cd8956ull, 256, 337},
      {"mastrovito", 64, 0xe2c7f21826ca9dbbull, 4096, 2691},
      {"montgomery", 64, 0xe2c7f21826ca9dbbull, 5184, 5379},
      {"karatsuba", 64, 0xe2c7f21826ca9dbbull, 4096, 3929},
  };
  for (const CircuitPin& pin : pins) {
    SCOPED_TRACE(std::string(pin.arch) + " k=" + std::to_string(pin.k));
    const Gf2k field = Gf2k::make(pin.k);
    const Netlist nl = make(pin.arch, field);
    const ChainRun full = run_chain(nl, field, 0);
    const ChainRun half = run_chain(nl, field, full.peak / 2);
    // A budget one below the peak trips; the peak itself does not.
    EXPECT_NE(run_chain(nl, field, full.peak - 1).trip_gate, 0u);
    EXPECT_EQ(run_chain(nl, field, full.peak).trip_gate, 0u);
    EXPECT_EQ(full.digest, pin.digest);
    EXPECT_EQ(full.peak, pin.peak);
    EXPECT_EQ(half.trip_gate, pin.half_peak_trip_gate);
  }
}

struct MutantPin {
  const char* arch;
  std::uint64_t seed;
  std::uint64_t digest;  // 0 when over budget
  std::size_t peak;
  std::size_t trip_gate;
};

TEST(ChainDifferential, SeededK16MutantsUnderTheClassifyBudgetArePinned) {
  constexpr std::size_t kClassifyMaxTerms = 2048;
  const MutantPin pins[] = {
      {"montgomery", 1, 0x0000000000000000ull, 0, 752},
      {"montgomery", 2, 0x0000000000000000ull, 0, 672},
      {"montgomery", 3, 0x0000000000000000ull, 0, 752},
      {"montgomery", 4, 0x0000000000000000ull, 0, 688},
      {"montgomery", 5, 0x78e05b1497d9c39cull, 702, 0},
      {"montgomery", 6, 0x84069527475193a0ull, 1146, 0},
      {"montgomery", 7, 0x0000000000000000ull, 0, 748},
      {"montgomery", 8, 0x00b508bf761ae7b6ull, 678, 0},
      {"mastrovito", 1, 0x067d85d20bf360ceull, 247, 0},
      {"mastrovito", 2, 0x0709aa245748cd17ull, 257, 0},
      {"mastrovito", 3, 0x732aaa77dc30b716ull, 254, 0},
      {"mastrovito", 4, 0x89380b308808e3c7ull, 257, 0},
      {"mastrovito", 5, 0xe36d2ea11154309bull, 257, 0},
      {"mastrovito", 6, 0xc4ac54f4e9988896ull, 260, 0},
      {"mastrovito", 7, 0xd49d9e75db14baffull, 357, 0},
      {"mastrovito", 8, 0x854de38a3b736a85ull, 255, 0},
  };
  const Gf2k field = Gf2k::make(16);
  const Netlist goldens[] = {make("montgomery", field),
                             make("mastrovito", field)};
  for (const MutantPin& pin : pins) {
    SCOPED_TRACE(std::string(pin.arch) + " seed " + std::to_string(pin.seed));
    const Netlist& golden = goldens[std::string(pin.arch) == "mastrovito"];
    const Netlist mutant = inject_random_bug(golden, pin.seed);
    const ChainRun run = run_chain(mutant, field, kClassifyMaxTerms);
    EXPECT_EQ(run.digest, pin.digest);
    EXPECT_EQ(run.peak, pin.peak);
    EXPECT_EQ(run.trip_gate, pin.trip_gate);
  }
}

}  // namespace
}  // namespace gfa
