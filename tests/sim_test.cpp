#include "circuit/sim.h"

#include <gtest/gtest.h>

#include "circuit/mastrovito.h"
#include "test_util.h"

namespace gfa {
namespace {

TEST(Simulate, GateSemantics) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId g_and = nl.add_gate(GateType::kAnd, {a, b});
  const NetId g_or = nl.add_gate(GateType::kOr, {a, b});
  const NetId g_xor = nl.add_gate(GateType::kXor, {a, b});
  const NetId g_nand = nl.add_gate(GateType::kNand, {a, b});
  const NetId g_nor = nl.add_gate(GateType::kNor, {a, b});
  const NetId g_xnor = nl.add_gate(GateType::kXnor, {a, b});
  const NetId g_not = nl.add_gate(GateType::kNot, {a});
  const NetId g_buf = nl.add_gate(GateType::kBuf, {b});
  const NetId c0 = nl.add_const(false);
  const NetId c1 = nl.add_const(true);

  // Lanes: a = 0011, b = 0101 (bit i = lane i).
  const auto v = simulate(nl, {0b0011, 0b0101});
  const std::uint64_t mask = 0b1111;
  EXPECT_EQ(v[g_and] & mask, 0b0001u);
  EXPECT_EQ(v[g_or] & mask, 0b0111u);
  EXPECT_EQ(v[g_xor] & mask, 0b0110u);
  EXPECT_EQ(v[g_nand] & mask, 0b1110u);
  EXPECT_EQ(v[g_nor] & mask, 0b1000u);
  EXPECT_EQ(v[g_xnor] & mask, 0b1001u);
  EXPECT_EQ(v[g_not] & mask, 0b1100u);
  EXPECT_EQ(v[g_buf] & mask, 0b0101u);
  EXPECT_EQ(v[c0] & mask, 0b0000u);
  EXPECT_EQ(v[c1] & mask, 0b1111u);
}

TEST(Simulate, NaryGates) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId c = nl.add_input("c");
  const NetId g_and = nl.add_gate(GateType::kAnd, {a, b, c});
  const NetId g_xor = nl.add_gate(GateType::kXor, {a, b, c});
  const auto v = simulate(nl, {0b00001111, 0b00110011, 0b01010101});
  const std::uint64_t mask = 0xFF;
  EXPECT_EQ(v[g_and] & mask, 0b00000001u);
  EXPECT_EQ(v[g_xor] & mask, 0b01101001u);
}

TEST(Simulate, NonMonotoneNetIdOrderMatchesKahnOrderLaneForLane) {
  const Gf2k field = Gf2k::make(8);
  const Netlist rewired = test::xor_minterm_into_z0(
      make_mastrovito_multiplier(field), ~std::uint64_t{0});
  // Premise: NetId order is no longer a topological order.
  bool non_monotone = false;
  for (NetId n = 0; n < rewired.num_nets(); ++n)
    for (NetId f : rewired.gate(n).fanins) non_monotone |= f >= n;
  ASSERT_TRUE(non_monotone);

  // The same circuit renumbered in Kahn order, so its NetIds are monotone.
  Netlist renumbered;
  std::vector<NetId> to(rewired.num_nets(), kNoNet);
  for (NetId n : rewired.inputs())
    to[n] = renumbered.add_input(rewired.gate(n).name);
  for (NetId n : rewired.topological_order()) {
    const Netlist::Gate& g = rewired.gate(n);
    if (g.type == GateType::kInput) continue;
    if (g.type == GateType::kConst0 || g.type == GateType::kConst1) {
      to[n] = renumbered.add_const(g.type == GateType::kConst1, g.name);
      continue;
    }
    std::vector<NetId> fanins;
    for (NetId f : g.fanins) fanins.push_back(to[f]);
    to[n] = renumbered.add_gate(g.type, fanins, g.name);
  }

  test::Rng rng(7);
  std::vector<std::uint64_t> lanes(rewired.inputs().size());
  // Lane 0 is the all-ones point, the one input the minterm changes.
  for (std::uint64_t& l : lanes) l = rng.next() | 1u;
  const auto got = simulate(rewired, lanes);
  const auto want = simulate(renumbered, lanes);
  for (NetId n = 0; n < rewired.num_nets(); ++n)
    ASSERT_EQ(got[n], want[to[n]]) << "net " << rewired.gate(n).name;
}

TEST(SimulateWords, Fig2MultiplierMatchesFieldMul) {
  const Gf2k field(Gf2Poly::from_bits(0b111));  // F_4
  const Netlist nl = test::make_fig2_multiplier();
  std::vector<Gf2Poly> as, bs, expect;
  for (std::uint64_t a = 0; a < 4; ++a)
    for (std::uint64_t b = 0; b < 4; ++b) {
      as.push_back(field.from_bits(a));
      bs.push_back(field.from_bits(b));
      expect.push_back(field.mul(field.from_bits(a), field.from_bits(b)));
    }
  const auto got = simulate_words(
      nl, *nl.find_word("Z"),
      {{nl.find_word("A"), as}, {nl.find_word("B"), bs}});
  EXPECT_EQ(got, expect);
}

TEST(SimulateWords, RejectsBadLaneCounts) {
  const Netlist nl = test::make_fig2_multiplier();
  const Gf2k field(Gf2Poly::from_bits(0b111));
  std::vector<Gf2Poly> two{field.one(), field.one()};
  std::vector<Gf2Poly> three{field.one(), field.one(), field.one()};
  EXPECT_THROW(simulate_words(nl, *nl.find_word("Z"),
                              {{nl.find_word("A"), two},
                               {nl.find_word("B"), three}}),
               std::invalid_argument);
  EXPECT_THROW(
      simulate_words(nl, *nl.find_word("Z"), {{nl.find_word("A"), {}}}),
      std::invalid_argument);
}

}  // namespace
}  // namespace gfa
