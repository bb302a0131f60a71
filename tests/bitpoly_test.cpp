#include "abstraction/bitpoly.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "abstraction/rewriter.h"
#include "test_util.h"

namespace gfa {
namespace {

class BitPolyTest : public ::testing::Test {
 protected:
  BitPolyTest() : field_(Gf2k::make(4)) {
    x_ = pool_.intern("x", VarKind::kBit);
    y_ = pool_.intern("y", VarKind::kBit);
    z_ = pool_.intern("z", VarKind::kBit);
  }
  BitPoly var(VarId v) { return BitPoly::variable(&field_, v); }
  BitPoly one() { return BitPoly::constant(&field_, field_.one()); }
  Gf2k field_;
  VarPool pool_;
  VarId x_, y_, z_;
};

TEST_F(BitPolyTest, MonoMulIsUnion) {
  EXPECT_EQ(bitmono_mul(BitMono{0, 2}, BitMono{1, 2}), (BitMono{0, 1, 2}));
  EXPECT_EQ(bitmono_mul(BitMono{}, BitMono{3}), (BitMono{3}));
  EXPECT_EQ(bitmono_mul(BitMono{5}, BitMono{5}), (BitMono{5}));  // x² = x
}

TEST_F(BitPolyTest, AdditionCancels) {
  BitPoly p = var(x_) + var(y_);
  EXPECT_EQ(p.num_terms(), 2u);
  p += var(x_);
  EXPECT_EQ(p.num_terms(), 1u);
  EXPECT_EQ(p.coeff({y_}), field_.one());
  EXPECT_TRUE(p.coeff({x_}).is_zero());
}

TEST_F(BitPolyTest, MultiplicationIsMultilinear) {
  // (x + y)·(x + y) = x + y over bits (x² = x, cross terms cancel).
  const BitPoly s = var(x_) + var(y_);
  EXPECT_EQ(s * s, s);
  // (x + 1)(y + 1) = xy + x + y + 1.
  const BitPoly p = (var(x_) + one()) * (var(y_) + one());
  EXPECT_EQ(p.num_terms(), 4u);
  EXPECT_EQ(p.coeff({x_, y_}), field_.one());
  EXPECT_EQ(p.coeff({}), field_.one());
}

TEST_F(BitPolyTest, ScaledMultipliesCoefficients) {
  const auto alpha = field_.alpha();
  const BitPoly p = (var(x_) + one()).scaled(alpha);
  EXPECT_EQ(p.coeff({x_}), alpha);
  EXPECT_EQ(p.coeff({}), alpha);
  EXPECT_TRUE(p.scaled(field_.zero()).is_zero());
}

TEST_F(BitPolyTest, EvalAgreesWithStructure) {
  // p = α·x·y + y + 1.
  BitPoly p(&field_);
  p.add_term({x_, y_}, field_.alpha());
  p.add_term({y_}, field_.one());
  p.add_term({}, field_.one());
  EXPECT_EQ(p.eval({true, true, false}),
            field_.add(field_.alpha(), field_.zero()));  // α + 1 + 1
  EXPECT_EQ(p.eval({true, false, false}), field_.one());
  EXPECT_EQ(p.eval({false, true, false}), field_.zero());  // 1 + 1
}

TEST_F(BitPolyTest, MaxMonomialSize) {
  BitPoly p(&field_);
  EXPECT_EQ(p.max_monomial_size(), 0u);
  p.add_term({}, field_.one());
  EXPECT_EQ(p.max_monomial_size(), 0u);
  p.add_term({x_, y_, z_}, field_.one());
  EXPECT_EQ(p.max_monomial_size(), 3u);
}

TEST_F(BitPolyTest, ToStringDeterministic) {
  BitPoly p(&field_);
  p.add_term({y_}, field_.one());
  p.add_term({x_}, field_.alpha());
  EXPECT_EQ(p.to_string(pool_), "α*x + y");
}

TEST_F(BitPolyTest, RewriterSubstitutesOnlyMatchingTerms) {
  // r = α·x·y + z ; substitute x := z + 1 → α·y·z + α·y + z.
  BackwardRewriter rw({true, true, true});
  rw.add({x_, y_}, field_.alpha());
  rw.add({z_}, field_.one());
  rw.substitute(x_, FlatTail{{BitMono{z_}, BitMono{}}});
  EXPECT_EQ(rw.num_terms(), 3u);
  EXPECT_EQ(rw.terms().at({y_, z_}), field_.alpha());
  EXPECT_EQ(rw.terms().at({y_}), field_.alpha());
  EXPECT_EQ(rw.terms().at({z_}), field_.one());
}

TEST_F(BitPolyTest, RewriterMultilinearCancellation) {
  // α·x·y with x := y + 1 is (y+1)·y = y² + y = 0 under x² = x.
  BackwardRewriter rw({true, true, true});
  rw.add({x_, y_}, field_.alpha());
  rw.substitute(x_, FlatTail{{BitMono{y_}, BitMono{}}});
  EXPECT_EQ(rw.num_terms(), 0u);
}

TEST_F(BitPolyTest, RewriterHandlesCancellationThenReuse) {
  BackwardRewriter rw({true, true, true});
  rw.add({x_}, field_.one());
  rw.add({x_}, field_.one());  // cancels to zero
  EXPECT_EQ(rw.num_terms(), 0u);
  rw.add({x_}, field_.alpha());  // re-created after cancellation
  rw.substitute(x_, FlatTail{{BitMono{y_}}});
  EXPECT_EQ(rw.terms().at({y_}), field_.alpha());
}

TEST_F(BitPolyTest, RewriterBudget) {
  BackwardRewriter rw({true, true, true}, /*max_terms=*/1);
  rw.add({x_}, field_.one());
  EXPECT_THROW(rw.add({y_}, field_.one()), RewriteBudgetExceeded);
}

TEST_F(BitPolyTest, TailPolynomialsMatchGateSemantics) {
  // Every tail the chain builds, read as the XOR of its monomials (each an
  // AND of its bits, the empty one being 1), must equal the gate's output on
  // every input point: 2- and 3-input gates, unsorted and duplicated
  // fanins, and a 17-fanin gate past fill_gate_tail's stack buffer. Each
  // monomial must also be well formed (strictly increasing ids), or it
  // would never meet its equal in the term map.
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId c = nl.add_input("c");
  const auto gate_value = [](GateType t, const std::vector<NetId>& fanins,
                             const std::vector<bool>& at) {
    bool all = true, any = false, parity = false;
    for (NetId f : fanins) {
      all = all && at[f];
      any = any || at[f];
      parity = parity != at[f];
    }
    switch (t) {
      case GateType::kConst0: return false;
      case GateType::kConst1: return true;
      case GateType::kBuf: return bool(at[fanins[0]]);
      case GateType::kNot: return !at[fanins[0]];
      case GateType::kAnd: return all;
      case GateType::kNand: return !all;
      case GateType::kOr: return any;
      case GateType::kNor: return !any;
      case GateType::kXor: return parity;
      case GateType::kXnor: return !parity;
      case GateType::kInput: break;
    }
    ADD_FAILURE() << "inputs have no tail";
    return false;
  };
  const auto tail_value = [](const FlatTail& tail,
                              const std::vector<bool>& at) {
    bool value = false;
    for (const BitMono& m : tail.monos) {
      bool product = true;
      for (VarId v : m) product = product && at[v];
      value = value != product;
    }
    return value;
  };
  const NetId abc[] = {a, b, c};
  std::vector<NetId> wide;
  for (int i = 0; i < 17; ++i) wide.push_back(abc[i % 3]);
  const std::vector<std::vector<NetId>> fanin_sets = {
      {a, b}, {b, a}, {a, b, c}, {c, a, b}, {a, a, b}, {a, a}, {b, a, b, a},
      wide};
  struct Case {
    GateType type;
    std::vector<NetId> fanins;
  };
  std::vector<Case> cases = {{GateType::kConst0, {}},
                             {GateType::kConst1, {}},
                             {GateType::kBuf, {a}},
                             {GateType::kBuf, {c}},
                             {GateType::kNot, {a}},
                             {GateType::kNot, {b}}};
  for (GateType t : {GateType::kAnd, GateType::kNand, GateType::kOr,
                     GateType::kNor, GateType::kXor, GateType::kXnor})
    for (const std::vector<NetId>& fanins : fanin_sets)
      cases.push_back({t, fanins});
  FlatTail tail;  // reused across gates, as run_segment reuses it
  for (const Case& cs : cases) {
    fill_gate_tail(Netlist::Gate{cs.type, cs.fanins, "g"}, tail);
    for (const BitMono& m : tail.monos) {
      const std::vector<VarId> ids(m.begin(), m.end());
      EXPECT_TRUE(std::adjacent_find(ids.begin(), ids.end(),
                                     std::greater_equal<VarId>()) ==
                  ids.end())
          << gate_type_name(cs.type) << " with " << cs.fanins.size()
          << " fanins built a malformed monomial";
    }
    for (int i = 0; i < 8; ++i) {
      const std::vector<bool> at = {bool(i & 1), bool(i & 2), bool(i & 4)};
      EXPECT_EQ(tail_value(tail, at), gate_value(cs.type, cs.fanins, at))
          << gate_type_name(cs.type) << " with " << cs.fanins.size()
          << " fanins at a=" << at[a] << " b=" << at[b] << " c=" << at[c];
    }
  }
}

// ---------------------------------------------------------------------------
// Distribution regressions for the BitPoly key hash: BitMono built the way
// callers build it (brace lists of net ids), hashed by PackedMonoHash, the
// functor the term maps and the polynomial facade bucket with.
// ---------------------------------------------------------------------------

template <typename Gen>
std::size_t max_bucket_load(std::size_t n, std::size_t buckets, unsigned shift,
                            Gen mono_of) {
  PackedMonoHash hash;
  std::vector<std::size_t> load(buckets, 0);
  for (std::size_t i = 0; i < n; ++i) {
    ++load[(hash(mono_of(i)) >> shift) & (buckets - 1)];
  }
  return *std::max_element(load.begin(), load.end());
}

TEST(BitMonoHashTest, ConsecutiveIdsSpreadAcrossAllHashBits) {
  // 65536 single-variable monomials over consecutive ids into 1024 buckets:
  // uniform expectation 64 per bucket; 128 allows ~8σ of slack. Checked on
  // the low bits and on the high bits.
  const auto single = [](std::size_t i) { return BitMono{VarId(i)}; };
  EXPECT_LT(max_bucket_load(65536, 1024, 0, single), 128u);
  EXPECT_LT(max_bucket_load(65536, 1024, 54, single), 128u);
}

TEST(BitMonoHashTest, QuadraticMonomialsSpreadAcrossAllHashBits) {
  // The {a_i, b_j} grid of a multiplier's partial products.
  const auto pair = [](std::size_t i) {
    const VarId a = VarId(i % 256), b = VarId(256 + i / 256);
    return BitMono{a, b};
  };
  EXPECT_LT(max_bucket_load(65536, 1024, 0, pair), 128u);
  EXPECT_LT(max_bucket_load(65536, 1024, 54, pair), 128u);
}

TEST(BitMonoHashTest, SingleBitFlipAvalanchesHalfTheOutput) {
  // Flipping one input bit should flip ~32 output bits.
  PackedMonoHash hash;
  std::uint64_t total_flipped = 0;
  const std::size_t trials = 4096;
  for (std::size_t i = 0; i < trials; ++i) {
    const VarId v = VarId(i);
    const std::uint64_t h1 = hash(BitMono{v});
    const std::uint64_t h2 = hash(BitMono{VarId(v ^ 1u)});
    total_flipped += __builtin_popcountll(h1 ^ h2);
  }
  const double avg = static_cast<double>(total_flipped) / trials;
  EXPECT_GT(avg, 28.0);
  EXPECT_LT(avg, 36.0);
}

TEST(BitMonoHashTest, HashDependsOnEveryVariable) {
  PackedMonoHash hash;
  EXPECT_NE(hash(BitMono{1, 2, 3}), hash(BitMono{1, 2, 4}));
  EXPECT_NE(hash(BitMono{1, 2, 3}), hash(BitMono{0, 2, 3}));
  EXPECT_NE(hash(BitMono{}), hash(BitMono{0}));
}

}  // namespace
}  // namespace gfa
