#include "abstraction/word_lift.h"

#include <gtest/gtest.h>

#include <chrono>
#include <stdexcept>
#include <utility>
#include <vector>

#include "baselines/interpolation.h"
#include "gf/normal_basis.h"
#include "test_util.h"

namespace gfa {
namespace {

/// The Gauss–Jordan oracle: C = M^{-1} over F_{2^k}, M[j][i] =
/// basis[i]^{2^j}. O(k³) field operations; the lift itself never inverts.
std::vector<std::vector<Gf2k::Elem>> gauss_jordan_expansion(
    const Gf2k& field, const std::vector<Gf2k::Elem>& basis) {
  const std::size_t k = field.k();
  std::vector<std::vector<Gf2k::Elem>> m(k, std::vector<Gf2k::Elem>(k));
  for (std::size_t i = 0; i < k; ++i) {
    Gf2k::Elem cur = field.reduce(basis[i]);
    for (std::size_t j = 0; j < k; ++j) {
      m[j][i] = cur;
      cur = field.square(cur);
    }
  }
  std::vector<std::vector<Gf2k::Elem>> inv(k, std::vector<Gf2k::Elem>(k));
  for (std::size_t i = 0; i < k; ++i) inv[i][i] = field.one();
  for (std::size_t col = 0; col < k; ++col) {
    std::size_t pivot = col;
    while (pivot < k && m[pivot][col].is_zero()) ++pivot;
    if (pivot == k) throw std::logic_error("oracle: singular matrix");
    std::swap(m[pivot], m[col]);
    std::swap(inv[pivot], inv[col]);
    const Gf2k::Elem s = field.inv(m[col][col]);
    for (std::size_t j = 0; j < k; ++j) {
      m[col][j] = field.mul(m[col][j], s);
      inv[col][j] = field.mul(inv[col][j], s);
    }
    for (std::size_t row = 0; row < k; ++row) {
      if (row == col || m[row][col].is_zero()) continue;
      const Gf2k::Elem f = m[row][col];
      for (std::size_t j = 0; j < k; ++j) {
        m[row][j] += field.mul(f, m[col][j]);
        inv[row][j] += field.mul(f, inv[col][j]);
      }
    }
  }
  return inv;
}

void expect_matches_oracle(const Gf2k& field, const WordLift& lift,
                           const std::vector<Gf2k::Elem>& basis) {
  const auto oracle = gauss_jordan_expansion(field, basis);
  for (unsigned i = 0; i < field.k(); ++i)
    for (unsigned j = 0; j < field.k(); ++j)
      ASSERT_EQ(lift.entry(i, j), oracle[i][j])
          << "k=" << field.k() << " entry (" << i << ", " << j << ")";
}

class WordLiftOracle : public ::testing::TestWithParam<unsigned> {};

TEST_P(WordLiftOracle, TraceDualMatrixEqualsGaussJordanInverse) {
  const Gf2k field = Gf2k::make(GetParam());
  std::vector<Gf2k::Elem> poly_basis;
  for (unsigned i = 0; i < field.k(); ++i)
    poly_basis.push_back(field.alpha_pow(std::uint64_t{i}));
  expect_matches_oracle(field, WordLift(&field), poly_basis);
}

INSTANTIATE_TEST_SUITE_P(Sizes, WordLiftOracle,
                         ::testing::Values(2, 3, 8, 16, 32, 64, 96, 163));

TEST(WordLiftOracleNormal, TraceDualMatrixEqualsGaussJordanInverse) {
  for (unsigned k : {4u, 8u, 13u}) {
    const Gf2k field = Gf2k::make(k);
    const NormalBasis nb = NormalBasis::find(field);
    const WordLift lift(&field, &nb.basis());
    expect_matches_oracle(field, lift, nb.basis());
    EXPECT_TRUE(lift.has_basis(&nb.basis()));
    EXPECT_FALSE(lift.has_basis(nullptr));
  }
}

TEST(WordLiftBasis, PolynomialBasisMatchesExplicitPowers) {
  const Gf2k field = Gf2k::make(8);
  std::vector<Gf2k::Elem> poly_basis;
  for (unsigned i = 0; i < field.k(); ++i)
    poly_basis.push_back(field.alpha_pow(std::uint64_t{i}));
  const WordLift lift(&field);
  EXPECT_TRUE(lift.has_basis(nullptr));
  EXPECT_TRUE(lift.has_basis(&poly_basis));
  std::swap(poly_basis[0], poly_basis[1]);
  EXPECT_FALSE(lift.has_basis(&poly_basis));
}

TEST(WordLiftBasis, DependentBasisThrows) {
  const Gf2k field = Gf2k::make(8);
  std::vector<Gf2k::Elem> basis;
  for (unsigned i = 0; i < field.k(); ++i)
    basis.push_back(field.alpha_pow(std::uint64_t{i}));
  basis[3] = basis[1] + basis[2];
  EXPECT_THROW(WordLift(&field, &basis), std::logic_error);
}

class WordLiftTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(WordLiftTest, ExpansionRecoversBitsFromWordValue) {
  // For every field element A, the expansion a_i = Σ_j C[i][j]·A^{2^j}
  // must reproduce A's coordinate bits.
  const Gf2k field = Gf2k::make(GetParam());
  const WordLift lift(&field);
  std::vector<std::vector<Gf2k::Elem>> c(field.k());
  for (unsigned i = 0; i < field.k(); ++i)
    for (unsigned j = 0; j < field.k(); ++j) c[i].push_back(lift.entry(i, j));
  test::Rng rng(GetParam() * 13 + 5);
  const int samples = field.k() > 64 ? 6 : 24;
  for (int t = 0; t < samples; ++t) {
    const auto a = rng.elem(field);
    // Precompute A^{2^j}.
    std::vector<Gf2k::Elem> powers(field.k());
    powers[0] = a;
    for (unsigned j = 1; j < field.k(); ++j)
      powers[j] = field.square(powers[j - 1]);
    for (unsigned i = 0; i < field.k(); ++i) {
      Gf2k::Elem bit = field.zero();
      for (unsigned j = 0; j < field.k(); ++j)
        bit += field.mul(c[i][j], powers[j]);
      const Gf2k::Elem expect =
          a.coeff(i) ? field.one() : field.zero();
      EXPECT_EQ(bit, expect) << "k=" << GetParam() << " bit " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, WordLiftTest,
                         ::testing::Values(2, 3, 4, 5, 8, 13, 16, 32, 64, 96,
                                           163));

TEST(WordLiftDeadline, OneCubicTermStopsAtTheDeadline) {
  // At k = 64 one cubic term expands to k³ ≈ 262K word-level terms in a
  // single product, which takes seconds; the deadline is polled inside it.
  const Gf2k field = Gf2k::make(64);
  VarPool pool;
  std::vector<VarId> abits, bbits;
  for (unsigned i = 0; i < 64; ++i)
    abits.push_back(pool.intern("a" + std::to_string(i), VarKind::kBit));
  for (unsigned i = 0; i < 64; ++i)
    bbits.push_back(pool.intern("b" + std::to_string(i), VarKind::kBit));
  const VarId a = pool.intern("A", VarKind::kWord);
  const VarId b = pool.intern("B", VarKind::kWord);
  BitPoly r(&field);
  r.add_term({abits[0], abits[1], bbits[0]}, field.one());
  const WordLift lift(&field);
  ExecControl control;
  control.deadline = Deadline::after(0.1);
  const auto start = std::chrono::steady_clock::now();
  try {
    lift.lift(r, {{a, abits}, {b, bbits}}, pool, &control);
    FAIL() << "the lift outran a 100 ms deadline";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status.code(), StatusCode::kDeadlineExceeded);
  }
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  EXPECT_LT(elapsed, 0.6);
}

class WordLiftSmall : public ::testing::Test {
 protected:
  WordLiftSmall() : field_(Gf2k::make(3)), lift_(&field_) {
    for (unsigned i = 0; i < 3; ++i)
      abits_.push_back(pool_.intern("a" + std::to_string(i), VarKind::kBit));
    for (unsigned i = 0; i < 3; ++i)
      bbits_.push_back(pool_.intern("b" + std::to_string(i), VarKind::kBit));
    a_ = pool_.intern("A", VarKind::kWord);
    b_ = pool_.intern("B", VarKind::kWord);
  }
  std::vector<WordLift::WordBinding> bindings() {
    return {{a_, abits_}, {b_, bbits_}};
  }
  /// Checks that lifted(A, B) equals r(bits of A, bits of B) for all points.
  void expect_pointwise_equal(const BitPoly& r, const MPoly& lifted) {
    for (const auto& av : all_field_elements(field_)) {
      for (const auto& bv : all_field_elements(field_)) {
        std::vector<bool> assign(pool_.size(), false);
        for (unsigned i = 0; i < 3; ++i) {
          assign[abits_[i]] = av.coeff(i);
          assign[bbits_[i]] = bv.coeff(i);
        }
        const auto direct = r.eval(assign);
        const auto via_words = lifted.eval([&](VarId v) {
          return v == a_ ? av : bv;
        });
        ASSERT_EQ(direct, via_words)
            << "A=" << field_.to_string(av) << " B=" << field_.to_string(bv);
      }
    }
  }
  Gf2k field_;
  WordLift lift_;
  VarPool pool_;
  std::vector<VarId> abits_, bbits_;
  VarId a_, b_;
};

TEST_F(WordLiftSmall, LiftsLinearForm) {
  // r = Σ α^i·a_i is exactly the word A.
  BitPoly r(&field_);
  for (unsigned i = 0; i < 3; ++i)
    r.add_term({abits_[i]}, field_.alpha_pow(std::uint64_t{i}));
  const MPoly g = lift_.lift(r, bindings(), pool_);
  EXPECT_EQ(g, MPoly::variable(&field_, a_));
}

TEST_F(WordLiftSmall, LiftsMultiplierRemainder) {
  // r = Σ_{i,j} α^{i+j}·a_i·b_j  — the Mastrovito remainder — lifts to A·B.
  BitPoly r(&field_);
  for (unsigned i = 0; i < 3; ++i)
    for (unsigned j = 0; j < 3; ++j)
      r.add_term({std::min(abits_[i], bbits_[j]), std::max(abits_[i], bbits_[j])},
                 field_.alpha_pow(std::uint64_t{i} + j));
  const MPoly g = lift_.lift(r, bindings(), pool_);
  const MPoly ab = MPoly::variable(&field_, a_) * MPoly::variable(&field_, b_);
  EXPECT_EQ(g, ab);
}

TEST_F(WordLiftSmall, LiftsConstant) {
  BitPoly r = BitPoly::constant(&field_, field_.alpha());
  const MPoly g = lift_.lift(r, bindings(), pool_);
  EXPECT_EQ(g, MPoly::constant(&field_, field_.alpha()));
}

TEST_F(WordLiftSmall, BilinearPathPointwiseCorrect) {
  test::Rng rng(42);
  for (int t = 0; t < 5; ++t) {
    BitPoly r(&field_);
    // Random bilinear + linear + constant polynomial.
    for (unsigned i = 0; i < 3; ++i)
      for (unsigned j = 0; j < 3; ++j)
        r.add_term({std::min(abits_[i], bbits_[j]), std::max(abits_[i], bbits_[j])},
                   rng.elem(field_));
    for (unsigned i = 0; i < 3; ++i) {
      r.add_term({abits_[i]}, rng.elem(field_));
      r.add_term({bbits_[i]}, rng.elem(field_));
    }
    r.add_term({}, rng.elem(field_));
    expect_pointwise_equal(r, lift_.lift(r, bindings(), pool_));
  }
}

TEST_F(WordLiftSmall, SameWordQuadraticTerms) {
  // a_0·a_1 involves one word twice — exercises the uv == vv branch.
  BitPoly r(&field_);
  r.add_term({abits_[0], abits_[1]}, field_.one());
  expect_pointwise_equal(r, lift_.lift(r, bindings(), pool_));
}

TEST_F(WordLiftSmall, GeneralPathHandlesCubicTerms) {
  BitPoly r(&field_);
  r.add_term({abits_[0], abits_[1], bbits_[2]}, field_.alpha());
  r.add_term({abits_[2]}, field_.one());
  EXPECT_GT(r.max_monomial_size(), 2u);  // forces the general path
  expect_pointwise_equal(r, lift_.lift(r, bindings(), pool_));
}

TEST_F(WordLiftSmall, GeneralAndBilinearPathsAgree) {
  // A degree-2 polynomial routed through both paths must lift identically.
  test::Rng rng(77);
  BitPoly r(&field_);
  for (unsigned i = 0; i < 3; ++i)
    for (unsigned j = 0; j < 3; ++j)
      r.add_term({std::min(abits_[i], bbits_[j]), std::max(abits_[i], bbits_[j])},
                 rng.elem(field_));
  BitPoly r_with_cubic = r;
  r_with_cubic.add_term({abits_[0], abits_[1], abits_[2]}, field_.one());
  // lift(r + cubic) - lift(cubic) == lift(r) exercises path agreement
  // indirectly; directly compare bilinear lift to pointwise semantics too.
  const MPoly bilinear = lift_.lift(r, bindings(), pool_);
  expect_pointwise_equal(r, bilinear);
  const MPoly general = lift_.lift(r_with_cubic, bindings(), pool_);
  expect_pointwise_equal(r_with_cubic, general);
}

TEST_F(WordLiftSmall, UnboundBitThrows) {
  VarPool pool2 = pool_;
  const VarId stray = pool2.intern("stray", VarKind::kBit);
  BitPoly r(&field_);
  r.add_term({stray}, field_.one());
  EXPECT_THROW(lift_.lift(r, bindings(), pool2), std::logic_error);
}

/// lift is linear in r, so lift(r) = lift(r + x) + lift(x). With x cubic,
/// both right-hand lifts take the general path while lift(r) takes the
/// bilinear one.
MPoly lift_through_general_path(const WordLift& lift, const BitPoly& r,
                                const BitPoly& cubic,
                                const std::vector<WordLift::WordBinding>& b,
                                const VarPool& pool) {
  BitPoly with_cubic = r;
  with_cubic += cubic;
  MPoly sum = lift.lift(with_cubic, b, pool);
  sum += lift.lift(cubic, b, pool);
  return sum;
}

TEST(WordLiftPaths, BilinearEqualsGeneralOnRandomBilinearRemainders) {
  for (unsigned k : {3u, 8u, 16u}) {
    const Gf2k field = Gf2k::make(k);
    const WordLift lift(&field);
    VarPool pool;
    std::vector<VarId> abits, bbits;
    for (unsigned i = 0; i < k; ++i)
      abits.push_back(pool.intern("a" + std::to_string(i), VarKind::kBit));
    for (unsigned i = 0; i < k; ++i)
      bbits.push_back(pool.intern("b" + std::to_string(i), VarKind::kBit));
    const std::vector<WordLift::WordBinding> b = {
        {pool.intern("A", VarKind::kWord), abits},
        {pool.intern("B", VarKind::kWord), bbits}};
    const auto pair = [](VarId x, VarId y) {
      return BitMono{std::min(x, y), std::max(x, y)};
    };
    test::Rng rng(1000 + k);
    for (int round = 0; round < 3; ++round) {
      BitPoly r(&field);
      for (int n = 0; n < 6 * static_cast<int>(k); ++n) {
        const VarId x = rng.below(2) ? abits[rng.below(k)] : bbits[rng.below(k)];
        const VarId y = rng.below(2) ? abits[rng.below(k)] : bbits[rng.below(k)];
        if (x == y) r.add_term({x}, rng.elem(field));
        else r.add_term(pair(x, y), rng.elem(field));
      }
      r.add_term({}, rng.elem(field));
      ASSERT_LE(r.max_monomial_size(), 2u);
      BitPoly cubic(&field);
      cubic.add_term({abits[0], abits[1], bbits[k - 1]}, rng.elem(field));
      EXPECT_EQ(lift.lift(r, b, pool),
                lift_through_general_path(lift, r, cubic, b, pool))
          << "k=" << k << " round " << round;
    }
  }
}

}  // namespace
}  // namespace gfa
