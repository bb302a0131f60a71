// Differential tests pinning the tiered fast kernels (gf/gf2k_kernels.h)
// against the generic Gf2Poly path: every tier — single-word Barrett
// (k <= 64), sparse-modulus fold (NIST sizes), generic (dense moduli) — must
// agree with schoolbook multiply + long division, exhaustively at small k,
// on random elements elsewhere, and across the 64->65 tier boundary.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "gf/gf2k.h"
#include "gf/gf2k_kernels.h"
#include "gf2/irreducible.h"
#include "rabin_oracle.h"
#include "test_util.h"

namespace gfa {
namespace {

/// Deterministic pseudo-random canonical element (splitmix-style).
Gf2Poly pseudo_elem(unsigned k, std::uint64_t& state) {
  Gf2Poly p;
  for (unsigned base = 0; base < k; base += 64) {
    state += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    z ^= z >> 31;
    const unsigned bits = k - base < 64 ? k - base : 64;
    for (unsigned i = 0; i < bits; ++i)
      if ((z >> i) & 1) p.set_coeff(base + i, true);
  }
  return p;
}

class KernelDifferential : public ::testing::TestWithParam<unsigned> {};

TEST_P(KernelDifferential, MulSquareInvMatchGenericPath) {
  const unsigned k = GetParam();
  const Gf2k field = Gf2k::make(k);
  const Gf2Poly& m = field.modulus();
  std::uint64_t state = 0xC0FFEE ^ k;
  const int rounds = k > 128 ? 40 : 200;
  for (int i = 0; i < rounds; ++i) {
    const Gf2Poly a = pseudo_elem(k, state);
    const Gf2Poly b = pseudo_elem(k, state);
    ASSERT_EQ(field.mul(a, b), Gf2Poly::mulmod(a, b, m))
        << "mul mismatch at k=" << k << " round " << i;
    ASSERT_EQ(field.square(a), a.squared().mod(m))
        << "square mismatch at k=" << k << " round " << i;
    if (!a.is_zero()) {
      const Gf2Poly ia = field.inv(a);
      EXPECT_EQ(Gf2Poly::mulmod(a, ia, m), Gf2Poly::one())
          << "inv not an inverse at k=" << k << " round " << i;
      Gf2Poly::ExtGcd eg = Gf2Poly::ext_gcd(a, m);
      ASSERT_EQ(ia, eg.s.mod(m)) << "inv mismatch at k=" << k;
    }
  }
}

TEST_P(KernelDifferential, AlphaPowMatchesFrobeniusLadder) {
  const unsigned k = GetParam();
  const Gf2k field = Gf2k::make(k);
  const Gf2Poly& m = field.modulus();
  const Gf2Poly x = Gf2Poly::monomial(1).mod(m);
  // alpha^e against iterated generic mulmod for small e, and against the
  // generic square-and-multiply for exponents around the group order.
  Gf2Poly cur = Gf2Poly::one();
  for (std::uint64_t e = 0; e < 40; ++e) {
    ASSERT_EQ(field.alpha_pow(e), cur) << "alpha^" << e << " at k=" << k;
    cur = Gf2Poly::mulmod(cur, x, m);
  }
  if (k <= 63) {
    // alpha^(2^k - 1) = 1 and the cycle wraps.
    const std::uint64_t n = (std::uint64_t{1} << k) - 1;
    EXPECT_EQ(field.alpha_pow(n), Gf2Poly::one());
    EXPECT_EQ(field.alpha_pow(n + 7), field.alpha_pow(std::uint64_t{7}));
  }
}

TEST_P(KernelDifferential, MulHandlesNonCanonicalOperands) {
  const unsigned k = GetParam();
  const Gf2k field = Gf2k::make(k);
  std::uint64_t state = 0xDECAF ^ k;
  const Gf2Poly a = pseudo_elem(k, state).shifted_up(k + 3);  // degree >= k
  const Gf2Poly b = pseudo_elem(k, state);
  EXPECT_EQ(field.mul(a, b), Gf2Poly::mulmod(a, b, field.modulus()));
  EXPECT_EQ(field.square(a), a.squared().mod(field.modulus()));
}

INSTANTIATE_TEST_SUITE_P(Sizes, KernelDifferential,
                         ::testing::Values(4u, 8u, 16u, 17u, 32u, 63u, 64u,
                                           65u, 163u, 233u, 571u));

/// Element words padded to the kernels' flat width.
std::vector<std::uint64_t> flat(const Gf2Poly& p, std::size_t w) {
  std::vector<std::uint64_t> out(w, 0);
  std::copy(p.words().begin(), p.words().end(), out.begin());
  return out;
}

/// The word-pointer entry points against Gf2k::mul/square: single products,
/// squares, and length-k strided dot products reduced once.
void expect_flat_kernels_match(const Gf2k& field) {
  const Gf2kKernels& kern = field.kernels();
  const unsigned k = field.k();
  const std::size_t w = kern.elem_words();
  ASSERT_EQ(w, (k + 63) / 64);
  ASSERT_EQ(kern.acc_words(), 2 * w);
  std::uint64_t state = 0xF1A7 ^ k;
  std::vector<std::uint64_t> acc(kern.acc_words()), out(w);
  for (int round = 0; round < 20; ++round) {
    const Gf2Poly a = pseudo_elem(k, state), b = pseudo_elem(k, state);
    std::fill(acc.begin(), acc.end(), 0);
    kern.mul_acc(flat(a, w).data(), flat(b, w).data(), acc.data());
    kern.reduce_acc(acc.data(), out.data());
    ASSERT_EQ(Gf2Poly::from_words(out.data(), w), field.mul(a, b))
        << "mul_acc at k=" << k << " round " << round;
    kern.square_words(flat(a, w).data(), out.data());
    ASSERT_EQ(Gf2Poly::from_words(out.data(), w), field.square(a))
        << "square_words at k=" << k << " round " << round;
  }
  // a is laid out with a stride of two elements, b with one: the strides of
  // a matrix row and column are both exercised by the word lift.
  std::vector<std::uint64_t> as(2 * k * w, 0), bs(k * w, 0);
  for (int round = 0; round < 3; ++round) {
    Gf2Poly expect;
    for (unsigned n = 0; n < k; ++n) {
      const Gf2Poly a = pseudo_elem(k, state), b = pseudo_elem(k, state);
      std::copy_n(flat(a, w).begin(), w, as.begin() + 2 * n * w);
      std::copy_n(flat(b, w).begin(), w, bs.begin() + n * w);
      expect += field.mul(a, b);
    }
    std::fill(acc.begin(), acc.end(), 0);
    kern.dot_acc(as.data(), 2 * w, bs.data(), w, k, acc.data());
    kern.reduce_acc(acc.data(), out.data());
    ASSERT_EQ(Gf2Poly::from_words(out.data(), w), expect)
        << "dot_acc at k=" << k << " round " << round;
    // The same dot product one mul_acc at a time.
    std::fill(acc.begin(), acc.end(), 0);
    for (unsigned n = 0; n < k; ++n)
      kern.mul_acc(&as[2 * n * w], &bs[n * w], acc.data());
    kern.reduce_acc(acc.data(), out.data());
    ASSERT_EQ(Gf2Poly::from_words(out.data(), w), expect)
        << "summed mul_acc at k=" << k << " round " << round;
  }
}

class FlatKernels : public ::testing::TestWithParam<unsigned> {};

TEST_P(FlatKernels, WordPointerEntryPointsMatchFieldMul) {
  expect_flat_kernels_match(Gf2k::make(GetParam()));
}

// Single-word: 8, 16, 32, 64; sparse-mod: 96, 163, 233, 571.
INSTANTIATE_TEST_SUITE_P(Tiers, FlatKernels,
                         ::testing::Values(8u, 16u, 32u, 64u, 96u, 163u, 233u,
                                           571u));

TEST(FlatKernelsGeneric, WordPointerEntryPointsMatchFieldMul) {
  // A modulus of weight > 16 forces the generic tier (see below).
  Gf2Poly m = Gf2Poly::monomial(80);
  for (unsigned i = 0; i < 40; ++i) m.set_coeff(2 * i + 1, true);
  m.set_coeff(0, true);
  const Gf2k field{m};
  ASSERT_EQ(field.kernel_tier(), KernelTier::kGeneric);
  expect_flat_kernels_match(field);
}

TEST(KernelTier, SelectionMatchesFieldSize) {
  EXPECT_EQ(Gf2k::make(8).kernel_tier(), KernelTier::kSingleWord);
  EXPECT_EQ(Gf2k::make(16).kernel_tier(), KernelTier::kSingleWord);
  EXPECT_EQ(Gf2k::make(17).kernel_tier(), KernelTier::kSingleWord);
  EXPECT_EQ(Gf2k::make(64).kernel_tier(), KernelTier::kSingleWord);
  EXPECT_EQ(Gf2k::make(65).kernel_tier(), KernelTier::kSparseMod);
  EXPECT_EQ(Gf2k::make(571).kernel_tier(), KernelTier::kSparseMod);
}

TEST(KernelTier, DenseModulusFallsBackToGeneric) {
  // A dense irreducible of degree 65+ would be needed to hit kGeneric via
  // weight; easier to exercise the tier dispatch through a dense modulus of
  // weight > 16. Build one: x^80 + (random dense tail), irreducibility not
  // required for arithmetic consistency of mul (mod is well-defined).
  Gf2Poly m = Gf2Poly::monomial(80);
  for (unsigned i = 0; i < 40; ++i) m.set_coeff(2 * i + 1, true);
  m.set_coeff(0, true);
  const Gf2k field{m};
  EXPECT_EQ(field.kernel_tier(), KernelTier::kGeneric);
  std::uint64_t state = 99;
  const Gf2Poly a = pseudo_elem(80, state), b = pseudo_elem(80, state);
  EXPECT_EQ(field.mul(a, b), Gf2Poly::mulmod(a, b, m));
}

/// mul, square and (when asked) inv of the single-word tier against
/// (a*b) mod P.
void expect_single_word_matches(const Gf2k& field, std::uint64_t a,
                                std::uint64_t b, bool check_inv = true) {
  const Gf2Poly& m = field.modulus();
  const Gf2Poly pa = Gf2Poly::from_bits(a), pb = Gf2Poly::from_bits(b);
  ASSERT_EQ(field.mul(pa, pb), (pa * pb).mod(m))
      << "mul a=" << a << " b=" << b << " mod " << m.to_string();
  ASSERT_EQ(field.square(pa), (pa * pa).mod(m))
      << "square a=" << a << " mod " << m.to_string();
  if (check_inv && a != 0) {
    ASSERT_EQ((field.inv(pa) * pa).mod(m), Gf2Poly::one())
        << "inv a=" << a << " mod " << m.to_string();
  }
}

TEST(KernelTier, SingleWordMatchesBruteForceExhaustively) {
  // Every pair of elements at k = 2..8.
  for (unsigned k = 2; k <= 8; ++k) {
    const Gf2k field = Gf2k::make(k);
    ASSERT_EQ(field.kernel_tier(), KernelTier::kSingleWord);
    for (std::uint64_t a = 0; a < (1u << k); ++a)
      for (std::uint64_t b = 0; b < (1u << k); ++b)
        ASSERT_NO_FATAL_FAILURE(expect_single_word_matches(field, a, b));
  }
}

/// A dense irreducible of degree k: the first random x^k + tail + 1 that
/// passes both the Rabin test and its heap-arithmetic oracle.
Gf2Poly dense_irreducible(unsigned k, test::Rng& rng) {
  for (;;) {
    Gf2Poly f = Gf2Poly::from_bits(rng.next() | 1);
    for (unsigned i = k; i < 64; ++i) f.set_coeff(i, false);
    f.set_coeff(k, true);
    if (f.weight() > 24 && is_irreducible(f)) {
      EXPECT_TRUE(test::oracle_is_irreducible(f)) << f.to_string();
      return f;
    }
  }
}

TEST(KernelTier, SingleWordMatchesBruteForceOnRandomPairs) {
  // 10^4 random pairs per k, Barrett at every k of the tier, plus dense
  // moduli of degree 63 and 64: at k = 64 both x^64 terms (of P and of
  // μ = ⌊x^128/P⌋) are implicit.
  test::Rng rng(0x5EED);
  std::vector<Gf2k> fields;
  for (unsigned k = 9; k <= 64; ++k) fields.push_back(Gf2k::make(k));
  fields.emplace_back(dense_irreducible(63, rng));
  fields.emplace_back(dense_irreducible(64, rng));
  for (const Gf2k& field : fields) {
    ASSERT_EQ(field.kernel_tier(), KernelTier::kSingleWord);
    const std::uint64_t mask = field.k() == 64
                                   ? ~std::uint64_t{0}
                                   : (std::uint64_t{1} << field.k()) - 1;
    for (int i = 0; i < 10000; ++i) {
      const std::uint64_t a = rng.next() & mask, b = rng.next() & mask;
      ASSERT_NO_FATAL_FAILURE(
          expect_single_word_matches(field, a, b, /*check_inv=*/i % 64 == 0));
    }
  }
}

TEST(Gf2kConstruction, ReducibleModulusThrows) {
  // x^4 + 1 = (x + 1)^4 over GF(2).
  EXPECT_THROW(Gf2k(Gf2Poly::from_exponents({4, 0}), /*check_irreducible=*/true),
               std::invalid_argument);
  // x^2 + x = x(x + 1).
  EXPECT_THROW(Gf2k(Gf2Poly::from_exponents({2, 1}), true),
               std::invalid_argument);
  // Degenerate modulus (degree < 1) throws regardless of the check flag.
  EXPECT_THROW(Gf2k(Gf2Poly::one()), std::invalid_argument);
  EXPECT_THROW(Gf2k(Gf2Poly{}), std::invalid_argument);
  // An irreducible modulus passes the check.
  EXPECT_NO_THROW(Gf2k(Gf2Poly::from_exponents({4, 1, 0}), true));
}

}  // namespace
}  // namespace gfa
