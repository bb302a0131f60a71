#include "gf2/gf2_poly.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "rabin_oracle.h"
#include "test_util.h"

namespace gfa {
namespace {

TEST(Gf2Poly, ZeroProperties) {
  Gf2Poly z;
  EXPECT_TRUE(z.is_zero());
  EXPECT_EQ(z.degree(), -1);
  EXPECT_EQ(z.weight(), 0);
  EXPECT_EQ(z.to_string(), "0");
  EXPECT_EQ(z + z, z);
  EXPECT_EQ(z * z, z);
}

TEST(Gf2Poly, FromBitsAndCoeffs) {
  Gf2Poly p = Gf2Poly::from_bits(0b1011);  // x^3 + x + 1
  EXPECT_EQ(p.degree(), 3);
  EXPECT_EQ(p.weight(), 3);
  EXPECT_TRUE(p.coeff(0));
  EXPECT_TRUE(p.coeff(1));
  EXPECT_FALSE(p.coeff(2));
  EXPECT_TRUE(p.coeff(3));
  EXPECT_FALSE(p.coeff(100));
  EXPECT_EQ(p.to_string(), "x^3 + x + 1");
}

TEST(Gf2Poly, FromExponentsCancelsPairs) {
  EXPECT_EQ(Gf2Poly::from_exponents({3, 3}), Gf2Poly());
  EXPECT_EQ(Gf2Poly::from_exponents({3, 1, 3}), Gf2Poly::monomial(1));
}

TEST(Gf2Poly, SetCoeffTrimsHighZeros) {
  Gf2Poly p = Gf2Poly::monomial(130);
  EXPECT_EQ(p.degree(), 130);
  p.set_coeff(130, false);
  EXPECT_TRUE(p.is_zero());
  EXPECT_TRUE(p.words().empty());
}

TEST(Gf2Poly, AdditionIsXor) {
  Gf2Poly a = Gf2Poly::from_bits(0b1101);
  Gf2Poly b = Gf2Poly::from_bits(0b0111);
  EXPECT_EQ(a + b, Gf2Poly::from_bits(0b1010));
  EXPECT_EQ(a + a, Gf2Poly());  // char 2
}

TEST(Gf2Poly, MultiplicationSmall) {
  // (x+1)(x+1) = x^2 + 1  over GF(2)
  Gf2Poly xp1 = Gf2Poly::from_bits(0b11);
  EXPECT_EQ(xp1 * xp1, Gf2Poly::from_bits(0b101));
  // (x^2+x+1)(x+1) = x^3 + 1
  EXPECT_EQ(Gf2Poly::from_bits(0b111) * xp1, Gf2Poly::from_bits(0b1001));
}

TEST(Gf2Poly, MultiplicationCrossesWordBoundaries) {
  Gf2Poly a = Gf2Poly::monomial(63);
  Gf2Poly b = Gf2Poly::monomial(63);
  EXPECT_EQ(a * b, Gf2Poly::monomial(126));
  Gf2Poly c = Gf2Poly::from_exponents({63, 0});
  EXPECT_EQ(c * c, Gf2Poly::from_exponents({126, 0}));
}

TEST(Gf2Poly, SquaredMatchesSelfProduct) {
  test::Rng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    Gf2Poly p;
    for (unsigned i = 0; i < 150; ++i)
      if (rng.next() & 1) p.set_coeff(i, true);
    EXPECT_EQ(p.squared(), p * p);
  }
}

TEST(Gf2Poly, ShiftedUp) {
  Gf2Poly p = Gf2Poly::from_bits(0b101);
  EXPECT_EQ(p.shifted_up(0), p);
  EXPECT_EQ(p.shifted_up(3), Gf2Poly::from_exponents({5, 3}));
  EXPECT_EQ(p.shifted_up(64).degree(), 66);
  EXPECT_EQ(Gf2Poly().shifted_up(17), Gf2Poly());
}

TEST(Gf2Poly, DivModIdentity) {
  test::Rng rng(11);
  for (int trial = 0; trial < 100; ++trial) {
    Gf2Poly a, d;
    for (unsigned i = 0; i < 90; ++i)
      if (rng.next() & 1) a.set_coeff(i, true);
    for (unsigned i = 0; i < 30; ++i)
      if (rng.next() & 1) d.set_coeff(i, true);
    if (d.is_zero()) d = Gf2Poly::one();
    const auto dm = a.divmod(d);
    EXPECT_EQ(dm.quotient * d + dm.remainder, a);
    EXPECT_LT(dm.remainder.degree(), d.degree() == -1 ? 0 : d.degree());
  }
}

TEST(Gf2Poly, ModAgreesWithDivMod) {
  Gf2Poly a = Gf2Poly::from_exponents({10, 7, 2, 0});
  Gf2Poly d = Gf2Poly::from_exponents({4, 1, 0});
  EXPECT_EQ(a.mod(d), a.divmod(d).remainder);
}

TEST(Gf2Poly, GcdBasics) {
  Gf2Poly x = Gf2Poly::monomial(1);
  Gf2Poly x2 = Gf2Poly::monomial(2);
  EXPECT_EQ(Gf2Poly::gcd(x2, x), x);
  // gcd(f, 0) = f
  EXPECT_EQ(Gf2Poly::gcd(x2, Gf2Poly()), x2);
  // Coprime: x and x+1.
  EXPECT_TRUE(Gf2Poly::gcd(x, Gf2Poly::from_bits(0b11)).is_one());
}

TEST(Gf2Poly, GcdOfCommonFactor) {
  Gf2Poly f = Gf2Poly::from_bits(0b111);   // x^2+x+1 (irreducible)
  Gf2Poly g1 = Gf2Poly::from_bits(0b11);   // x+1
  Gf2Poly g2 = Gf2Poly::from_bits(0b10);   // x
  EXPECT_EQ(Gf2Poly::gcd(f * g1, f * g2), f);
}

TEST(Gf2Poly, ExtGcdBezout) {
  test::Rng rng(13);
  for (int trial = 0; trial < 100; ++trial) {
    Gf2Poly a, b;
    for (unsigned i = 0; i < 40; ++i) {
      if (rng.next() & 1) a.set_coeff(i, true);
      if (rng.next() & 1) b.set_coeff(i, true);
    }
    if (a.is_zero() && b.is_zero()) continue;
    const auto eg = Gf2Poly::ext_gcd(a, b);
    EXPECT_EQ(eg.s * a + eg.t * b, eg.g);
    EXPECT_EQ(eg.g, Gf2Poly::gcd(a, b));
  }
}

TEST(Gf2Poly, MulModAndFrobenius) {
  const Gf2Poly m = Gf2Poly::from_exponents({8, 4, 3, 1, 0});  // AES modulus
  const Gf2Poly a = Gf2Poly::from_bits(0x57);
  const Gf2Poly b = Gf2Poly::from_bits(0x83);
  EXPECT_EQ(Gf2Poly::mulmod(a, b, m), Gf2Poly::from_bits(0xC1));  // known AES product
  // Frobenius: a^(2^8) == a (mod m) for all a when m is irreducible of deg 8.
  EXPECT_EQ(test::frobenius_pow(a, 8, m), a);
}

TEST(Gf2Poly, HashDistinguishesAndAgrees) {
  Gf2Poly a = Gf2Poly::from_bits(0b1011);
  Gf2Poly b = Gf2Poly::from_bits(0b1011);
  EXPECT_EQ(a.hash(), b.hash());
  EXPECT_NE(a.hash(), Gf2Poly::from_bits(0b1010).hash());
}

// Inline (<= 4 words) and heap-backed polynomials against plain word-vector
// arithmetic, at sizes on both sides of the boundary: degree < k operands,
// and products of up to 2k bits.
using Words = std::vector<std::uint64_t>;

Words trimmed(Words w) {
  while (!w.empty() && w.back() == 0) w.pop_back();
  return w;
}

Words words_of(const Gf2Poly& p) { return Words(p.words().begin(), p.words().end()); }

bool bit(const Words& w, std::size_t i) {
  return i / 64 < w.size() && ((w[i / 64] >> (i % 64)) & 1u);
}

void flip(Words& w, std::size_t i) {
  if (i / 64 >= w.size()) w.resize(i / 64 + 1, 0);
  w[i / 64] ^= std::uint64_t{1} << (i % 64);
}

Words ref_add(Words a, const Words& b) {
  if (b.size() > a.size()) a.resize(b.size(), 0);
  for (std::size_t i = 0; i < b.size(); ++i) a[i] ^= b[i];
  return trimmed(a);
}

Words ref_mul(const Words& a, const Words& b) {
  Words out;
  for (std::size_t i = 0; i < 64 * a.size(); ++i)
    if (bit(a, i))
      for (std::size_t j = 0; j < 64 * b.size(); ++j)
        if (bit(b, j)) flip(out, i + j);
  return trimmed(out);
}

Words ref_mod(Words a, const Words& m) {
  std::size_t dm = 64 * m.size() - 1;
  while (!bit(m, dm)) --dm;
  for (std::size_t i = 64 * a.size(); i-- > dm;)
    if (bit(a, i))
      for (std::size_t j = 0; j <= dm; ++j)
        if (bit(m, j)) flip(a, i - dm + j);
  return trimmed(a);
}

/// A random polynomial of degree exactly `bits` - 1.
Words random_words(test::Rng& rng, unsigned bits) {
  Words w((bits + 63) / 64);
  for (std::uint64_t& x : w) x = rng.next();
  if (bits % 64) w.back() &= (std::uint64_t{1} << (bits % 64)) - 1;
  w.back() |= std::uint64_t{1} << ((bits - 1) % 64);
  return w;
}

Gf2Poly poly_of(const Words& w) { return Gf2Poly::from_words(w.data(), w.size()); }

class Gf2PolyStorage : public ::testing::TestWithParam<unsigned> {};

TEST_P(Gf2PolyStorage, CopyMoveAndAssignAcrossTheInlineBoundary) {
  const unsigned k = GetParam();
  test::Rng rng(k);
  const Words wa = random_words(rng, k);
  const Gf2Poly a = poly_of(wa);
  EXPECT_EQ(words_of(a), wa);
  EXPECT_EQ(a.heap_bytes() == 0, wa.size() <= Gf2Poly::kInlineWords);

  Gf2Poly copy(a);
  EXPECT_EQ(copy, a);
  EXPECT_EQ(words_of(copy), wa);
  // Copy-assign into an inline target and into a heap-backed one.
  for (Gf2Poly target : {Gf2Poly::one(), Gf2Poly::monomial(700)}) {
    target = a;
    EXPECT_EQ(words_of(target), wa);
  }
  // Self-assignment keeps the value.
  Gf2Poly self = a;
  const Gf2Poly& alias = self;
  self = alias;
  EXPECT_EQ(words_of(self), wa);

  Gf2Poly moved(std::move(copy));
  EXPECT_EQ(words_of(moved), wa);
  EXPECT_TRUE(copy.is_zero());
  EXPECT_TRUE(copy.words().empty());
  EXPECT_EQ(copy.heap_bytes(), 0u);
  for (Gf2Poly target : {Gf2Poly::one(), Gf2Poly::monomial(700)}) {
    Gf2Poly source = a;
    target = std::move(source);
    EXPECT_EQ(words_of(target), wa);
    EXPECT_TRUE(source.is_zero());
    // A moved-from value is zero and fully usable.
    source += a;
    EXPECT_EQ(source, a);
  }
}

TEST_P(Gf2PolyStorage, ArithmeticMatchesWordVectorArithmetic) {
  const unsigned k = GetParam();
  test::Rng rng(1000 + k);
  Words wm = random_words(rng, k + 1);
  wm[0] |= 1;
  const Gf2Poly m = poly_of(wm);
  for (int trial = 0; trial < 8; ++trial) {
    const Words wa = random_words(rng, k - trial);
    const Words wb = random_words(rng, k);
    const Gf2Poly a = poly_of(wa), b = poly_of(wb);

    Gf2Poly sum = a;
    sum += b;
    EXPECT_EQ(words_of(sum), ref_add(wa, wb));
    EXPECT_EQ(words_of(a + b), ref_add(wa, wb));
    Gf2Poly twice = a;
    twice += twice;  // char 2
    EXPECT_TRUE(twice.is_zero());

    const Words wp = ref_mul(wa, wb);
    const Gf2Poly product = a * b;
    EXPECT_EQ(words_of(product), wp);
    EXPECT_EQ(words_of(product.mod(m)), ref_mod(wp, wm));
    EXPECT_EQ(words_of(Gf2Poly::mulmod(a, b, m)), ref_mod(wp, wm));
    const Gf2Poly::DivMod dm = product.divmod(m);
    EXPECT_EQ(words_of(dm.remainder), ref_mod(wp, wm));
    EXPECT_EQ(dm.quotient * m + dm.remainder, product);
    EXPECT_EQ(words_of(a.squared()), ref_mul(wa, wa));
  }
}

INSTANTIATE_TEST_SUITE_P(InlineAndHeap, Gf2PolyStorage,
                         ::testing::Values(64u, 128u, 256u, 257u, 571u));

}  // namespace
}  // namespace gfa
