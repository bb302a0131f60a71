#include "gf2/irreducible.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "gf/gf2k.h"
#include "rabin_oracle.h"

namespace gfa {
namespace {

TEST(Irreducible, DegreeOneIsIrreducible) {
  EXPECT_TRUE(is_irreducible(Gf2Poly::monomial(1)));
  EXPECT_TRUE(is_irreducible(Gf2Poly::from_bits(0b11)));
}

TEST(Irreducible, ConstantsAreNot) {
  EXPECT_FALSE(is_irreducible(Gf2Poly()));
  EXPECT_FALSE(is_irreducible(Gf2Poly::one()));
}

TEST(Irreducible, KnownIrreducibles) {
  EXPECT_TRUE(is_irreducible(Gf2Poly::from_bits(0b111)));        // x^2+x+1
  EXPECT_TRUE(is_irreducible(Gf2Poly::from_bits(0b1011)));       // x^3+x+1
  EXPECT_TRUE(is_irreducible(Gf2Poly::from_bits(0b1101)));       // x^3+x^2+1
  EXPECT_TRUE(is_irreducible(Gf2Poly::from_exponents({8, 4, 3, 1, 0})));  // AES
}

TEST(Irreducible, KnownReducibles) {
  EXPECT_FALSE(is_irreducible(Gf2Poly::from_bits(0b101)));   // (x+1)^2
  EXPECT_FALSE(is_irreducible(Gf2Poly::from_bits(0b110)));   // x(x+1)
  EXPECT_FALSE(is_irreducible(Gf2Poly::from_exponents({4, 0})));  // (x+1)^4? x^4+1=(x+1)^4
  // x^4 + x^2 + 1 = (x^2+x+1)^2
  EXPECT_FALSE(is_irreducible(Gf2Poly::from_exponents({4, 2, 0})));
}

TEST(Irreducible, MatchesBruteForceUpToDegree10) {
  // Brute force: f (deg d) is irreducible iff no factor of degree 1..d/2.
  auto brute = [](std::uint64_t fbits, int deg) {
    for (std::uint64_t g = 2; g < (1ull << (deg / 2 + 1)); ++g) {
      const Gf2Poly gp = Gf2Poly::from_bits(g);
      if (gp.degree() < 1) continue;
      if (Gf2Poly::from_bits(fbits).mod(gp).is_zero()) return false;
    }
    return true;
  };
  for (int deg = 2; deg <= 10; ++deg) {
    for (std::uint64_t f = (1ull << deg); f < (2ull << deg); ++f) {
      const Gf2Poly fp = Gf2Poly::from_bits(f);
      ASSERT_EQ(is_irreducible(fp), brute(f, deg))
          << "mismatch on " << fp.to_string();
    }
  }
}

TEST(Irreducible, WordKernelTestMatchesOracleUpToDegree13) {
  // Every polynomial of degree 2..13 with a constant term; the others are
  // divisible by x and rejected before any squaring.
  for (int deg = 2; deg <= 13; ++deg) {
    for (std::uint64_t f = (1ull << deg) | 1; f < (2ull << deg); f += 2) {
      const Gf2Poly fp = Gf2Poly::from_bits(f);
      ASSERT_EQ(is_irreducible(fp), test::oracle_is_irreducible(fp))
          << "mismatch on " << fp.to_string();
    }
  }
}

TEST(Irreducible, CountPerDegreeMatchesGaussFormula) {
  // Gauss: there are (1/n)·Σ_{d | n} μ(d)·2^{n/d} irreducibles of degree n.
  auto moebius = [](unsigned d) {
    int mu = 1;
    for (unsigned p = 2; p * p <= d; ++p) {
      if (d % p != 0) continue;
      d /= p;
      if (d % p == 0) return 0;
      mu = -mu;
    }
    return d > 1 ? -mu : mu;
  };
  for (unsigned n = 2; n <= 13; ++n) {
    std::int64_t sum = 0;
    for (unsigned d = 1; d <= n; ++d)
      if (n % d == 0) sum += moebius(d) * (std::int64_t{1} << (n / d));
    std::int64_t count = 0;
    for (std::uint64_t f = (1ull << n) | 1; f < (2ull << n); f += 2)
      count += is_irreducible(Gf2Poly::from_bits(f));
    EXPECT_EQ(count, sum / n) << "degree " << n;
  }
}

TEST(Irreducible, LowWeightSearchMatchesOracleSearch) {
  // Pins the Swan filter (no trinomial is tried when 8 | k) and the default
  // moduli: the oracle search tries every trinomial.
  std::vector<unsigned> ks;
  for (unsigned k = 2; k <= 130; ++k) ks.push_back(k);
  ks.push_back(192);
  ks.push_back(256);
  for (unsigned k : ks) {
    const auto found = find_low_weight_irreducible(k);
    const auto oracle = test::oracle_low_weight_irreducible(k);
    ASSERT_TRUE(oracle.has_value()) << "k=" << k;
    ASSERT_TRUE(found.has_value()) << "k=" << k;
    EXPECT_EQ(*found, *oracle) << "k=" << k << ": " << found->to_string()
                               << " vs " << oracle->to_string();
  }
}

TEST(Irreducible, NistPolynomialsAreIrreducible) {
  for (unsigned k : {163u, 233u, 283u, 409u, 571u}) {
    auto p = nist_polynomial(k);
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->degree(), static_cast<int>(k));
    EXPECT_TRUE(is_irreducible(*p)) << "NIST k=" << k;
  }
  EXPECT_FALSE(nist_polynomial(100).has_value());
}

TEST(Irreducible, DefaultIrreducibleEveryKUpTo128) {
  for (unsigned k = 2; k <= 128; ++k) {
    const Gf2Poly p = Gf2k::make(k).modulus();
    EXPECT_EQ(p.degree(), static_cast<int>(k));
    EXPECT_LE(p.weight(), 5) << "expected trinomial or pentanomial at k=" << k;
    EXPECT_TRUE(is_irreducible(p)) << "k=" << k;
  }
}

TEST(Irreducible, FindLowWeightPrefersTrinomials) {
  // k = 7 has the irreducible trinomial x^7 + x + 1.
  auto p = find_low_weight_irreducible(7);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->weight(), 3);
  // k = 8 has no irreducible trinomial; expect a pentanomial.
  auto p8 = find_low_weight_irreducible(8);
  ASSERT_TRUE(p8.has_value());
  EXPECT_EQ(p8->weight(), 5);
}

}  // namespace
}  // namespace gfa
