#pragma once
// The heap-arithmetic Rabin irreducibility test and the low-weight search
// built on it, kept as test oracles for gf2/irreducible.h: every step is a
// Gf2Poly square followed by long division, with no field kernel involved.

#include <optional>
#include <vector>

#include "gf2/gf2_poly.h"

namespace gfa::test {

/// a^(2^n) mod m via iterated squaring (Frobenius power).
inline Gf2Poly frobenius_pow(Gf2Poly a, unsigned n, const Gf2Poly& m) {
  a = a.mod(m);
  for (unsigned i = 0; i < n; ++i) a = a.squared().mod(m);
  return a;
}

/// Rabin: f irreducible <=> x^(2^n) == x (mod f), and for every prime p | n,
/// gcd(x^(2^(n/p)) - x, f) == 1.
inline bool oracle_is_irreducible(const Gf2Poly& f) {
  const int deg = f.degree();
  if (deg < 1) return false;
  if (deg == 1) return true;
  if (!f.coeff(0)) return false;
  unsigned n = static_cast<unsigned>(deg);
  const unsigned degree = n;
  std::vector<unsigned> primes;
  for (unsigned p = 2; p * p <= n; ++p) {
    if (n % p == 0) {
      primes.push_back(p);
      while (n % p == 0) n /= p;
    }
  }
  if (n > 1) primes.push_back(n);
  const Gf2Poly x = Gf2Poly::monomial(1);
  for (unsigned p : primes) {
    const Gf2Poly xp = frobenius_pow(x, degree / p, f);
    if (!Gf2Poly::gcd(xp + x, f).is_one()) return false;
  }
  return frobenius_pow(x, degree, f) == x.mod(f);
}

/// The first irreducible trinomial x^k + x^a + 1 (smallest a), else the
/// lexicographically first pentanomial x^k + x^a + x^b + x^c + 1, trying
/// every candidate with the oracle test.
inline std::optional<Gf2Poly> oracle_low_weight_irreducible(unsigned k) {
  for (unsigned a = 1; a < k; ++a) {
    Gf2Poly f = Gf2Poly::from_exponents({k, a, 0});
    if (oracle_is_irreducible(f)) return f;
  }
  for (unsigned a = 3; a < k; ++a)
    for (unsigned b = 2; b < a; ++b)
      for (unsigned c = 1; c < b; ++c) {
        Gf2Poly f = Gf2Poly::from_exponents({k, a, b, c, 0});
        if (oracle_is_irreducible(f)) return f;
      }
  return std::nullopt;
}

}  // namespace gfa::test
