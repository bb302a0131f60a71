#include "gf2/irreducible.h"

#include <algorithm>
#include <cassert>
#include <vector>

#include "gf/gf2k_kernels.h"
#include "obs/metrics.h"

namespace gfa {

namespace {

std::vector<unsigned> prime_factors(unsigned n) {
  std::vector<unsigned> out;
  for (unsigned p = 2; p * p <= n; ++p) {
    if (n % p == 0) {
      out.push_back(p);
      while (n % p == 0) n /= p;
    }
  }
  if (n > 1) out.push_back(n);
  return out;
}

}  // namespace

bool is_irreducible(const Gf2Poly& f) {
  const int deg = f.degree();
  if (deg < 1) return false;
  if (deg == 1) return true;
  // A polynomial with zero constant term is divisible by x.
  if (!f.coeff(0)) return false;
  const unsigned n = static_cast<unsigned>(deg);

  // Rabin: f irreducible <=> x^(2^n) == x (mod f), and for every prime p | n,
  // gcd(x^(2^(n/p)) - x, f) == 1. Subtraction is XOR over GF(2). The kernels
  // reduce modulo any f, so the n squarings run on flat words; x^(2^(n/p))
  // is kept on the way for each p.
  const Gf2kKernels kernels(f);
  const std::size_t w = kernels.elem_words();
  const std::vector<unsigned> primes = prime_factors(n);
  std::vector<std::uint64_t> x(w, 0), cur(w, 0), kept(primes.size() * w);
  x[0] = cur[0] = 2;  // deg f >= 2, so x is already reduced
  for (unsigned i = 1; i <= n; ++i) {
    kernels.square_words(cur.data(), cur.data());
    for (std::size_t p = 0; p < primes.size(); ++p)
      if (n / primes[p] == i) std::copy(cur.begin(), cur.end(), &kept[p * w]);
  }
  if (cur != x) return false;
  for (std::size_t p = 0; p < primes.size(); ++p) {
    kept[p * w] ^= 2;
    if (!Gf2Poly::gcd(Gf2Poly::from_words(&kept[p * w], w), f).is_one())
      return false;
  }
  return true;
}

std::optional<Gf2Poly> nist_polynomial(unsigned k) {
  switch (k) {
    case 163:
      return Gf2Poly::from_exponents({163, 7, 6, 3, 0});
    case 233:
      return Gf2Poly::from_exponents({233, 74, 0});
    case 283:
      return Gf2Poly::from_exponents({283, 12, 7, 5, 0});
    case 409:
      return Gf2Poly::from_exponents({409, 87, 0});
    case 571:
      return Gf2Poly::from_exponents({571, 10, 5, 2, 0});
    default:
      return std::nullopt;
  }
}

std::optional<Gf2Poly> find_low_weight_irreducible(unsigned k) {
  assert(k >= 2);
  // Trinomials x^k + x^a + 1; by Swan's theorem (1962) every one of them is
  // reducible when 8 | k.
  if (k % 8 != 0) {
    for (unsigned a = 1; a < k; ++a) {
      Gf2Poly f = Gf2Poly::from_exponents({k, a, 0});
      GFA_COUNT("gf.irreducibility_tests", 1);
      if (is_irreducible(f)) return f;
    }
  }
  // Pentanomials x^k + x^a + x^b + x^c + 1.
  for (unsigned a = 3; a < k; ++a)
    for (unsigned b = 2; b < a; ++b)
      for (unsigned c = 1; c < b; ++c) {
        Gf2Poly f = Gf2Poly::from_exponents({k, a, b, c, 0});
        GFA_COUNT("gf.irreducibility_tests", 1);
        if (is_irreducible(f)) return f;
      }
  return std::nullopt;
}

}  // namespace gfa
