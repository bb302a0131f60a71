#pragma once
// The binary extension field F_{2^k} = GF(2)[x] / P(x).
//
// A Gf2k is the field context: the degree k and the irreducible P(x). Field
// elements are canonical residues — Gf2Poly values of degree < k — passed to
// the context's operations. Keeping elements as bare Gf2Poly (rather than a
// handle-carrying class) matters because the abstraction engine stores
// millions of coefficients; the context is threaded explicitly instead.
//
// α denotes the residue of x, i.e. a fixed root of P: P(α) = 0. Every element
// is a_0 + a_1·α + … + a_{k-1}·α^{k-1} with a_i ∈ GF(2), which is exactly the
// bit-vector (word) interpretation used by the paper: a k-bit circuit word
// {a_0, …, a_{k-1}} *is* the field element with those coordinates.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "gf/biguint.h"
#include "gf/gf2k_kernels.h"
#include "gf2/gf2_poly.h"
#include "util/status.h"

namespace gfa {

class Gf2k {
 public:
  using Elem = Gf2Poly;

  /// Field with the given irreducible modulus (degree >= 1, else throws
  /// std::invalid_argument). When `check_irreducible` is set, throws
  /// std::invalid_argument if the modulus is reducible; large NIST moduli are
  /// trusted by default since the Rabin test at k = 571 is itself costly.
  explicit Gf2k(Gf2Poly modulus, bool check_irreducible = false);

  /// Field F_{2^k} with the default (NIST or lowest-weight) modulus.
  static Gf2k make(unsigned k);

  /// Non-throwing variant: k < 2 (no field) or k with no known low-weight
  /// irreducible maps to kInvalidArgument instead of an assert/throw.
  static Result<Gf2k> try_make(unsigned k);

  unsigned k() const { return k_; }
  const Gf2Poly& modulus() const { return modulus_; }

  /// Which fast-arithmetic tier serves this field (see gf/gf2k_kernels.h).
  KernelTier kernel_tier() const { return kernels_->tier(); }
  /// The kernels themselves, for callers working on flat element words.
  const Gf2kKernels& kernels() const { return *kernels_; }

  /// Field order as a BigUint: q = 2^k.
  BigUint order() const { return BigUint::pow2(k_); }

  Elem zero() const { return {}; }
  Elem one() const { return Gf2Poly::one(); }
  /// The residue of x: a fixed root of the modulus.
  Elem alpha() const { return Gf2Poly::monomial(1).mod(modulus_); }

  /// Element with coordinate bits taken from `bits` (bit i -> coefficient of
  /// α^i); requires k <= 64 to be lossless, otherwise only the low 64
  /// coordinates are set.
  Elem from_bits(std::uint64_t bits) const;

  /// Reduce an arbitrary GF(2)[x] polynomial into the field.
  Elem reduce(const Gf2Poly& p) const { return p.mod(modulus_); }

  bool is_canonical(const Elem& a) const { return a.degree() < static_cast<int>(k_); }

  /// Addition = subtraction = XOR.
  Elem add(const Elem& a, const Elem& b) const { return a + b; }
  /// Product/square in the field, dispatched to the fast kernel tier.
  /// Non-canonical operands (degree >= k) take the generic reduce path.
  Elem mul(const Elem& a, const Elem& b) const;
  Elem square(const Elem& a) const;

  /// Multiplicative inverse of a non-zero element (extended Euclid).
  Elem inv(const Elem& a) const;

  /// a^e by square-and-multiply; 0^0 = 1 by convention.
  Elem pow(const Elem& a, const BigUint& e) const;

  /// α^e.
  Elem alpha_pow(std::uint64_t e) const;
  Elem alpha_pow(const BigUint& e) const;

  /// Frobenius: a^(2^j).
  Elem frobenius(const Elem& a, unsigned j) const;

  /// Canonical exponent reduction for the vanishing ideal X^q - X:
  /// e = 0 stays 0; otherwise e -> ((e - 1) mod (q - 1)) + 1, so the result
  /// lies in [1, q - 1] and X^e defines the same function on F_q.
  BigUint reduce_exponent(const BigUint& e) const;

  /// Rendering as a polynomial in α, e.g. "α^3 + α + 1"; "0" for zero.
  std::string to_string(const Elem& a) const;

 private:
  Gf2Poly modulus_;
  unsigned k_;
  /// Shared so field copies stay cheap (the table tier carries ~0.5 MB).
  std::shared_ptr<const Gf2kKernels> kernels_;
};

}  // namespace gfa
