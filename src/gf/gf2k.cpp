#include "gf/gf2k.h"

#include <cassert>
#include <stdexcept>

#include "gf2/irreducible.h"
#include "obs/trace.h"

namespace gfa {

Gf2k::Gf2k(Gf2Poly modulus, bool check_irreducible) : modulus_(std::move(modulus)) {
  const int deg = modulus_.degree();
  if (deg < 1)
    throw std::invalid_argument("field modulus must have degree >= 1");
  if (check_irreducible && !is_irreducible(modulus_)) {
    throw std::invalid_argument("field modulus " + modulus_.to_string() +
                                " is reducible");
  }
  k_ = static_cast<unsigned>(deg);
  kernels_ = std::make_shared<const Gf2kKernels>(modulus_);
}

Gf2k Gf2k::make(unsigned k) {
  Result<Gf2k> field = try_make(k);
  if (!field.ok()) throw std::invalid_argument(field.status().message());
  return std::move(field).value();
}

Result<Gf2k> Gf2k::try_make(unsigned k) {
  const obs::TraceSpan span("field_build", "gf");
  if (k < 2)
    return Status::invalid_argument("field size k must be >= 2, got " +
                                    std::to_string(k));
  auto modulus = nist_polynomial(k);
  if (!modulus) modulus = find_low_weight_irreducible(k);
  if (!modulus)
    return Status::invalid_argument("no low-weight irreducible of degree " +
                                    std::to_string(k) + " found");
  try {
    return Gf2k(std::move(*modulus));
  } catch (...) {
    return status_from_current_exception();
  }
}

Gf2k::Elem Gf2k::from_bits(std::uint64_t bits) const {
  return Gf2Poly::from_bits(bits).mod(modulus_);
}

Gf2k::Elem Gf2k::mul(const Elem& a, const Elem& b) const {
  if (is_canonical(a) && is_canonical(b)) return kernels_->mul(a, b);
  return (a * b).mod(modulus_);
}

Gf2k::Elem Gf2k::square(const Elem& a) const {
  if (is_canonical(a)) return kernels_->square(a);
  return a.squared().mod(modulus_);
}

Gf2k::Elem Gf2k::inv(const Elem& a) const {
  assert(!a.is_zero() && "zero has no multiplicative inverse");
  if (is_canonical(a)) return kernels_->inv(a);
  Gf2Poly::ExtGcd eg = Gf2Poly::ext_gcd(a, modulus_);
  assert(eg.g.is_one() && "modulus not irreducible or element not reduced");
  return eg.s.mod(modulus_);
}

Gf2k::Elem Gf2k::pow(const Elem& a, const BigUint& e) const {
  if (e.is_zero()) return one();
  Elem base = reduce(a);
  Elem result = one();
  const int bits = e.bit_length();
  for (int i = bits; i >= 0; --i) {
    result = square(result);
    if (e.bit(static_cast<unsigned>(i))) result = mul(result, base);
  }
  return result;
}

Gf2k::Elem Gf2k::alpha_pow(std::uint64_t e) const { return kernels_->alpha_pow(e); }

Gf2k::Elem Gf2k::alpha_pow(const BigUint& e) const {
  if (e.fits_u64()) return kernels_->alpha_pow(e.low_u64());
  return pow(alpha(), e);
}

Gf2k::Elem Gf2k::frobenius(const Elem& a, unsigned j) const {
  Elem out = reduce(a);
  for (unsigned i = 0; i < j; ++i) out = square(out);
  return out;
}

BigUint Gf2k::reduce_exponent(const BigUint& e) const {
  if (e.is_zero()) return e;
  const BigUint qm1 = order() - BigUint(1);
  if (e <= qm1) return e;  // already in [1, q-1]
  return ((e - BigUint(1)) % qm1) + BigUint(1);
}

std::string Gf2k::to_string(const Elem& a) const {
  if (a.is_zero()) return "0";
  std::string out;
  for (int i = a.degree(); i >= 0; --i) {
    if (!a.coeff(static_cast<unsigned>(i))) continue;
    if (!out.empty()) out += " + ";
    if (i == 0)
      out += "1";
    else if (i == 1)
      out += "α";
    else
      out += "α^" + std::to_string(i);
  }
  return out;
}

}  // namespace gfa
