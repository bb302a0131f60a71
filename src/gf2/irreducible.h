#pragma once
// Irreducible polynomials over GF(2): testing, lookup, and search.
//
// F_{2^k} is constructed as GF(2)[x] / P(x) for an irreducible P(x) of degree
// k. This module provides:
//   * Rabin's irreducibility test, run on the field kernels of
//     gf/gf2k_kernels.h,
//   * the NIST FIPS 186 ECC reduction polynomials (k = 163/233/283/409/571),
//   * a low-weight irreducible for any k >= 2, found by searching trinomials,
//     then pentanomials, with the Rabin test (Gf2k::make uses it when k has
//     no NIST polynomial).

#include <optional>

#include "gf2/gf2_poly.h"

namespace gfa {

/// True iff `f` is irreducible over GF(2) (degree >= 1; degree-1 polynomials
/// are irreducible by definition).
bool is_irreducible(const Gf2Poly& f);

/// The NIST-recommended reduction polynomial for F_{2^k} used in ECC, if k is
/// one of {163, 233, 283, 409, 571}.
std::optional<Gf2Poly> nist_polynomial(unsigned k);

/// Search for an irreducible trinomial x^k + x^a + 1 (smallest a), then for a
/// pentanomial x^k + x^a + x^b + x^c + 1 (lexicographically smallest a>b>c).
/// Every k >= 2 of practical interest has one of the two. Trinomials are
/// skipped when 8 | k (Swan's theorem: none is irreducible). Each candidate
/// tested adds one to the gf.irreducibility_tests counter.
std::optional<Gf2Poly> find_low_weight_irreducible(unsigned k);

}  // namespace gfa
