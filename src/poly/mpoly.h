#pragma once
// Sparse multivariate polynomials over F_{2^k}, with multivariate division.
//
// This is the general ("textbook") engine of the paper's §3.1: it carries
// arbitrary monomials under arbitrary term orders and implements the division
// algorithm f ->_F r. It powers the worked examples, the small-field
// cross-checks, the hierarchical word-level composition, and the unguided
// full-Gröbner-basis baseline. The abstraction hot path uses the specialized
// multilinear engine in src/abstraction/bitpoly.h instead.
//
// Terms are kept in a std::map under the canonical (order-independent)
// monomial comparison; leading terms w.r.t. a TermOrder are found by scan.
// Polynomials at this layer stay small, so clarity beats asymptotics.

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "gf/gf2k.h"
#include "poly/monomial.h"
#include "poly/varpool.h"
#include "util/exec_control.h"

namespace gfa {

class MPoly {
 public:
  using Elem = Gf2k::Elem;
  struct Term {
    Monomial mono;
    Elem coeff;
  };

  /// Placeholder polynomial with no ring attached: only assignment (from a
  /// real MPoly) and is_zero() are meaningful. Exists so result structs can
  /// be built field-first and filled in.
  MPoly() : field_(nullptr) {}

  /// Zero polynomial in the given field's ring.
  explicit MPoly(const Gf2k* field) : field_(field) {}

  static MPoly constant(const Gf2k* field, Elem c);
  static MPoly variable(const Gf2k* field, VarId v);
  static MPoly term(const Gf2k* field, Elem c, Monomial m);

  const Gf2k& field() const { return *field_; }

  bool is_zero() const { return terms_.empty(); }
  std::size_t num_terms() const { return terms_.size(); }

  /// Coefficient of a monomial (zero if absent).
  Elem coeff(const Monomial& m) const;

  /// Adds c * m into the polynomial (cancels if the sum is zero).
  void add_term(const Monomial& m, const Elem& c);

  MPoly operator+(const MPoly& rhs) const;
  MPoly& operator+=(const MPoly& rhs);
  MPoly operator*(const MPoly& rhs) const { return mul(rhs, nullptr); }

  /// Product that polls `control` every few thousand term products, so one
  /// large product (k³ terms for a cubic word-level expansion) still stops
  /// at a deadline; expiry unwinds via StatusError.
  MPoly mul(const MPoly& rhs, const ExecControl* control) const;

  /// Product with a single term.
  MPoly mul_term(const Elem& c, const Monomial& m) const;

  /// Scales every coefficient by c.
  MPoly scaled(const Elem& c) const;

  /// Leading term under the order (polynomial must be non-zero).
  Term leading_term(const TermOrder& order) const;

  /// Divides every coefficient by the leading coefficient.
  MPoly monic(const TermOrder& order) const;

  /// Reduces exponents by the vanishing ideal: bit variables x^e -> x (e>=1),
  /// word variables X^e -> X^{((e-1) mod (q-1)) + 1}. This maps a polynomial
  /// to the canonical representative of the same *function* on F_q points.
  /// `control` is polled every few thousand terms, as in mul().
  MPoly normalized_vanishing(const VarPool& pool,
                             const ExecControl* control = nullptr) const;

  /// Substitutes `v` by `replacement` (exponentiation by square-and-multiply;
  /// each partial product is vanishing-normalized to keep degrees canonical).
  MPoly substituted(VarId v, const MPoly& replacement, const VarPool& pool) const;

  /// Evaluates at a point; `point` maps every variable occurring in the
  /// polynomial to a field element.
  Elem eval(const std::function<Elem(VarId)>& point) const;

  /// True iff any term mentions variable v.
  bool mentions(VarId v) const;

  /// All variables occurring in the polynomial (sorted, unique).
  std::vector<VarId> variables() const;

  const std::map<Monomial, Elem>& terms() const { return terms_; }

  bool operator==(const MPoly& rhs) const { return terms_ == rhs.terms_; }

  /// Rendering with terms sorted descending by `order` (or canonical order if
  /// omitted), e.g. "Z + (α+1)*A*B".
  std::string to_string(const VarPool& pool) const;
  std::string to_string(const VarPool& pool, const TermOrder& order) const;

 private:
  const Gf2k* field_;
  std::map<Monomial, Elem> terms_;
};

/// One step chain of the division algorithm: the remainder of f divided by the
/// set F under `order` (f ->_F+ r); no term of r is divisible by any lm(f_i).
/// `control` is polled periodically; expiry unwinds via StatusError.
MPoly normal_form(const MPoly& f, const std::vector<MPoly>& basis,
                  const TermOrder& order, const ExecControl* control = nullptr);

/// S-polynomial Spoly(f, g) = (L / lt(f))·f - (L / lt(g))·g, L = lcm of the
/// leading monomials. Over characteristic 2 the minus is a plus.
MPoly spoly(const MPoly& f, const MPoly& g, const TermOrder& order);

}  // namespace gfa
