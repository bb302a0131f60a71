#pragma once
// The Lv–Kalla–Enescu [5] verification baseline: ideal-membership testing.
//
// Unlike the abstraction approach, this method must be *given* the
// specification polynomial F. Verification asks whether the miter polynomial
// f : Z + F(A, B, …) belongs to J + J_0; by the Strong Nullstellensatz this
// holds iff the circuit implements Z = F. The test is a chain of divisions of
// f modulo the circuit polynomials under RATO — realized here, like the
// extractor, as backward substitution, but starting from *both* sides: the
// circuit's output combination and the bit-blasted spec. Membership holds iff
// the final remainder is identically zero.
//
// This is the "complexity moved entirely into polynomial division" method the
// paper contrasts with (its Table I/II discussion: feasible to 163 bits).

#include <functional>

#include "circuit/netlist.h"
#include "poly/mpoly.h"
#include "util/exec_control.h"

namespace gfa {

struct IdealMembershipOptions {
  /// Abort when the intermediate polynomial exceeds this many terms
  /// (0 = unlimited). Tripping raises RewriteBudgetExceeded.
  std::size_t max_terms = 0;
  /// Deadline/cancellation, polled per gate substitution in the
  /// division chain; expiry unwinds via StatusError.
  const ExecControl* control = nullptr;
};

struct IdealMembershipResult {
  bool is_member = false;       // true => circuit implements the spec
  std::size_t substitutions = 0;
  std::size_t peak_terms = 0;
  std::size_t residual_terms = 0;  // non-zero on failure
};

/// Verifies `circuit` against the spec polynomial G (so spec is Z = G). The
/// builder receives a pool pre-loaded with the circuit's word variables (by
/// word name, kind kWord) and returns G over those variables. Word-variable
/// exponents in G must fit in 64 bits (true of any practical spec).
IdealMembershipResult verify_by_ideal_membership(
    const Netlist& circuit, const Gf2k& field,
    const std::function<MPoly(const Gf2k* field, VarPool& pool)>& spec_builder,
    const IdealMembershipOptions& options = {});

/// Convenience: the multiplication spec G = A·B.
IdealMembershipResult verify_multiplier_by_ideal_membership(
    const Netlist& circuit, const Gf2k& field,
    const IdealMembershipOptions& options = {});

}  // namespace gfa
