#pragma once
// Canonical-form equivalence checking (the paper's verification problem).
//
// Both circuits are abstracted to their unique canonical polynomials
// F_1, F_2 over the word variables; equivalence is then coefficient matching
// (Corollary 4.1 makes the representation canonical, so matching is sound and
// complete). Non-equivalence is explained by the differing monomials — which
// by the paper's Example 5.1 is exactly the buggy circuit's polynomial.

#include <string>

#include "abstraction/extractor.h"
#include "circuit/netlist.h"

namespace gfa {

struct EquivalenceResult {
  bool equivalent = false;
  WordFunction spec;
  WordFunction impl;
  /// Empty when equivalent; otherwise a description of the first few
  /// monomials whose coefficients differ.
  std::string difference;
};

/// Rewrites `g` (over `from` variable ids) into `to` ids by variable name;
/// kInvalidArgument names the first variable `to` does not declare.
Result<MPoly> remap_by_name(const MPoly& g, const VarPool& from,
                            const VarPool& to);

/// Compares two word functions (possibly over different pools) by input word
/// *names*. Returns true iff they denote the same polynomial function; when
/// `difference` is non-null it receives a diff description on mismatch.
bool same_word_function(const WordFunction& f1, const WordFunction& f2,
                        std::string* difference = nullptr);

/// Full flow: abstract both circuits over the field and match coefficients.
/// Circuit input word names must agree (e.g. both have A and B).
EquivalenceResult check_equivalence(const Netlist& spec, const Netlist& impl,
                                    const Gf2k& field,
                                    const ExtractionOptions& options = {});

/// Non-throwing variant with the same Status mapping as
/// try_extract_word_function (kInvalidArgument / kResourceExhausted /
/// kDeadlineExceeded / kCancelled).
Result<EquivalenceResult> try_check_equivalence(
    const Netlist& spec, const Netlist& impl, const Gf2k& field,
    const ExtractionOptions& options = {});

}  // namespace gfa
