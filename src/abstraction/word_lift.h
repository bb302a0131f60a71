#pragma once
// Case-2 word-level lift (paper §5, step 3(b)).
//
// After the guided reduction, the remainder r contains only primary-input
// *bit* variables and word variables. The paper closes the gap by a reduced
// Gröbner basis of {r, word-input definitions} ∪ {vanishing polynomials}.
// Because the word-input polynomial f_wi : a_0β_0 + … + a_{k-1}β_{k-1} + A is
// linear in the bits, that Gröbner-basis step is exactly a linear basis
// change, and it has a closed form. Let δ_0 … δ_{k-1} be the trace-dual basis
// of β (Tr(δ_i·β_l) = [i = l]). Then a_i = Tr(δ_i·A) = Σ_j δ_i^{2^j}·A^{2^j},
// so
//
//     a_i = Σ_j C_{i,j}·A^{2^j}   with   C_{i,j} = δ_i^{2^j}.
//
// δ comes from the k×k F_2 matrix T_{i,l} = Tr(β_i·β_l): δ = T^{-1}·β. The
// traces are parities against a mask of Tr(α^i), so building C costs O(k²)
// field operations plus one bit-matrix inversion, for any basis — the
// polynomial basis {α^i} and normal bases alike.
//
// Substituting this expansion into r and reducing exponents by X^q ≡ X yields
// the canonical word-level polynomial directly. A bilinear fast path handles
// the multiplier-shaped case (all monomials ≤ 2 bits) as matrix triple
// products Cᵀ·Q·C, k³ multiply-accumulates but only k² reductions per word
// pair; the general path expands each term as a product of bit expansions.
// C and Q live as flat row-major words (Gf2kKernels::elem_words() per entry).

#include <cstdint>
#include <vector>

#include "abstraction/bitpoly.h"
#include "poly/mpoly.h"
#include "util/exec_control.h"

namespace gfa {

class WordLift {
 public:
  using Elem = Gf2k::Elem;

  /// Builds C from the trace-dual basis (O(k²) field operations). `basis`
  /// gives the word interpretation A = Σ a_i·basis[i]; by default the
  /// polynomial basis {α^i}. A normal basis (gf/normal_basis.h) plugs in here,
  /// which is what makes cross-representation equivalence checks work.
  /// `control` is polled once per row; expiry unwinds via StatusError. Throws
  /// std::logic_error if `basis` is not a basis.
  explicit WordLift(const Gf2k* field,
                    const std::vector<Elem>* basis = nullptr,
                    const ExecControl* control = nullptr);

  /// Whether this lift reads words in `basis` (null = the polynomial basis).
  bool has_basis(const std::vector<Elem>* basis) const;

  /// Entry (i, j) of the expansion matrix: bit i of a word W satisfies
  /// w_i = Σ_j entry(i, j) · W^{2^j}.
  Elem entry(unsigned i, unsigned j) const;

  /// Binds the bit variables (LSB-first, exactly k of them) of one input word
  /// to its word variable.
  struct WordBinding {
    VarId word_var;
    std::vector<VarId> bit_vars;
  };

  /// Lifts a multilinear polynomial over bound input bits into the canonical
  /// polynomial over the word variables. Every bit variable occurring in `r`
  /// must be bound. `pool` supplies variable kinds for vanishing reduction.
  MPoly lift(const BitPoly& r, const std::vector<WordBinding>& words,
             const VarPool& pool, const ExecControl* control = nullptr) const;

 private:
  MPoly lift_bilinear(const BitPoly& r, const std::vector<WordBinding>& words,
                      const VarPool& pool, const ExecControl* control) const;
  MPoly lift_general(const BitPoly& r, const std::vector<WordBinding>& words,
                     const VarPool& pool, const ExecControl* control) const;

  /// The words of C[i][j].
  const std::uint64_t* cword(std::size_t i, std::size_t j) const {
    return &c_[(i * field_->k() + j) * words_];
  }

  const Gf2k* field_;
  std::vector<Elem> basis_;  // empty for the polynomial basis
  std::size_t words_;        // words per flat element
  std::vector<std::uint64_t> c_;  // k×k, row-major, words_ per entry
};

}  // namespace gfa
