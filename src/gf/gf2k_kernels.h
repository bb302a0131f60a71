#pragma once
// Tiered fast-arithmetic kernels behind Gf2k (see gf/gf2k.h).
//
// Every coefficient operation of the abstraction engine — the RATO
// substitution chain, the trace-dual basis change and the Cᵀ·Q·C transforms
// of the word lift — bottoms out in F_{2^k} multiplication.
// The generic path (schoolbook carry-less multiply followed by long division
// in Gf2Poly) allocates on every step; at the NIST sizes that is millions of
// heap round-trips on the critical path. This module replaces it with two
// specialized tiers and keeps it as the third, selected once per field at
// construction:
//
//   kSingleWord k <= 64   elements live in one uint64_t; carry-less multiply
//                         (PCLMUL intrinsic when compiled in, portable
//                         shift-XOR otherwise) plus Barrett reduction:
//                         μ = ⌊x^{2k}/P⌋ is fixed at construction, and
//                         c mod P = c ⊕ ⌊⌊c/x^k⌋·μ / x^k⌋·P costs two
//                         carry-less multiplies whatever the modulus weight.
//   kSparseMod  k  > 64   multi-word elements; schoolbook/CLMUL multiply into
//                         a stack scratch buffer, then an in-place word-level
//                         shift-XOR fold: x^k ≡ Σ x^{t_i} for the tail
//                         exponents t_i of the (trinomial/pentanomial)
//                         modulus. No per-step allocation, no long division.
//   kGeneric    fallback  dense or oversized moduli: Gf2Poly mul + mod.
//
// Every tier reduces correctly modulo any P of degree k, irreducible or not,
// so the Rabin irreducibility test (gf2/irreducible.h) runs on these kernels
// for each candidate modulus it tries.
//
// Besides the Gf2Poly operations, every tier serves word-pointer entry points
// over flat element arrays (elem_words() little-endian words per element):
// the word lift keeps its matrices that way and evaluates each matrix-product
// entry as a dot product that accumulates unreduced carry-less products and
// folds once, so a length-n dot product costs n multiplies but one reduction.
//
// All kernels are pure w.r.t. the object state after construction, so one
// Gf2kKernels may be shared by any number of threads (the scratch buffers are
// stack-allocated per call).

#include <cstddef>
#include <cstdint>
#include <vector>

#include "gf2/gf2_poly.h"

namespace gfa {

enum class KernelTier { kSingleWord, kSparseMod, kGeneric };

const char* to_string(KernelTier tier);

class Gf2kKernels {
 public:
  /// Builds the best tier for the modulus (degree k >= 1). Arithmetic is
  /// exact modulo any such P; only inv() needs P irreducible.
  explicit Gf2kKernels(const Gf2Poly& modulus);

  KernelTier tier() const { return tier_; }
  unsigned k() const { return k_; }

  /// All inputs must be canonical residues (degree < k); Gf2k dispatches
  /// non-canonical operands to the generic path before calling these.
  Gf2Poly mul(const Gf2Poly& a, const Gf2Poly& b) const;
  Gf2Poly square(const Gf2Poly& a) const;
  /// Multiplicative inverse of a non-zero canonical element.
  Gf2Poly inv(const Gf2Poly& a) const;
  /// α^e for the residue α of x.
  Gf2Poly alpha_pow(std::uint64_t e) const;

  /// Words per flat element, ceil(k / 64); bit i of word j is the
  /// coefficient of α^(64j+i). Flat operands must be canonical.
  std::size_t elem_words() const { return elem_words_; }
  /// Words of an unreduced dot-product accumulator, 2·elem_words().
  std::size_t acc_words() const { return 2 * elem_words_; }
  /// acc ^= a·b, carry-less and unreduced.
  void mul_acc(const std::uint64_t* a, const std::uint64_t* b,
               std::uint64_t* acc) const;
  /// acc ^= Σ_{n < len} a[n·a_stride]·b[n·b_stride], unreduced; the strides
  /// count words, so a matrix column is a stride of one row.
  void dot_acc(const std::uint64_t* a, std::size_t a_stride,
               const std::uint64_t* b, std::size_t b_stride, std::size_t len,
               std::uint64_t* acc) const;
  /// out = acc mod P (elem_words() words); clobbers acc.
  void reduce_acc(std::uint64_t* acc, std::uint64_t* out) const;
  /// out = a² (elem_words() words); out may alias a.
  void square_words(const std::uint64_t* a, std::uint64_t* out) const;

 private:
  // Single-word helpers.
  std::uint64_t mul_u64(std::uint64_t a, std::uint64_t b) const;
  std::uint64_t square_u64(std::uint64_t a) const;
  std::uint64_t inv_u64(std::uint64_t a) const;
  std::uint64_t reduce_u128(std::uint64_t lo, std::uint64_t hi) const;

  // Sparse multi-word helpers.
  Gf2Poly mul_sparse(const Gf2Poly& a, const Gf2Poly& b) const;
  Gf2Poly square_sparse(const Gf2Poly& a) const;
  void fold_in_place(std::uint64_t* buf, std::size_t nwords) const;

  unsigned k_ = 0;
  Gf2Poly modulus_;
  KernelTier tier_ = KernelTier::kGeneric;

  /// Exponents of the modulus strictly below k, descending (the tail T in
  /// P = x^k + T): folding one overflow word is one shift-XOR per entry.
  std::vector<unsigned> tails_;
  std::size_t elem_words_ = 0;  // ceil(k / 64)

  // kSingleWord Barrett state: the modulus and μ = ⌊x^{2k}/P⌋ without their
  // x^k term, which is implicit (and would not fit a word at k = 64).
  std::uint64_t p_low_ = 0;
  std::uint64_t mu_low_ = 0;
};

}  // namespace gfa
