#include "abstraction/word_lift.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <map>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/parallel_for.h"

namespace gfa {

namespace {

void set_bit(std::uint64_t* words, std::size_t i) {
  words[i / 64] |= std::uint64_t{1} << (i % 64);
}

bool test_bit(const std::uint64_t* words, std::size_t i) {
  return (words[i / 64] >> (i % 64)) & 1;
}

}  // namespace

WordLift::WordLift(const Gf2k* field, const std::vector<Elem>* basis,
                   const ExecControl* control)
    : field_(field), words_(field->kernels().elem_words()) {
  const obs::TraceSpan span("frobenius_basis_change", "abstraction");
  const Gf2kKernels& kern = field_->kernels();
  const std::size_t k = field_->k(), w = words_, aw = kern.acc_words();
  if (basis != nullptr) {
    assert(basis->size() == k && "word basis must have k elements");
    basis_.reserve(k);
    for (const Elem& b : *basis) basis_.push_back(field_->reduce(b));
  }

  // One scratch block: the basis as flat words, Tr(α^m) for m < 2k-1, one
  // working element, an accumulator, and the k×2k bit matrix [T | I].
  std::vector<std::uint64_t> scratch(k * w + 2 * w + w + aw + k * 2 * w);
  std::uint64_t* beta = scratch.data();
  std::uint64_t* tr = beta + k * w;
  std::uint64_t* prod = tr + 2 * w;
  std::uint64_t* acc = prod + w;
  std::uint64_t* t = acc + aw;
  const auto row = [&](std::size_t i) { return t + i * 2 * w; };
  for (std::size_t i = 0; i < k; ++i) {
    if (basis_.empty()) {
      set_bit(beta + i * w, i);  // α^i, i < k, is coordinate i
    } else {
      const std::span<const std::uint64_t> bw = basis_[i].words();
      std::copy(bw.begin(), bw.end(), beta + i * w);
    }
  }

  // Tr(α^m) is the m-th power sum of the roots of P = Σ p_d x^d (the
  // conjugates of α). Newton's identities over F_2 give it from P alone:
  //   Tr(1) = k mod 2,
  //   Tr(α^m) = [m ≤ k, m odd]·p_{k-m} + Σ_{d=1}^{min(m-1, k)} p_{k-d}·Tr(α^{m-d}).
  const Gf2Poly& p = field_->modulus();
  if (k & 1) set_bit(tr, 0);
  for (std::size_t m = 1; m + 1 < 2 * k; ++m) {
    bool bit = m <= k && (m & 1) && p.coeff(static_cast<unsigned>(k - m));
    for (std::size_t d = 1; d <= std::min(m - 1, k); ++d)
      if (p.coeff(static_cast<unsigned>(k - d)) && test_bit(tr, m - d)) bit = !bit;
    if (bit) set_bit(tr, m);
  }
  // The trace is F_2-linear, so Tr(x) = parity(x & mask) for canonical x,
  // with mask bit i = Tr(α^i): the first w words of `tr`.
  const auto trace = [&](const std::uint64_t* x) {
    int parity = 0;
    for (std::size_t n = 0; n < w; ++n) parity ^= std::popcount(x[n] & tr[n]);
    return (parity & 1) != 0;
  };

  // T[i][l] = Tr(β_i·β_l), symmetric, beside the identity. For the
  // polynomial basis it is the Hankel matrix Tr(α^{i+l}).
  for (std::size_t i = 0; i < k; ++i) {
    throw_if_stopped(control);
    for (std::size_t l = i; l < k; ++l) {
      bool bit;
      if (basis_.empty()) {
        bit = test_bit(tr, i + l);
      } else {
        std::fill(acc, acc + aw, 0);
        kern.mul_acc(beta + i * w, beta + l * w, acc);
        kern.reduce_acc(acc, prod);
        bit = trace(prod);
      }
      if (bit) {
        set_bit(row(i), l);
        set_bit(row(l), i);
      }
    }
    set_bit(row(i) + w, i);
  }

  // Gauss–Jordan over F_2 turns [T | I] into [I | T^{-1}]. T is singular
  // exactly when β is not a basis.
  for (std::size_t col = 0; col < k; ++col) {
    std::size_t pivot = col;
    while (pivot < k && !test_bit(row(pivot), col)) ++pivot;
    if (pivot == k) throw std::logic_error("basis-change matrix is singular");
    if (pivot != col) std::swap_ranges(row(pivot), row(pivot) + 2 * w, row(col));
    for (std::size_t r = 0; r < k; ++r) {
      if (r == col || !test_bit(row(r), col)) continue;
      for (std::size_t x = 0; x < 2 * w; ++x) row(r)[x] ^= row(col)[x];
    }
  }

  // Row i of C: δ_i = Σ_l T^{-1}[i][l]·β_l, then its k-1 squarings.
  c_.assign(k * k * w, 0);
  for (std::size_t i = 0; i < k; ++i) {
    throw_if_stopped(control);
    std::uint64_t* d = &c_[i * k * w];
    for (std::size_t l = 0; l < k; ++l) {
      if (!test_bit(row(i) + w, l)) continue;
      for (std::size_t x = 0; x < w; ++x) d[x] ^= beta[l * w + x];
    }
    for (std::size_t j = 1; j < k; ++j)
      kern.square_words(d + (j - 1) * w, d + j * w);
  }
}

bool WordLift::has_basis(const std::vector<Elem>* basis) const {
  const unsigned k = field_->k();
  if (basis != nullptr && basis->size() != k) return false;
  const auto nth = [&](const std::vector<Elem>* b, unsigned i) {
    return b == nullptr || b->empty() ? Gf2Poly::monomial(i)
                                      : field_->reduce((*b)[i]);
  };
  for (unsigned i = 0; i < k; ++i)
    if (nth(basis, i) != nth(&basis_, i)) return false;
  return true;
}

WordLift::Elem WordLift::entry(unsigned i, unsigned j) const {
  return Gf2Poly::from_words(cword(i, j), words_);
}

MPoly WordLift::lift(const BitPoly& r, const std::vector<WordBinding>& words,
                     const VarPool& pool, const ExecControl* control) const {
  for (const WordBinding& w : words)
    assert(w.bit_vars.size() == field_->k() && "word width must equal k");
  if (r.max_monomial_size() <= 2) return lift_bilinear(r, words, pool, control);
  return lift_general(r, words, pool, control);
}

namespace {

struct BitLocation {
  std::size_t word_index;
  unsigned bit_index;
};

std::unordered_map<VarId, BitLocation> index_bits(
    const std::vector<WordLift::WordBinding>& words) {
  std::unordered_map<VarId, BitLocation> loc;
  for (std::size_t w = 0; w < words.size(); ++w)
    for (unsigned i = 0; i < words[w].bit_vars.size(); ++i)
      loc.emplace(words[w].bit_vars[i], BitLocation{w, i});
  return loc;
}

/// flat[index] += c, for a flat array of `size` elements of `w` words that is
/// zero-filled on first use.
void add_flat(const Gf2k& field, std::size_t w,
              std::vector<std::uint64_t>& flat, std::size_t size,
              std::size_t index, const Gf2k::Elem& c) {
  if (!field.is_canonical(c))
    return add_flat(field, w, flat, size, index, field.reduce(c));
  if (flat.empty()) flat.assign(size * w, 0);
  const std::span<const std::uint64_t> cw = c.words();
  for (std::size_t x = 0; x < cw.size(); ++x) flat[index * w + x] ^= cw[x];
}

}  // namespace

MPoly WordLift::lift_bilinear(const BitPoly& r,
                              const std::vector<WordBinding>& words,
                              const VarPool& pool,
                              const ExecControl* control) const {
  const std::size_t k = field_->k(), w = words_;
  const Gf2kKernels& kern = field_->kernels();
  const auto loc = index_bits(words);

  Elem constant = field_->zero();
  // Linear part per word (k entries); quadratic part per (word, word) pair
  // (k×k, row = first bit) with the convention word_index1 <= word_index2.
  // Each is flat words, zero-filled when its first term arrives.
  std::map<std::size_t, std::vector<std::uint64_t>> linear;
  std::map<std::pair<std::size_t, std::size_t>, std::vector<std::uint64_t>> quad;

  for (const auto& [m, c] : r.terms()) {
    if (m.empty()) {
      constant += c;
    } else if (m.size() == 1) {
      const auto it = loc.find(m[0]);
      if (it == loc.end()) throw std::logic_error("unbound bit variable in remainder");
      add_flat(*field_, w, linear[it->second.word_index], k,
               it->second.bit_index, c);
    } else {
      const auto it0 = loc.find(m[0]);
      const auto it1 = loc.find(m[1]);
      if (it0 == loc.end() || it1 == loc.end())
        throw std::logic_error("unbound bit variable in remainder");
      BitLocation l0 = it0->second, l1 = it1->second;
      if (l0.word_index > l1.word_index) std::swap(l0, l1);
      add_flat(*field_, w, quad[{l0.word_index, l1.word_index}], k * k,
               l0.bit_index * k + l1.bit_index, c);
    }
  }

  MPoly out(field_);
  out.add_term(Monomial(), constant);

  // Linear: Σ_i L[i]·w_i = Σ_j (Σ_i L[i]·C[i][j]) · W^{2^j}, one dot
  // product down column j of C per output coefficient.
  std::vector<std::uint64_t> acc(kern.acc_words()), coeff(w);
  for (const auto& [wi, vec] : linear) {
    const VarId wv = words[wi].word_var;
    for (std::size_t j = 0; j < k; ++j) {
      std::fill(acc.begin(), acc.end(), 0);
      kern.dot_acc(vec.data(), w, cword(0, j), k * w, k, acc.data());
      kern.reduce_acc(acc.data(), coeff.data());
      out.add_term(Monomial(wv, BigUint::pow2(static_cast<unsigned>(j))),
                   Gf2Poly::from_words(coeff.data(), w));
    }
    GFA_COUNT("lift.dot_products", k);
    GFA_COUNT("lift.reductions", k);
  }

  // Quadratic: Σ Q[i][l]·u_i·v_l = Σ_{s,t} (Cᵀ·Q·C)[s][t] · U^{2^s}·V^{2^t}.
  // E = Q·C, then D = Cᵀ·E: every entry is one dot product of length k that
  // accumulates unreduced and folds once. Rows are independent, so both
  // transforms run on the pool; the terms merge sequentially in row order.
  std::vector<std::uint64_t> e(k * k * w);
  std::vector<std::vector<std::pair<Monomial, Elem>>> rows(k);
  for (const auto& [pair, q] : quad) {
    throw_if_stopped(control);
    const VarId uv = words[pair.first].word_var;
    const VarId vv = words[pair.second].word_var;
    parallel_for(k, [&](std::size_t i) {
      std::vector<std::uint64_t> sum(kern.acc_words());
      for (std::size_t t = 0; t < k; ++t) {
        std::fill(sum.begin(), sum.end(), 0);
        kern.dot_acc(&q[i * k * w], w, cword(0, t), k * w, k, sum.data());
        kern.reduce_acc(sum.data(), &e[(i * k + t) * w]);
      }
    }, control);
    parallel_for(k, [&](std::size_t s) {
      std::vector<std::uint64_t> sum(kern.acc_words()), d(w);
      rows[s].clear();
      for (std::size_t t = 0; t < k; ++t) {
        std::fill(sum.begin(), sum.end(), 0);
        kern.dot_acc(cword(0, s), k * w, &e[t * w], k * w, k, sum.data());
        kern.reduce_acc(sum.data(), d.data());
        Elem dst = Gf2Poly::from_words(d.data(), w);
        if (dst.is_zero()) continue;
        const auto ps = static_cast<unsigned>(s), pt = static_cast<unsigned>(t);
        Monomial mono =
            uv == vv
                ? Monomial(uv, field_->reduce_exponent(BigUint::pow2(ps) +
                                                       BigUint::pow2(pt)))
                : Monomial::from_pairs({{uv, BigUint::pow2(ps)},
                                        {vv, BigUint::pow2(pt)}});
        rows[s].emplace_back(std::move(mono), std::move(dst));
      }
    }, control);
    for (const auto& row : rows)
      for (const auto& [mono, d] : row) out.add_term(mono, d);
    GFA_COUNT("lift.q_pairs", 1);
    GFA_COUNT("lift.dot_products", 2 * k * k);
    GFA_COUNT("lift.reductions", 2 * k * k);
  }
  return out.normalized_vanishing(pool);
}

MPoly WordLift::lift_general(const BitPoly& r,
                             const std::vector<WordBinding>& words,
                             const VarPool& pool,
                             const ExecControl* control) const {
  const unsigned k = field_->k();
  const auto loc = index_bits(words);
  GFA_COUNT("lift.general_terms", r.num_terms());

  // Per-bit expansion polynomials w_i = Σ_j C[i][j]·W^{2^j}, built up front
  // (serially — k terms per distinct bit) so the expensive per-term products
  // below can share them read-only across pool threads.
  std::unordered_map<VarId, MPoly> expansion;
  for (const auto& [m, c] : r.terms()) {
    for (VarId v : m) {
      if (expansion.count(v)) continue;
      const auto lit = loc.find(v);
      if (lit == loc.end())
        throw std::logic_error("unbound bit variable in remainder");
      MPoly p(field_);
      const VarId wv = words[lit->second.word_index].word_var;
      for (unsigned j = 0; j < k; ++j) {
        const Elem coeff = entry(lit->second.bit_index, j);
        if (!coeff.is_zero()) p.add_term(Monomial(wv, BigUint::pow2(j)), coeff);
      }
      expansion.emplace(v, std::move(p));
    }
  }

  // Each remainder term expands independently (a product of its bits'
  // expansion polynomials); terms are strided over width-many chunks, each
  // chunk accumulating into a private MPoly, merged in fixed chunk order.
  // Coefficient addition in F_{2^k} is exact, so the result matches the
  // serial accumulation bit for bit.
  std::vector<const BitPoly::TermMap::value_type*> terms;
  terms.reserve(r.terms().size());
  for (const auto& term : r.terms()) terms.push_back(&term);
  const std::size_t chunks = std::min<std::size_t>(
      std::max<unsigned>(parallel_available_width(), 1), terms.size());
  std::vector<MPoly> partial(chunks, MPoly(field_));
  parallel_for(chunks, [&](std::size_t chunk) {
    MPoly acc_sum(field_);
    for (std::size_t i = chunk; i < terms.size(); i += chunks) {
      throw_if_stopped(control);
      const auto& [m, c] = *terms[i];
      MPoly acc = MPoly::constant(field_, c);
      for (VarId v : m)
        acc = acc.mul(expansion.at(v), control)
                  .normalized_vanishing(pool, control);
      acc_sum += acc;
    }
    partial[chunk] = std::move(acc_sum);
  }, control);
  MPoly out(field_);
  for (MPoly& p : partial) out += p;
  return out.normalized_vanishing(pool, control);
}

}  // namespace gfa
