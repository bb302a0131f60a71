#include "gf/gf2k_kernels.h"

#include <algorithm>
#include <bit>
#include <cassert>

#if defined(__PCLMUL__) && defined(__SSE2__)
#include <wmmintrin.h>
#define GFA_HAVE_PCLMUL 1
#else
#define GFA_HAVE_PCLMUL 0
#endif

namespace gfa {

namespace {

constexpr unsigned kTableMaxK = 16;
constexpr unsigned kSingleWordMaxK = 64;
/// Sparse tier limits: fold cost scales with the modulus weight, and the
/// multiply scratch lives on the stack. Dense or enormous moduli fall back to
/// the generic path.
constexpr std::size_t kMaxFoldTails = 16;
constexpr std::size_t kMaxElemWords = 32;             // k <= 2048
constexpr std::size_t kScratchWords = 2 * kMaxElemWords + 2;

/// 64x64 -> 128 carry-less multiply.
inline void clmul64(std::uint64_t a, std::uint64_t b, std::uint64_t& lo,
                    std::uint64_t& hi) {
#if GFA_HAVE_PCLMUL
  const __m128i p = _mm_clmulepi64_si128(
      _mm_cvtsi64_si128(static_cast<long long>(a)),
      _mm_cvtsi64_si128(static_cast<long long>(b)), 0x00);
  lo = static_cast<std::uint64_t>(_mm_cvtsi128_si64(p));
  hi = static_cast<std::uint64_t>(
      _mm_cvtsi128_si64(_mm_unpackhi_epi64(p, p)));
#else
  lo = hi = 0;
  while (b != 0) {
    const unsigned i = static_cast<unsigned>(std::countr_zero(b));
    b &= b - 1;
    lo ^= i ? (a << i) : a;
    if (i) hi ^= a >> (64 - i);
  }
#endif
}

/// acc ^= a·b for multi-word operands (na and nb words), carry-less and
/// unreduced; acc needs na + nb words.
inline void clmul_acc(const std::uint64_t* a, std::size_t na,
                      const std::uint64_t* b, std::size_t nb,
                      std::uint64_t* acc) {
  for (std::size_t i = 0; i < na; ++i) {
    if (a[i] == 0) continue;
    for (std::size_t j = 0; j < nb; ++j) {
      std::uint64_t lo, hi;
      clmul64(a[i], b[j], lo, hi);
      acc[i + j] ^= lo;
      acc[i + j + 1] ^= hi;
    }
  }
}

/// acc ^= Σ_{n < len} a_n·b_n for W-word operands at the given strides. The
/// partial products land on 2W-1 diagonals (word offset i + j) that stay in
/// registers until the end (W <= 9 covers k <= 576).
template <std::size_t W>
void dot_fixed(const std::uint64_t* a, std::size_t a_stride,
               const std::uint64_t* b, std::size_t b_stride, std::size_t len,
               std::uint64_t* acc) {
#if GFA_HAVE_PCLMUL
  // Karatsuba per word pair: x_i·y_j + x_j·y_i = (x_i + x_j)(y_i + y_j) +
  // x_i·y_i + x_j·y_j, so a term costs W(W+1)/2 multiplies instead of W².
  // The x_i·y_i sums are kept apart and added back to the diagonals once.
  __m128i diag[2 * W - 1], self[W];
  for (__m128i& d : diag) d = _mm_setzero_si128();
  for (__m128i& d : self) d = _mm_setzero_si128();
  for (std::size_t n = 0; n < len; ++n, a += a_stride, b += b_stride) {
    __m128i x[W], y[W];
    for (std::size_t i = 0; i < W; ++i) {
      x[i] = _mm_cvtsi64_si128(static_cast<long long>(a[i]));
      y[i] = _mm_cvtsi64_si128(static_cast<long long>(b[i]));
      self[i] = _mm_xor_si128(self[i], _mm_clmulepi64_si128(x[i], y[i], 0x00));
    }
    for (std::size_t i = 0; i < W; ++i)
      for (std::size_t j = i + 1; j < W; ++j)
        diag[i + j] = _mm_xor_si128(
            diag[i + j],
            _mm_clmulepi64_si128(_mm_xor_si128(x[i], x[j]),
                                 _mm_xor_si128(y[i], y[j]), 0x00));
  }
  for (std::size_t i = 0; i < W; ++i) {
    diag[2 * i] = _mm_xor_si128(diag[2 * i], self[i]);
    for (std::size_t j = i + 1; j < W; ++j)
      diag[i + j] =
          _mm_xor_si128(diag[i + j], _mm_xor_si128(self[i], self[j]));
  }
  for (std::size_t d = 0; d < 2 * W - 1; ++d) {
    acc[d] ^= static_cast<std::uint64_t>(_mm_cvtsi128_si64(diag[d]));
    acc[d + 1] ^= static_cast<std::uint64_t>(
        _mm_cvtsi128_si64(_mm_unpackhi_epi64(diag[d], diag[d])));
  }
#else
  std::uint64_t sum[2 * W] = {};
  for (std::size_t n = 0; n < len; ++n, a += a_stride, b += b_stride) {
    for (std::size_t i = 0; i < W; ++i) {
      for (std::size_t j = 0; j < W; ++j) {
        std::uint64_t lo, hi;
        clmul64(a[i], b[j], lo, hi);
        sum[i + j] ^= lo;
        sum[i + j + 1] ^= hi;
      }
    }
  }
  for (std::size_t i = 0; i < 2 * W; ++i) acc[i] ^= sum[i];
#endif
}

/// Spreads the 32 low bits of v to the even bit positions (squaring over
/// GF(2) interleaves zeros).
inline std::uint64_t spread32(std::uint32_t v) {
  std::uint64_t x = v;
  x = (x | (x << 16)) & 0x0000FFFF0000FFFFull;
  x = (x | (x << 8)) & 0x00FF00FF00FF00FFull;
  x = (x | (x << 4)) & 0x0F0F0F0F0F0F0F0Full;
  x = (x | (x << 2)) & 0x3333333333333333ull;
  x = (x | (x << 1)) & 0x5555555555555555ull;
  return x;
}

inline std::uint64_t low_word(const Gf2Poly& p) {
  return p.words().empty() ? 0 : p.words()[0];
}

std::vector<std::uint32_t> prime_factors_u32(std::uint32_t n) {
  std::vector<std::uint32_t> out;
  for (std::uint32_t p = 2; p * p <= n; ++p) {
    if (n % p == 0) {
      out.push_back(p);
      while (n % p == 0) n /= p;
    }
  }
  if (n > 1) out.push_back(n);
  return out;
}

}  // namespace

const char* to_string(KernelTier tier) {
  switch (tier) {
    case KernelTier::kTable:
      return "table";
    case KernelTier::kSingleWord:
      return "single-word";
    case KernelTier::kSparseMod:
      return "sparse-mod";
    case KernelTier::kGeneric:
      return "generic";
  }
  return "?";
}

Gf2kKernels::Gf2kKernels(const Gf2Poly& modulus) : modulus_(modulus) {
  const int deg = modulus_.degree();
  assert(deg >= 1 && "kernel modulus must have degree >= 1");
  k_ = static_cast<unsigned>(deg);
  for (int i = deg - 1; i >= 0; --i)
    if (modulus_.coeff(static_cast<unsigned>(i)))
      tails_.push_back(static_cast<unsigned>(i));
  elem_words_ = (k_ + 63) / 64;

  if (k_ >= 2 && k_ <= kTableMaxK) {
    tier_ = KernelTier::kTable;
  } else if (k_ <= kSingleWordMaxK) {
    tier_ = KernelTier::kSingleWord;
  } else if (tails_.size() <= kMaxFoldTails && elem_words_ <= kMaxElemWords) {
    tier_ = KernelTier::kSparseMod;
  } else {
    tier_ = KernelTier::kGeneric;
  }

  if (tier_ != KernelTier::kTable) return;

  // Build the discrete-log tables over a generator g of the multiplicative
  // group: g is found by checking g^(N/p) != 1 for every prime p | N.
  order_n_ = (std::uint32_t{1} << k_) - 1;
  const std::vector<std::uint32_t> primes = prime_factors_u32(order_n_);
  auto pow_bits = [&](std::uint64_t base, std::uint32_t e) {
    std::uint64_t r = 1;
    while (e != 0) {
      if (e & 1) r = mul_u64(r, base);
      base = mul_u64(base, base);
      e >>= 1;
    }
    return r;
  };
  std::uint64_t g = 2;  // the residue of x; often already primitive
  for (;; ++g) {
    bool primitive = true;
    for (std::uint32_t p : primes) {
      if (pow_bits(g, order_n_ / p) == 1) {
        primitive = false;
        break;
      }
    }
    if (primitive) break;
    assert(g < order_n_ && "no generator found; modulus not irreducible?");
  }

  log_.assign(std::size_t{1} << k_, 0);
  antilog_.assign(std::size_t{2} * order_n_, 0);
  std::uint64_t cur = 1;
  for (std::uint32_t i = 0; i < order_n_; ++i) {
    antilog_[i] = static_cast<std::uint32_t>(cur);
    antilog_[i + order_n_] = static_cast<std::uint32_t>(cur);
    log_[cur] = i;
    cur = mul_u64(cur, g);
  }
  assert(cur == 1 && "generator order mismatch");
  log_alpha_ = log_[2];
}

std::uint64_t Gf2kKernels::reduce_u128(std::uint64_t lo, std::uint64_t hi) const {
  if (k_ == 64) {
    while (hi != 0) {
      const std::uint64_t h = hi;
      hi = 0;
      for (unsigned t : tails_) {
        lo ^= t ? (h << t) : h;
        if (t) hi ^= h >> (64 - t);
      }
    }
    return lo;
  }
  const std::uint64_t mask = (std::uint64_t{1} << k_) - 1;
  for (;;) {
    // Inputs have degree <= 2k-2, so the overflow part always fits one word.
    const std::uint64_t h = (hi << (64 - k_)) | (lo >> k_);
    if (h == 0) return lo;
    hi = 0;
    lo &= mask;
    for (unsigned t : tails_) {
      lo ^= t ? (h << t) : h;
      if (t) hi ^= h >> (64 - t);
    }
  }
}

std::uint64_t Gf2kKernels::mul_u64(std::uint64_t a, std::uint64_t b) const {
  std::uint64_t lo, hi;
  clmul64(a, b, lo, hi);
  return reduce_u128(lo, hi);
}

std::uint64_t Gf2kKernels::square_u64(std::uint64_t a) const {
  return reduce_u128(spread32(static_cast<std::uint32_t>(a)),
                     spread32(static_cast<std::uint32_t>(a >> 32)));
}

std::uint64_t Gf2kKernels::inv_u64(std::uint64_t a) const {
  assert(a != 0 && "zero has no multiplicative inverse");
  // Fermat: a^(2^k - 2); the exponent has bits k-1 … 1 set.
  std::uint64_t result = 1;
  for (int i = static_cast<int>(k_) - 1; i >= 0; --i) {
    result = square_u64(result);
    if (i >= 1) result = mul_u64(result, a);
  }
  return result;
}

void Gf2kKernels::fold_in_place(std::uint64_t* buf, std::size_t nwords) const {
  const unsigned kw = k_ / 64, ks = k_ % 64;
  const std::size_t first_full = kw + (ks ? 1 : 0);
  bool again = true;
  while (again) {
    again = false;
    // Full words at or above x^k, top down: bit 0 of word i sits at x^(64i),
    // and x^(64i + j) folds to x^(64i + j - k + t) for every tail t.
    for (std::size_t i = nwords; i-- > first_full;) {
      const std::uint64_t w = buf[i];
      if (w == 0) continue;
      buf[i] = 0;
      const std::size_t base = i * 64 - k_;
      for (unsigned t : tails_) {
        const std::size_t pos = base + t;
        const unsigned sh = pos % 64;
        buf[pos / 64] ^= sh ? (w << sh) : w;
        if (sh) buf[pos / 64 + 1] ^= w >> (64 - sh);
      }
    }
    // Leftover bits >= k inside the boundary word.
    if (ks) {
      const std::uint64_t w = buf[kw] >> ks;
      if (w != 0) {
        buf[kw] &= (std::uint64_t{1} << ks) - 1;
        for (unsigned t : tails_) {
          const unsigned sh = t % 64;
          buf[t / 64] ^= sh ? (w << sh) : w;
          if (sh) buf[t / 64 + 1] ^= w >> (64 - sh);
        }
      }
    }
    // Large tails can push bits back above x^k; sweep again until clean.
    for (std::size_t i = first_full; i < nwords; ++i) {
      if (buf[i] != 0) {
        again = true;
        break;
      }
    }
    if (!again && ks != 0 && (buf[kw] >> ks) != 0) again = true;
  }
}

Gf2Poly Gf2kKernels::mul_sparse(const Gf2Poly& a, const Gf2Poly& b) const {
  if (a.is_zero() || b.is_zero()) return {};
  const std::vector<std::uint64_t>& aw = a.words();
  const std::vector<std::uint64_t>& bw = b.words();
  std::uint64_t buf[kScratchWords] = {0};
  const std::size_t nw = aw.size() + bw.size() + 1;
  assert(nw <= kScratchWords);
  clmul_acc(aw.data(), aw.size(), bw.data(), bw.size(), buf);
  fold_in_place(buf, nw);
  return Gf2Poly::from_words(buf, elem_words_);
}

Gf2Poly Gf2kKernels::square_sparse(const Gf2Poly& a) const {
  if (a.is_zero()) return {};
  std::uint64_t buf[kMaxElemWords] = {0};
  std::copy(a.words().begin(), a.words().end(), buf);
  square_words(buf, buf);
  return Gf2Poly::from_words(buf, elem_words_);
}

Gf2Poly Gf2kKernels::mul(const Gf2Poly& a, const Gf2Poly& b) const {
  switch (tier_) {
    case KernelTier::kTable: {
      const std::uint64_t ab = low_word(a), bb = low_word(b);
      if (ab == 0 || bb == 0) return {};
      return Gf2Poly::from_bits(antilog_[log_[ab] + log_[bb]]);
    }
    case KernelTier::kSingleWord:
      return Gf2Poly::from_bits(mul_u64(low_word(a), low_word(b)));
    case KernelTier::kSparseMod:
      return mul_sparse(a, b);
    case KernelTier::kGeneric:
      break;
  }
  return (a * b).mod(modulus_);
}

Gf2Poly Gf2kKernels::square(const Gf2Poly& a) const {
  switch (tier_) {
    case KernelTier::kTable: {
      const std::uint64_t ab = low_word(a);
      if (ab == 0) return {};
      return Gf2Poly::from_bits(antilog_[std::size_t{2} * log_[ab]]);
    }
    case KernelTier::kSingleWord:
      return Gf2Poly::from_bits(square_u64(low_word(a)));
    case KernelTier::kSparseMod:
      return square_sparse(a);
    case KernelTier::kGeneric:
      break;
  }
  return a.squared().mod(modulus_);
}

Gf2Poly Gf2kKernels::inv(const Gf2Poly& a) const {
  assert(!a.is_zero() && "zero has no multiplicative inverse");
  switch (tier_) {
    case KernelTier::kTable:
      return Gf2Poly::from_bits(antilog_[order_n_ - log_[low_word(a)]]);
    case KernelTier::kSingleWord:
      return Gf2Poly::from_bits(inv_u64(low_word(a)));
    case KernelTier::kSparseMod:
    case KernelTier::kGeneric:
      break;
  }
  Gf2Poly::ExtGcd eg = Gf2Poly::ext_gcd(a, modulus_);
  assert(eg.g.is_one() && "modulus not irreducible or element not reduced");
  return eg.s.mod(modulus_);
}

Gf2Poly Gf2kKernels::alpha_pow(std::uint64_t e) const {
  if (tier_ == KernelTier::kTable) {
    const std::uint64_t em = e % order_n_;
    return Gf2Poly::from_bits(antilog_[(em * log_alpha_) % order_n_]);
  }
  const Gf2Poly base = Gf2Poly::monomial(1).mod(modulus_);
  if (e == 0) return Gf2Poly::one();
  Gf2Poly result = Gf2Poly::one();
  for (int i = 63 - std::countl_zero(e); i >= 0; --i) {
    result = square(result);
    if ((e >> i) & 1) result = mul(result, base);
  }
  return result;
}

void Gf2kKernels::mul_acc(const std::uint64_t* a, const std::uint64_t* b,
                          std::uint64_t* acc) const {
  clmul_acc(a, elem_words_, b, elem_words_, acc);
}

void Gf2kKernels::dot_acc(const std::uint64_t* a, std::size_t a_stride,
                          const std::uint64_t* b, std::size_t b_stride,
                          std::size_t len, std::uint64_t* acc) const {
  switch (elem_words_) {
    case 1: return dot_fixed<1>(a, a_stride, b, b_stride, len, acc);
    case 2: return dot_fixed<2>(a, a_stride, b, b_stride, len, acc);
    case 3: return dot_fixed<3>(a, a_stride, b, b_stride, len, acc);
    case 4: return dot_fixed<4>(a, a_stride, b, b_stride, len, acc);
    case 5: return dot_fixed<5>(a, a_stride, b, b_stride, len, acc);
    case 6: return dot_fixed<6>(a, a_stride, b, b_stride, len, acc);
    case 7: return dot_fixed<7>(a, a_stride, b, b_stride, len, acc);
    case 8: return dot_fixed<8>(a, a_stride, b, b_stride, len, acc);
    case 9: return dot_fixed<9>(a, a_stride, b, b_stride, len, acc);
    default:
      for (std::size_t n = 0; n < len; ++n)
        clmul_acc(a + n * a_stride, elem_words_, b + n * b_stride,
                  elem_words_, acc);
  }
}

void Gf2kKernels::reduce_acc(std::uint64_t* acc, std::uint64_t* out) const {
  if (elem_words_ == 1) {  // the table and single-word tiers
    out[0] = reduce_u128(acc[0], acc[1]);
    return;
  }
  if (tier_ == KernelTier::kSparseMod) {
    fold_in_place(acc, acc_words());
    std::copy(acc, acc + elem_words_, out);
    return;
  }
  const Gf2Poly r = Gf2Poly::from_words(acc, acc_words()).mod(modulus_);
  std::fill(out, out + elem_words_, 0);
  std::copy(r.words().begin(), r.words().end(), out);
}

void Gf2kKernels::square_words(const std::uint64_t* a,
                               std::uint64_t* out) const {
  if (elem_words_ == 1) {
    out[0] = square_u64(a[0]);
    return;
  }
  if (tier_ == KernelTier::kSparseMod) {
    std::uint64_t buf[kScratchWords];
    for (std::size_t i = 0; i < elem_words_; ++i) {
      buf[2 * i] = spread32(static_cast<std::uint32_t>(a[i]));
      buf[2 * i + 1] = spread32(static_cast<std::uint32_t>(a[i] >> 32));
    }
    fold_in_place(buf, acc_words());
    std::copy(buf, buf + elem_words_, out);
    return;
  }
  const Gf2Poly r =
      Gf2Poly::from_words(a, elem_words_).squared().mod(modulus_);
  std::fill(out, out + elem_words_, 0);
  std::copy(r.words().begin(), r.words().end(), out);
}

}  // namespace gfa
