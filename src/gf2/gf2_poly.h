#pragma once
// Dense polynomials over GF(2), stored as packed bit vectors.
//
// A Gf2Poly represents an element of GF(2)[x]. Bit i of the packed storage is
// the coefficient of x^i. This is the substrate on which the extension fields
// F_{2^k} (src/gf/gf2k.h) are constructed: field elements are residues of
// GF(2)[x] modulo an irreducible polynomial P(x) of degree k.
//
// The representation is canonical: the top word never carries bits above
// degree(), and the zero polynomial has empty storage. All arithmetic keeps
// this invariant, so operator== is a plain word compare.
//
// Up to kInlineWords words (degree < 256, so every element of a field with
// k <= 256) live inside the object; longer polynomials spill to one heap
// buffer. Copying a k <= 256 field element therefore never allocates, and a
// moved-from polynomial is zero.

#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

namespace gfa {

class Gf2Poly {
 public:
  /// Words held without a heap buffer.
  static constexpr std::size_t kInlineWords = 4;

  /// The zero polynomial. Its inline words start zeroed: copy_inline
  /// copies all of them at once, used or not.
  Gf2Poly() noexcept : inline_{} {}
  Gf2Poly(const Gf2Poly& o) {
    if (o.spilled())
      assign(o.heap_, o.size_);
    else
      copy_inline(o);
  }
  Gf2Poly(Gf2Poly&& o) noexcept { take(o); }
  Gf2Poly& operator=(const Gf2Poly& o) {
    if (this == &o) return *this;
    if (spilled() || o.spilled())
      assign(o.data(), o.size_);
    else
      copy_inline(o);
    return *this;
  }
  Gf2Poly& operator=(Gf2Poly&& o) noexcept {
    if (this != &o) {
      release();
      take(o);
    }
    return *this;
  }
  ~Gf2Poly() { release(); }

  /// Polynomial whose coefficient bits are the bits of `bits` (bit i -> x^i).
  static Gf2Poly from_bits(std::uint64_t bits);

  /// Polynomial from `n` packed little-endian words (bit i of word j is the
  /// coefficient of x^(64j+i)); trailing zero words are trimmed.
  static Gf2Poly from_words(const std::uint64_t* words, std::size_t n);

  /// Polynomial with 1-coefficients exactly at the listed exponents.
  /// Duplicate exponents cancel in pairs (GF(2) addition).
  static Gf2Poly from_exponents(std::initializer_list<unsigned> exps);
  static Gf2Poly from_exponents(const std::vector<unsigned>& exps);

  /// The monomial x^e.
  static Gf2Poly monomial(unsigned e);

  /// Constant 1.
  static Gf2Poly one() { return from_bits(1); }

  /// Degree of the polynomial; -1 for the zero polynomial.
  int degree() const;

  bool is_zero() const { return size_ == 0; }
  bool is_one() const { return size_ == 1 && data()[0] == 1; }

  /// Coefficient of x^i (0 or 1). Out-of-range exponents read as 0.
  bool coeff(unsigned i) const;

  /// Set the coefficient of x^i.
  void set_coeff(unsigned i, bool value);

  /// Number of nonzero coefficients.
  int weight() const;

  /// Addition and subtraction coincide over GF(2): coefficient-wise XOR.
  /// Two inline operands (degree < 256: every field element up to k = 256)
  /// XOR in the header — the reduction chain's coefficient merge is this
  /// loop and a zero test.
  Gf2Poly operator+(const Gf2Poly& rhs) const;
  Gf2Poly& operator+=(const Gf2Poly& rhs) {
    if (spilled() || rhs.spilled()) return add_spilled(rhs);
    for (std::uint32_t i = size_; i < rhs.size_; ++i) inline_[i] = 0;
    for (std::uint32_t i = 0; i < rhs.size_; ++i) inline_[i] ^= rhs.inline_[i];
    if (rhs.size_ > size_) size_ = rhs.size_;
    while (size_ > 0 && inline_[size_ - 1] == 0) --size_;
    return *this;
  }

  /// Carry-less (schoolbook) product.
  Gf2Poly operator*(const Gf2Poly& rhs) const;

  /// x^2-substitution: returns p(x)^2, i.e. coefficients spread to even slots.
  Gf2Poly squared() const;

  /// Multiply by x^n (left shift of the coefficient vector).
  Gf2Poly shifted_up(unsigned n) const;

  /// Quotient and remainder of polynomial division by `divisor` (non-zero).
  struct DivMod;  // defined after the class (holds Gf2Poly values)
  DivMod divmod(const Gf2Poly& divisor) const;

  /// Remainder modulo `divisor`.
  Gf2Poly mod(const Gf2Poly& divisor) const;

  /// Greatest common divisor (monic by construction over GF(2)).
  static Gf2Poly gcd(Gf2Poly a, Gf2Poly b);

  /// Extended gcd: returns g = gcd(a, b) and s, t with s*a + t*b = g.
  struct ExtGcd;  // defined after the class
  static ExtGcd ext_gcd(const Gf2Poly& a, const Gf2Poly& b);

  /// (a * b) mod m, for m of degree >= 1.
  static Gf2Poly mulmod(const Gf2Poly& a, const Gf2Poly& b, const Gf2Poly& m);

  bool operator==(const Gf2Poly& rhs) const;

  /// Human-readable form, e.g. "x^3 + x + 1"; "0" for the zero polynomial.
  std::string to_string() const;

  /// Raw packed words (bit i of word j is the coefficient of x^(64j+i)).
  std::span<const std::uint64_t> words() const { return {data(), size_}; }

  /// Bytes of the heap buffer behind a spilled polynomial; 0 when inline.
  std::size_t heap_bytes() const {
    return spilled() ? cap_ * sizeof(std::uint64_t) : 0;
  }

  /// Hash suitable for unordered containers.
  std::size_t hash() const;

 private:
  bool spilled() const { return cap_ > kInlineWords; }
  const std::uint64_t* data() const { return spilled() ? heap_ : inline_; }
  std::uint64_t* data() { return spilled() ? heap_ : inline_; }

  /// Storage for at least n words; the first size_ words survive.
  void reserve(std::size_t n);
  /// n words: the first min(size_, n) kept, any new ones zero.
  void resize(std::size_t n);
  /// Exactly n zero words.
  void assign_zero(std::size_t n);
  /// A copy of words[0, n) (not trimmed).
  void assign(const std::uint64_t* words, std::size_t n);
  /// All inline words at once (a fixed-size copy); neither side spilled.
  void copy_inline(const Gf2Poly& o) noexcept {
    std::memcpy(inline_, o.inline_, sizeof(inline_));
    size_ = o.size_;
  }
  /// Takes o's words and leaves o zero; *this must hold no heap buffer.
  void take(Gf2Poly& o) noexcept {
    if (o.spilled()) {
      heap_ = o.heap_;
      cap_ = o.cap_;
      size_ = o.size_;
      o.cap_ = kInlineWords;
    } else {
      copy_inline(o);
    }
    o.size_ = 0;
  }
  /// Frees any heap buffer; *this becomes zero.
  void release() noexcept {
    if (spilled()) {
      delete[] heap_;
      cap_ = kInlineWords;
    }
    size_ = 0;
  }
  /// operator+= when either operand holds a heap buffer.
  Gf2Poly& add_spilled(const Gf2Poly& rhs);
  /// this += p·x^n, growing as needed (p must not alias *this).
  void add_shifted(const Gf2Poly& p, unsigned n);
  void trim();

  std::uint32_t size_ = 0;             // words in use
  std::uint32_t cap_ = kInlineWords;   // > kInlineWords iff heap_ is live
  union {
    std::uint64_t inline_[kInlineWords];
    std::uint64_t* heap_;
  };
};

struct Gf2Poly::DivMod {
  Gf2Poly quotient;
  Gf2Poly remainder;
};

struct Gf2Poly::ExtGcd {
  Gf2Poly g;
  Gf2Poly s;
  Gf2Poly t;
};

}  // namespace gfa
