#pragma once
// Arbitrary-precision unsigned integers.
//
// Used for monomial exponents in the word-level polynomial ring over F_{2^k}:
// the canonical representation of a function over F_q has monomial degrees up
// to q - 1 = 2^k - 1, which for the NIST field k = 571 far exceeds any machine
// word. Values are little-endian vectors of 64-bit words with no trailing zero
// words (canonical form), so equality is a plain vector compare.

#include <compare>
#include <cstdint>
#include <string>
#include <vector>

namespace gfa {

class BigUint {
 public:
  /// Zero.
  BigUint() = default;

  /// Value of a machine word.
  BigUint(std::uint64_t v);  // NOLINT(google-explicit-constructor): numeric literal convenience

  /// 2^e.
  static BigUint pow2(unsigned e);

  bool is_zero() const { return words_.empty(); }
  bool is_one() const { return words_.size() == 1 && words_[0] == 1; }

  /// True iff the value fits in a single 64-bit word.
  bool fits_u64() const { return words_.size() <= 1; }

  /// The low 64 bits (the full value when fits_u64()).
  std::uint64_t low_u64() const { return words_.empty() ? 0 : words_[0]; }

  /// Position of the highest set bit, or -1 for zero.
  int bit_length() const;

  bool bit(unsigned i) const;

  BigUint operator+(const BigUint& rhs) const;
  BigUint& operator+=(const BigUint& rhs);

  /// Subtraction; requires *this >= rhs.
  BigUint operator-(const BigUint& rhs) const;

  BigUint operator*(const BigUint& rhs) const;

  /// Quotient and remainder (divisor non-zero).
  struct DivMod;  // defined after the class (holds BigUint values)
  DivMod divmod(const BigUint& divisor) const;
  BigUint operator%(const BigUint& divisor) const;

  BigUint operator<<(unsigned n) const;

  std::strong_ordering operator<=>(const BigUint& rhs) const;
  bool operator==(const BigUint& rhs) const = default;

  /// Decimal string.
  std::string to_string() const;

  /// The canonical little-endian word storage (no trailing zero words; empty
  /// for zero). The canonical-form serialization (canon_serial.h)
  /// persists exponents through this.
  const std::vector<std::uint64_t>& words() const { return words_; }

  /// Rebuilds a value from little-endian words; trailing zero words are
  /// trimmed, so any word vector round-trips to canonical form.
  static BigUint from_words(std::vector<std::uint64_t> words);

  std::size_t hash() const;

 private:
  void trim();
  std::vector<std::uint64_t> words_;  // little-endian, canonical
};

struct BigUint::DivMod {
  BigUint quotient;
  BigUint remainder;
};

}  // namespace gfa
