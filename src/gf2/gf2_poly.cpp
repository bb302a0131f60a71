#include "gf2/gf2_poly.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <utility>

namespace gfa {

namespace {
constexpr unsigned kWordBits = 64;
}  // namespace

void Gf2Poly::reserve(std::size_t n) {
  if (n <= cap_) return;
  std::size_t cap = 2 * static_cast<std::size_t>(cap_);
  if (cap < n) cap = n;
  auto* buf = new std::uint64_t[cap];
  std::copy(data(), data() + size_, buf);
  if (spilled()) delete[] heap_;
  heap_ = buf;
  cap_ = static_cast<std::uint32_t>(cap);
}

void Gf2Poly::resize(std::size_t n) {
  reserve(n);
  if (n > size_) std::fill(data() + size_, data() + n, 0);
  size_ = static_cast<std::uint32_t>(n);
}

void Gf2Poly::assign_zero(std::size_t n) {
  size_ = 0;
  resize(n);
}

void Gf2Poly::assign(const std::uint64_t* words, std::size_t n) {
  size_ = 0;
  reserve(n);
  std::copy(words, words + n, data());
  size_ = static_cast<std::uint32_t>(n);
}

void Gf2Poly::trim() {
  const std::uint64_t* w = data();
  while (size_ > 0 && w[size_ - 1] == 0) --size_;
}

bool Gf2Poly::operator==(const Gf2Poly& rhs) const {
  return size_ == rhs.size_ && std::equal(data(), data() + size_, rhs.data());
}

Gf2Poly Gf2Poly::from_bits(std::uint64_t bits) {
  Gf2Poly p;
  if (bits != 0) {
    p.inline_[0] = bits;
    p.size_ = 1;
  }
  return p;
}

Gf2Poly Gf2Poly::from_words(const std::uint64_t* words, std::size_t n) {
  Gf2Poly p;
  p.assign(words, n);
  p.trim();
  return p;
}

Gf2Poly Gf2Poly::from_exponents(std::initializer_list<unsigned> exps) {
  Gf2Poly p;
  for (unsigned e : exps) p.set_coeff(e, !p.coeff(e));
  return p;
}

Gf2Poly Gf2Poly::from_exponents(const std::vector<unsigned>& exps) {
  Gf2Poly p;
  for (unsigned e : exps) p.set_coeff(e, !p.coeff(e));
  return p;
}

Gf2Poly Gf2Poly::monomial(unsigned e) {
  Gf2Poly p;
  p.set_coeff(e, true);
  return p;
}

int Gf2Poly::degree() const {
  if (size_ == 0) return -1;
  const std::uint64_t top = data()[size_ - 1];
  return static_cast<int>((size_ - 1) * kWordBits +
                          (kWordBits - 1 - std::countl_zero(top)));
}

bool Gf2Poly::coeff(unsigned i) const {
  const std::size_t w = i / kWordBits;
  if (w >= size_) return false;
  return (data()[w] >> (i % kWordBits)) & 1u;
}

void Gf2Poly::set_coeff(unsigned i, bool value) {
  const std::size_t w = i / kWordBits;
  if (value) {
    if (w >= size_) resize(w + 1);
    data()[w] |= std::uint64_t{1} << (i % kWordBits);
  } else {
    if (w < size_) {
      data()[w] &= ~(std::uint64_t{1} << (i % kWordBits));
      trim();
    }
  }
}

int Gf2Poly::weight() const {
  int n = 0;
  for (std::uint64_t w : words()) n += std::popcount(w);
  return n;
}

Gf2Poly Gf2Poly::operator+(const Gf2Poly& rhs) const {
  Gf2Poly out = *this;
  out += rhs;
  return out;
}

Gf2Poly& Gf2Poly::add_spilled(const Gf2Poly& rhs) {
  if (rhs.size_ > size_) resize(rhs.size_);
  std::uint64_t* w = data();
  const std::uint64_t* r = rhs.data();
  for (std::size_t i = 0; i < rhs.size_; ++i) w[i] ^= r[i];
  trim();
  return *this;
}

void Gf2Poly::add_shifted(const Gf2Poly& p, unsigned n) {
  assert(&p != this);
  if (p.is_zero()) return;
  const std::size_t word_shift = n / kWordBits;
  const unsigned bit_shift = n % kWordBits;
  const std::size_t need = p.size_ + word_shift + (bit_shift != 0);
  if (need > size_) resize(need);
  std::uint64_t* out = data() + word_shift;
  const std::uint64_t* in = p.data();
  for (std::size_t i = 0; i < p.size_; ++i) {
    out[i] ^= in[i] << bit_shift;
    if (bit_shift != 0) out[i + 1] ^= in[i] >> (kWordBits - bit_shift);
  }
  trim();
}

Gf2Poly Gf2Poly::shifted_up(unsigned n) const {
  Gf2Poly out;
  out.add_shifted(*this, n);
  return out;
}

Gf2Poly Gf2Poly::operator*(const Gf2Poly& rhs) const {
  if (is_zero() || rhs.is_zero()) return {};
  // Schoolbook carry-less multiply, one set bit of the left operand at a
  // time.
  const std::span<const std::uint64_t> a = words(), b = rhs.words();
  Gf2Poly out;
  out.assign_zero(a.size() + b.size());
  std::uint64_t* o = out.data();
  for (std::size_t i = 0; i < a.size(); ++i) {
    std::uint64_t ai = a[i];
    while (ai != 0) {
      const unsigned bit = static_cast<unsigned>(std::countr_zero(ai));
      ai &= ai - 1;
      // XOR b << (64*i + bit) into out.
      for (std::size_t j = 0; j < b.size(); ++j) {
        const std::uint64_t w = b[j];
        o[i + j] ^= w << bit;
        if (bit != 0) o[i + j + 1] ^= w >> (kWordBits - bit);
      }
    }
  }
  out.trim();
  return out;
}

Gf2Poly Gf2Poly::squared() const {
  // Spread each bit to the even positions: (sum a_i x^i)^2 = sum a_i x^{2i}.
  auto spread32 = [](std::uint32_t v) {
    std::uint64_t x = v;
    x = (x | (x << 16)) & 0x0000FFFF0000FFFFull;
    x = (x | (x << 8)) & 0x00FF00FF00FF00FFull;
    x = (x | (x << 4)) & 0x0F0F0F0F0F0F0F0Full;
    x = (x | (x << 2)) & 0x3333333333333333ull;
    x = (x | (x << 1)) & 0x5555555555555555ull;
    return x;
  };
  Gf2Poly out;
  out.assign_zero(2 * static_cast<std::size_t>(size_));
  const std::uint64_t* in = data();
  std::uint64_t* o = out.data();
  for (std::size_t i = 0; i < size_; ++i) {
    o[2 * i] = spread32(static_cast<std::uint32_t>(in[i]));
    o[2 * i + 1] = spread32(static_cast<std::uint32_t>(in[i] >> 32));
  }
  out.trim();
  return out;
}

Gf2Poly::DivMod Gf2Poly::divmod(const Gf2Poly& divisor) const {
  assert(!divisor.is_zero() && "division by zero polynomial");
  DivMod dm;
  dm.remainder = *this;
  const int dd = divisor.degree();
  int rd = dm.remainder.degree();
  while (rd >= dd) {
    const unsigned shift = static_cast<unsigned>(rd - dd);
    dm.quotient.set_coeff(shift, true);
    dm.remainder.add_shifted(divisor, shift);
    rd = dm.remainder.degree();
  }
  return dm;
}

Gf2Poly Gf2Poly::mod(const Gf2Poly& divisor) const {
  assert(!divisor.is_zero() && "division by zero polynomial");
  Gf2Poly r = *this;
  const int dd = divisor.degree();
  int rd = r.degree();
  while (rd >= dd) {
    r.add_shifted(divisor, static_cast<unsigned>(rd - dd));
    rd = r.degree();
  }
  return r;
}

Gf2Poly Gf2Poly::gcd(Gf2Poly a, Gf2Poly b) {
  while (!b.is_zero()) {
    Gf2Poly r = a.mod(b);
    a = std::move(b);
    b = std::move(r);
  }
  return a;
}

Gf2Poly::ExtGcd Gf2Poly::ext_gcd(const Gf2Poly& a, const Gf2Poly& b) {
  // Iterative extended Euclid; all arithmetic is char-2 so signs vanish.
  Gf2Poly r0 = a, r1 = b;
  Gf2Poly s0 = Gf2Poly::one(), s1;
  Gf2Poly t0, t1 = Gf2Poly::one();
  while (!r1.is_zero()) {
    DivMod dm = r0.divmod(r1);
    Gf2Poly r2 = dm.remainder;
    Gf2Poly s2 = s0 + dm.quotient * s1;
    Gf2Poly t2 = t0 + dm.quotient * t1;
    r0 = std::move(r1);
    r1 = std::move(r2);
    s0 = std::move(s1);
    s1 = std::move(s2);
    t0 = std::move(t1);
    t1 = std::move(t2);
  }
  return {r0, s0, t0};
}

Gf2Poly Gf2Poly::mulmod(const Gf2Poly& a, const Gf2Poly& b, const Gf2Poly& m) {
  return (a * b).mod(m);
}

std::string Gf2Poly::to_string() const {
  if (is_zero()) return "0";
  std::string out;
  for (int i = degree(); i >= 0; --i) {
    if (!coeff(static_cast<unsigned>(i))) continue;
    if (!out.empty()) out += " + ";
    if (i == 0)
      out += "1";
    else if (i == 1)
      out += "x";
    else
      out += "x^" + std::to_string(i);
  }
  return out;
}

std::size_t Gf2Poly::hash() const {
  // FNV-1a over the packed words.
  std::size_t h = 1469598103934665603ull;
  for (std::uint64_t w : words()) {
    h ^= static_cast<std::size_t>(w);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace gfa
