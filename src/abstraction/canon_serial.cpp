#include "abstraction/canon_serial.h"

#include <sstream>

#include "poly/monomial.h"
#include "poly/mpoly.h"
#include "util/json_reader.h"
#include "util/json_writer.h"

namespace gfa {

namespace {

int hex_digit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

std::string hex_of_words(std::span<const std::uint64_t> words) {
  // Trailing zero words contribute nothing; find the top non-zero word.
  std::size_t top = words.size();
  while (top > 0 && words[top - 1] == 0) --top;
  if (top == 0) return "0";
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  bool leading = true;
  for (std::size_t w = top; w-- > 0;) {
    for (int shift = 60; shift >= 0; shift -= 4) {
      const unsigned nibble =
          static_cast<unsigned>((words[w] >> shift) & 0xF);
      if (leading && nibble == 0) continue;
      leading = false;
      out += kDigits[nibble];
    }
  }
  return out;
}

Result<std::vector<std::uint64_t>> words_of_hex(std::string_view hex) {
  if (hex.empty())
    return Status::invalid_argument("empty hex string");
  std::vector<std::uint64_t> words((hex.size() + 15) / 16, 0);
  // Nibble i from the right lands in word i/16, shift 4*(i%16).
  for (std::size_t i = 0; i < hex.size(); ++i) {
    const int d = hex_digit(hex[hex.size() - 1 - i]);
    if (d < 0)
      return Status::invalid_argument("non-hex character in '" +
                                      std::string(hex) + "'");
    words[i / 16] |= static_cast<std::uint64_t>(d) << (4 * (i % 16));
  }
  while (!words.empty() && words.back() == 0) words.pop_back();
  return words;
}

std::string encode_canon_form(const WordFunction& fn) {
  std::ostringstream out;
  JsonWriter w(out, 0);
  w.begin_object();
  w.member("v", kCanonFormVersion);
  w.member("output_word", fn.output_word);
  w.key("input_words");
  w.begin_array();
  for (const std::string& name : fn.input_words) w.value(name);
  w.end_array();
  w.key("terms");
  w.begin_array();
  for (const auto& [mono, coeff] : fn.g.terms()) {
    w.begin_object();
    w.key("m");
    w.begin_array();
    for (const auto& [var, exp] : mono.factors()) {
      w.begin_array();
      w.value(fn.pool.name(var));
      w.value(hex_of_words(exp.words()));
      w.end_array();
    }
    w.end_array();
    w.member("c", hex_of_words(coeff.words()));
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return out.str();
}

Result<WordFunction> decode_canon_form(std::string_view json,
                                       const Gf2k& field) {
  Result<JsonValue> doc = parse_json(json);
  if (!doc.ok()) return doc.status();
  if (!doc->is_object())
    return Status::invalid_argument("canonical form is not a JSON object");
  if (doc->u64_or("v", 0) != kCanonFormVersion)
    return Status::invalid_argument(
        "canonical form has version " + std::to_string(doc->u64_or("v", 0)) +
        " (this build reads version " + std::to_string(kCanonFormVersion) +
        ")");
  WordFunction fn;
  fn.output_word = doc->string_or("output_word", "");
  if (fn.output_word.empty())
    return Status::invalid_argument("canonical form is missing output_word");
  const JsonValue* inputs = doc->find("input_words");
  if (inputs == nullptr || !inputs->is_array())
    return Status::invalid_argument("canonical form is missing input_words");
  for (const JsonValue& item : inputs->items()) {
    if (!item.is_string() || item.as_string().empty())
      return Status::invalid_argument("canonical form has a bad input word");
    fn.input_words.push_back(item.as_string());
    fn.pool.intern(item.as_string(), VarKind::kWord);
  }
  const JsonValue* terms = doc->find("terms");
  if (terms == nullptr || !terms->is_array())
    return Status::invalid_argument("canonical form is missing terms");
  fn.g = MPoly(&field);
  for (const JsonValue& term : terms->items()) {
    if (!term.is_object())
      return Status::invalid_argument("canonical form has a non-object term");
    const Result<std::vector<std::uint64_t>> coeff_words =
        words_of_hex(term.string_or("c", ""));
    if (!coeff_words.ok()) return coeff_words.status();
    const Gf2Poly coeff =
        Gf2Poly::from_words(coeff_words->data(), coeff_words->size());
    if (coeff.degree() >= static_cast<int>(field.k()))
      return Status::invalid_argument(
          "canonical form carries a coefficient of degree " +
          std::to_string(coeff.degree()) + " >= k = " +
          std::to_string(field.k()));
    const JsonValue* mono = term.find("m");
    if (mono == nullptr || !mono->is_array())
      return Status::invalid_argument("canonical form term is missing m");
    std::vector<std::pair<VarId, BigUint>> factors;
    for (const JsonValue& factor : mono->items()) {
      if (!factor.is_array() || factor.items().size() != 2 ||
          !factor.items()[0].is_string() || !factor.items()[1].is_string())
        return Status::invalid_argument(
            "canonical form has a malformed monomial factor");
      const std::string& name = factor.items()[0].as_string();
      if (!fn.pool.contains(name))
        return Status::invalid_argument(
            "canonical form mentions variable '" + name +
            "' outside its input words");
      const Result<std::vector<std::uint64_t>> exp_words =
          words_of_hex(factor.items()[1].as_string());
      if (!exp_words.ok()) return exp_words.status();
      factors.emplace_back(fn.pool.id(name),
                           BigUint::from_words(std::move(*exp_words)));
    }
    fn.g.add_term(Monomial::from_pairs(std::move(factors)), coeff);
  }
  return fn;
}

}  // namespace gfa
