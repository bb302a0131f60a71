#pragma once
// Serialization of extracted canonical forms (WordFunction) for the
// verification service's content-addressed cache.
//
// A cached entry is the word-level polynomial Z = G(A, B, …) the extractor
// produced — exactly what same_word_function() compares — reduced to what
// that comparison needs: the output word name, the input word names, and the
// terms of G keyed by input-word monomials. Bit variables, stats, and pool
// ids are *not* persisted: ids are reassigned on decode (comparison is by
// name, see abstraction/equivalence.h), so an entry round-trips into a
// minimal pool containing only the input words.
//
// The payload is JSON (the repository's only wire format). Coefficients and
// exponents are little-endian u64 word vectors rendered as hex strings, NOT
// JSON numbers: the JSON reader holds numbers as double, which silently
// loses integer precision past 2^53 — fatal for k > 53 exponents, which
// reach 2^k - 1.
//
// decode_canon_form() is strict: an unknown version, a variable outside the
// declared input words, a malformed hex string, or a coefficient of degree
// >= k all fail with kInvalidArgument. The cache treats any decode failure
// like a CRC mismatch — drop the entry and recompute — so a damaged or
// stale-format entry can cost time, never a wrong verdict.

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "abstraction/extractor.h"
#include "gf/gf2k.h"
#include "util/status.h"

namespace gfa {

/// Bumped whenever the payload schema changes; decode rejects other versions.
inline constexpr std::uint32_t kCanonFormVersion = 1;

/// Little-endian u64 words -> lowercase hex (most significant nibble first,
/// no leading zeros, "0" for the empty/zero vector).
std::string hex_of_words(std::span<const std::uint64_t> words);

/// Inverse of hex_of_words(); kInvalidArgument on non-hex characters or an
/// empty string.
Result<std::vector<std::uint64_t>> words_of_hex(std::string_view hex);

/// Compact JSON payload for one canonical form.
std::string encode_canon_form(const WordFunction& fn);

/// Rebuilds a WordFunction over `field` from an encode_canon_form() payload.
/// The returned pool contains exactly the input words (interned as kWord);
/// stats are default (the cache never replays extraction cost).
Result<WordFunction> decode_canon_form(std::string_view json,
                                       const Gf2k& field);

}  // namespace gfa
