#include "certify/certify.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "abstraction/rato.h"
#include "circuit/sim.h"
#include "obs/flight_recorder.h"
#include "util/fault_inject.h"

namespace gfa::certify {

namespace {

/// Input words shared by both circuits, matched by name against `impl`
/// (the same pairing make_miter performs). Throws std::invalid_argument on
/// a missing or width-mismatched word.
struct WordPairing {
  std::vector<const Word*> spec_in;
  std::vector<const Word*> impl_in;
  const Word* spec_out;
  const Word* impl_out;
};

WordPairing pair_words(const Netlist& spec, const Netlist& impl) {
  WordPairing p;
  p.spec_in = input_words(spec);
  p.spec_out = output_word(spec);
  p.impl_out = output_word(impl);
  if (p.spec_out == nullptr || p.impl_out == nullptr)
    throw std::invalid_argument("both circuits need a sole output word");
  if (p.spec_out->bits.size() != p.impl_out->bits.size())
    throw std::invalid_argument("output word widths differ");
  p.impl_in.reserve(p.spec_in.size());
  for (const Word* w : p.spec_in) {
    const Word* w2 = impl.find_word(w->name);
    if (w2 == nullptr || w2->bits.size() != w->bits.size())
      throw std::invalid_argument("input word '" + w->name + "' mismatch");
    p.impl_in.push_back(w2);
  }
  return p;
}

/// One simulator pass over both circuits with the given per-word lanes;
/// returns the first lane whose outputs disagree, or npos.
std::size_t first_mismatched_lane(
    const Netlist& spec, const Netlist& impl, const WordPairing& p,
    const std::vector<std::vector<Gf2Poly>>& lanes,
    std::vector<Gf2Poly>* spec_out, std::vector<Gf2Poly>* impl_out) {
  std::vector<std::pair<const Word*, std::vector<Gf2Poly>>> spec_ins;
  std::vector<std::pair<const Word*, std::vector<Gf2Poly>>> impl_ins;
  spec_ins.reserve(lanes.size());
  impl_ins.reserve(lanes.size());
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    spec_ins.emplace_back(p.spec_in[i], lanes[i]);
    impl_ins.emplace_back(p.impl_in[i], lanes[i]);
  }
  *spec_out = simulate_words(spec, *p.spec_out, spec_ins);
  *impl_out = simulate_words(impl, *p.impl_out, impl_ins);
  for (std::size_t l = 0; l < spec_out->size(); ++l)
    if ((*spec_out)[l] != (*impl_out)[l]) return l;
  return static_cast<std::size_t>(-1);
}

Witness witness_of_lane(const WordPairing& p,
                        const std::vector<std::vector<Gf2Poly>>& lanes,
                        std::size_t lane) {
  Witness w;
  for (std::size_t i = 0; i < lanes.size(); ++i)
    w[p.spec_in[i]->name] = lanes[i][lane];
  return w;
}

/// `rounds`×64 random points through both circuits; the first lane whose
/// outputs disagree becomes the witness.
std::optional<Witness> sample_lanes(const Netlist& spec, const Netlist& impl,
                                    const Gf2k& field, const WordPairing& p,
                                    unsigned rounds, std::uint64_t seed) {
  ElemRng rng(seed);
  std::vector<std::vector<Gf2Poly>> lanes(p.spec_in.size());
  std::vector<Gf2Poly> so, io;
  for (unsigned round = 0; round < rounds; ++round) {
    for (std::size_t i = 0; i < lanes.size(); ++i) {
      lanes[i].resize(64);
      for (std::size_t l = 0; l < 64; ++l) lanes[i][l] = rng.next_elem(field);
    }
    const std::size_t hit = first_mismatched_lane(spec, impl, p, lanes, &so, &io);
    if (hit != static_cast<std::size_t>(-1))
      return witness_of_lane(p, lanes, hit);
  }
  return std::nullopt;
}

}  // namespace

std::uint64_t ElemRng::next_u64() {
  // splitmix64: deterministic, seedable, and stateless across platforms.
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

Gf2k::Elem ElemRng::next_elem(const Gf2k& field) {
  const std::size_t nwords = (field.k() + 63) / 64;
  std::vector<std::uint64_t> words(nwords);
  for (std::uint64_t& w : words) w = next_u64();
  return field.reduce(Gf2Poly::from_words(words.data(), words.size()));
}

Gf2k::Elem eval_word_function(const WordFunction& fn, const Gf2k& /*field*/,
                              const Witness& w) {
  return fn.g.eval([&](VarId v) -> Gf2k::Elem {
    const std::string& name = fn.pool.name(v);
    const auto it = w.find(name);
    if (it == w.end())
      throw std::invalid_argument("witness assigns no value to word '" + name +
                                  "'");
    return it->second;
  });
}

std::optional<Witness> find_word_function_witness(const WordFunction& spec_fn,
                                                  const WordFunction& impl_fn,
                                                  const Gf2k& field,
                                                  unsigned max_points,
                                                  std::uint64_t seed) {
  std::vector<std::string> names = spec_fn.input_words;
  for (const std::string& n : impl_fn.input_words)
    if (std::find(names.begin(), names.end(), n) == names.end())
      names.push_back(n);
  ElemRng rng(seed);
  for (unsigned i = 0; i < max_points; ++i) {
    Witness w;
    for (const std::string& n : names) w[n] = rng.next_elem(field);
    if (eval_word_function(spec_fn, field, w) !=
        eval_word_function(impl_fn, field, w))
      return w;
  }
  return std::nullopt;
}

std::optional<Witness> find_simulation_witness(const Netlist& spec,
                                               const Netlist& impl,
                                               const Gf2k& field,
                                               unsigned max_rounds,
                                               std::uint64_t seed) {
  const WordPairing p = pair_words(spec, impl);
  if (p.spec_in.empty()) return std::nullopt;  // constant circuits: no inputs
  std::size_t total_bits = 0;
  for (const Word* w : p.spec_in) total_bits += w->bits.size();
  if (total_bits > 20)
    return sample_lanes(spec, impl, field, p, max_rounds, seed);

  // Exhaustive: pack a global counter's bits into the input words, so a
  // truly non-equivalent small instance can never evade the search.
  std::vector<std::vector<Gf2Poly>> lanes(p.spec_in.size());
  std::vector<Gf2Poly> so, io;
  const std::uint64_t limit = std::uint64_t{1} << total_bits;
  for (std::uint64_t base = 0; base < limit; base += 64) {
    const std::size_t n =
        static_cast<std::size_t>(std::min<std::uint64_t>(64, limit - base));
    for (std::size_t i = 0; i < lanes.size(); ++i) lanes[i].assign(n, {});
    for (std::size_t l = 0; l < n; ++l) {
      std::uint64_t c = base + l;
      for (std::size_t i = 0; i < lanes.size(); ++i) {
        const std::size_t width = p.spec_in[i]->bits.size();
        lanes[i][l] = Gf2Poly::from_bits(c & ((std::uint64_t{1} << width) - 1));
        c >>= width;
      }
    }
    const std::size_t hit = first_mismatched_lane(spec, impl, p, lanes, &so, &io);
    if (hit != static_cast<std::size_t>(-1))
      return witness_of_lane(p, lanes, hit);
  }
  return std::nullopt;
}

std::optional<Witness> find_random_simulation_witness(const Netlist& spec,
                                                      const Netlist& impl,
                                                      const Gf2k& field,
                                                      unsigned rounds,
                                                      std::uint64_t seed) {
  const WordPairing p = pair_words(spec, impl);
  if (p.spec_in.empty()) return std::nullopt;
  return sample_lanes(spec, impl, field, p, rounds, seed);
}

Witness witness_from_bits(const Netlist& netlist,
                          const std::vector<bool>& bits) {
  if (bits.size() < netlist.inputs().size())
    throw std::invalid_argument("bit assignment shorter than the input list");
  std::vector<std::size_t> pos(netlist.num_nets(), static_cast<std::size_t>(-1));
  for (std::size_t i = 0; i < netlist.inputs().size(); ++i)
    pos[netlist.inputs()[i]] = i;
  Witness w;
  for (const Word* word : input_words(netlist)) {
    Gf2Poly elem;
    for (std::size_t bit = 0; bit < word->bits.size(); ++bit) {
      const std::size_t at = pos[word->bits[bit]];
      if (at == static_cast<std::size_t>(-1))
        throw std::invalid_argument("word bit is not a primary input");
      if (bits[at]) elem.set_coeff(static_cast<unsigned>(bit), true);
    }
    w[word->name] = std::move(elem);
  }
  return w;
}

Counterexample replay_witness(const Netlist& spec, const Netlist& impl,
                              const Gf2k& field, const Witness& w) {
  const WordPairing p = pair_words(spec, impl);
  std::vector<std::vector<Gf2Poly>> lanes(p.spec_in.size());
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    const auto it = w.find(p.spec_in[i]->name);
    if (it == w.end())
      throw std::invalid_argument("witness assigns no value to word '" +
                                  p.spec_in[i]->name + "'");
    lanes[i] = {it->second};
  }
  Counterexample cx;
  for (const auto& [name, elem] : w) cx.inputs[name] = field.to_string(elem);
  cx.output_word = p.spec_out->name;
  if (lanes.empty()) return cx;  // no inputs: nothing to simulate
  std::vector<Gf2Poly> so, io;
  const std::size_t hit = first_mismatched_lane(spec, impl, p, lanes, &so, &io);
  cx.expected = field.to_string(so[0]);
  cx.actual = field.to_string(io[0]);
  cx.replayed = hit == 0;
  return cx;
}

CertifyOutcome certify_equivalence(const Netlist& spec, const Netlist& impl,
                                   const Gf2k& field, unsigned rounds,
                                   std::uint64_t seed) {
  CertifyOutcome out;
  const bool forced = fault::consume("certify:mismatch");
  const WordPairing p = pair_words(spec, impl);
  if (p.spec_in.empty() && !forced) return out;  // nothing to sample

  ElemRng rng(seed);
  std::vector<std::vector<Gf2Poly>> lanes(p.spec_in.size());
  std::vector<Gf2Poly> so, io;
  for (unsigned round = 0; round < rounds; ++round) {
    std::size_t hit = static_cast<std::size_t>(-1);
    if (!p.spec_in.empty()) {
      for (std::size_t i = 0; i < lanes.size(); ++i) {
        lanes[i].resize(64);
        for (std::size_t l = 0; l < 64; ++l) lanes[i][l] = rng.next_elem(field);
      }
      hit = first_mismatched_lane(spec, impl, p, lanes, &so, &io);
      out.points += 64;
    }
    if (forced && round == 0 && hit == static_cast<std::size_t>(-1)) hit = 0;
    if (hit == static_cast<std::size_t>(-1)) continue;

    obs::flight::note("certify:mismatch", round, static_cast<std::uint64_t>(hit));
    obs::flight::note("certify:points", out.points);
    std::string detail =
        "equivalence cross-check disagreed on output word '" +
        p.spec_out->name + "'";
    if (!lanes.empty() && !lanes[0].empty()) {
      const Witness w = witness_of_lane(p, lanes, hit);
      detail += " at";
      for (const auto& [name, elem] : w)
        detail += " " + name + "=" + field.to_string(elem);
      if (!so.empty() && !io.empty())
        detail += ": spec=" + field.to_string(so[hit]) +
                  ", impl=" + field.to_string(io[hit]);
    }
    if (forced) detail += " (injected via certify:mismatch)";
    out.status = Status::certification_failed(std::move(detail));
    return out;
  }
  return out;
}

}  // namespace gfa::certify
