#pragma once
// Verdict certification: every answer the engine layer produces is made
// self-checking (DESIGN.md "Verdict certification").
//
//  * kNotEquivalent must come with a witness, and every witness comes from
//    the circuits. The abstraction engine first runs one 64-lane round of
//    random simulation, which refutes most buggy circuits before any
//    algebra; SAT/BDD/fraig hand over their satisfying assignments; any
//    other verdict (a pair the round cannot separate included) gets its
//    witness from a random (exhaustive for small inputs) simulation search.
//    Either way the witness is replayed through the bit-parallel simulator —
//    a code path independent of every proof engine — before it is reported.
//  * kEquivalent is cross-checked (opt-in via RunOptions::certify): N×64
//    lanes of random inputs are simulated through both circuits; any
//    disagreement is kCertificationFailed (exit 73) with a flight-recorder
//    dump — a loud internal error, never a silent wrong answer. The
//    `certify:mismatch` fault site forces the disagreement deterministically.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "abstraction/extractor.h"
#include "certify/counterexample.h"
#include "circuit/netlist.h"
#include "gf/gf2k.h"
#include "util/status.h"

namespace gfa::certify {

/// A witness in machine form: input word name -> field element.
using Witness = std::map<std::string, Gf2k::Elem>;

/// Deterministic stream of field elements (splitmix64-filled coordinate
/// words, reduced into the field) — independent of any engine's internals.
class ElemRng {
 public:
  explicit ElemRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next_u64();
  Gf2k::Elem next_elem(const Gf2k& field);

 private:
  std::uint64_t state_;
};

/// Evaluates fn.g at the witness point; `w` must cover every input word the
/// polynomial mentions (missing names throw std::invalid_argument).
Gf2k::Elem eval_word_function(const WordFunction& fn, const Gf2k& field,
                              const Witness& w);

/// Random search on two word functions known to differ: samples random
/// points until their evaluations disagree. Returns std::nullopt if
/// `max_points` samples all agree. No verdict path uses it; perfbench
/// times it.
std::optional<Witness> find_word_function_witness(const WordFunction& spec_fn,
                                                  const WordFunction& impl_fn,
                                                  const Gf2k& field,
                                                  unsigned max_points = 4096,
                                                  std::uint64_t seed = 0x5EEDC0DEDA7Aull);

/// Witness search directly on the circuits, 64 lanes per simulator pass.
/// Inputs of up to 20 total bits are enumerated exhaustively (so a
/// genuinely non-equivalent small instance always yields a witness);
/// larger instances sample `max_rounds`×64 random points.
std::optional<Witness> find_simulation_witness(const Netlist& spec,
                                               const Netlist& impl,
                                               const Gf2k& field,
                                               unsigned max_rounds = 256,
                                               std::uint64_t seed = 0x5EEDC0DEDA7Aull);

/// The random path of find_simulation_witness alone: `rounds`×64 random
/// points, never the exhaustive enumeration, however few the input bits.
/// The abstraction engine runs one round of it ahead of the reduction chain.
std::optional<Witness> find_random_simulation_witness(
    const Netlist& spec, const Netlist& impl, const Gf2k& field,
    unsigned rounds = 1, std::uint64_t seed = 0x5EEDC0DEDA7Aull);

/// Groups a bit assignment over netlist.inputs() (a SAT/BDD/fraig model of
/// the miter's shared inputs) into field elements per input word.
Witness witness_from_bits(const Netlist& netlist, const std::vector<bool>& bits);

/// Replays the witness through the simulator on both circuits and renders
/// the result. `replayed` is true iff the simulated outputs disagree — i.e.
/// the witness genuinely distinguishes the circuits.
Counterexample replay_witness(const Netlist& spec, const Netlist& impl,
                              const Gf2k& field, const Witness& w);

struct CertifyOutcome {
  /// OK when every sampled point agreed; kCertificationFailed otherwise.
  Status status;
  /// Points simulated (lanes × rounds).
  std::uint64_t points = 0;
};

/// Post-kEquivalent cross-check: `rounds`×64 lanes of random inputs through
/// both circuits. A disagreement (or a consumed `certify:mismatch` fault)
/// notes the offending point on the flight recorder and returns
/// kCertificationFailed.
CertifyOutcome certify_equivalence(const Netlist& spec, const Netlist& impl,
                                   const Gf2k& field, unsigned rounds = 4,
                                   std::uint64_t seed = 0xCE7211F1CA7Eull);

}  // namespace gfa::certify
