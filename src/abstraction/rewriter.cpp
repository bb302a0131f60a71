#include "abstraction/rewriter.h"

#include <algorithm>
#include <cassert>
#include <chrono>

#include "obs/metrics.h"

namespace gfa {

namespace {

/// Runs one substitution, recording its latency into the
/// rewriter.substitution_us histogram when `sample` is set. The clock pair is
/// the whole cost, so callers pass sample = metrics_enabled && a 1-in-64
/// cadence — the disabled path is the plain call behind one branch.
template <class Fn>
inline void timed_substitute(bool sample, Fn&& fn) {
  if (sample) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto dt = std::chrono::steady_clock::now() - t0;
    GFA_HISTOGRAM(
        "rewriter.substitution_us",
        std::chrono::duration_cast<std::chrono::microseconds>(dt).count());
  } else {
    fn();
  }
}

}  // namespace

void BackwardRewriter::substitute(VarId v, const FlatTail& tail) {
  // Flat tails carry implicit all-one coefficients: every expanded term
  // reuses the affected term's coefficient unchanged, and the last expansion
  // moves it.
  if (occurs_[v].empty()) return;  // v no longer occurs: nothing to rewrite
  OccList pending = std::move(occurs_[v]);
  occurs_[v] = {};
  const std::size_t np = pending.size();
  const auto& ms = tail.monos;
  if (ms.size() == 2) {
    // XOR2 — the dominant gate shape — gets a software-pipelined loop.
    // Every map access here is a random probe into a table far larger
    // than L2, but each pending term's expansion is a pure function of
    // (term, v, tail): the next term's find slot, both of its expanded
    // monomials' insert slots, and its occurrence-list lines can all be
    // prefetched a full iteration (~several hundred cycles) ahead,
    // overlapping misses that a naive loop serializes.
    BitMono nm0, nm1;  // staged expansion of pending[pi + 1]
    const auto stage = [&](const BitMono& mono) {
      terms_.prefetch(mono);
      const BitMono rest = mono.without(v);
      nm0 = bitmono_mul(rest, ms[0]);
      nm1 = bitmono_mul(rest, ms[1]);
      terms_.prefetch(nm0);
      terms_.prefetch(nm1);
      // The inserts append to the occurrence list of every substitutable
      // variable they mention; those lists scatter through a
      // multi-megabyte array, so warm them too. (The tail's own
      // variables go hot after the first term.)
      for (VarId w : rest)
        if (substitutable_[w]) __builtin_prefetch(&occurs_[w], 1, 1);
    };
    stage(pending[0]);
    for (std::size_t pi = 0; pi < np; ++pi) {
      BitMono m0 = std::move(nm0);
      BitMono m1 = std::move(nm1);
      const BitMono& mono = pending[pi];
      const std::size_t b = occ_entry_bytes(mono);
      occ_bytes_ = occ_bytes_ > b ? occ_bytes_ - b : 0;
      // The find's slot line was prefetched an iteration ago; probe now,
      // then stage the next term before expanding this one.
      auto it = terms_.find(mono);
      if (pi + 1 < np) stage(pending[pi + 1]);
      if (it == terms_.end()) continue;  // cancelled since registration
      Gf2k::Elem coeff = std::move(it->second);
      spill_bytes_ -= it->first.spill_bytes() + coeff.heap_bytes();
      terms_.erase(it);
      add(std::move(m0), coeff);
      add(std::move(m1), std::move(coeff));
    }
    return;
  }
  // Generic path: erase, strip v, expand — one term at a time,
  // with the next term's find slot prefetched while the current expands.
  for (std::size_t pi = 0; pi < np; ++pi) {
    const BitMono& mono = pending[pi];
    if (pi + 1 < np) terms_.prefetch(pending[pi + 1]);
    if ((pi & 255u) == 0)
      GFA_HISTOGRAM("rewriter.probe_len", terms_.probe_length(mono));
    const std::size_t b = occ_entry_bytes(mono);
    occ_bytes_ = occ_bytes_ > b ? occ_bytes_ - b : 0;
    auto it = terms_.find(mono);
    if (it == terms_.end()) continue;  // cancelled since registration
    Gf2k::Elem coeff = std::move(it->second);
    spill_bytes_ -= it->first.spill_bytes() + coeff.heap_bytes();
    terms_.erase(it);
    const BitMono rest = mono.without(v);
    for (std::size_t t = 0; t + 1 < ms.size(); ++t)
      add(bitmono_mul(rest, ms[t]), coeff);
    if (!ms.empty()) add(bitmono_mul(rest, ms.back()), std::move(coeff));
  }
}

void BackwardRewriter::run_segment(const Netlist& netlist,
                                   const std::vector<NetId>& gates,
                                   std::size_t from, std::size_t to) {
  assert(to <= gates.size() && from <= to);
  const bool measured = obs::metrics_enabled();
  // One scratch tail reused across all gates (capacity sticks, so
  // steady-state tail construction is allocation-free), and gates absent
  // from the working polynomial skip tail construction outright
  // (substitution would be a no-op — the occurrence index only
  // over-approximates, never misses).
  FlatTail tail;
  for (std::size_t i = from; i < to; ++i) {
    throw_if_stopped(control_);
    if (i + 2 < to) prefetch_occurrence_list(gates[i + 2]);
    if (i + 1 < to) prefetch_pending(gates[i + 1]);
    if (occurrences(gates[i]) == 0) continue;
    fill_gate_tail(netlist.gate(gates[i]), tail);
    timed_substitute(measured && (i & 63u) == 0,
                     [&] { substitute(gates[i], tail); });
  }
}

/// Flat tail builder: monomials pushed straight into a flat vector
/// (coefficients are implicitly 1 — see FlatTail). Fanin ids are staged in a
/// stack buffer, so building a tail touches the heap only when the vector
/// outgrows its retained capacity or a monomial spills.
void fill_gate_tail(const Netlist::Gate& g, FlatTail& tail) {
  auto& out = tail.monos;
  out.clear();
  constexpr std::size_t kStackIds = 16;
  VarId stack[kStackIds];
  std::vector<VarId> heap;
  VarId* ids = stack;
  std::size_t nid = g.fanins.size();
  if (nid > kStackIds) {
    heap.resize(nid);
    ids = heap.data();
  }
  for (std::size_t i = 0; i < nid; ++i) ids[i] = g.fanins[i];
  // Two-input gates dominate synthesized multipliers; skip the sort call.
  if (nid == 2) {
    if (ids[1] < ids[0]) std::swap(ids[0], ids[1]);
  } else if (nid > 2) {
    std::sort(ids, ids + nid);
  }
  switch (g.type) {
    case GateType::kConst0:
      return;
    case GateType::kConst1:
      out.push_back(PackedMono{});
      return;
    case GateType::kBuf:
      out.push_back(PackedMono::from_sorted(ids, 1));
      return;
    case GateType::kNot:
      out.push_back(PackedMono::from_sorted(ids, 1));
      out.push_back(PackedMono{});
      return;
    case GateType::kAnd:
    case GateType::kNand: {
      nid = std::unique(ids, ids + nid) - ids;
      out.push_back(PackedMono::from_sorted(ids, nid));
      if (g.type == GateType::kNand) out.push_back(PackedMono{});
      return;
    }
    case GateType::kXor:
    case GateType::kXnor: {
      // XOR is the field sum of its fanins; duplicated fanins cancel in
      // pairs (char 2), so keep each distinct id iff it occurs oddly often.
      for (std::size_t i = 0; i < nid;) {
        std::size_t j = i;
        while (j < nid && ids[j] == ids[i]) ++j;
        if ((j - i) & 1) out.push_back(PackedMono::from_sorted(ids + i, 1));
        i = j;
      }
      if (g.type == GateType::kXnor) out.push_back(PackedMono{});
      return;
    }
    case GateType::kOr:
    case GateType::kNor: {
      // prod(f_i + 1) over distinct fanins expands to one term per subset of
      // the id set; OR adds 1, cancelling the empty subset.
      nid = std::unique(ids, ids + nid) - ids;
      out.push_back(PackedMono{});
      for (std::size_t v = 0; v < nid; ++v) {
        const PackedMono m = PackedMono::from_sorted(ids + v, 1);
        const std::size_t sz = out.size();
        for (std::size_t i = 0; i < sz; ++i)
          out.push_back(packed_mono_mul(out[i], m));
      }
      if (g.type == GateType::kOr) out.erase(out.begin());  // the empty subset
      return;
    }
    case GateType::kInput:
      break;
  }
  assert(false && "inputs have no tail");
}

}  // namespace gfa
