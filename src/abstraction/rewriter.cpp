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

BackwardRewriter::BackwardRewriter(const std::vector<bool>& substitutable,
                                   std::size_t max_terms,
                                   const ExecControl* control)
    : rank_(substitutable.size(), kNever),
      occurs_(substitutable.size()),
      max_terms_(max_terms),
      control_(control),
      lease_(budget_of(control), BudgetSite::kRewriterTerms) {
  for (VarId v = 0; v < substitutable.size(); ++v)
    if (substitutable[v]) rank_[v] = v;
}

void BackwardRewriter::rank_by(const std::vector<NetId>& gates) {
  std::vector<std::uint32_t> rank(rank_.size(), kNever);
  for (std::size_t i = 0; i < gates.size(); ++i)
    if (rank_[gates[i]] != kNever) rank[gates[i]] = static_cast<std::uint32_t>(i);
  rank_ = std::move(rank);
  for (OccList& list : occurs_) list = {};
  occ_bytes_ = 0;
  for (const BitMono& m : seed_log_) {
    if (terms_.find(m) == terms_.end()) continue;  // cancelled since
    const VarId lead = leading_var(m);
    if (lead == kNoLead) continue;
    occurs_[lead].push_back(m);
    occ_bytes_ += occ_entry_bytes(m);
  }
  seed_log_ = {};
  ranked_ = true;
  // A multiplier's chain peaks at about half its gate count or more (k = 64:
  // Mastrovito 0.49, flat Montgomery 0.55; k = 233 Montgomery 0.82), so an
  // arena sized for half the gates skips the doublings that would move every
  // term several times. Under a byte budget the map grows on demand, as a
  // reservation could exceed what the chain ever needs.
  if (!lease_.active()) terms_.reserve(gates.size() / 2);
}

void BackwardRewriter::flush_counters() {
  GFA_COUNT("chain.term_ops", term_ops_);
  GFA_COUNT("chain.cancellations", cancellations_);
  GFA_COUNT("chain.rehashes", terms_.rehashes() - flushed_rehashes_);
  term_ops_ = cancellations_ = 0;
  flushed_rehashes_ = terms_.rehashes();
}

void BackwardRewriter::substitute(VarId v, const FlatTail& tail) {
  // Flat tails carry implicit all-one coefficients: every expanded term
  // reuses the affected term's coefficient unchanged, and the last expansion
  // moves it. Every live term that contains v has v as its leading
  // variable, so occurs_[v] lists them all, in insertion order.
  if (occurs_[v].empty()) return;  // v no longer occurs: nothing to rewrite
  OccList pending = std::move(occurs_[v]);
  occurs_[v] = {};
  const std::size_t np = pending.size();
  const auto& ms = tail.monos;
  // Each expanded term's leading variable is the earlier of the stripped
  // term's and the tail monomial's.
  auto& tail_lead = tail_lead_;
  tail_lead.clear();
  for (const BitMono& m : ms) tail_lead.push_back(leading_var(m));
  if (ms.size() == 2) {
    // XOR2 — the dominant gate shape — gets a software-pipelined loop.
    // Every map access here is a random probe into a table far larger
    // than L2, but each pending term's expansion is a pure function of
    // (term, v, tail): the next term's find slot, both of its expanded
    // monomials' insert slots, and their leading variables' occurrence
    // lists can all be prefetched a full iteration (~several hundred
    // cycles) ahead, overlapping misses that a naive loop serializes.
    // Every key is hashed once, here, for its prefetch, find and insert.
    struct Staged {
      std::uint64_t h, h0, h1;
      BitMono m0, m1;
      VarId lead0, lead1;
    } next;
    const auto stage = [&](const BitMono& mono) {
      next.h = mono.hash();
      terms_.prefetch(next.h);
      const BitMono rest = mono.without(v);
      const VarId rest_lead = leading_var(rest);
      next.m0 = bitmono_mul(rest, ms[0]);
      next.m1 = bitmono_mul(rest, ms[1]);
      next.h0 = next.m0.hash();
      next.h1 = next.m1.hash();
      terms_.prefetch(next.h0);
      terms_.prefetch(next.h1);
      next.lead0 = first_of(rest_lead, tail_lead[0]);
      next.lead1 = first_of(rest_lead, tail_lead[1]);
      // A fresh insert appends to its leading variable's occurrence list;
      // those lists scatter through a multi-megabyte array, so warm them.
      if (next.lead0 != kNoLead) __builtin_prefetch(&occurs_[next.lead0], 1, 1);
      if (next.lead1 != kNoLead) __builtin_prefetch(&occurs_[next.lead1], 1, 1);
    };
    stage(pending[0]);
    for (std::size_t pi = 0; pi < np; ++pi) {
      Staged cur = std::move(next);
      const BitMono& mono = pending[pi];
      const std::size_t b = occ_entry_bytes(mono);
      occ_bytes_ = occ_bytes_ > b ? occ_bytes_ - b : 0;
      // The find's slot line was prefetched an iteration ago; probe now,
      // then stage the next term before expanding this one.
      auto it = terms_.find_hashed(cur.h, mono);
      if (pi + 1 < np) stage(pending[pi + 1]);
      if (it == terms_.end()) continue;  // cancelled since registration
      Gf2k::Elem coeff = std::move(it->second);
      spill_bytes_ -= it->first.spill_bytes() + coeff.heap_bytes();
      terms_.erase(it);
      insert(cur.h0, std::move(cur.m0), coeff, cur.lead0);
      insert(cur.h1, std::move(cur.m1), std::move(coeff), cur.lead1);
    }
    return;
  }
  // Generic path: erase, strip v, expand — one term at a time,
  // with the next term's find slot prefetched while the current expands.
  std::uint64_t next_h = pending[0].hash();
  for (std::size_t pi = 0; pi < np; ++pi) {
    const BitMono& mono = pending[pi];
    const std::uint64_t h = next_h;
    if (pi + 1 < np) {
      next_h = pending[pi + 1].hash();
      terms_.prefetch(next_h);
    }
    if ((pi & 255u) == 0)
      GFA_HISTOGRAM("rewriter.probe_len", terms_.probe_length(mono));
    const std::size_t b = occ_entry_bytes(mono);
    occ_bytes_ = occ_bytes_ > b ? occ_bytes_ - b : 0;
    auto it = terms_.find_hashed(h, mono);
    if (it == terms_.end()) continue;  // cancelled since registration
    Gf2k::Elem coeff = std::move(it->second);
    spill_bytes_ -= it->first.spill_bytes() + coeff.heap_bytes();
    terms_.erase(it);
    const BitMono rest = mono.without(v);
    const VarId rest_lead = leading_var(rest);
    for (std::size_t t = 0; t < ms.size(); ++t) {
      BitMono m = bitmono_mul(rest, ms[t]);
      const std::uint64_t mh = m.hash();
      const VarId lead = first_of(rest_lead, tail_lead[t]);
      if (t + 1 < ms.size())
        insert(mh, std::move(m), coeff, lead);
      else
        insert(mh, std::move(m), std::move(coeff), lead);
    }
  }
}

void BackwardRewriter::run_segment(const Netlist& netlist,
                                   const std::vector<NetId>& gates,
                                   std::size_t from, std::size_t to) {
  assert(to <= gates.size() && from <= to);
  if (!ranked_) rank_by(gates);
  const bool measured = obs::metrics_enabled();
  // Counters reach the metrics however the segment ends (a tripped budget
  // or an expired deadline unwinds through here).
  struct Flush {
    BackwardRewriter* self;
    ~Flush() { self->flush_counters(); }
  } flush{this};
  // One scratch tail reused across all gates (capacity sticks, so
  // steady-state tail construction is allocation-free), and gates absent
  // from the working polynomial skip tail construction outright
  // (substitution would be a no-op).
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
