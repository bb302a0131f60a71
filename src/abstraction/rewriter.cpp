#include "abstraction/rewriter.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <optional>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/parallel_for.h"

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

template <class TailT>
void BackwardRewriter::substitute_impl(VarId v, const TailT& tail) {
  // Flat tails carry implicit all-one coefficients: every expanded term
  // reuses the affected term's coefficient unchanged, and the last expansion
  // moves it (its heap buffer lands in the map without a copy).
  constexpr bool kFlat = std::is_same_v<TailT, FlatTail>;
  if (occurs_[v].empty()) return;  // cheap skip for sharded chains
  OccList pending = std::move(occurs_[v]);
  occurs_[v] = {};

  const unsigned width =
      pending.size() < kChunkedSubstitutionMin ? 1 : parallel_available_width();
  if (width < 2) {
    const std::size_t np = pending.size();
    if constexpr (kFlat) {
      if (tail.monos.size() == 2) {
        // XOR2 — the dominant gate shape — gets a software-pipelined loop.
        // Every map access here is a random probe into a table far larger
        // than L2, but each pending term's expansion is a pure function of
        // (term, v, tail): the next term's find slot, both of its expanded
        // monomials' insert slots, and its occurrence-list lines can all be
        // prefetched a full iteration (~several hundred cycles) ahead,
        // overlapping misses that a naive loop serializes.
        const auto& ms = tail.monos;
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
          // issue the coefficient heap buffer's prefetch, and only then
          // stage the next term — by the time the coefficient is moved out
          // below, its line has had the staging work's latency to arrive.
          auto it = terms_.find(mono);
          const bool live = it != terms_.end();
          if (live) __builtin_prefetch(it->second.words().data(), 1, 1);
          if (pi + 1 < np) stage(pending[pi + 1]);
          if (!live) continue;  // cancelled since registration
          Gf2k::Elem coeff = std::move(it->second);
          spill_bytes_ -= it->first.spill_bytes();
          terms_.erase(it);
          add(std::move(m0), coeff);
          add(std::move(m1), std::move(coeff));
        }
        return;
      }
    }
    // Generic serial path: erase, strip v, expand — one term at a time,
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
      spill_bytes_ -= it->first.spill_bytes();
      terms_.erase(it);
      const BitMono rest = mono.without(v);
      if constexpr (kFlat) {
        const auto& ms = tail.monos;
        for (std::size_t t = 0; t + 1 < ms.size(); ++t)
          add(bitmono_mul(rest, ms[t]), coeff);
        if (!ms.empty()) add(bitmono_mul(rest, ms.back()), std::move(coeff));
      } else {
        for (const auto& [tmono, tcoeff] : tail.terms()) {
          // Gate tails almost always carry coefficient 1 (AND/XOR/NOT
          // terms); skip the field multiply on that fast path.
          add(bitmono_mul(rest, tmono),
              tcoeff.is_one() ? coeff : field_.mul(coeff, tcoeff));
        }
      }
    }
    return;
  }

  // Chunked path. First detach every live affected term — pure hash work,
  // done serially. No expansion of a term containing v can produce another
  // term containing v (tails mention only fanin variables), so detaching all
  // of them up front is equivalent to the serial interleaving.
  std::vector<Affected> work;
  work.reserve(pending.size());
  std::size_t di = 0;
  for (const BitMono& mono : pending) {
    // Large detach batches mean a large table — sample how long the open
    // addressing probe chains have grown (observability re-walk, off the
    // find itself).
    if ((di++ & 255u) == 0)
      GFA_HISTOGRAM("rewriter.probe_len", terms_.probe_length(mono));
    const std::size_t b = occ_entry_bytes(mono);
    occ_bytes_ = occ_bytes_ > b ? occ_bytes_ - b : 0;
    auto it = terms_.find(mono);
    if (it == terms_.end()) continue;
    Affected a;
    a.coeff = it->second;
    a.rest = mono.without(v);
    spill_bytes_ -= it->first.spill_bytes();
    terms_.erase(it);
    work.push_back(std::move(a));
  }
  if (work.size() < kChunkedSubstitutionMin) {
    // Stale index entries thinned the batch below the profitable size.
    for (Affected& a : work) {
      if constexpr (kFlat) {
        const auto& ms = tail.monos;
        for (std::size_t t = 0; t + 1 < ms.size(); ++t)
          add(bitmono_mul(a.rest, ms[t]), a.coeff);
        if (!ms.empty())
          add(bitmono_mul(a.rest, ms.back()), std::move(a.coeff));
      } else {
        for (const auto& [tmono, tcoeff] : tail.terms())
          add(bitmono_mul(a.rest, tmono),
              tcoeff.is_one() ? a.coeff : field_.mul(a.coeff, tcoeff));
      }
    }
    return;
  }
  expand_chunked(work, tail, width);
}

template <class TailT>
void BackwardRewriter::expand_chunked(const std::vector<Affected>& work,
                                      const TailT& tail, unsigned width) {
  const std::size_t shards =
      std::min<std::size_t>(width, work.size() / (kChunkedSubstitutionMin / 2));
  GFA_COUNT("rewriter.shards", shards);

  // Shard-local expansion: strided assignment, thread-private term maps,
  // per-shard budget leases, control polled inside the loop. Shard s's
  // content depends only on `work` and `tail`, never on the other shards.
  // The shard trace span opens *inside* the worker lambda so each span is
  // stamped with the pool thread that actually ran the shard — opened on the
  // caller, every shard would collapse into the dispatching thread's lane.
  std::vector<TermMap> local(shards);
  std::vector<std::optional<BudgetLease>> leases(shards);
  parallel_for(shards, [&](std::size_t s) {
    const obs::TraceSpan span("reduction_chain_shard", "abstraction");
    leases[s].emplace(budget_of(control_), BudgetSite::kRewriterTerms);
    TermMap& mine = local[s];
    std::size_t ops = 0;
    constexpr bool kFlat = std::is_same_v<TailT, FlatTail>;
    auto accumulate = [&](BitMono m, const Gf2k::Elem& c) {
      auto [it, inserted] = mine.try_emplace(std::move(m), c);
      if (!inserted) {
        it->second += c;
        if (it->second.is_zero()) mine.erase(it);
      }
      if ((++ops & 63u) == 0) {
        throw_if_stopped(control_);
        leases[s]->set_bytes(map_bytes(mine));
      }
    };
    for (std::size_t i = s; i < work.size(); i += shards) {
      const Affected& a = work[i];
      if constexpr (kFlat) {
        for (const BitMono& tmono : tail.monos)
          accumulate(bitmono_mul(a.rest, tmono), a.coeff);
      } else {
        for (const auto& [tmono, tcoeff] : tail.terms())
          accumulate(bitmono_mul(a.rest, tmono),
                     tcoeff.is_one() ? a.coeff : field_.mul(a.coeff, tcoeff));
      }
    }
    leases[s]->set_bytes(map_bytes(mine));
  }, control_);

  // Deterministic merge: fixed shard order, XOR-combine through add() so the
  // occurrence index, fault point, and budget accounting see every term
  // exactly as the serial path would. Draining moves the monomials instead
  // of copying them. The shard lease is dropped only after its map has
  // drained into the main one (transiently double-counted — the safe
  // direction for a memory bound).
  std::size_t merge_terms = 0;
  for (std::size_t s = 0; s < shards; ++s) {
    merge_terms += local[s].size();
    GFA_HISTOGRAM("rewriter.merge_shard_terms", local[s].size());
    local[s].drain([this](BitMono m, Gf2k::Elem c) {
      add(std::move(m), std::move(c));
    });
    leases[s].reset();
  }
  GFA_COUNT("rewriter.merge_terms", merge_terms);
}

ShardedRewriter::ShardedRewriter(const Gf2k& field,
                                 std::vector<bool> substitutable,
                                 unsigned shards, std::size_t max_terms,
                                 const ExecControl* control)
    : max_terms_(max_terms), control_(control) {
  if (shards < 1) shards = 1;
  shards_.reserve(shards);
  for (unsigned s = 0; s < shards; ++s)
    shards_.push_back(std::make_unique<Shard>(
        field, s + 1 == shards ? std::move(substitutable) : substitutable,
        max_terms, control));
}

void ShardedRewriter::seed(BitMono mono, const Gf2k::Elem& coeff) {
  shards_[next_seed_ % shards_.size()]->add(std::move(mono), coeff);
  ++next_seed_;
}

void ShardedRewriter::run_segment(const Netlist& netlist,
                                  const std::vector<NetId>& gates,
                                  std::size_t from, std::size_t to) {
  assert(to <= gates.size() && from <= to);
  const std::size_t n = shards_.size();
  const bool measured = obs::metrics_enabled();
  if (n == 1) {
    Shard& rw = *shards_[0];
    // Serial chain: one scratch tail reused across all gates (capacity
    // sticks, so steady-state tail construction is allocation-free), and
    // gates absent from the working polynomial skip tail construction
    // outright (substitution would be a no-op — the occurrence index only
    // over-approximates, never misses).
    FlatTail tail;
    for (std::size_t i = from; i < to; ++i) {
      throw_if_stopped(control_);
      if (i + 2 < to) rw.prefetch_occurrence_list(gates[i + 2]);
      if (i + 1 < to) rw.prefetch_pending(gates[i + 1]);
      if (rw.occurrences(gates[i]) == 0) continue;
      fill_gate_tail(netlist.gate(gates[i]), tail);
      timed_substitute(measured && (i & 63u) == 0,
                       [&] { rw.substitute(gates[i], tail); });
    }
    check_total_terms();
    return;
  }
  // Tail polynomials are shared read-only across the shards; building them
  // once (in parallel) instead of once per shard keeps the serial fraction
  // off the critical path. Blocks bound the tail buffer on million-gate
  // chains; the inter-block barriers are parallel_for dispatches (~µs) every
  // few thousand substitutions.
  constexpr std::size_t kTailBlock = 2048;
  std::vector<FlatTail> tails;
  for (std::size_t block = from; block < to; block += kTailBlock) {
    const std::size_t block_end = std::min(block + kTailBlock, to);
    tails.assign(block_end - block, FlatTail{});
    parallel_for(block_end - block, [&](std::size_t i) {
      fill_gate_tail(netlist.gate(gates[block + i]), tails[i]);
    }, control_);
    parallel_for(n, [&](std::size_t s) {
      Shard& rw = *shards_[s];
      for (std::size_t i = block; i < block_end; ++i) {
        if (((i - block) & 255u) == 0) throw_if_stopped(control_);
        timed_substitute(measured && (i & 63u) == 0,
                         [&] { rw.substitute(gates[i], tails[i - block]); });
      }
    }, control_);
  }
  check_total_terms();
}

std::size_t ShardedRewriter::num_terms() const {
  std::size_t total = 0;
  for (const auto& s : shards_) total += s->num_terms();
  return total;
}

std::size_t ShardedRewriter::peak_terms() const {
  std::size_t total = 0;
  for (const auto& s : shards_) total += s->peak_terms();
  return total;
}

void ShardedRewriter::check_total_terms() const {
  if (max_terms_ && num_terms() > max_terms_)
    throw RewriteBudgetExceeded("rewriting term budget exceeded");
}

ShardedRewriter::TermMap ShardedRewriter::merged() const {
  TermMap out = shards_[0]->terms();
  for (std::size_t s = 1; s < shards_.size(); ++s) {
    for (const auto& [m, c] : shards_[s]->terms()) {
      auto [it, inserted] = out.try_emplace(m, c);
      if (!inserted) {
        it->second += c;
        if (it->second.is_zero()) out.erase(it);
      }
    }
  }
  return out;
}

ShardedRewriter::TermMap ShardedRewriter::take_merged() {
  TermMap out = shards_[0]->take_terms();
  for (std::size_t s = 1; s < shards_.size(); ++s) {
    TermMap rest = shards_[s]->take_terms();
    rest.drain([&out](BitMono m, Gf2k::Elem c) {
      auto [it, inserted] = out.try_emplace(std::move(m), c);
      if (!inserted) {
        it->second += c;
        if (it->second.is_zero()) out.erase(it);
      }
    });
  }
  return out;
}

BitPoly gate_tail_bitpoly(const Gf2k& field, const Netlist::Gate& g) {
  BitPoly one = BitPoly::constant(&field, field.one());
  auto var = [&](NetId n) { return BitPoly::variable(&field, n); };
  switch (g.type) {
    case GateType::kConst0:
      return BitPoly(&field);
    case GateType::kConst1:
      return one;
    case GateType::kBuf:
      return var(g.fanins[0]);
    case GateType::kNot:
      return var(g.fanins[0]) + one;
    case GateType::kAnd:
    case GateType::kNand: {
      std::vector<VarId> ids(g.fanins.begin(), g.fanins.end());
      std::sort(ids.begin(), ids.end());
      ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
      BitPoly p(&field);
      p.add_term(BitMono::from_sorted(ids.data(), ids.size()), field.one());
      return g.type == GateType::kNand ? p + one : p;
    }
    case GateType::kOr:
    case GateType::kNor: {
      BitPoly p = one;
      for (NetId f : g.fanins) p = p * (var(f) + one);
      return g.type == GateType::kNor ? p : p + one;
    }
    case GateType::kXor:
    case GateType::kXnor: {
      BitPoly p(&field);
      for (NetId f : g.fanins) p += var(f);
      return g.type == GateType::kXnor ? p + one : p;
    }
    case GateType::kInput:
      break;
  }
  assert(false && "inputs have no tail");
  return BitPoly(&field);
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

// The tail-shaped member templates reached through the inline substitute()
// overloads.
template void BackwardRewriter::substitute_impl(VarId, const BitPoly&);
template void BackwardRewriter::substitute_impl(VarId, const FlatTail&);

}  // namespace gfa
