#pragma once
// Backward-rewriting engine over the multilinear BitPoly representation.
//
// Shared by the abstraction extractor and the ideal-membership baseline: a
// polynomial over net-indexed bit variables plus an occurrence index, so that
// substituting a gate-output variable by its tail touches only the terms that
// actually contain it. Under RATO this sequence of substitutions *is* the
// Gröbner-basis reduction chain (see extractor.h).
//
// The chain is serial: substitution i rewrites the polynomial substitution
// i−1 produced, so BackwardRewriter::run_segment walks the RATO gates one at
// a time (DESIGN.md, "Reduction chain").

#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "abstraction/bitpoly.h"
#include "circuit/netlist.h"
#include "util/exec_control.h"

namespace gfa {

struct RewriteBudgetExceeded : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// A gate tail as a flat monomial list with every coefficient implicitly 1.
/// Substitution only ever *iterates* a tail's terms — it never looks one up —
/// and every boolean gate's tail polynomial over F_{2^k} has all-one
/// coefficients, so the chain builds tails as plain monomial vectors straight
/// from the gate structure instead of routing them through a hash-map
/// polynomial (one map, several temporaries, and one heap-allocated field
/// element per term, per gate; over half the reduction-chain wall time at
/// k=163 before this existed). Term order within a tail is not specified —
/// tails only feed commutative XOR-accumulation.
struct FlatTail {
  std::vector<BitMono> monos;
};

/// Rebuilds `tail` in place for `gate`, reusing its vector capacity. The
/// serial chain calls this once per gate; with the spill pool behind wide
/// monomials, steady-state tail construction allocates nothing at all.
void fill_gate_tail(const Netlist::Gate& gate, FlatTail& tail);

/// A vector with N inline slots that spills to a heap vector past them.
/// Backs the occurrence index: in XOR-dominated multiplier chains almost
/// every substitutable variable occurs in one or two working terms, so the
/// per-variable occurrence lists stay malloc-free.
template <class T, std::size_t N>
class InlineSmallVec {
 public:
  InlineSmallVec() = default;
  InlineSmallVec(InlineSmallVec&& o) noexcept
      : size_(o.size_), heap_(std::move(o.heap_)) {
    for (std::size_t i = 0; i < (size_ < N ? size_ : N); ++i)
      inline_[i] = std::move(o.inline_[i]);
    o.size_ = 0;
  }
  InlineSmallVec& operator=(InlineSmallVec&& o) noexcept {
    if (this != &o) {
      size_ = o.size_;
      heap_ = std::move(o.heap_);
      for (std::size_t i = 0; i < (size_ < N ? size_ : N); ++i)
        inline_[i] = std::move(o.inline_[i]);
      o.size_ = 0;
    }
    return *this;
  }
  InlineSmallVec(const InlineSmallVec&) = delete;
  InlineSmallVec& operator=(const InlineSmallVec&) = delete;

  void push_back(T v) {
    if (size_ < N) {
      inline_[size_] = std::move(v);
    } else {
      if (size_ == N) {
        // First spill: migrate the inline slots so the storage is contiguous.
        heap_.reserve(2 * N);
        for (T& e : inline_) heap_.push_back(std::move(e));
      }
      heap_.push_back(std::move(v));
    }
    ++size_;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const T* begin() const { return size_ <= N ? inline_ : heap_.data(); }
  const T* end() const { return begin() + size_; }
  const T& operator[](std::size_t i) const { return begin()[i]; }

 private:
  std::size_t size_ = 0;
  T inline_[N];
  std::vector<T> heap_;
};

class BackwardRewriter {
 public:
  using TermMap = BitPoly::TermMap;

  /// `substitutable[v]` marks variables that may later be substituted (gate
  /// outputs); only those are indexed. `max_terms` = 0 disables the budget.
  /// A control carrying a ResourceBudget additionally bounds the term map
  /// and occurrence index in bytes (site rewriter.terms); run_segment polls
  /// its deadline and cancel token once per gate.
  explicit BackwardRewriter(const std::vector<bool>& substitutable,
                            std::size_t max_terms = 0,
                            const ExecControl* control = nullptr);

  /// Adds coeff·mono. An rvalue coefficient is moved into a fresh slot;
  /// either way only coefficients past k = 256 own a heap buffer.
  template <class C>
  void add(BitMono mono, C&& coeff) {
    const std::uint64_t h = mono.hash();
    const VarId lead = leading_var(mono);
    insert(h, std::move(mono), std::forward<C>(coeff), lead);
  }

  void add(const BitPoly& p) {
    for (const auto& [m, c] : p.terms()) add(m, c);
  }

  /// Replaces every occurrence of variable v by `tail` (a polynomial over
  /// variables that will be substituted after v, or never). v must lead
  /// every live term it occurs in — true of each call run_segment makes,
  /// and, before the first run_segment, of the smallest substitutable
  /// VarId in the polynomial.
  void substitute(VarId v, const FlatTail& tail);

  /// Substitutes gates[from, to) — in RATO order — polling the control
  /// before every gate. After it returns, the term map holds exactly the
  /// chain's polynomial after `to` substitutions. Every call must pass the
  /// same `gates`: the first one ranks the variables by their position in
  /// it and re-indexes the terms added so far.
  void run_segment(const Netlist& netlist, const std::vector<NetId>& gates,
                   std::size_t from, std::size_t to);

  std::size_t num_terms() const { return terms_.size(); }
  const TermMap& terms() const { return terms_; }

  /// Destructively hands the term map over (the rewriter is spent after),
  /// so the remainder leaves the chain without copying every monomial.
  TermMap take_terms() { return std::move(terms_); }

  /// Largest term-map size seen so far (sampled after every insertion).
  std::size_t peak_terms() const { return peak_terms_; }

  /// Occurrence entries filed under v as leading variable. Each fresh term
  /// files one entry under its leading variable — of its substitutable
  /// variables, the one substituted first — and an entry goes stale when
  /// its term cancels.
  std::size_t occurrences(VarId v) const { return occurs_[v].size(); }

 private:
  using OccList = InlineSmallVec<BitMono, 2>;
  static constexpr std::uint32_t kNever = UINT32_MAX;  // rank of non-substitutable
  static constexpr VarId kNoLead = UINT32_MAX;

  /// The term's leading variable, or kNoLead when it has no substitutable
  /// variable.
  VarId leading_var(const BitMono& mono) const {
    VarId lead = kNoLead;
    std::uint32_t best = kNever;
    for (VarId v : mono) {
      if (rank_[v] < best) {
        best = rank_[v];
        lead = v;
      }
    }
    return lead;
  }
  /// Of two leading variables (kNoLead allowed), the one substituted first:
  /// the leading variable of the product of their terms.
  VarId first_of(VarId a, VarId b) const {
    if (a == kNoLead) return b;
    if (b == kNoLead) return a;
    return rank_[a] < rank_[b] ? a : b;
  }

  /// Adds coeff·mono given `h == mono.hash()` and mono's leading variable.
  template <class C>
  void insert(std::uint64_t h, BitMono mono, C&& coeff, VarId lead) {
    if (coeff.is_zero()) return;
    GFA_FAULT_POINT("oom:rewriter.add");
    ++term_ops_;
    // try_emplace leaves `mono` (and `coeff`) intact when the key already
    // exists; it forwards the coefficient only on a fresh insert.
    auto [it, inserted] =
        terms_.try_emplace_hashed(h, std::move(mono), std::forward<C>(coeff));
    if (!inserted) {
      spill_bytes_ -= it->second.heap_bytes();
      it->second += coeff;
      if (it->second.is_zero()) {
        ++cancellations_;
        spill_bytes_ -= it->first.spill_bytes();
        terms_.erase(it);
      } else {
        spill_bytes_ += it->second.heap_bytes();
      }
      return;  // already indexed
    }
    spill_bytes_ += it->first.spill_bytes() + it->second.heap_bytes();
    if (!ranked_) seed_log_.push_back(it->first);
    if (lead != kNoLead) {
      occurs_[lead].push_back(it->first);
      occ_bytes_ += occ_entry_bytes(it->first);
    }
    if (terms_.size() > peak_terms_) peak_terms_ = terms_.size();
    if (max_terms_ && terms_.size() > max_terms_)
      throw RewriteBudgetExceeded("rewriting term budget exceeded");
    // Byte accounting is synced every 64 mutations — often enough to stop a
    // blow-up, rare enough to keep the atomics out of the inner loop.
    if (lease_.active() && (++budget_ops_ & 63u) == 0)
      lease_.set_bytes(terms_.allocated_bytes() + spill_bytes_ + occ_bytes_ +
                       seed_log_.capacity() * sizeof(BitMono));
  }

  /// Ranks the variables by their position in `gates`, files every term
  /// added so far under its leading variable by that rank, in the order the
  /// terms were added, and sizes the term map for the chain.
  void rank_by(const std::vector<NetId>& gates);

  /// Adds the chain's work counters to the metrics and zeroes them.
  void flush_counters();

  /// Gate-lookahead prefetch for run_segment: a substitution typically
  /// affects a single term, so latency can only be hidden by warming the
  /// *next* gates' state while the current one expands. Two levels,
  /// matching the dependency chain: the occurrence list line first (its
  /// inline slots hold the pending monomials), then — one gate later, once
  /// that line is resident — the term-map slots those monomials probe.
  /// Advisory only.
  void prefetch_occurrence_list(VarId v) const {
    __builtin_prefetch(&occurs_[v], 0, 1);
  }
  void prefetch_pending(VarId v) const {
    const OccList& pending = occurs_[v];
    std::size_t n = pending.size();
    if (n > 4) n = 4;  // a few lines of lead is all the loop can use
    for (std::size_t i = 0; i < n; ++i) terms_.prefetch(pending[i].hash());
  }

  /// Heap footprint of one occurrence-index entry: inline monomials cost the
  /// slot alone, spilled ones add their arena buffer.
  static std::size_t occ_entry_bytes(const BitMono& m) {
    return sizeof(BitMono) + m.spill_bytes();
  }

  // Substitution order: rank_[v] is v's position in the gates run_segment
  // walks (kNever when v is never substituted). Until the first run_segment
  // it is v itself for substitutable v, and seed_log_ records every fresh
  // term so rank_by can re-file them in insertion order.
  std::vector<std::uint32_t> rank_;
  bool ranked_ = false;
  std::vector<BitMono> seed_log_;
  std::vector<VarId> tail_lead_;  // substitute's scratch: each tail term's lead
  TermMap terms_;
  std::vector<OccList> occurs_;
  std::size_t max_terms_;
  const ExecControl* control_;
  std::size_t occ_bytes_ = 0;    // current occurrence-index footprint
  // Heap bytes owned by terms_'s entries: spilled keys' arena buffers and
  // spilled (k > 256) coefficients' word buffers. With the map's own
  // allocated_bytes() this is the term map's exact footprint.
  std::size_t spill_bytes_ = 0;
  std::size_t budget_ops_ = 0;   // mutation counter for the sync cadence
  std::size_t peak_terms_ = 0;   // high-water mark of terms_.size()
  // Work counters for chain.term_ops / .cancellations / .rehashes, flushed
  // to the metrics once per run_segment.
  std::size_t term_ops_ = 0;
  std::size_t cancellations_ = 0;
  std::size_t flushed_rehashes_ = 0;
  BudgetLease lease_;            // releases everything on destruction
};

/// The old name of the reduction chain, kept only because perfbench names
/// it; the next benchmark change moves perfbench onto BackwardRewriter and
/// deletes this. The field and the shard count are ignored: coefficients
/// carry their own field, and there is one serial chain.
class ShardedRewriter : public BackwardRewriter {
 public:
  ShardedRewriter(const Gf2k& /*field*/, std::vector<bool> substitutable,
                  unsigned /*shards*/, std::size_t max_terms = 0,
                  const ExecControl* control = nullptr)
      : BackwardRewriter(substitutable, max_terms, control) {}

  void seed(BitMono mono, const Gf2k::Elem& coeff) {
    add(std::move(mono), coeff);
  }
  TermMap take_merged() { return take_terms(); }
};

}  // namespace gfa
