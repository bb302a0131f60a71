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
#include <type_traits>
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
  BackwardRewriter(const Gf2k& field, std::vector<bool> substitutable,
                   std::size_t max_terms = 0,
                   const ExecControl* control = nullptr)
      : field_(field),
        substitutable_(std::move(substitutable)),
        occurs_(substitutable_.size()),
        max_terms_(max_terms),
        control_(control),
        lease_(budget_of(control), BudgetSite::kRewriterTerms) {}

  void add(BitMono mono, const Gf2k::Elem& coeff) {
    add_impl(std::move(mono), coeff);
  }
  /// Move overload: on a fresh insert the coefficient's heap buffer moves
  /// into the map instead of being copied (one malloc per term at k > 64).
  void add(BitMono mono, Gf2k::Elem&& coeff) {
    add_impl(std::move(mono), std::move(coeff));
  }

 private:
  template <class C>
  void add_impl(BitMono mono, C&& coeff) {
    if (coeff.is_zero()) return;
    GFA_FAULT_POINT("oom:rewriter.add");
    // Spent coefficient buffers (cancelled terms, unconsumed rvalues) are
    // recycled through a small pool: a copy-insert lands in a recycled
    // buffer's capacity instead of a fresh heap block.
    constexpr bool kByMove = !std::is_reference_v<C>;
    // try_emplace leaves `mono` (and `coeff`) intact when the key already
    // exists; it forwards the coefficient only on a fresh insert.
    std::pair<TermMap::iterator, bool> r;
    if constexpr (!kByMove) {
      r = terms_.try_emplace(std::move(mono));
      if (r.second) {
        Gf2k::Elem& slot = r.first->second;
        if (!elem_pool_.empty()) {
          slot = std::move(elem_pool_.back());
          elem_pool_.pop_back();
        }
        slot = coeff;
      }
    } else {
      r = terms_.try_emplace(std::move(mono), std::forward<C>(coeff));
    }
    auto [it, inserted] = r;
    if (!inserted) {
      it->second += coeff;
      if constexpr (kByMove) recycle(std::move(coeff));
      if (it->second.is_zero()) {
        spill_bytes_ -= it->first.spill_bytes();
        recycle(std::move(it->second));
        terms_.erase(it);
      }
      return;  // already indexed
    }
    spill_bytes_ += it->first.spill_bytes();
    for (VarId v : it->first) {
      if (substitutable_[v]) {
        occurs_[v].push_back(it->first);
        occ_bytes_ += occ_entry_bytes(it->first);
      }
    }
    if (terms_.size() > peak_terms_) peak_terms_ = terms_.size();
    if (max_terms_ && terms_.size() > max_terms_)
      throw RewriteBudgetExceeded("rewriting term budget exceeded");
    // Byte accounting is synced every 64 mutations — often enough to stop a
    // blow-up, rare enough to keep the atomics out of the inner loop.
    if (lease_.active() && (++budget_ops_ & 63u) == 0)
      lease_.set_bytes(map_bytes(terms_) + spill_bytes_ + occ_bytes_);
  }

 public:
  void add(const BitPoly& p) {
    for (const auto& [m, c] : p.terms()) add(m, c);
  }

  /// Replaces every occurrence of variable v by `tail` (a polynomial over
  /// variables that will be substituted after v, or never). Accepts the flat
  /// tail form (what the chain feeds it) or a full polynomial (tests,
  /// baselines).
  void substitute(VarId v, const BitPoly& tail) { substitute_impl(v, tail); }
  void substitute(VarId v, const FlatTail& tail) { substitute_impl(v, tail); }

  /// Substitutes gates[from, to) — in RATO order — polling the control
  /// before every gate. Any segment end is a valid checkpoint: the term map
  /// then holds exactly the chain's polynomial after `to` substitutions.
  void run_segment(const Netlist& netlist, const std::vector<NetId>& gates,
                   std::size_t from, std::size_t to);

  std::size_t num_terms() const { return terms_.size(); }
  const TermMap& terms() const { return terms_; }

  /// Destructively hands the term map over (the rewriter is spent after),
  /// so the remainder leaves the chain without copying every monomial.
  TermMap take_terms() { return std::move(terms_); }

  /// Largest term-map size seen so far (sampled after every insertion).
  std::size_t peak_terms() const { return peak_terms_; }

  /// Registered (possibly stale) occurrence-index entries for v.
  std::size_t occurrences(VarId v) const { return occurs_[v].size(); }

 private:
  template <class TailT>
  void substitute_impl(VarId v, const TailT& tail);

  using OccList = InlineSmallVec<BitMono, 2>;

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
    for (std::size_t i = 0; i < n; ++i) terms_.prefetch(pending[i]);
  }

  /// Heap footprint of one occurrence-index entry: inline monomials cost the
  /// slot alone, spilled ones add their arena buffer.
  static std::size_t occ_entry_bytes(const BitMono& m) {
    return sizeof(BitMono) + m.spill_bytes();
  }

  /// Bytes the term map charges against the rewriter.terms budget site:
  /// exact arena footprint plus a per-coefficient estimate (the Gf2Poly word
  /// buffers live outside the arena).
  static std::size_t map_bytes(const TermMap& t) {
    return t.allocated_bytes() + t.size() * 32;
  }

  /// Banks a spent coefficient's heap buffer for reuse (bounded pool).
  void recycle(Gf2k::Elem&& e) {
    if (elem_pool_.size() < kElemPoolCap) elem_pool_.push_back(std::move(e));
  }
  static constexpr std::size_t kElemPoolCap = 64;

  const Gf2k& field_;
  std::vector<bool> substitutable_;
  TermMap terms_;
  std::vector<OccList> occurs_;
  std::size_t max_terms_;
  const ExecControl* control_;
  std::size_t occ_bytes_ = 0;    // current occurrence-index footprint
  std::size_t spill_bytes_ = 0;  // arena bytes owned by keys in terms_
  std::size_t budget_ops_ = 0;   // mutation counter for the sync cadence
  std::size_t peak_terms_ = 0;   // high-water mark of terms_.size()
  std::vector<Gf2k::Elem> elem_pool_;  // recycled coefficient buffers
  BudgetLease lease_;            // releases everything on destruction
};

/// The old name of the reduction chain, kept only because perfbench names
/// it; the next benchmark change moves perfbench onto BackwardRewriter and
/// deletes this. The shard count is ignored: there is one serial chain.
class ShardedRewriter : public BackwardRewriter {
 public:
  ShardedRewriter(const Gf2k& field, std::vector<bool> substitutable,
                  unsigned /*shards*/, std::size_t max_terms = 0,
                  const ExecControl* control = nullptr)
      : BackwardRewriter(field, std::move(substitutable), max_terms, control) {}

  void seed(BitMono mono, const Gf2k::Elem& coeff) {
    add(std::move(mono), coeff);
  }
  TermMap take_merged() { return take_terms(); }
};

/// The tail polynomial of a gate over net-id variables (multilinear form of
/// gate_tail_poly).
BitPoly gate_tail_bitpoly(const Gf2k& field, const Netlist::Gate& gate);

}  // namespace gfa
