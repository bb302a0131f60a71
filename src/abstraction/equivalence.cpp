#include "abstraction/equivalence.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <optional>

#include "abstraction/word_lift.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/parallel_for.h"

namespace gfa {

namespace {

/// Term count above which the coefficient-wise comparison work (remapping,
/// equality) fans out across the pool. Multiplier canonical forms are tiny
/// (G = A·B is one term) but ECC point formulas and fault shapes are not.
constexpr std::size_t kParallelMatchMin = 1024;

/// Remaps f.g's word variables into `target` ids by name. Returns false if
/// some word of f has no counterpart.
bool remap_into(const WordFunction& f, const VarPool& target, MPoly* out) {
  std::map<VarId, VarId> vmap;
  for (const std::string& w : f.input_words) {
    if (!target.contains(w)) return false;
    vmap.emplace(f.pool.id(w), target.id(w));
  }
  std::vector<const std::pair<const Monomial, Gf2k::Elem>*> terms;
  terms.reserve(f.g.num_terms());
  for (const auto& term : f.g.terms()) terms.push_back(&term);
  // Each term remaps independently; above the threshold the terms are
  // strided over the pool into chunk-private polynomials merged in fixed
  // chunk order (addition never collides — remapping is injective on
  // monomials — so this equals the serial accumulation).
  const std::size_t chunks =
      terms.size() >= kParallelMatchMin
          ? std::min<std::size_t>(parallel_available_width(), terms.size())
          : 1;
  std::vector<MPoly> partial(chunks, MPoly(&f.g.field()));
  std::atomic<bool> unbound{false};
  parallel_for(chunks, [&](std::size_t chunk) {
    MPoly local(&f.g.field());
    for (std::size_t i = chunk; i < terms.size(); i += chunks) {
      const auto& [mono, coeff] = *terms[i];
      std::vector<std::pair<VarId, BigUint>> pairs;
      pairs.reserve(mono.factors().size());
      for (const auto& [v, e] : mono.factors()) {
        auto it = vmap.find(v);
        if (it == vmap.end()) {
          unbound.store(true, std::memory_order_relaxed);
          return;
        }
        pairs.emplace_back(it->second, e);
      }
      local.add_term(Monomial::from_pairs(std::move(pairs)), coeff);
    }
    partial[chunk] = std::move(local);
  });
  if (unbound.load(std::memory_order_relaxed)) return false;
  *out = MPoly(&f.g.field());
  for (MPoly& p : partial) *out += p;
  return true;
}

/// Coefficient-wise equality; large polynomials compare chunk-parallel.
/// Both term lists come from std::map iteration, so index i holds the same
/// rank monomial on both sides and chunks are independent.
bool mpoly_equal(const MPoly& g1, const MPoly& g2) {
  if (g1.num_terms() != g2.num_terms()) return false;
  if (g1.num_terms() < kParallelMatchMin) return g1 == g2;
  std::vector<const std::pair<const Monomial, Gf2k::Elem>*> t1, t2;
  t1.reserve(g1.num_terms());
  t2.reserve(g2.num_terms());
  for (const auto& t : g1.terms()) t1.push_back(&t);
  for (const auto& t : g2.terms()) t2.push_back(&t);
  const std::size_t chunks =
      std::min<std::size_t>(parallel_available_width(), t1.size());
  std::atomic<bool> differ{false};
  parallel_for(chunks, [&](std::size_t chunk) {
    for (std::size_t i = chunk; i < t1.size(); i += chunks) {
      if (differ.load(std::memory_order_relaxed)) return;
      if (t1[i]->first != t2[i]->first || t1[i]->second != t2[i]->second) {
        differ.store(true, std::memory_order_relaxed);
        return;
      }
    }
  });
  return !differ.load(std::memory_order_relaxed);
}

std::string describe_difference(const Gf2k& field, const VarPool& pool,
                                const MPoly& g1, const MPoly& g2) {
  MPoly diff = g1 + g2;  // char 2: the symmetric difference of coefficients
  std::string out = "coefficients differ on " +
                    std::to_string(diff.num_terms()) + " monomial(s): ";
  std::size_t shown = 0;
  for (const auto& [mono, c] : diff.terms()) {
    if (shown++ == 4) {
      out += "…";
      break;
    }
    if (shown > 1) out += ", ";
    out += mono.to_string(pool) + " [spec " + field.to_string(g1.coeff(mono)) +
           " vs impl " + field.to_string(g2.coeff(mono)) + "]";
  }
  return out;
}

}  // namespace

bool same_word_function(const WordFunction& f1, const WordFunction& f2,
                        std::string* difference) {
  std::vector<std::string> w1 = f1.input_words, w2 = f2.input_words;
  std::sort(w1.begin(), w1.end());
  std::sort(w2.begin(), w2.end());
  if (w1 != w2) {
    if (difference) *difference = "input word names differ";
    return false;
  }
  MPoly g2(&f2.g.field());
  if (!remap_into(f2, f1.pool, &g2)) {
    if (difference) *difference = "input word names differ";
    return false;
  }
  if (mpoly_equal(f1.g, g2)) return true;
  if (difference)
    *difference = describe_difference(f1.g.field(), f1.pool, f1.g, g2);
  return false;
}

EquivalenceResult check_equivalence(const Netlist& spec, const Netlist& impl,
                                    const Gf2k& field,
                                    const ExtractionOptions& options) {
  // Build the O(k²) Frobenius basis change once for both circuits, then
  // abstract spec and impl one after the other. Each extraction runs its lift
  // rows at full pool width; running the two concurrently instead would
  // serialize those — parallel_invoke marks both callers as pool work, so
  // every nested loop degrades — and caps the speedup at 2.
  ExtractionOptions local = options;
  std::optional<WordLift> owned_lift;
  if (local.shared_lift == nullptr) {
    owned_lift.emplace(&field, local.basis, local.control);
    local.shared_lift = &*owned_lift;
  }
  WordFunction spec_fn = extract_word_function(spec, field, local);
  WordFunction impl_fn = extract_word_function(impl, field, local);
  GFA_COUNT("equivalence.checks", 1);
  const obs::TraceSpan match_span("coefficient_match", "abstraction");
  std::string diff;
  const bool eq = same_word_function(spec_fn, impl_fn, &diff);
  return EquivalenceResult{eq, std::move(spec_fn), std::move(impl_fn),
                           std::move(diff)};
}

Result<EquivalenceResult> try_check_equivalence(
    const Netlist& spec, const Netlist& impl, const Gf2k& field,
    const ExtractionOptions& options) {
  try {
    return check_equivalence(spec, impl, field, options);
  } catch (const ExtractionBudgetExceeded& e) {
    return Status::resource_exhausted(e.what());
  } catch (...) {
    return status_from_current_exception();
  }
}

}  // namespace gfa
