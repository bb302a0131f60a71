#include "abstraction/equivalence.h"

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "abstraction/word_lift.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace gfa {

namespace {

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

Result<MPoly> remap_by_name(const MPoly& g, const VarPool& from,
                            const VarPool& to) {
  MPoly out(&g.field());
  for (const auto& [mono, coeff] : g.terms()) {
    std::vector<std::pair<VarId, BigUint>> pairs;
    pairs.reserve(mono.factors().size());
    for (const auto& [v, e] : mono.factors()) {
      const std::string& name = from.name(v);
      if (!to.contains(name))
        return Status::invalid_argument(
            "the circuits' input words differ: no word named '" + name +
            "' on the other side");
      pairs.emplace_back(to.id(name), e);
    }
    out.add_term(Monomial::from_pairs(std::move(pairs)), coeff);
  }
  return out;
}

bool same_word_function(const WordFunction& f1, const WordFunction& f2,
                        std::string* difference) {
  std::vector<std::string> w1 = f1.input_words, w2 = f2.input_words;
  std::sort(w1.begin(), w1.end());
  std::sort(w2.begin(), w2.end());
  if (w1 != w2) {
    if (difference) *difference = "input word names differ";
    return false;
  }
  const Result<MPoly> g2 = remap_by_name(f2.g, f2.pool, f1.pool);
  if (!g2.ok()) {
    if (difference) *difference = "input word names differ";
    return false;
  }
  if (f1.g == *g2) return true;
  if (difference)
    *difference = describe_difference(f1.g.field(), f1.pool, f1.g, *g2);
  return false;
}

EquivalenceResult check_equivalence(const Netlist& spec, const Netlist& impl,
                                    const Gf2k& field,
                                    const ExtractionOptions& options) {
  // Build the O(k²) Frobenius basis change once for both circuits, then
  // abstract spec and impl one after the other. Each extraction runs its lift
  // rows at full pool width; running the two as two pool tasks instead
  // would serialize those — a loop nested inside pool work degrades to
  // serial — and cap the speedup at 2.
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
