#include "abstraction/extractor.h"

#include <algorithm>
#include <cassert>
#include <optional>
#include <stdexcept>

#include "abstraction/bitpoly.h"
#include "abstraction/rato.h"
#include "abstraction/rewriter.h"
#include "abstraction/word_lift.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "util/parallel_for.h"

namespace gfa {

namespace {

/// Reports a phase boundary / segment end to the progress sink (the isolated
/// worker's heartbeat channel) and drops a phase-transition breadcrumb into
/// the crash flight recorder. One branch when neither consumer is active.
void report_phase(const char* phase, std::uint64_t step, std::uint64_t terms,
                  const ExecControl* control) {
  if (obs::progress_active()) {
    obs::Progress p;
    p.phase = phase;
    p.step = step;
    if (const ResourceBudget* b = budget_of(control))
      p.budget_bytes = b->used_bytes();
    obs::report_progress(p);
    obs::flight::note(phase, step, terms);
  }
}

WordFunction extract_for_word(const Netlist& netlist, const Gf2k& field,
                              const Word* out_word,
                              const ExtractionOptions& options) {
  const obs::TraceSpan extract_span("extract_word", "abstraction");
  report_phase("extract_word", 0, 0, options.control);
  const unsigned k = field.k();
  const std::vector<const Word*> in_words = input_words(netlist);
  if (in_words.empty()) throw std::invalid_argument("no input words declared");
  if (out_word->bits.size() != k)
    throw std::invalid_argument("output word width != k");
  for (const Word* w : in_words)
    if (w->bits.size() != k) throw std::invalid_argument("input word width != k");

  std::vector<bool> is_input(netlist.num_nets(), false);
  for (NetId n : netlist.inputs()) is_input[n] = true;

  WordFunction result{VarPool{}, MPoly(&field), out_word->name, {}, {}};

  // Step 1: r := Σ_j α^j · z_j, i.e. Spoly(f_w, f_g) ->+ r realized as
  // backward rewriting of the word-output combination.
  std::vector<bool> substitutable(netlist.num_nets());
  for (NetId n = 0; n < netlist.num_nets(); ++n) substitutable[n] = !is_input[n];
  if (options.basis != nullptr && options.basis->size() != k)
    throw std::invalid_argument("word basis must have k elements");
  auto basis_elem = [&](unsigned j) {
    return options.basis != nullptr ? (*options.basis)[j]
                                    : field.alpha_pow(std::uint64_t{j});
  };

  ExtractionStats stats;
  BackwardRewriter chain(std::move(substitutable), options.max_terms,
                         options.control);
  try {
    std::vector<NetId> rato;
    {
      // The paper's RATO: the reverse-topological order that makes backward
      // substitution *be* the Gröbner reduction chain.
      const obs::TraceSpan sort_span("rato_sort", "abstraction");
      report_phase("rato_sort", 0, 0, options.control);
      rato = rato_net_order(netlist);
    }
    const obs::TraceSpan chain_span("reduction_chain", "abstraction");
    for (unsigned j = 0; j < k; ++j)
      chain.add(BitMono{out_word->bits[j]}, basis_elem(j));
    std::vector<NetId> gates;
    gates.reserve(rato.size());
    for (NetId n : rato)
      if (!is_input[n]) gates.push_back(n);
    // With a progress sink active the chain runs in 1000-gate segments,
    // reporting at each segment end: segmentation only bounds how stale a
    // heartbeat's step count can get. Without one it is a single segment.
    const bool segmented = obs::progress_active();
    std::uint64_t step = 0;
    report_phase("reduction_chain", step, chain.num_terms(), options.control);
    while (step < gates.size()) {
      const std::uint64_t end =
          segmented ? std::min<std::uint64_t>(step + 1000, gates.size())
                    : gates.size();
      chain.run_segment(netlist, gates, step, end);
      step = end;
      report_phase("reduction_chain", step, chain.num_terms(),
                   options.control);
    }
    stats.substitutions = gates.size();
    stats.peak_terms = chain.peak_terms();
  } catch (const RewriteBudgetExceeded& e) {
    throw ExtractionBudgetExceeded(e.what());
  }
  GFA_COUNT("extract.words", 1);
  GFA_COUNT("extract.substitutions", stats.substitutions);
  GFA_COUNT("reduction_steps", stats.substitutions);
  GFA_GAUGE_MAX("extract.peak_terms", stats.peak_terms);

  // The remainder now mentions only primary-input bits.
  const BackwardRewriter::TermMap remainder = chain.take_terms();
  stats.remainder_terms = remainder.size();
  bool any_bits = false;
  for (const auto& [m, c] : remainder) {
    stats.remainder_degree = std::max(stats.remainder_degree, m.size());
    if (!m.empty()) any_bits = true;
    for ([[maybe_unused]] VarId v : m)
      assert(is_input[v] && "non-input variable survived the reduction");
  }
  stats.case1 = !any_bits;

  // Build the public variable pool: input bit variables then word variables.
  std::vector<WordLift::WordBinding> bindings;
  bindings.reserve(in_words.size());
  std::vector<VarId> net_to_var(netlist.num_nets(), UINT32_MAX);
  for (const Word* w : in_words) {
    WordLift::WordBinding b;
    b.bit_vars.reserve(w->bits.size());
    for (NetId bit : w->bits) {
      const VarId v =
          result.pool.intern(netlist.gate(bit).name, VarKind::kBit);
      net_to_var[bit] = v;
      b.bit_vars.push_back(v);
    }
    b.word_var = result.pool.intern(w->name, VarKind::kWord);
    bindings.push_back(std::move(b));
    result.input_words.push_back(w->name);
  }

  // Remap the remainder onto pool variable ids.
  BitPoly r(&field);
  r.reserve(remainder.size());
  std::vector<VarId> mapped;
  for (const auto& [m, c] : remainder) {
    mapped.clear();
    mapped.reserve(m.size());
    for (VarId v : m) {
      if (net_to_var[v] == UINT32_MAX)
        throw std::invalid_argument(
            "primary input '" + netlist.gate(v).name + "' is not part of any word");
      mapped.push_back(net_to_var[v]);
    }
    std::sort(mapped.begin(), mapped.end());
    r.add_term(BitMono::from_sorted(mapped.data(), mapped.size()), c);
  }

  // Step 2: the Case-2 lift (a no-op beyond copying constants for Case 1).
  const obs::TraceSpan lift_span("case2_lift", "abstraction");
  report_phase("case2_lift", 0, r.num_terms(), options.control);
  if (stats.case1) {
    result.g = MPoly::constant(&field, r.coeff(BitMono{}));
  } else if (options.shared_lift != nullptr) {
    if (options.basis != nullptr &&
        !options.shared_lift->has_basis(options.basis))
      throw std::invalid_argument("shared_lift built for a different basis");
    result.g = options.shared_lift->lift(r, bindings, result.pool,
                                         options.control);
  } else {
    const WordLift lift(&field, options.basis, options.control);
    result.g = lift.lift(r, bindings, result.pool, options.control);
  }
  result.stats = stats;
  return result;
}

}  // namespace

WordFunction extract_word_function(const Netlist& netlist, const Gf2k& field,
                                   const ExtractionOptions& options) {
  const std::vector<const Word*> outs = output_words(netlist);
  if (outs.size() != 1)
    throw std::invalid_argument(
        outs.empty() ? "no output word declared"
                     : "several output words; use extract_word_function_for");
  return extract_for_word(netlist, field, outs[0], options);
}

WordFunction extract_word_function_for(const Netlist& netlist, const Gf2k& field,
                                       std::string_view output_word_name,
                                       const ExtractionOptions& options) {
  for (const Word* w : output_words(netlist)) {
    if (w->name == output_word_name)
      return extract_for_word(netlist, field, w, options);
  }
  throw std::invalid_argument("no output word named '" +
                              std::string(output_word_name) + "'");
}

std::vector<WordFunction> extract_all_word_functions(
    const Netlist& netlist, const Gf2k& field, const ExtractionOptions& options) {
  ExtractionOptions local = options;
  std::optional<WordLift> owned_lift;
  if (local.shared_lift == nullptr) {
    owned_lift.emplace(&field, local.basis, local.control);
    local.shared_lift = &*owned_lift;
  }
  // Output words are independent once the lift is shared; abstract them
  // concurrently (each extraction builds its own rewriter and pool).
  const std::vector<const Word*> outs = output_words(netlist);
  std::vector<WordFunction> out(outs.size());
  parallel_for(outs.size(), [&](std::size_t i) {
    out[i] = extract_for_word(netlist, field, outs[i], local);
  }, local.control);
  return out;
}

Result<WordFunction> try_extract_word_function(
    const Netlist& netlist, const Gf2k& field,
    const ExtractionOptions& options) {
  try {
    return extract_word_function(netlist, field, options);
  } catch (const ExtractionBudgetExceeded& e) {
    return Status::resource_exhausted(e.what());
  } catch (...) {
    return status_from_current_exception();
  }
}

Result<std::vector<WordFunction>> try_extract_all_word_functions(
    const Netlist& netlist, const Gf2k& field,
    const ExtractionOptions& options) {
  try {
    return extract_all_word_functions(netlist, field, options);
  } catch (const ExtractionBudgetExceeded& e) {
    return Status::resource_exhausted(e.what());
  } catch (...) {
    return status_from_current_exception();
  }
}

}  // namespace gfa
