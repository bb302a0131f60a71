#include "poly/mpoly.h"

#include <algorithm>
#include <cassert>

#include "obs/metrics.h"

namespace gfa {

namespace {

/// Terms between two polls of the ExecControl in MPoly::mul() and
/// MPoly::normalized_vanishing().
constexpr std::size_t kPollTerms = 4096;

}  // namespace

MPoly MPoly::constant(const Gf2k* field, Elem c) {
  MPoly p(field);
  p.add_term(Monomial(), c);
  return p;
}

MPoly MPoly::variable(const Gf2k* field, VarId v) {
  MPoly p(field);
  p.add_term(Monomial(v, BigUint(1)), field->one());
  return p;
}

MPoly MPoly::term(const Gf2k* field, Elem c, Monomial m) {
  MPoly p(field);
  p.add_term(m, c);
  return p;
}

MPoly::Elem MPoly::coeff(const Monomial& m) const {
  auto it = terms_.find(m);
  return it == terms_.end() ? field_->zero() : it->second;
}

void MPoly::add_term(const Monomial& m, const Elem& c) {
  if (c.is_zero()) return;
  auto [it, inserted] = terms_.emplace(m, c);
  if (!inserted) {
    it->second = field_->add(it->second, c);
    if (it->second.is_zero()) terms_.erase(it);
  }
}

MPoly MPoly::operator+(const MPoly& rhs) const {
  MPoly out = *this;
  out += rhs;
  return out;
}

MPoly& MPoly::operator+=(const MPoly& rhs) {
  for (const auto& [m, c] : rhs.terms_) add_term(m, c);
  return *this;
}

MPoly MPoly::mul(const MPoly& rhs, const ExecControl* control) const {
  MPoly out(field_);
  std::size_t until_poll = kPollTerms;
  for (const auto& [ma, ca] : terms_)
    for (const auto& [mb, cb] : rhs.terms_) {
      if (--until_poll == 0) {
        throw_if_stopped(control);
        until_poll = kPollTerms;
      }
      out.add_term(ma * mb, field_->mul(ca, cb));
    }
  return out;
}

MPoly MPoly::mul_term(const Elem& c, const Monomial& m) const {
  MPoly out(field_);
  if (c.is_zero()) return out;
  for (const auto& [mt, ct] : terms_) out.add_term(mt * m, field_->mul(ct, c));
  return out;
}

MPoly MPoly::scaled(const Elem& c) const { return mul_term(c, Monomial()); }

MPoly::Term MPoly::leading_term(const TermOrder& order) const {
  assert(!is_zero() && "leading term of zero polynomial");
  auto best = terms_.begin();
  for (auto it = std::next(terms_.begin()); it != terms_.end(); ++it) {
    if (order.greater(it->first, best->first)) best = it;
  }
  return {best->first, best->second};
}

MPoly MPoly::monic(const TermOrder& order) const {
  if (is_zero()) return *this;
  const Elem lc = leading_term(order).coeff;
  if (lc.is_one()) return *this;
  return scaled(field_->inv(lc));
}

MPoly MPoly::normalized_vanishing(const VarPool& pool,
                                  const ExecControl* control) const {
  MPoly out(field_);
  std::size_t until_poll = kPollTerms;
  for (const auto& [m, c] : terms_) {
    if (--until_poll == 0) {
      throw_if_stopped(control);
      until_poll = kPollTerms;
    }
    std::vector<std::pair<VarId, BigUint>> pairs;
    pairs.reserve(m.factors().size());
    for (const auto& [v, e] : m.factors()) {
      if (pool.kind(v) == VarKind::kBit) {
        pairs.emplace_back(v, BigUint(1));  // x^e = x for e >= 1 on {0,1}
      } else {
        pairs.emplace_back(v, field_->reduce_exponent(e));
      }
    }
    out.add_term(Monomial::from_pairs(std::move(pairs)), c);
  }
  return out;
}

MPoly MPoly::substituted(VarId v, const MPoly& replacement,
                         const VarPool& pool) const {
  // Cache powers of the replacement keyed by exponent to avoid recomputation
  // across terms; exponentiate by square-and-multiply over the BigUint bits.
  auto pow_of = [&](const BigUint& e) {
    MPoly result = MPoly::constant(field_, field_->one());
    MPoly base = replacement;
    const int bits = e.bit_length();
    for (int i = bits; i >= 0; --i) {
      result = (result * result).normalized_vanishing(pool);
      if (e.bit(static_cast<unsigned>(i)))
        result = (result * base).normalized_vanishing(pool);
    }
    return result;
  };
  MPoly out(field_);
  for (const auto& [m, c] : terms_) {
    const BigUint& e = m.exponent(v);
    if (e.is_zero()) {
      out.add_term(m, c);
      continue;
    }
    std::vector<std::pair<VarId, BigUint>> rest;
    for (const auto& [w, ew] : m.factors())
      if (w != v) rest.emplace_back(w, ew);
    MPoly expanded =
        pow_of(e).mul_term(c, Monomial::from_pairs(std::move(rest)));
    out += expanded;
  }
  return out.normalized_vanishing(pool);
}

MPoly::Elem MPoly::eval(const std::function<Elem(VarId)>& point) const {
  Elem sum = field_->zero();
  for (const auto& [m, c] : terms_) {
    Elem prod = c;
    for (const auto& [v, e] : m.factors())
      prod = field_->mul(prod, field_->pow(point(v), e));
    sum = field_->add(sum, prod);
  }
  return sum;
}

bool MPoly::mentions(VarId v) const {
  for (const auto& [m, c] : terms_) {
    if (!m.exponent(v).is_zero()) return true;
  }
  return false;
}

std::vector<VarId> MPoly::variables() const {
  std::vector<VarId> vars;
  for (const auto& [m, c] : terms_)
    for (const auto& [v, e] : m.factors()) vars.push_back(v);
  std::sort(vars.begin(), vars.end());
  vars.erase(std::unique(vars.begin(), vars.end()), vars.end());
  return vars;
}

namespace {

std::string term_to_string(const Gf2k& field, const VarPool& pool,
                           const Monomial& m, const Gf2k::Elem& c) {
  const bool coeff_is_sum = c.weight() > 1;
  std::string cs = field.to_string(c);
  if (m.is_one()) return coeff_is_sum ? "(" + cs + ")" : cs;
  std::string ms = m.to_string(pool);
  if (c.is_one()) return ms;
  if (coeff_is_sum) cs = "(" + cs + ")";
  return cs + "*" + ms;
}

}  // namespace

std::string MPoly::to_string(const VarPool& pool) const {
  return to_string(pool, TermOrder::lex_by_id(pool.size()));
}

std::string MPoly::to_string(const VarPool& pool, const TermOrder& order) const {
  if (is_zero()) return "0";
  std::vector<const std::pair<const Monomial, Elem>*> sorted;
  sorted.reserve(terms_.size());
  for (const auto& t : terms_) sorted.push_back(&t);
  std::sort(sorted.begin(), sorted.end(), [&](const auto* a, const auto* b) {
    return order.greater(a->first, b->first);
  });
  std::string out;
  for (const auto* t : sorted) {
    if (!out.empty()) out += " + ";
    out += term_to_string(*field_, pool, t->first, t->second);
  }
  return out;
}

MPoly normal_form(const MPoly& f, const std::vector<MPoly>& basis,
                  const TermOrder& order, const ExecControl* control) {
  // Leading terms of the basis are fixed throughout the division; compute
  // them (and the inverses of their coefficients) once instead of rescanning
  // every divisor on every reduction step.
  struct Divisor {
    const MPoly* g;
    Monomial lm;
    Gf2k::Elem inv_lc;
  };
  std::vector<Divisor> divisors;
  divisors.reserve(basis.size());
  for (const MPoly& g : basis) {
    if (g.is_zero()) continue;
    MPoly::Term lt = g.leading_term(order);
    divisors.push_back(
        {&g, std::move(lt.mono), f.field().inv(lt.coeff)});
  }

  // Keep the working polynomial in a map sorted descending by the term
  // order: the leading term is begin() (O(log n)) rather than a full scan,
  // which kept the whole division quadratic in the number of terms.
  auto greater = [&order](const Monomial& a, const Monomial& b) {
    return order.greater(a, b);
  };
  std::map<Monomial, Gf2k::Elem, decltype(greater)> work(greater);
  for (const auto& [m, c] : f.terms()) work.emplace(m, c);

  MPoly r(&f.field());
  const bool measured = obs::metrics_enabled();
  std::size_t peak_terms = work.size();
  std::size_t steps = 0;
  // Memory accounting rides the existing checkpoint cadence: the working
  // map is the structure that explodes on non-RATO orders, so its size —
  // times a per-node estimate — is what the budget bounds.
  BudgetLease lease(budget_of(control), BudgetSite::kMpolyTerms);
  lease.set_bytes(work.size() * kMPolyTermBytes);
  while (!work.empty()) {
    if ((++steps & 63u) == 0) {
      throw_if_stopped(control);
      lease.set_bytes(work.size() * kMPolyTermBytes);
    }
    if (measured) peak_terms = std::max(peak_terms, work.size());
    const auto head = work.begin();
    const Monomial mono = head->first;
    const Gf2k::Elem coeff = head->second;
    work.erase(head);
    const Divisor* hit = nullptr;
    for (const Divisor& d : divisors) {
      if (d.lm.divides(mono)) {
        hit = &d;
        break;
      }
    }
    if (hit == nullptr) {
      r.add_term(mono, coeff);
      continue;
    }
    // p -= (lt(p) / lm(g)) * g ; over char 2, minus is plus. The leading
    // term of the product cancels `mono` exactly, so only the divisor's
    // trailing terms enter the working map (all smaller under the order).
    const Monomial q = hit->lm.divide_into(mono);
    const Gf2k::Elem c = f.field().mul(coeff, hit->inv_lc);
    for (const auto& [gm, gc] : hit->g->terms()) {
      if (gm == hit->lm) continue;
      auto [it, inserted] = work.emplace(gm * q, f.field().mul(c, gc));
      if (!inserted) {
        it->second = f.field().add(it->second, f.field().mul(c, gc));
        if (it->second.is_zero()) work.erase(it);
      }
    }
  }
  GFA_COUNT("normal_form.calls", 1);
  GFA_COUNT("reduction_steps", steps);
  GFA_GAUGE_MAX("normal_form.peak_terms", peak_terms);
  return r;
}

MPoly spoly(const MPoly& f, const MPoly& g, const TermOrder& order) {
  assert(!f.is_zero() && !g.is_zero());
  const MPoly::Term ltf = f.leading_term(order);
  const MPoly::Term ltg = g.leading_term(order);
  const Monomial l = Monomial::lcm(ltf.mono, ltg.mono);
  const Gf2k& field = f.field();
  MPoly a = f.mul_term(field.inv(ltf.coeff), ltf.mono.divide_into(l));
  MPoly b = g.mul_term(field.inv(ltg.coeff), ltg.mono.divide_into(l));
  return a + b;  // char 2: a - b == a + b
}

}  // namespace gfa
