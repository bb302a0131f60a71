// The portfolio meta-engine: graceful degradation across the registry.
//
// The built-in engines fail in complementary ways — abstraction blows up on
// non-RATO-friendly netlists where SAT or BDDs survive, SAT dies at word
// sizes abstraction shrugs off — so a portfolio that walks an ordered list
// (default: abstraction → ideal-membership → sat) with a fresh per-attempt
// memory budget and deadline turns "my one engine mem-ed out" into "a later
// engine still produced the verdict". Every attempt — run, failed, or
// skipped — is recorded in VerifyResult::attempts and lands in the JSON run
// report, so callers can see which engine decided and why the others did not.
//
// Policy semantics (kept in sync with DESIGN.md "Robustness & fault
// tolerance"):
//  - A definitive verdict (equivalent / not-equivalent) ends the run; the
//    remaining engines are recorded as skipped.
//  - Ok(kUnknown) and attempt-local failures (mem-out, attempt timeout,
//    unsupported instance) fall through to the next engine.
//  - The *overall* control firing (deadline/cancel) aborts the whole
//    portfolio with that status — attempt history goes into the message.
//  - Racing mode runs the attempts concurrently via parallel_for; the first
//    definitive verdict by list position wins and cancels the rest.
//  - The deciding attempt's verdict, detail and counterexample become the
//    portfolio's. Attempts never certify: the portfolio's own run_engine()
//    certifies its final verdict once, so a certification failure is the
//    run's status, never a fall-through.
//  - Attempts always run in-process. To contain a crashing engine, fork the
//    whole portfolio run (worker/harness.h, `gfa_tool --isolate`).

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "engine/portfolio.h"
#include "engine/registry.h"
#include "engine/report.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "util/parallel_for.h"

namespace gfa::engine {

namespace {

bool definitive(const EngineRun& run) {
  return run.status.ok() && run.verdict != Verdict::kUnknown;
}

AttemptRecord skipped_record(std::string engine, std::string why) {
  AttemptRecord a;
  a.engine = std::move(engine);
  a.skipped = true;
  a.detail = std::move(why);
  return a;
}

/// One line per attempt, for failure-status messages (the Result<T> error
/// path cannot carry the structured attempt array).
std::string summarize(const std::vector<AttemptRecord>& attempts) {
  std::string out;
  for (const AttemptRecord& a : attempts) {
    if (!out.empty()) out += "; ";
    out += a.engine + ": ";
    if (a.skipped)
      out += "skipped (" + a.detail + ")";
    else if (!a.status.ok())
      out += a.status.to_string();
    else
      out += verdict_name(a.verdict);
  }
  return out;
}

class PortfolioEngine final : public EquivEngine {
 public:
  std::string name() const override { return "portfolio"; }
  std::string description() const override {
    return "ordered (or racing) fallback across the other engines with "
           "per-attempt time/memory budgets; first definitive verdict wins";
  }
  bool manages_budget() const override { return true; }

  Result<VerifyResult> verify(const Netlist& spec, const Netlist& impl,
                              const Gf2k& field,
                              const RunOptions& options) const override {
    static const std::vector<std::string> kDefaultOrder = {
        "abstraction", "ideal-membership", "sat"};
    const std::vector<std::string>& names =
        options.portfolio_engines.empty() ? kDefaultOrder
                                          : options.portfolio_engines;
    std::vector<const EquivEngine*> engines;
    engines.reserve(names.size());
    for (const std::string& n : names) {
      Result<const EquivEngine*> e = EngineRegistry::global().require(n);
      if (!e.ok()) return e.status();
      if (*e == static_cast<const EquivEngine*>(this))
        return Status::invalid_argument(
            "the portfolio cannot contain itself");
      engines.push_back(*e);
    }
    GFA_COUNT("portfolio.runs", 1);
    return options.portfolio_race
               ? race(engines, names, spec, impl, field, options)
               : escalate(engines, names, spec, impl, field, options);
  }

 private:
  /// Per-attempt options: the parent's cancel token and deadline (tightened
  /// by attempt_timeout_seconds), a budget slot run_engine() will fill from
  /// memory_budget_bytes, no portfolio recursion, and no certification — the
  /// portfolio's own run_engine() certifies the final verdict once.
  static RunOptions attempt_options(const RunOptions& options) {
    RunOptions ao = options;
    ao.portfolio_engines.clear();
    ao.portfolio_race = false;
    ao.certify = false;
    ao.control.budget = nullptr;  // run_engine installs a fresh one
    if (options.attempt_timeout_seconds > 0.0) {
      const Deadline local = Deadline::after(options.attempt_timeout_seconds);
      if (local.when() < ao.control.deadline.when())
        ao.control.deadline = local;
    }
    return ao;
  }

  Result<VerifyResult> escalate(const std::vector<const EquivEngine*>& engines,
                                const std::vector<std::string>& names,
                                const Netlist& spec, const Netlist& impl,
                                const Gf2k& field,
                                const RunOptions& options) const {
    VerifyResult out;
    std::size_t ran = 0;
    std::size_t leaked_bytes = 0;
    for (std::size_t i = 0; i < engines.size(); ++i) {
      if (options.control.should_stop()) {
        Status stop = options.control.check();
        for (std::size_t j = i; j < engines.size(); ++j)
          out.attempts.push_back(skipped_record(names[j], stop.to_string()));
        return Status::with_code(stop.code(), stop.message() + " after " +
                                       std::to_string(ran) + " attempt(s) [" +
                                       summarize(out.attempts) + "]");
      }
      // The portfolio owns each attempt's budget (rather than letting
      // run_engine wrap one) so it can verify the attempt released every
      // lease — a leak here would silently starve later attempts if the
      // budget were ever shared.
      RunOptions ao = attempt_options(options);
      std::optional<ResourceBudget> attempt_budget;
      if (options.memory_budget_bytes != 0) {
        attempt_budget.emplace(options.memory_budget_bytes);
        ao.control.budget = &*attempt_budget;
      }
      EngineRun run = run_engine(*engines[i], spec, impl, field, ao);
      if (attempt_budget) leaked_bytes += attempt_budget->used_bytes();
      ++ran;
      out.attempts.push_back(attempt_record_of(run));
      if (definitive(run)) {
        GFA_COUNT("portfolio.attempts", ran);
        for (std::size_t j = i + 1; j < engines.size(); ++j)
          out.attempts.push_back(skipped_record(
              names[j], names[i] + " already produced a verdict"));
        out.verdict = run.verdict;
        out.detail = names[i] + (run.detail.empty() ? "" : ": " + run.detail);
        out.counterexample = std::move(run.counterexample);
        finish_stats(out, ran, leaked_bytes);
        return out;
      }
      // Ok(kUnknown) and attempt-local failures both fall through; a parent
      // deadline/cancel surfaces as should_stop() on the next iteration
      // (top of loop) and aborts the whole portfolio there.
      GFA_LOG_INFO("portfolio",
                   names[i] << " did not decide ("
                            << (run.status.ok() ? verdict_name(run.verdict)
                                                : run.status.to_string())
                            << "), " << (i + 1 < engines.size()
                                             ? "trying next engine"
                                             : "no engines left"));
    }
    return conclude_undecided(std::move(out), ran, leaked_bytes, options);
  }

  Result<VerifyResult> race(const std::vector<const EquivEngine*>& engines,
                            const std::vector<std::string>& names,
                            const Netlist& spec, const Netlist& impl,
                            const Gf2k& field,
                            const RunOptions& options) const {
    // Every attempt shares one race token: the first definitive finisher
    // fires it and the rest unwind as kCancelled at their next checkpoint.
    // Attempts still observe the parent deadline (copied into their
    // control); a parent *cancel* fired mid-attempt is observed between
    // attempts/chunks, not inside a running one — an accepted limitation of
    // carrying a single token per control.
    CancelToken race_cancel;
    if (options.control.cancel.cancelled()) race_cancel.request_cancel();
    std::vector<std::optional<EngineRun>> runs(engines.size());
    // Loser hygiene: every attempt gets its own budget, created and checked
    // on the attempt's thread. A cancelled loser unwinds through its
    // BudgetLease destructors before run_engine returns, so by the time the
    // winner is reported no loser may still hold leased bytes — any residue
    // is surfaced in budget_leaked_bytes instead of silently vanishing with
    // the budget object.
    std::atomic<std::size_t> leaked{0};
    try {
      parallel_for(
          engines.size(),
          [&](std::size_t i) {
            if (race_cancel.cancelled() || options.control.should_stop())
              return;  // a winner (or the parent) already ended the race
            RunOptions ao = attempt_options(options);
            ao.control.cancel = race_cancel;
            std::optional<ResourceBudget> attempt_budget;
            if (options.memory_budget_bytes != 0) {
              attempt_budget.emplace(options.memory_budget_bytes);
              ao.control.budget = &*attempt_budget;
            }
            runs[i] = run_engine(*engines[i], spec, impl, field, ao);
            if (attempt_budget)
              leaked.fetch_add(attempt_budget->used_bytes(),
                               std::memory_order_relaxed);
            if (definitive(*runs[i])) race_cancel.request_cancel();
          },
          &options.control);
    } catch (const StatusError& e) {
      // The parent control fired between chunks; drain what we have.
      race_cancel.request_cancel();
      std::vector<AttemptRecord> attempts;
      for (std::size_t i = 0; i < engines.size(); ++i)
        attempts.push_back(runs[i] ? attempt_record_of(*runs[i])
                                   : skipped_record(names[i],
                                                    e.status.to_string()));
      return Status::with_code(e.status.code(), e.status.message() +
                                         " during portfolio race [" +
                                         summarize(attempts) + "]");
    }
    VerifyResult out;
    std::size_t ran = 0;
    std::size_t winner = engines.size();
    for (std::size_t i = 0; i < engines.size(); ++i) {
      if (runs[i]) {
        ++ran;
        out.attempts.push_back(attempt_record_of(*runs[i]));
        if (winner == engines.size() && definitive(*runs[i])) winner = i;
      } else {
        out.attempts.push_back(
            skipped_record(names[i], "race decided before this engine ran"));
      }
    }
    if (winner < engines.size()) {
      EngineRun& run = *runs[winner];
      out.verdict = run.verdict;
      out.detail =
          names[winner] + (run.detail.empty() ? "" : ": " + run.detail);
      out.counterexample = std::move(run.counterexample);
      finish_stats(out, ran, leaked.load(std::memory_order_relaxed));
      return out;
    }
    if (options.control.should_stop()) {
      const Status stop = options.control.check();
      return Status::with_code(stop.code(), stop.message() + " during portfolio race [" +
                                     summarize(out.attempts) + "]");
    }
    return conclude_undecided(std::move(out), ran,
                              leaked.load(std::memory_order_relaxed), options);
  }

  /// Shared no-winner ending: any Ok(kUnknown) attempt means the portfolio
  /// itself is Ok(kUnknown); all-failed composes a status from the attempts
  /// (most severe code wins so a mem-out is not masked by an unsupported).
  static Result<VerifyResult> conclude_undecided(VerifyResult out,
                                                 std::size_t ran,
                                                 std::size_t leaked_bytes,
                                                 const RunOptions& options) {
    GFA_COUNT("portfolio.attempts", ran);
    GFA_COUNT("portfolio.undecided", 1);
    const bool any_unknown =
        std::any_of(out.attempts.begin(), out.attempts.end(),
                    [](const AttemptRecord& a) {
                      return !a.skipped && a.status.ok();
                    });
    if (any_unknown) {
      out.verdict = Verdict::kUnknown;
      out.detail = "no engine was definitive [" + summarize(out.attempts) + "]";
      finish_stats(out, ran, leaked_bytes);
      return out;
    }
    if (options.control.should_stop()) {
      const Status stop = options.control.check();
      return Status::with_code(stop.code(), stop.message() + " after " +
                                     std::to_string(ran) + " attempt(s) [" +
                                     summarize(out.attempts) + "]");
    }
    // All attempts failed on their own; report the last failure's code with
    // the whole history in the message.
    StatusCode code = StatusCode::kInternal;
    for (const AttemptRecord& a : out.attempts)
      if (!a.skipped && !a.status.ok()) code = a.status.code();
    return Status::with_code(code, "all " + std::to_string(ran) +
                            " portfolio attempt(s) failed [" +
                            summarize(out.attempts) + "]");
  }

  /// `leaked_bytes` sums each finished attempt's ResourceBudget::used_bytes()
  /// at retirement — bytes an attempt still held leased after its run ended.
  /// Always emitted (0 when budgets were off) so tests can assert losers
  /// released everything.
  static void finish_stats(VerifyResult& out, std::size_t ran,
                           std::size_t leaked_bytes) {
    out.stats["attempts_run"] = static_cast<double>(ran);
    out.stats["attempts_total"] = static_cast<double>(out.attempts.size());
    out.stats["budget_leaked_bytes"] = static_cast<double>(leaked_bytes);
  }
};

}  // namespace

std::unique_ptr<EquivEngine> make_portfolio_engine() {
  return std::make_unique<PortfolioEngine>();
}

}  // namespace gfa::engine
