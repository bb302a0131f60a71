#include "util/fault_inject.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>

#include "util/parse_number.h"

namespace gfa::fault {

namespace detail {
std::atomic<bool> g_armed{false};
}  // namespace detail

namespace {

enum class Action {
  kBudgetExhausted,  // throw StatusError(kResourceExhausted)
  kBadAlloc,         // throw std::bad_alloc, as a real failed allocation would
  kCancel,           // throw StatusError(kCancelled)
  kCaller,           // consumed via fault::consume(); the caller enacts the
                     // failure (worker crash/hang, cache corruption, ...)
};

struct SiteInfo {
  const char* name;
  Action action;
};

// The registry of injection points. Each "budget:*" entry fires inside
// ResourceBudget::charge for the matching BudgetSite; "oom:*" entries sit
// directly in front of the container insertions they model; the checkpoint
// entry fires inside throw_if_stopped. Keep DESIGN.md ("Robustness & fault
// tolerance") in sync with this table.
constexpr SiteInfo kSites[] = {
    {"budget:mpoly.terms", Action::kBudgetExhausted},
    {"budget:pair.queue", Action::kBudgetExhausted},
    {"budget:bdd.nodes", Action::kBudgetExhausted},
    {"budget:sat.clauses", Action::kBudgetExhausted},
    {"budget:rewriter.terms", Action::kBudgetExhausted},
    {"oom:rewriter.add", Action::kBadAlloc},
    {"oom:bdd.make", Action::kBadAlloc},
    {"oom:sat.learn", Action::kBadAlloc},
    {"cancel:checkpoint", Action::kCancel},
    {"worker:crash", Action::kCaller},
    {"worker:hang", Action::kCaller},
    // Verification service (src/service/): the cache writer flips a stored
    // byte so the CRC guard must catch it on the next get; the accept loop
    // treats one accepted connection as failed to prove the daemon survives.
    {"cache:corrupt", Action::kCaller},
    {"service:accept", Action::kCaller},
    // Verdict certification (src/certify/): forces the post-equivalence
    // simulation cross-check to disagree, so the kCertificationFailed path
    // (exit 73 + flight-recorder dump) is testable deterministically.
    {"certify:mismatch", Action::kCaller},
};
constexpr std::size_t kNumSites = sizeof(kSites) / sizeof(kSites[0]);

struct State {
  const SiteInfo* site = nullptr;        // valid while armed
  std::atomic<std::int64_t> countdown{0};  // fires when it reaches 0
  std::atomic<std::uint64_t> hits{0};
  std::atomic<bool> fired{false};
};

State& state() {
  static State s;
  return s;
}

const SiteInfo* find_site(std::string_view name) {
  for (const SiteInfo& s : kSites)
    if (name == s.name) return &s;
  return nullptr;
}

[[noreturn]] void fire(const SiteInfo& site) {
  state().fired.store(true, std::memory_order_relaxed);
  // One-shot: drop the enabled() gate so later GFA_FAULT_POINTs are back to
  // a single relaxed load and pass through. fired()/hits() survive re-read.
  detail::g_armed.store(false, std::memory_order_relaxed);
  switch (site.action) {
    case Action::kBadAlloc:
      throw std::bad_alloc();
    case Action::kCancel:
      throw StatusError(Status::cancelled(std::string("fault injection: ") +
                                          site.name + " fired"));
    case Action::kCaller:
      // Caller-enacted sites are queried via consume(), never via point().
      throw StatusError(Status::internal(
          std::string("fault site ") + site.name +
          " is caller-enacted; production code must use fault::consume()"));
    case Action::kBudgetExhausted:
    default:
      throw StatusError(Status::resource_exhausted(
          std::string("fault injection: ") + site.name + " fired"));
  }
}

#if defined(GFA_FAULT_INJECTION)
/// Honors GFA_INJECT=site:n before main(). Only our own function-local state
/// is touched, so static-initialization order is not a concern.
struct EnvInit {
  EnvInit() {
    const char* spec = std::getenv("GFA_INJECT");
    if (spec == nullptr || *spec == '\0') return;
    const Status s = arm_spec(spec);
    if (!s.ok()) {
      std::fprintf(stderr, "GFA_INJECT: %s\n", s.to_string().c_str());
      std::exit(2);
    }
  }
} g_env_init;
#else
/// When compiled out, a requested injection must fail loudly rather than
/// silently run the un-faulted path a test believes is faulted.
struct EnvInit {
  EnvInit() {
    if (std::getenv("GFA_INJECT") != nullptr) {
      std::fprintf(stderr,
                   "GFA_INJECT set but fault injection is compiled out "
                   "(rebuild with -DGFA_FAULT_INJECTION=ON)\n");
      std::exit(2);
    }
  }
} g_env_init;
#endif

}  // namespace

bool compiled_in() {
#if defined(GFA_FAULT_INJECTION)
  return true;
#else
  return false;
#endif
}

void point(const char* site) {
  State& s = state();
  if (!detail::g_armed.load(std::memory_order_relaxed)) return;
  const SiteInfo* armed_site = s.site;
  if (armed_site == nullptr || std::strcmp(site, armed_site->name) != 0) return;
  s.hits.fetch_add(1, std::memory_order_relaxed);
  // fetch_sub returning 1 means this hit is the Nth: exactly one thread
  // fires, later hits see a negative countdown and pass.
  if (s.countdown.fetch_sub(1, std::memory_order_relaxed) == 1) fire(*armed_site);
}

bool consume(const char* site) {
  State& s = state();
  if (!detail::g_armed.load(std::memory_order_relaxed)) return false;
  const SiteInfo* armed_site = s.site;
  if (armed_site == nullptr || std::strcmp(site, armed_site->name) != 0)
    return false;
  s.hits.fetch_add(1, std::memory_order_relaxed);
  if (s.countdown.fetch_sub(1, std::memory_order_relaxed) == 1) {
    // Same one-shot semantics as fire(), minus the throw.
    s.fired.store(true, std::memory_order_relaxed);
    detail::g_armed.store(false, std::memory_order_relaxed);
    return true;
  }
  return false;
}

Status arm(std::string_view site, std::uint64_t n) {
  if (!compiled_in())
    return Status::unsupported(
        "fault injection not compiled in (build with -DGFA_FAULT_INJECTION=ON)");
  if (n == 0)
    return Status::invalid_argument("fault-injection count must be >= 1");
  const SiteInfo* info = find_site(site);
  if (info == nullptr) {
    std::string known;
    for (const SiteInfo& s : kSites) {
      if (!known.empty()) known += ", ";
      known += s.name;
    }
    return Status::invalid_argument("unknown fault-injection site '" +
                                    std::string(site) + "' (known: " + known +
                                    ")");
  }
  State& s = state();
  detail::g_armed.store(false, std::memory_order_relaxed);
  s.site = info;
  s.countdown.store(static_cast<std::int64_t>(n), std::memory_order_relaxed);
  s.hits.store(0, std::memory_order_relaxed);
  s.fired.store(false, std::memory_order_relaxed);
  detail::g_armed.store(true, std::memory_order_release);
  return Status();
}

Status arm_spec(std::string_view spec) {
  std::string_view site = spec;
  std::uint64_t n = 1;
  if (const auto colon = spec.rfind(':'); colon != std::string_view::npos &&
                                          spec.find(':') != colon) {
    // Site names contain one ':' ("oom:bdd.make"); a second separates the
    // count ("oom:bdd.make:3").
    site = spec.substr(0, colon);
    const Result<std::uint64_t> parsed =
        parse_u64(spec.substr(colon + 1), 1, UINT64_MAX);
    if (!parsed.ok())
      return Status::invalid_argument("bad fault-injection count in '" +
                                      std::string(spec) + "': " +
                                      parsed.status().message());
    n = *parsed;
  }
  return arm(site, n);
}

void disarm() {
  State& s = state();
  detail::g_armed.store(false, std::memory_order_relaxed);
  s.site = nullptr;
  s.fired.store(false, std::memory_order_relaxed);
  s.hits.store(0, std::memory_order_relaxed);
}

bool fired() { return state().fired.load(std::memory_order_relaxed); }

std::uint64_t hits() { return state().hits.load(std::memory_order_relaxed); }

const std::vector<std::string_view>& registered_sites() {
  static const std::vector<std::string_view> sites = [] {
    std::vector<std::string_view> out;
    out.reserve(kNumSites);
    for (const SiteInfo& s : kSites) out.emplace_back(s.name);
    return out;
  }();
  return sites;
}

}  // namespace gfa::fault
