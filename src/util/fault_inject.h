#pragma once
// Deterministic fault injection for robustness tests.
//
// Production code marks its fallible hot spots with GFA_FAULT_POINT("site");
// a test (or the GFA_INJECT=site:n environment variable) arms exactly one
// site to fire on its Nth hit, after which the site throws the failure the
// real world would produce there — std::bad_alloc for "oom:*" sites,
// StatusError(kResourceExhausted) for "budget:*" sites, and
// StatusError(kCancelled) for "cancel:checkpoint". Every registered site is
// swept by tests/fault_inject_test.cpp to prove each engine unwinds to a
// clean Status from OOM/cancel at every counted allocation point.
//
// The framework is compiled in when GFA_FAULT_INJECTION is defined (the
// default for dev/ASan builds; Release CI turns it off): GFA_FAULT_POINT then
// costs one relaxed atomic load when nothing is armed. When compiled out the
// macro expands to nothing and arm() reports kUnsupported, so release
// binaries carry zero overhead and cannot be sabotaged via the environment.

#include <atomic>
#include <cstdint>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace gfa::fault {

/// True when the framework was compiled in (GFA_FAULT_INJECTION defined).
bool compiled_in();

namespace detail {
/// The armed/disarmed gate, exposed here so enabled() inlines into hot loops
/// (the rewriter's add path hits it once per term mutation). All other
/// injection state stays in fault_inject.cpp.
extern std::atomic<bool> g_armed;
}  // namespace detail

/// True while some site is armed and has not yet fired. One relaxed atomic
/// load, inline; the macro uses it as the fast-path gate.
inline bool enabled() {
  return detail::g_armed.load(std::memory_order_relaxed);
}

/// Hot-path hook: fires the armed fault if `site` matches and this is the
/// Nth hit since arming. No-op (after the `enabled()` gate) otherwise.
/// `site` must be one of registered_sites().
void point(const char* site);

/// Non-throwing variant for sites whose failure is *enacted by the caller*
/// rather than thrown here: the worker supervisor ("worker:crash",
/// "worker:hang" — the parent decides per attempt, so one-shot semantics
/// survive retries across forked children), the cache writer
/// ("cache:corrupt"), the accept loop ("service:accept") and the verdict
/// cross-check ("certify:mismatch"). Counts a hit against the armed site and returns
/// true exactly when this hit is the Nth — the caller then produces the
/// failure. Always false when compiled out or when another site is armed.
bool consume(const char* site);

/// Arms `site` to fire on its `n`th hit (n >= 1). Replaces any previous
/// arming and resets the hit counter. Errors: kInvalidArgument for an
/// unregistered site or n == 0, kUnsupported when compiled out.
Status arm(std::string_view site, std::uint64_t n);

/// Arms from a "site:n" spec (the GFA_INJECT / --inject syntax); a bare
/// "site" means "site:1".
Status arm_spec(std::string_view spec);

/// Disarms any armed site. Safe to call when nothing is armed.
void disarm();

/// True once the armed fault has actually fired (sticky until re-arm/disarm).
bool fired();

/// Number of times the armed site has been hit since arming (fired or not).
std::uint64_t hits();

/// All registered site names, for sweeps and `--inject help` listings.
const std::vector<std::string_view>& registered_sites();

#if defined(GFA_FAULT_INJECTION)
#define GFA_FAULT_POINT(site)                         \
  do {                                                \
    if (::gfa::fault::enabled()) ::gfa::fault::point(site); \
  } while (0)
#else
#define GFA_FAULT_POINT(site) \
  do {                        \
  } while (0)
#endif

}  // namespace gfa::fault
