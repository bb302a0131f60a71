#pragma once
// parallel_for: the coarse, independent loops of the abstraction pipeline
// (the Cᵀ·Q·C transforms of the word lift, per-output-word extraction,
// hierarchical blocks) and the portfolio race.
//
// Semantics:
//   * parallel_for(n, fn) runs fn(i) for every i in [0, n), blocking until
//     all calls have finished. Work is claimed in chunks off an atomic cursor
//     and the calling thread participates, so progress never depends on a
//     helper being scheduled.
//   * Helpers live for one loop: a loop of width w starts w - 1 std::jthreads
//     (never more than n - 1) and joins them before it returns. No thread is
//     kept between loops, so a fork() copies no thread state. Starting the
//     helpers costs about 35 µs per loop at width 4 (x86-64, 4 vCPUs); a
//     k=163 verify runs four such loops.
//   * Nested calls (from inside a loop body) and a second concurrent
//     top-level call run serially on the calling thread — correct by
//     construction, never deadlocking. A one-item loop runs fn(0) inline and
//     leaves the loops nested in it their full width.
//   * A child forked while a loop was in flight finds that loop's busy flag
//     set and runs all its loops serially.
//   * The exception thrown at the lowest index is captured and rethrown on
//     the calling thread once the loop has drained. If a helper cannot be
//     started, the threads that did start finish the loop.
//   * An optional ExecControl is polled between chunks (and between serial
//     iterations); expiry throws StatusError(kDeadlineExceeded/kCancelled)
//     on the calling thread, so time-bounded engines stop promptly even
//     inside parallel loops.
//
// The width is GFA_THREADS when that environment variable is set. A
// malformed value (non-numeric, zero, > 1024, trailing garbage) is rejected
// with a diagnostic and exit(2) rather than silently falling back — the same
// policy as GFA_BENCH_MAX_K. Unset means std::thread::hardware_concurrency().
// set_parallel_thread_count() overrides both at runtime (gfa_tool --threads,
// the bench scaling sections, the determinism tests).

#include <cstddef>
#include <functional>

#include "util/exec_control.h"

namespace gfa {

/// Number of threads participating in parallel loops (>= 1, counting the
/// caller).
unsigned parallel_thread_count();

/// Overrides the width (clamped to [1, 1024]); beats GFA_THREADS. Only
/// stores it: the next loop uses the new width, a loop in flight keeps its own.
void set_parallel_thread_count(unsigned n);

/// Number of threads a parallel_for launched *right now* would use: the
/// width at top level, 1 when already inside a loop body (nested loops
/// degrade to serial). Sizing hint for chunk counts; not a reservation.
unsigned parallel_available_width();

/// Runs fn(i) for i in [0, n); see the header comment for guarantees.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                  const ExecControl* control = nullptr);

}  // namespace gfa
