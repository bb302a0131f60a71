#pragma once
// Retry policy for isolated worker runs.
//
// A crashed worker (kWorkerCrashed), an OOM-killed one surfacing as
// kResourceExhausted, or an unexpected internal error are all transient from
// the supervisor's point of view: the same request may well succeed on a
// clean re-fork. This policy decides how many times to try and how long to
// sleep between attempts (exponential backoff, doubling from
// backoff_seconds up to a 30 s cap). The delays carry no jitter: a retry
// re-forks a local child, so there is no shared resource for concurrent
// retries to de-synchronise against.

#include "util/status.h"

namespace gfa::worker {

struct RetryPolicy {
  /// Total attempts, including the first (1 = never retry). The CLI's
  /// --retries=N maps to max_attempts = N + 1.
  unsigned max_attempts = 1;
  /// Backoff before the first retry; doubles per further retry.
  double backoff_seconds = 0.25;

  /// Growth factor of the backoff per further retry, and its ceiling.
  static constexpr double kBackoffFactor = 2.0;
  static constexpr double kMaxBackoffSeconds = 30.0;

  /// Sleep before attempt `attempt` (2-based: there is no delay before the
  /// first attempt): min(backoff_seconds · 2^(attempt−2), 30 s).
  double delay_before_attempt(unsigned attempt) const;

  /// Codes worth re-forking for. Deterministic failures (bad arguments,
  /// parse errors, unsupported instances) and explicit stops (deadline,
  /// cancel) are not retried; kUnknown verdicts are Ok and never reach this.
  static bool retryable(StatusCode code);
};

}  // namespace gfa::worker
