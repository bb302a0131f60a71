#include "worker/retry.h"

#include <algorithm>

namespace gfa::worker {

double RetryPolicy::delay_before_attempt(unsigned attempt) const {
  if (attempt <= 1) return 0.0;
  double delay = backoff_seconds;
  for (unsigned i = 2; i < attempt; ++i) delay *= kBackoffFactor;
  return std::min(delay, kMaxBackoffSeconds);
}

bool RetryPolicy::retryable(StatusCode code) {
  switch (code) {
    case StatusCode::kWorkerCrashed:
    case StatusCode::kResourceExhausted:
    case StatusCode::kInternal:
      return true;
    default:
      return false;
  }
}

}  // namespace gfa::worker
