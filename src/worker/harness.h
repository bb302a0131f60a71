#pragma once
// Process-isolated engine execution with crash recovery.
//
// run_in_worker() forks a child, hands it a WorkerRequest over a pipe (see
// protocol.h), and supervises: the child applies hard setrlimit caps
// (RLIMIT_AS from the memory budget, RLIMIT_CPU from the deadline), resolves
// the engine from the registry, runs it, and streams the result back as one
// response frame. The parent classifies every way the child can end:
//
//   termination                    -> Status
//   -------------------------------------------------------------------
//   valid response frame              the response's own status
//   clean exit, no/garbled frame      kWorkerCrashed ("protocol corruption")
//   nonzero exit                      kWorkerCrashed (exit code in message)
//   SIGSEGV / SIGABRT / SIGKILL / …   kWorkerCrashed (signal in message)
//   SIGXCPU (RLIMIT_CPU tripped)      kDeadlineExceeded
//   wall-clock overrun                SIGTERM, grace, SIGKILL;
//                                     kDeadlineExceeded
//   silent past the stall timeout     kWorkerCrashed ("worker stalled...");
//                                     stats carries worker_stalled = 1
//
// kWorkerCrashed maps to exit code 71, so scripts can tell "the engine said
// not-equivalent" from "the engine process died".
//
// While a worker runs, the supervisor drains its telemetry frame stream
// (protocol.h): heartbeat/progress frames feed the stall detector and the
// (heartbeats, last_phase, last_step) triple on the run record, trace frames
// are re-stamped and merged into the parent's trace buffer, and a crash
// flight-recorder frame (dumped by the child's signal handler) becomes the
// report's "flight_recorder" event tail.
//
// run_isolated_with_retry() wraps run_in_worker() in a RetryPolicy: crashed
// (or mem-killed) attempts re-fork the same request after an exponential
// backoff, and every attempt is recorded in the returned EngineRun's
// attempts array — the JSON report shows the crash history next to the
// final verdict.

#include <functional>
#include <sys/types.h>

#include "engine/report.h"
#include "worker/protocol.h"
#include "worker/retry.h"

namespace gfa::worker {

/// Supervisor settings a caller may override; the child's rlimit headroom is
/// fixed (see apply_child_rlimits in harness.cpp).
struct WorkerConfig {
  /// Grace between SIGTERM and SIGKILL when the parent ends an overrunning
  /// or abandoned worker.
  double kill_grace_seconds = 2.0;
  /// Test hook, called in the parent right after fork() with the child pid —
  /// crash-recovery tests use it to SIGKILL the worker mid-run.
  std::function<void(pid_t)> on_spawn;
};

/// Runs one request in one freshly forked worker. The returned EngineRun is
/// the one run_engine() produced in the child (see encode_response) or the
/// supervisor's classification of the child's death; either way wall_ms is
/// the parent-observed wall clock, and the worker telemetry, flight tail and
/// peak RSS are what the parent collected. Consumes the "worker:crash" / "worker:hang"
/// fault sites parent-side before forking, so an armed site fires in exactly
/// one attempt even across retries.
engine::EngineRun run_in_worker(const WorkerRequest& request,
                                const WorkerConfig& config = {});

/// run_in_worker() under a RetryPolicy: retries retryable failures (worker
/// crashes, resource exhaustion, internal errors) up to policy.max_attempts
/// total attempts, sleeping policy.delay_before_attempt() between them. The
/// attempts array records every try; stats gains "worker_attempts".
engine::EngineRun run_isolated_with_retry(const WorkerRequest& request,
                                          const RetryPolicy& policy,
                                          const WorkerConfig& config = {});

}  // namespace gfa::worker
