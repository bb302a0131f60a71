#pragma once
// Crash flight recorder: a preallocated, signal-safe ring of the last ~256
// annotated events (phase transitions, reduction-chain segment ends, budget
// high-water marks), dumped from a SIGSEGV/SIGABRT handler so every exit-71 worker
// report carries the event tail leading up to death.
//
// Everything is static and lock-free by construction:
//   * note() claims a slot with one fetch_add and fills fixed-size fields —
//     no allocation, no locks, safe from any thread (and, incidentally, from
//     signal handlers, though nothing notes from one today).
//   * The ring, the formatting scratch buffer, and the handler's output fd
//     are all preallocated statics, so the SIGSEGV path performs only
//     loads, integer formatting into the static buffer, and raw write()s —
//     every call async-signal-safe per POSIX.
//   * Event tags are fixed 23-char labels; the two u64 annotation slots
//     carry step counts / byte counts / whatever the tag defines.
//
// The dump is one standard length-prefixed pipe frame (worker/protocol.h)
// whose JSON the handler formats by hand — the parent's frame loop needs no
// special case to receive a crash dump vs. a live telemetry frame. After
// dumping, the handler restores SIG_DFL and re-raises, so the kernel still
// reports the original signal and classify_termination still says
// kWorkerCrashed.

#include <cstdint>
#include <string>
#include <vector>

namespace gfa::obs::flight {

inline constexpr std::size_t kRingSize = 256;
inline constexpr std::size_t kTagBytes = 24;  // 23 chars + NUL

struct Event {
  std::uint64_t seq = 0;   // global sequence number (1-based; 0 = empty slot)
  std::uint64_t t_us = 0;  // absolute monotonic-clock microseconds
  char tag[kTagBytes] = {};
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

/// Appends an event to the ring. Lock- and allocation-free; callable from
/// any thread. Tags longer than 23 chars are truncated.
void note(const char* tag, std::uint64_t a = 0, std::uint64_t b = 0);

/// The ring contents, oldest first. Not signal-safe (allocates); for tests
/// and the child's orderly shutdown paths.
std::vector<Event> tail();

/// Empties the ring (the forked child drops inherited parent events).
void clear();

/// Human-readable one-liner for report JSON: "t=<us> <tag> a=<a> b=<b>".
std::string format(const Event& e);

/// Installs SIGSEGV/SIGABRT/SIGBUS/SIGFPE handlers that dump the ring as
/// one length-prefixed flight frame to `fd`, then restore SIG_DFL and
/// re-raise. Call once in the worker child, after clear().
void install_crash_handler(int fd);

/// Writes the ring to `fd` as the same length-prefixed flight frame the
/// crash handler emits. Async-signal-safe; also used by the child's
/// catch-all exception path just before _exit.
void dump_frame(int fd);

}  // namespace gfa::obs::flight
