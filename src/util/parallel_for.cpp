#include "util/parallel_for.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/log.h"
#include "obs/metrics.h"
#include "util/parse_number.h"

namespace gfa {

namespace {

/// Set while the current thread runs a loop body (as caller or helper);
/// nested parallel_for calls then run serially.
thread_local bool tls_in_parallel = false;

/// Loop width; 0 until the first loop or set_parallel_thread_count() fixes it.
std::atomic<unsigned> g_width{0};
/// Held by the one top-level loop that has helpers; a second concurrent
/// caller finds it set and runs serially.
std::atomic<bool> g_busy{false};

unsigned decide_thread_count() {
  if (const char* env = std::getenv("GFA_THREADS")) {
    const Result<unsigned> v = parse_unsigned(env, 1, 1024);
    if (!v.ok()) {
      GFA_LOG_ERROR("parallel_for",
                    "GFA_THREADS must be an integer in [1, 1024], got '"
                        << env << "' (" << v.status().to_string() << ")");
      std::exit(2);
    }
    GFA_LOG_DEBUG("parallel_for", "loop width " << *v << " (from GFA_THREADS)");
    return *v;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  const unsigned n = hw >= 1 ? hw : 1;
  GFA_LOG_DEBUG("parallel_for", "loop width " << n << " (hardware default)");
  return n;
}

unsigned width() {
  unsigned n = g_width.load(std::memory_order_relaxed);
  if (n != 0) return n;
  n = decide_thread_count();
  unsigned unset = 0;
  // A concurrent set_parallel_thread_count() wins over the default.
  return g_width.compare_exchange_strong(unset, n, std::memory_order_relaxed)
             ? n
             : unset;
}

/// Marks the calling thread as inside a loop for the guard's lifetime.
class InLoop {
 public:
  InLoop() : was_(tls_in_parallel) { tls_in_parallel = true; }
  ~InLoop() { tls_in_parallel = was_; }
  InLoop(const InLoop&) = delete;
  InLoop& operator=(const InLoop&) = delete;

 private:
  bool was_;
};

/// One loop; the caller and its helpers claim chunks off an atomic cursor.
struct Job {
  const std::function<void(std::size_t)>* fn = nullptr;
  const ExecControl* control = nullptr;
  std::size_t n = 0;
  std::size_t chunk = 1;
  std::atomic<std::size_t> next{0};
  // Failure propagation is first-error-BY-INDEX, not by wall-clock, so a
  // run that fails is reproducible across thread schedules (fault-injection
  // sweeps depend on this). Chunks are claimed off the monotonic cursor, so
  // every chunk below any claimed chunk was also claimed and runs to
  // completion or to its own error even after the drain fires; the chunk
  // holding the globally minimal failing index therefore always executes,
  // and keeping the minimum makes the rethrown error schedule-independent.
  std::exception_ptr error;          // failure at the lowest index so far
  std::size_t error_index = 0;       // both guarded by error_mutex
  std::size_t error_count = 0;
  std::mutex error_mutex;

  void work(bool is_worker) {
    std::size_t chunks_done = 0;
    for (;;) {
      const std::size_t begin = next.fetch_add(chunk, std::memory_order_relaxed);
      if (begin >= n) break;
      ++chunks_done;
      const std::size_t end = begin + chunk < n ? begin + chunk : n;
      std::size_t i = begin;
      try {
        throw_if_stopped(control);  // deadline/cancel checkpoint per chunk
        for (; i < end; ++i) (*fn)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        ++error_count;
        if (!error || i < error_index) {
          error = std::current_exception();
          error_index = i;
        }
        next.store(n, std::memory_order_relaxed);  // drain remaining chunks
      }
    }
    // Helper-vs-caller chunk counts give a crude utilization signal.
    if (chunks_done > 0) {
      if (is_worker)
        GFA_COUNT("parallel.worker_chunks", chunks_done);
      else
        GFA_COUNT("parallel.caller_chunks", chunks_done);
    }
  }
};

/// Runs the loop on the caller plus `helpers` threads started for it alone.
/// The caller holds g_busy; it is cleared after every helper has joined.
void run_with_helpers(std::size_t n, unsigned helpers,
                      const std::function<void(std::size_t)>& fn,
                      const ExecControl* control) {
  struct Release {
    ~Release() { g_busy.store(false, std::memory_order_release); }
  } release;
  Job job;
  job.fn = &fn;
  job.control = control;
  job.n = n;
  job.chunk = n / ((helpers + 1) * 8) + 1;
  {
    const InLoop mark;
    std::vector<std::jthread> threads;  // joined at scope exit
    try {
      threads.reserve(helpers);
      for (unsigned t = 0; t < helpers; ++t)
        threads.emplace_back([&job] {
          tls_in_parallel = true;
          job.work(/*is_worker=*/true);
        });
    } catch (const std::exception& e) {
      // Chunks are claimed, not assigned: the threads that did start (the
      // caller at least) finish the loop.
      GFA_LOG_WARN("parallel_for", "started " << threads.size() << " of "
                                               << helpers << " helpers: "
                                               << e.what());
    }
    job.work(/*is_worker=*/false);  // the caller participates
  }
  if (job.error) {
    if (job.error_count > 1)
      GFA_COUNT("parallel.suppressed_errors", job.error_count - 1);
    std::rethrow_exception(job.error);
  }
}

}  // namespace

unsigned parallel_thread_count() { return width(); }

void set_parallel_thread_count(unsigned n) {
  if (n < 1) n = 1;
  if (n > 1024) n = 1024;
  g_width.store(n, std::memory_order_relaxed);
}

unsigned parallel_available_width() {
  if (tls_in_parallel) return 1;
  return width();
}

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                  const ExecControl* control) {
  if (n == 0) return;
  GFA_COUNT("parallel.items", n);
  if (n == 1) {
    // One item needs no helpers, and loops nested in it keep their width.
    GFA_COUNT("parallel.serial_loops", 1);
    throw_if_stopped(control);
    fn(0);
    return;
  }
  const unsigned w = tls_in_parallel ? 1 : width();
  bool idle = false;
  if (w > 1 && g_busy.compare_exchange_strong(idle, true,
                                              std::memory_order_acquire)) {
    GFA_COUNT("parallel.loops", 1);
    run_with_helpers(n, static_cast<unsigned>(std::min<std::size_t>(w, n)) - 1,
                     fn, control);
    return;
  }
  GFA_COUNT("parallel.serial_loops", 1);
  const InLoop mark;
  for (std::size_t i = 0; i < n; ++i) {
    throw_if_stopped(control);
    fn(i);
  }
}

}  // namespace gfa
