// Tests for parallel_for (util/parallel_for.h): completeness, nesting,
// exception propagation, and width changes between loops.

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "util/parallel_for.h"

namespace gfa {
namespace {

TEST(ParallelFor, RunsEveryIndexExactlyOnce) {
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                        std::size_t{1000}}) {
    std::vector<std::atomic<int>> hits(n);
    parallel_for(n, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ParallelFor, ComputesDisjointResults) {
  const std::size_t n = 4096;
  std::vector<long> out(n, 0);
  parallel_for(n, [&](std::size_t i) { out[i] = static_cast<long>(i) * 3; });
  long sum = std::accumulate(out.begin(), out.end(), 0L);
  EXPECT_EQ(sum, 3L * static_cast<long>(n) * (static_cast<long>(n) - 1) / 2);
}

TEST(ParallelFor, NestedCallsComplete) {
  const std::size_t outer = 16, inner = 64;
  std::atomic<int> count{0};
  parallel_for(outer, [&](std::size_t) {
    parallel_for(inner, [&](std::size_t) { count.fetch_add(1); });
  });
  EXPECT_EQ(count.load(), static_cast<int>(outer * inner));
}

TEST(ParallelFor, PropagatesFirstException) {
  EXPECT_THROW(
      parallel_for(100,
                   [&](std::size_t i) {
                     if (i == 37) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
  // The next loop must run normally after a failed one.
  std::atomic<int> count{0};
  parallel_for(50, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 50);
}

TEST(ParallelFor, ThreadCountIsPositive) {
  EXPECT_GE(parallel_thread_count(), 1u);
}

TEST(ParallelFor, SetThreadCountResizesLivePool) {
  const unsigned before = parallel_thread_count();
  for (unsigned target : {1u, 3u, 8u, before}) {
    set_parallel_thread_count(target);
    EXPECT_EQ(parallel_thread_count(), target);
    // A loop at the new width still runs every index exactly once.
    const std::size_t n = 1000;
    std::vector<std::atomic<int>> hits(n);
    parallel_for(n, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1) << i;
  }
  EXPECT_EQ(parallel_thread_count(), before);
}

TEST(ParallelFor, SetThreadCountClampsToValidRange) {
  const unsigned before = parallel_thread_count();
  set_parallel_thread_count(0);
  EXPECT_EQ(parallel_thread_count(), 1u);
  set_parallel_thread_count(before);
  EXPECT_EQ(parallel_thread_count(), before);
}

TEST(ParallelFor, AvailableWidthIsOneInsideLoops) {
  const unsigned before = parallel_thread_count();
  set_parallel_thread_count(4);
  EXPECT_EQ(parallel_available_width(), 4u);
  std::atomic<unsigned> inner_width{99};
  parallel_for(8, [&](std::size_t) {
    inner_width.store(parallel_available_width());
  });
  EXPECT_EQ(inner_width.load(), 1u);
  set_parallel_thread_count(1);
  EXPECT_EQ(parallel_available_width(), 1u);
  set_parallel_thread_count(before);
}

// A one-item loop runs inline without marking the thread, so the loops
// nested in it (the lift's row loops under a single output word) keep the
// full width.
TEST(ParallelFor, OneItemLoopLeavesNestedLoopsTheirWidth) {
  const unsigned before = parallel_thread_count();
  set_parallel_thread_count(4);
  unsigned inner_width = 0;
  parallel_for(1, [&](std::size_t) { inner_width = parallel_available_width(); });
  EXPECT_EQ(inner_width, 4u);
  set_parallel_thread_count(before);
}

// With several indices throwing, the exception that propagates must be the
// one from the lowest index, independent of thread schedule: the later
// errors (700+) are thrown from many chunks at once and will often be
// *recorded* first in wall-clock time, but index 400's chunk was claimed
// earlier off the monotonic cursor and must win the tie-break.
TEST(ParallelFor, LowestIndexErrorWinsDeterministically) {
  for (int round = 0; round < 25; ++round) {
    try {
      parallel_for(2000, [&](std::size_t i) {
        if (i == 400) throw std::runtime_error("low");
        if (i >= 700) throw std::runtime_error("high");
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "low") << "round " << round;
    }
  }
}

}  // namespace
}  // namespace gfa
