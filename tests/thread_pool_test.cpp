//===- tests/thread_pool_test.cpp - Work-stealing pool tests ---------------===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests of the work-stealing thread pool that drives batch solving and
/// the socket server's read lanes: complete coverage of the index space,
/// stealing under skewed per-lane loads, exception propagation, and pool
/// reuse across many waves.
///
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

using namespace poce;

namespace {

TEST(ThreadPoolTest, ResolveThreads) {
  EXPECT_GE(ThreadPool::resolveThreads(0), 1u);
  EXPECT_EQ(ThreadPool::resolveThreads(1), 1u);
  EXPECT_EQ(ThreadPool::resolveThreads(3), 3u);
}

TEST(ThreadPoolTest, SingleLaneRunsInline) {
  ThreadPool Pool(1);
  EXPECT_EQ(Pool.numLanes(), 1u);
  std::vector<int> Hits(100, 0);
  Pool.parallelFor(Hits.size(), [&](size_t I, unsigned Lane) {
    EXPECT_EQ(Lane, 0u);
    ++Hits[I];
  });
  for (int Hit : Hits)
    EXPECT_EQ(Hit, 1);
  EXPECT_EQ(Pool.numSteals(), 0u);
}

TEST(ThreadPoolTest, EveryIndexVisitedExactlyOnce) {
  ThreadPool Pool(4);
  const size_t N = 10000;
  std::vector<std::atomic<int>> Hits(N);
  Pool.parallelFor(N, [&](size_t I, unsigned Lane) {
    EXPECT_LT(Lane, Pool.numLanes());
    Hits[I].fetch_add(1, std::memory_order_relaxed);
  });
  for (const std::atomic<int> &Hit : Hits)
    EXPECT_EQ(Hit.load(), 1);
}

TEST(ThreadPoolTest, ChunksCoverRangeWithoutOverlap) {
  ThreadPool Pool(3);
  const size_t N = 997; // Prime: exercises the ragged final chunk.
  std::vector<std::atomic<int>> Hits(N);
  Pool.parallelForChunks(
      N,
      [&](size_t Begin, size_t End, unsigned) {
        ASSERT_LE(Begin, End);
        ASSERT_LE(End, N);
        for (size_t I = Begin; I != End; ++I)
          Hits[I].fetch_add(1, std::memory_order_relaxed);
      },
      /*Grain=*/10);
  for (const std::atomic<int> &Hit : Hits)
    EXPECT_EQ(Hit.load(), 1);
}

TEST(ThreadPoolTest, StealsUnderSkewedLoad) {
  // Chunks are dealt round-robin, so with Grain=1 every index I lands on
  // lane I % numLanes. Making lane 1's tasks slow forces the other lanes
  // to run dry and steal from it.
  ThreadPool Pool(4);
  ASSERT_EQ(Pool.numLanes(), 4u);
  const size_t N = 64;
  std::atomic<size_t> Done{0};
  Pool.parallelFor(
      N,
      [&](size_t I, unsigned) {
        if (I % 4 == 1)
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        Done.fetch_add(1, std::memory_order_relaxed);
      },
      /*Grain=*/1);
  EXPECT_EQ(Done.load(), N);
  EXPECT_GT(Pool.numSteals(), 0u);
}

TEST(ThreadPoolTest, ExceptionPropagatesAndPoolStaysUsable) {
  ThreadPool Pool(4);
  EXPECT_THROW(
      Pool.parallelFor(
          100,
          [&](size_t I, unsigned) {
            if (I == 13)
              throw std::runtime_error("boom");
          },
          /*Grain=*/1),
      std::runtime_error);

  // The failed wave must not poison the pool.
  std::atomic<size_t> Done{0};
  Pool.parallelFor(100, [&](size_t, unsigned) {
    Done.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(Done.load(), 100u);
}

TEST(ThreadPoolTest, ReuseAcrossManyWaves) {
  ThreadPool Pool(3);
  const size_t N = 64;
  std::vector<std::atomic<uint64_t>> Sums(N);
  for (unsigned Wave = 0; Wave != 100; ++Wave) {
    Pool.parallelFor(N, [&](size_t I, unsigned) {
      Sums[I].fetch_add(I + 1, std::memory_order_relaxed);
    });
  }
  for (size_t I = 0; I != N; ++I)
    EXPECT_EQ(Sums[I].load(), 100 * (I + 1));
}

TEST(ThreadPoolTest, EmptyAndTinyRanges) {
  ThreadPool Pool(4);
  Pool.parallelFor(0, [&](size_t, unsigned) { FAIL(); });
  std::atomic<int> Hits{0};
  Pool.parallelFor(1, [&](size_t I, unsigned) {
    EXPECT_EQ(I, 0u);
    Hits.fetch_add(1);
  });
  EXPECT_EQ(Hits.load(), 1);
}

} // namespace
