//===- support/ThreadPool.h - Work-stealing thread pool ---------*- C++ -*-===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed-size thread pool for wave-structured parallelism: the caller
/// submits one *wave* of independent chunks (a parallelFor), helps execute
/// it, and blocks until every chunk has finished. It has two users, and
/// both rely on that barrier for their happens-before edges: batch solving
/// (workload::solveSuite, one independent solver per entry) and the socket
/// server's read lanes (net::NetServer, one wave of queries per loop
/// iteration). The solver itself is single-threaded.
///
/// Execution lanes: a pool with N lanes runs N-1 background workers plus
/// the calling thread (lane 0), so `ThreadPool(1)` degenerates to an
/// inline sequential loop with no synchronization at all. Each lane owns a
/// deque of chunks; a lane pops work from the back of its own deque and,
/// when empty, steals from the front of another lane's — skewed waves
/// rebalance without a central queue. Every chunk callback receives its
/// lane index so callers can keep per-lane accumulators (e.g. the read
/// lanes' net/LaneStats slots) and merge them after the wave.
///
/// Exceptions thrown by chunk callbacks are captured (first one wins),
/// the wave still runs to completion, and the exception is rethrown on
/// the calling thread — the pool stays usable for subsequent waves.
///
//===----------------------------------------------------------------------===//

#ifndef POCE_SUPPORT_THREADPOOL_H
#define POCE_SUPPORT_THREADPOOL_H

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace poce {

/// Fixed-size pool executing one wave of chunks at a time.
class ThreadPool {
public:
  /// Creates a pool with \p Lanes execution lanes (0 means one lane per
  /// hardware thread). Lane 0 is the thread that calls parallelFor; the
  /// pool spawns Lanes - 1 background workers.
  explicit ThreadPool(unsigned Lanes = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  unsigned numLanes() const { return NumLanes; }

  /// Runs \p Fn(Index, Lane) for every Index in [0, N), distributed over
  /// the lanes in chunks of \p Grain consecutive indices (0 picks a grain
  /// of about 8 chunks per lane). Blocks until all N calls have completed;
  /// rethrows the first callback exception.
  void parallelFor(size_t N, const std::function<void(size_t, unsigned)> &Fn,
                   size_t Grain = 0);

  /// Chunked variant: \p Fn(Begin, End, Lane) over half-open index ranges.
  void parallelForChunks(size_t N,
                         const std::function<void(size_t, size_t, unsigned)> &Fn,
                         size_t Grain = 0);

  /// Chunks executed by a lane other than the one they were assigned to —
  /// observability for the stealing tests; monotone over the pool's life.
  uint64_t numSteals() const;

  /// Resolves a user-facing thread-count request: 0 means one lane per
  /// hardware thread (at least 1).
  static unsigned resolveThreads(unsigned Requested);

private:
  struct Chunk {
    size_t Begin, End;
  };
  struct Lane {
    std::mutex Mutex;
    std::deque<Chunk> Deque;
  };

  /// Pops a chunk for \p LaneIdx: back of its own deque first, then the
  /// front of the other lanes'. Returns false when no work is available.
  bool grabChunk(unsigned LaneIdx, Chunk &Out);
  /// Executes chunks as lane \p LaneIdx until none can be grabbed.
  void drainAsLane(unsigned LaneIdx);
  void workerLoop(unsigned LaneIdx);

  unsigned NumLanes;
  std::vector<std::unique_ptr<Lane>> Lanes;
  std::vector<std::thread> Workers;

  // Wave state, guarded by WaveMutex. WaveFn is set for the duration of
  // one parallelFor call; ChunksRemaining counts chunks not yet finished.
  std::mutex WaveMutex;
  std::condition_variable WaveStart; ///< Workers wait here between waves.
  std::condition_variable WaveDone;  ///< The caller waits here for the barrier.
  const std::function<void(size_t, size_t, unsigned)> *WaveFn = nullptr;
  uint64_t WaveGeneration = 0;
  size_t ChunksRemaining = 0;
  bool Stopping = false;

  std::mutex ErrorMutex;
  std::exception_ptr FirstError; ///< First callback exception of the wave.

  std::atomic<uint64_t> Steals{0};
};

} // namespace poce

#endif // POCE_SUPPORT_THREADPOOL_H
