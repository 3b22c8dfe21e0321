//===- net/ReadView.h - RCU-published immutable query views -----*- C++ -*-===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The read side of the socket server's concurrency story. A ReadView is
/// an *immutable* solved solver: built once from a GraphSnapshot byte
/// image (the same serialization `save` writes), settled with
/// materializeAllViews(), and then never mutated — read lanes answer
/// every query with serve::answerQuery() on the view's solver and system,
/// which goes only through ConstraintSolver's const read surface
/// (repConst / leastSolutionViewConst / aliasConst): no lazy closure, no
/// lazy finalize, and no union-find path compression. That makes a
/// published view shareable across any number of reader lanes with no
/// synchronization at all.
///
/// Publication is epoch/RCU-style: the single writer lane rebuilds a
/// fresh view after each accepted add batch and swaps it into the
/// ViewPublisher; readers acquire() a shared_ptr at the start of a wave
/// and keep querying that epoch even while the next one is being built.
/// Readers therefore never block on writers (the only shared state is
/// one pointer swap), and the writer never waits for readers (old epochs
/// are reclaimed by the last shared_ptr release). The round trip through
/// the snapshot format is deliberate: serialize→deserialize is the one
/// operation the repo already proves produces a semantically identical
/// solver (snapshot_test round-trip tests), so published answers are
/// bit-identical to the writer's own.
///
//===----------------------------------------------------------------------===//

#ifndef POCE_NET_READVIEW_H
#define POCE_NET_READVIEW_H

#include "serve/GraphSnapshot.h"
#include "setcon/ConstraintFile.h"
#include "support/Status.h"

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace poce {
namespace net {

/// One immutable epoch of the solved state. Every method is const and
/// thread-safe by construction (see file comment).
class ReadView {
public:
  /// Builds a view from a snapshot byte image: deserialize, settle every
  /// least-solution view, and adopt declarations so textual names
  /// resolve. \p Epoch is the publisher's sequence number for this view.
  static Expected<std::shared_ptr<const ReadView>>
  build(const std::vector<uint8_t> &SnapshotBytes, uint64_t Epoch);

  /// The snapshot payload checksum this view was built from — the
  /// epoch's durable identity (matches what `save` would write).
  uint64_t checksum() const { return Checksum; }

  /// Publisher sequence number (0 = the startup view).
  uint64_t epoch() const { return Epoch; }

  /// The settled solver and its declarations: the arguments of
  /// serve::answerQuery().
  const ConstraintSolver &solver() const { return *Bundle.Solver; }
  const ConstraintSystemFile &system() const { return System; }

private:
  ReadView() = default;

  serve::SolverBundle Bundle;
  ConstraintSystemFile System;
  uint64_t Checksum = 0;
  uint64_t Epoch = 0;
};

/// The one mutable cell of the read path: a mutex-guarded shared_ptr
/// swap. The mutex is held only for the pointer copy (never while
/// building or querying a view), so acquire() is wait-free for all
/// practical purposes and TSan-clean without requiring
/// std::atomic<std::shared_ptr>.
class ViewPublisher {
public:
  void publish(std::shared_ptr<const ReadView> View) {
    std::lock_guard<std::mutex> Lock(Mutex);
    Current = std::move(View);
  }

  std::shared_ptr<const ReadView> acquire() const {
    std::lock_guard<std::mutex> Lock(Mutex);
    return Current;
  }

private:
  mutable std::mutex Mutex;
  std::shared_ptr<const ReadView> Current;
};

} // namespace net
} // namespace poce

#endif // POCE_NET_READVIEW_H
