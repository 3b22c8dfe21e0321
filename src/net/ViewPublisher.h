//===- net/ViewPublisher.h - RCU publication of read views ------*- C++ -*-===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// How the socket server hands read views to its read lanes. The single
/// writer lane captures a fresh serve::ReadView after each batch that
/// mutated the graph (serve/ReadView.h) and swaps it into the
/// ViewPublisher; readers acquire() a shared_ptr at the start of a wave
/// and keep querying that epoch even while the next one is being
/// captured. Readers therefore never block on writers (the only shared
/// state is one pointer swap), and the writer never waits for readers
/// (old epochs, and the entries no later epoch shares, are reclaimed by
/// the last shared_ptr release).
///
//===----------------------------------------------------------------------===//

#ifndef POCE_NET_VIEWPUBLISHER_H
#define POCE_NET_VIEWPUBLISHER_H

#include "serve/ReadView.h"

#include <memory>
#include <mutex>

namespace poce {
namespace net {

/// The one mutable cell of the read path: a mutex-guarded shared_ptr
/// swap. The mutex is held only to copy or swap the pointer (never while
/// capturing, querying or freeing a view), so acquire() is wait-free for all
/// practical purposes and TSan-clean without requiring
/// std::atomic<std::shared_ptr>.
class ViewPublisher {
public:
  void publish(std::shared_ptr<const serve::ReadView> View) {
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      Current.swap(View);
    }
    // View now holds the previous epoch; if this was its last reference
    // it is freed here, outside the lock.
  }

  std::shared_ptr<const serve::ReadView> acquire() const {
    std::lock_guard<std::mutex> Lock(Mutex);
    return Current;
  }

private:
  mutable std::mutex Mutex;
  std::shared_ptr<const serve::ReadView> Current;
};

} // namespace net
} // namespace poce

#endif // POCE_NET_VIEWPUBLISHER_H
