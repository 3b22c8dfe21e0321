//===- net/LaneStats.h - Per-lane serving accumulators ----------*- C++ -*-===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-lane accumulators for the read wave. During a wave every lane
/// records into its own slot with plain (non-atomic) stores; the wave
/// barrier of support/ThreadPool provides the happens-before edge under
/// which the event-loop thread merges the slots afterwards. The slots are
/// CacheAligned so two lanes bumping their counters never write the same
/// cache line (the Huron false-sharing repair applied at allocation time
/// rather than detected at run time), and a static_assert pins the padded
/// layout.
///
//===----------------------------------------------------------------------===//

#ifndef POCE_NET_LANESTATS_H
#define POCE_NET_LANESTATS_H

#include "support/CacheAligned.h"
#include "support/Metrics.h"

#include <cstdint>
#include <vector>

namespace poce {
namespace net {

/// One read lane's accumulator for the current wave. LatenciesUs is
/// drained (and cleared) by the loop thread after the barrier, so its
/// capacity is reused across waves and steady-state waves allocate
/// nothing.
struct LaneAccum {
  uint64_t Queries = 0;  ///< ls/pts/alias executed on this lane.
  uint64_t Errors = 0;   ///< Requests answered with an err reply.
  std::vector<uint64_t> LatenciesUs; ///< Per-request latencies this wave.

  void clear() {
    Queries = 0;
    Errors = 0;
    LatenciesUs.clear();
  }
};

static_assert(cacheAlignedLayoutOk<LaneAccum>,
              "LaneAccum slots must be cache-line padded and aligned");
static_assert(sizeof(CacheAligned<LaneAccum>) % CacheLineBytes == 0,
              "padded slot size must round to whole cache lines");

/// The per-lane slot array: index with the lane id ThreadPool hands each
/// chunk callback.
using LaneAccumSlots = std::vector<CacheAligned<LaneAccum>>;

} // namespace net
} // namespace poce

#endif // POCE_NET_LANESTATS_H
