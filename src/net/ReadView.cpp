//===- net/ReadView.cpp - RCU-published immutable query views -------------===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//

#include "net/ReadView.h"

#include <cassert>

using namespace poce;
using namespace poce::net;

Expected<std::shared_ptr<const ReadView>>
ReadView::build(const std::vector<uint8_t> &SnapshotBytes, uint64_t Epoch) {
  std::shared_ptr<ReadView> View(new ReadView());
  Status Loaded = serve::GraphSnapshot::deserialize(
      SnapshotBytes.data(), SnapshotBytes.size(), View->Bundle);
  if (!Loaded)
    return Loaded.withContext("building read view");
  // Settle everything lazy up front: after this, queries touch only the
  // const read surface and the view is shareable with no locks.
  View->Bundle.Solver->materializeAllViews();
  assert(View->Bundle.Solver->readShareable() &&
         "materializeAllViews must settle the const read surface");
  Status Adopted = View->System.adoptDeclarations(*View->Bundle.Solver);
  if (!Adopted)
    return Adopted.withContext("building read view");
  View->Checksum = serve::GraphSnapshot::payloadChecksum(
      SnapshotBytes.data(), SnapshotBytes.size());
  View->Epoch = Epoch;
  return std::shared_ptr<const ReadView>(std::move(View));
}
