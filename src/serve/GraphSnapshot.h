//===- serve/GraphSnapshot.h - Solved-graph persistence ---------*- C++ -*-===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Binary persistence for a solved ConstraintSolver: the whole point of
/// online cycle elimination is that the closure is cheap enough to build
/// once and then serve from, so the serve layer saves the closed graph —
/// constructors and terms via the interner (replayed in id order, which
/// hash-consing makes deterministic), per-variable adjacency lists and
/// SparseBitVector term sets word-for-word, union-find forwarding
/// pointers (compressed), least-solution bitmaps, solver options, stats,
/// and the order RNG's mid-stream state — into a versioned, checksummed
/// little-endian file.
///
/// Round trips are bit-identical: save(load(save(S))) produces the same
/// bytes, and a loaded solver answers every query (and accepts further
/// constraints) exactly like the solver it was saved from. Loading never
/// trusts the input: the header validates magic/version/length/checksum,
/// and every count, id, enum, and bitmap in the payload is bounds-checked
/// before use, ending with the solver's own graph-invariant verification.
///
/// Oracle-eliminated solvers cannot be snapshotted (the Oracle instance
/// is external state the format cannot capture), nor can aborted solves.
///
//===----------------------------------------------------------------------===//

#ifndef POCE_SERVE_GRAPHSNAPSHOT_H
#define POCE_SERVE_GRAPHSNAPSHOT_H

#include "setcon/ConstraintSolver.h"
#include "support/Status.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace poce {
namespace serve {

/// A solver plus the tables it borrows, with ownership in destruction
/// order (the solver references the term table, which references the
/// constructor table). load() fills one of these from a snapshot.
struct SolverBundle {
  std::unique_ptr<ConstructorTable> Constructors;
  std::unique_ptr<TermTable> Terms;
  std::unique_ptr<ConstraintSolver> Solver;
};

/// Serializer/deserializer for the snapshot format (all members static;
/// the class exists to be befriended by ConstraintSolver).
class GraphSnapshot {
public:
  /// Format identification. Version is bumped on any wire change; it is
  /// deliberately outside the checksum so that a version-skewed file
  /// reports as such rather than as corruption. Version 2 added the
  /// resource-budget options (DeadlineMs/MaxEdgeBudget/MaxMemBytes) and
  /// the abort-reason stat. Version 3 added the base-root provenance
  /// table (one tagged record per accepted constraint, so retraction
  /// works across a checkpoint) and the three retraction counters.
  static constexpr char Magic[8] = {'P', 'O', 'C', 'E',
                                    'S', 'N', 'A', 'P'};
  static constexpr uint32_t Version = 3;
  /// Header: magic(8) + version(4) + checksum(8) + payload length(8).
  static constexpr size_t HeaderSize = 28;

  /// Serializes \p Solver into \p Out (draining its worklist first).
  /// Fails (FailedPrecondition) for Oracle-eliminated configurations and
  /// aborted solves.
  static Status serialize(ConstraintSolver &Solver,
                          std::vector<uint8_t> &Out);

  /// The error serialize() would fail with, without serializing (drains
  /// the worklist first, as serialize() does).
  static Status checkSerializable(ConstraintSolver &Solver);

  /// serialize() + crash-safe write to \p Path (writeFileAtomic: temp
  /// file + fsync + rename + directory fsync), so a crash mid-save can
  /// never leave a truncated snapshot where a good one stood.
  static Status save(ConstraintSolver &Solver, const std::string &Path);

  /// Validates and reconstructs a snapshot into \p Bundle (replacing its
  /// contents). On failure returns Corruption/VersionSkew with an
  /// actionable message and leaves \p Bundle empty.
  static Status deserialize(const uint8_t *Data, size_t Size,
                            SolverBundle &Bundle);

  /// The payload checksum stored in a snapshot header (0 if \p Size is
  /// shorter than one). This is the snapshot's durable identity — the
  /// WAL stamps it as its base id so recovery can tell whether a log
  /// extends the snapshot beside it (see serve/Wal.h).
  static uint64_t payloadChecksum(const uint8_t *Data, size_t Size);

  /// Read \p Path + deserialize(). Failpoint: `snapshot.load` (error).
  /// On success \p ChecksumOut (if non-null) receives the file's
  /// payloadChecksum().
  static Status load(const std::string &Path, SolverBundle &Bundle,
                     uint64_t *ChecksumOut = nullptr);
};

} // namespace serve
} // namespace poce

#endif // POCE_SERVE_GRAPHSNAPSHOT_H
