//===- serve/ReadView.h - Immutable published query views -------*- C++ -*-===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The read side of both front ends: one immutable epoch of the solved
/// state, captured on the writer from its own settled solver. A view
/// holds a name -> creation-index table (shared across epochs until a
/// declaration adds a name), a creation-index -> representative table,
/// and one refcounted Entry per live representative with its rendered
/// `ls`/`pts` reply bodies and its least-solution bitmap.
///
/// Epoch N+1 is captured from epoch N: an entry is shared when its
/// representative was live in epoch N and its
/// ConstraintSolver::mutationEpoch() has not moved since, and rebuilt
/// otherwise, so a write costs work proportional to the solutions it
/// changed. Mutation epochs restart when the writer installs a solver
/// rebuilt from bytes, so a capture shares nothing across a change of the
/// QueryEngine's generation.
///
/// A view owns every byte it answers from — no pointer into the solver,
/// its term or constructor tables, or the declarations — so any number of
/// threads may call answerQuery() on it while the writer mutates its
/// solver and captures the next epoch.
///
//===----------------------------------------------------------------------===//

#ifndef POCE_SERVE_READVIEW_H
#define POCE_SERVE_READVIEW_H

#include "serve/Protocol.h"
#include "setcon/ConstraintFile.h"
#include "setcon/ConstraintSolver.h"
#include "support/SparseBitVector.h"

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace poce {
namespace serve {

/// Pure rendering helpers behind the `ls`/`pts` reply bodies. They run on
/// the writer at capture time; readers only copy the rendered strings.
namespace render {

/// The location tag of one constructed term: a nullary constructor's
/// name, the name of a nullary first argument (the ref(l, get, set)
/// shape Andersen's analysis uses), or the full rendering otherwise.
std::string locationTag(const ConstraintSolver &Solver, ExprId Term);

/// ls items: each term of \p Terms rendered as its term string.
std::vector<std::string> lsItems(const ConstraintSolver &Solver,
                                 const std::vector<ExprId> &Terms);

/// pts items: \p Terms projected to location tags, sorted and
/// deduplicated so responses are canonical.
std::vector<std::string> ptsItems(const ConstraintSolver &Solver,
                                  const std::vector<ExprId> &Terms);

/// "{ a, b }" set formatting of ls/pts replies.
std::string renderSet(const std::vector<std::string> &Items);

/// The inverse of renderSet(): the items of a "{ a, b }" set. Splits only
/// at top-level commas, so constructed terms such as "ref(l, X, X)" stay
/// whole.
std::vector<std::string> splitSet(const std::string &Set);

} // namespace render

/// One immutable epoch of the solved state (see file comment).
class ReadView {
public:
  /// The answers of one live representative.
  struct Entry {
    uint64_t MutationEpoch = 0; ///< The solver's epoch at capture.
    std::string Ls, Pts;        ///< "{ ... }" reply bodies.
    SparseBitVector Bits;       ///< The least solution.
  };

  /// Captures the current state of \p Solver, whose names \p System
  /// declares, sharing every still-current entry and the name table of
  /// \p Prev (null for a first capture) when \p Prev was captured under
  /// the same \p Generation. The solver's least solutions are settled for
  /// the capture and then left in the settle state they were in, so the
  /// capture changes nothing a snapshot of \p Solver records.
  static std::shared_ptr<const ReadView>
  capture(ConstraintSolver &Solver, const ConstraintSystemFile &System,
          uint64_t Generation, const ReadView *Prev);

  /// Entries this capture built instead of sharing them from its
  /// predecessor.
  size_t entriesRebuilt() const { return Rebuilt; }

private:
  friend std::string answerQuery(const ReadView &View, const Request &Req);

  using NameTable = std::unordered_map<std::string, uint32_t>;

  /// The entry answering variable \p Name and its representative, or
  /// null for an unknown name.
  const Entry *lookup(const std::string &Name, VarId &Rep) const;

  uint64_t Generation = 0;
  std::shared_ptr<const NameTable> Names;
  std::vector<VarId> RepOfCreation;
  /// Indexed by VarId; null for variables that are not representatives.
  std::vector<std::shared_ptr<const Entry>> Entries;
  size_t Rebuilt = 0;
};

/// The one read path of both front ends: the full reply line to an
/// `ls X` / `pts X` / `alias X Y` request — "ok { ... }", "ok true" /
/// "ok false", or "err not_found unknown variable '...'". Reads only
/// \p View, so any number of threads may call it on one view
/// concurrently. Records no telemetry — the front ends time and count
/// requests, internal callers such as `verify` do not.
std::string answerQuery(const ReadView &View, const Request &Req);

} // namespace serve
} // namespace poce

#endif // POCE_SERVE_READVIEW_H
