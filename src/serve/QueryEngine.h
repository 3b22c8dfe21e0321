//===- serve/QueryEngine.h - Queries over a warm solver ---------*- C++ -*-===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Query layer over a solved ConstraintSolver (typically loaded from a
/// GraphSnapshot): `ls(x)` renders the least solution, `pts(x)` projects
/// it to points-to location tags, `alias(x,y)` intersects solution
/// bitmaps, and `addConstraint(line)` feeds new text constraints through
/// the solver's fully online closure — cycle elimination keeps running on
/// the warm graph, exactly as it would have during the original solve.
///
/// The engine owns its SolverBundle so it can make constraint batches
/// transactional against resource budgets: it captures a serialized base
/// snapshot before the first batch that could abort (a budget, MaxWork
/// or an armed failpoint is set) after construction or checkpointBase(),
/// and every accepted constraint line is journaled. When an addition
/// trips a budget (deadline, edge, or memory — see SolverOptions) the
/// closure aborts mid-flight and leaves the graph half-propagated; the
/// engine then rolls back by rebuilding the bundle from the base snapshot
/// and replaying the journal lines accepted after it with budgets
/// disabled, which restores a state bit-identical to the one before the
/// offending line. The caller sees a clean BudgetExceeded error and can
/// keep querying. An engine whose batches can never abort never pays for
/// a base.
///
/// Reads go through one function, answerQuery(), over an immutable
/// ReadView (serve/ReadView.h). view() captures one from the engine's
/// solver — incrementally from the previous capture, sharing every
/// representative whose solution did not change — and caches it until
/// the next mutation. The socket server publishes those views to its read
/// lanes; the stdin loop and the `verify` checksum answer through
/// answer(), which reads the same view.
///
//===----------------------------------------------------------------------===//

#ifndef POCE_SERVE_QUERYENGINE_H
#define POCE_SERVE_QUERYENGINE_H

#include "serve/GraphSnapshot.h"
#include "serve/Protocol.h"
#include "serve/ReadView.h"
#include "setcon/ConstraintFile.h"
#include "setcon/ConstraintSolver.h"
#include "support/Status.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace poce {
namespace serve {

class QueryEngine {
public:
  /// Mutation counters (the solver's own stats stay separate and are
  /// exposed through solver().stats()).
  struct Counters {
    uint64_t Additions = 0;     ///< addConstraint lines accepted.
    uint64_t Retractions = 0;   ///< retractConstraint lines accepted.
    uint64_t BudgetAborts = 0;  ///< Mutations rejected by a budget breach.
    uint64_t Rollbacks = 0;     ///< Successful pre-batch state restores.
  };

  /// Takes ownership of \p Bundle, adopting its declarations so textual
  /// queries and constraints can reference every existing variable and
  /// constructor, and closes any deferred work. Check valid() (adoption
  /// fails on duplicate variable names). A solver that cannot be
  /// serialized (e.g. Oracle-eliminated) does not invalidate the engine;
  /// it runs with rollback disarmed and budget breaches become
  /// unrecoverable for the batch.
  explicit QueryEngine(SolverBundle Bundle);

  bool valid() const { return Valid; }
  const std::string &initError() const { return InitError; }

  /// True when a budget abort can be rolled back (the solver can be
  /// serialized, so a base is or will be captured before the batch).
  bool rollbackArmed() const { return RollbackArmed; }

  /// The read view of the engine's current state. Captured on the first
  /// call after a mutation, from the previous view (see
  /// ReadView::capture), and cached until the next one. Leaves the
  /// solver's settle state, and with it every snapshot of the solver, as
  /// it was.
  std::shared_ptr<const ReadView> view();

  /// answerQuery() on view(), after settling the solver for good
  /// (finalize()): a snapshot saved after a stdin read or a `verify`
  /// records the settled solutions.
  std::string answer(const Request &Req);

  /// Feeds one line of the constraint-file format (declaration or
  /// constraint) through the online closure. On parse failure the graph
  /// is untouched; on a budget breach the engine rolls back to the
  /// pre-line state and returns BudgetExceeded (or Internal, if rollback
  /// itself is impossible — see rollbackArmed()).
  Status addConstraint(const std::string &Line);

  /// Dry-run of addConstraint(): parses and validates \p Line against
  /// the live system without mutating anything. A line that passes can
  /// only be rejected later by a resource-budget breach. Lets the server
  /// WAL-append only lines that are known to replay cleanly.
  Status checkConstraint(const std::string &Line) const;

  /// Retracts the constraint \p Line added earlier: the solver deletes
  /// its base edge and incrementally recomputes the affected cone
  /// (splitting collapsed cycle classes whose witness cycle lost an
  /// edge — see ConstraintSolver::retract). \p Line is canonicalized
  /// first, so whitespace and comments do not have to match the
  /// original text. NotFound when no live constraint matches;
  /// InvalidArgument for non-constraint lines. On a budget breach
  /// mid-recompute the engine rolls back to the pre-line state exactly
  /// as addConstraint does.
  Status retractConstraint(const std::string &Line);

  /// Dry-run of retractConstraint(): canonicalizes \p Line and checks a
  /// live constraint matches, without mutating anything. Lets the
  /// server WAL-append only retractions that are known to apply. On
  /// success \p Canon (if given) receives the canonical text — the
  /// exact payload the WAL record must carry.
  Status checkRetract(const std::string &Line,
                      std::string *Canon = nullptr) const;

  /// Moves the rollback base to the current graph (captured lazily, like
  /// the first one) and clears the journal. Call after persisting a
  /// snapshot so the journal stays in lockstep with the on-disk WAL.
  /// Fails for non-serializable solvers (rollback stays armed on the
  /// previous base in that case).
  Status checkpointBase();

  /// Replaces the engine's entire state with the graph deserialized from
  /// \p Data — journal cleared, rollback re-armed on the new base. The
  /// snapshot's recorded solver options are adopted wholesale
  /// (no live re-arm): a replication follower re-bootstrapping from its
  /// primary must end up bit-identical to it, down to the serialized
  /// option and counter words. Leaves the engine untouched on failure.
  Status resetFromSnapshot(const uint8_t *Data, size_t Size);

  /// Mutations accepted since the last checkpointBase(): constraint
  /// lines verbatim, retractions as `!retract <canonical line>` (the
  /// WAL record payload encoding — see serve/Wal.h).
  const std::vector<std::string> &journal() const { return AcceptedLines; }

  const Counters &counters() const { return Stats; }

  ConstraintSolver &solver() { return *Bundle.Solver; }
  const ConstraintSolver &solver() const { return *Bundle.Solver; }
  const ConstraintSystemFile &system() const { return System; }

private:
  /// Captures the rollback base from the current (pre-batch) graph when
  /// none is held and the next batch could abort.
  void captureBaseIfAbortable();

  /// Rebuilds the bundle from BaseBytes and replays the journal lines
  /// accepted since the base with budgets disabled (they were each within
  /// budget when first accepted; re-aborting mid-restore would lose the
  /// graph). Leaves the engine untouched on failure.
  Status rollback();

  SolverBundle Bundle;
  ConstraintSystemFile System;
  Counters Stats;
  bool Valid = false;
  bool RollbackArmed = false;
  std::string InitError;
  std::vector<uint8_t> BaseBytes;          ///< Rollback base snapshot.
  bool HaveBase = false;                   ///< BaseBytes is captured.
  std::vector<std::string> AcceptedLines;  ///< Journal since checkpoint.
  size_t BaseLines = 0; ///< AcceptedLines already inside BaseBytes.
  /// Bumped whenever the solver is replaced by one rebuilt from bytes
  /// (rollback(), resetFromSnapshot()): its term ids and mutation epochs
  /// restart, so view() shares nothing across a bump.
  uint64_t Generation = 0;
  std::shared_ptr<const ReadView> View; ///< Last capture (null: none yet).
  bool ViewStale = true; ///< A mutation may have changed View's answers.
};

} // namespace serve
} // namespace poce

#endif // POCE_SERVE_QUERYENGINE_H
