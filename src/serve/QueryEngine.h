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
/// transactional against resource budgets: at construction (and at every
/// checkpointBase()) it captures a serialized base snapshot, and every
/// accepted constraint line is journaled. When an addition trips a budget
/// (deadline, edge, or memory — see SolverOptions) the closure aborts
/// mid-flight and leaves the graph half-propagated; the engine then rolls
/// back by rebuilding the bundle from the base snapshot and replaying the
/// journal with budgets disabled, which restores a state bit-identical to
/// the one before the offending line. The caller sees a clean
/// BudgetExceeded error and can keep querying.
///
/// Reads go through one function, answerQuery(), which renders a reply
/// from a *settled* solver's const read surface. The socket server calls
/// it on its published ReadViews (net/ReadView.h); the stdin loop and the
/// `verify` checksum call it through answer(), which first settles the
/// engine's own solver (materializeAllViews()) if a mutation has
/// unsettled it since the last read. A settled solver already holds every
/// least solution as a sorted view, so there is nothing further to cache.
///
//===----------------------------------------------------------------------===//

#ifndef POCE_SERVE_QUERYENGINE_H
#define POCE_SERVE_QUERYENGINE_H

#include "serve/GraphSnapshot.h"
#include "serve/Protocol.h"
#include "setcon/ConstraintFile.h"
#include "setcon/ConstraintSolver.h"
#include "support/Status.h"

#include <cstdint>
#include <string>
#include <vector>

namespace poce {
namespace serve {

/// Pure rendering helpers behind answerQuery(). All of them are const
/// over the solver so they are safe on concurrently shared, settled
/// solvers.
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

/// The one read path of both front ends: the full reply line to an
/// `ls X` / `pts X` / `alias X Y` request — "ok { ... }", "ok true" /
/// "ok false", or "err not_found unknown variable '...'". Names resolve
/// through \p System's declarations. Works only through \p Solver's
/// const read surface, so \p Solver must be settled
/// (materializeAllViews()); under that contract any number of threads may
/// call this on one solver concurrently. Records no telemetry — the front
/// ends time and count requests, internal callers such as `verify` do not.
std::string answerQuery(const ConstraintSolver &Solver,
                        const ConstraintSystemFile &System,
                        const Request &Req);

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
  /// constructor, and captures the rollback base snapshot. Check valid()
  /// (adoption fails on duplicate variable names). Base capture can fail
  /// without invalidating the engine (e.g. Oracle-eliminated solvers are
  /// not serializable); the engine then runs with rollback disarmed and
  /// budget breaches become unrecoverable for the batch.
  explicit QueryEngine(SolverBundle Bundle);

  bool valid() const { return Valid; }
  const std::string &initError() const { return InitError; }

  /// True when a budget abort can be rolled back (base snapshot captured).
  bool rollbackArmed() const { return RollbackArmed; }

  /// answerQuery() on this engine's solver, settled first if a mutation
  /// has unsettled it since the last read (one materializeAllViews() per
  /// mutation, however many reads follow).
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

  /// Re-captures the rollback base from the current graph and clears the
  /// journal. Call after persisting a snapshot so the journal stays in
  /// lockstep with the on-disk WAL. Fails for non-serializable solvers
  /// (rollback stays armed on the previous base in that case).
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
  /// Rebuilds the bundle from BaseBytes and replays AcceptedLines with
  /// budgets disabled (they were each within budget when first accepted;
  /// re-aborting mid-restore would lose the graph). Leaves the engine
  /// untouched on failure.
  Status rollback();

  SolverBundle Bundle;
  ConstraintSystemFile System;
  Counters Stats;
  bool Valid = false;
  bool RollbackArmed = false;
  std::string InitError;
  std::vector<uint8_t> BaseBytes;          ///< Rollback base snapshot.
  std::vector<std::string> AcceptedLines;  ///< Journal since the base.
};

} // namespace serve
} // namespace poce

#endif // POCE_SERVE_QUERYENGINE_H
