//===- serve/QueryEngine.cpp - Queries over a warm solver -----------------===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//

#include "serve/QueryEngine.h"

#include "serve/Wal.h"
#include "support/FailPoint.h"

using namespace poce;
using namespace poce::serve;

QueryEngine::QueryEngine(SolverBundle InBundle)
    : Bundle(std::move(InBundle)) {
  if (!Bundle.Solver) {
    InitError = "empty solver bundle";
    return;
  }
  Status Adopt = System.adoptDeclarations(*Bundle.Solver);
  if (!Adopt) {
    InitError = Adopt.message();
    return;
  }
  Valid = true;
  // Drains the worklist, so a bundle handed over mid-solve settles here
  // before the first query.
  RollbackArmed = GraphSnapshot::checkSerializable(*Bundle.Solver).ok();
}

void QueryEngine::captureBaseIfAbortable() {
  if (HaveBase || !RollbackArmed)
    return;
  const SolverOptions &O = Bundle.Solver->options();
  if (!O.DeadlineMs && !O.MaxEdgeBudget && !O.MaxMemBytes && !O.MaxWork &&
      !FailPoint::armedCount())
    return;
  HaveBase = GraphSnapshot::serialize(*Bundle.Solver, BaseBytes).ok();
  BaseLines = AcceptedLines.size();
}

std::shared_ptr<const ReadView> QueryEngine::view() {
  if (ViewStale) {
    View = ReadView::capture(*Bundle.Solver, System, Generation, View.get());
    ViewStale = false;
  }
  return View;
}

std::string QueryEngine::answer(const Request &Req) {
  Bundle.Solver->finalize();
  return answerQuery(*view(), Req);
}

Status QueryEngine::checkConstraint(const std::string &Line) const {
  if (!Valid)
    return Status::error(ErrorCode::FailedPrecondition,
                         "engine is invalid: " + InitError);
  return System.checkLine(Line, *Bundle.Solver);
}

Status QueryEngine::addConstraint(const std::string &Line) {
  if (!Valid)
    return Status::error(ErrorCode::FailedPrecondition,
                         "engine is invalid: " + InitError);
  captureBaseIfAbortable();
  Status St = System.addLine(Line, *Bundle.Solver);
  if (!St)
    return St;
  ViewStale = true;
  // Wave closure defers consequences until a solution is needed; force
  // them now so a budget breach surfaces (and rolls back) at the add that
  // caused it, exactly as in worklist mode. No-op for worklist closure.
  Bundle.Solver->ensureClosed();
  if (Bundle.Solver->stats().Aborted) {
    ++Stats.BudgetAborts;
    SolverStats::AbortReason Why = Bundle.Solver->stats().Abort;
    Status Restored = rollback();
    if (!Restored)
      return Status::error(
          ErrorCode::Internal,
          std::string("budget breach (") + SolverStats::abortReasonName(Why) +
              ") could not be rolled back: " + Restored.message());
    ++Stats.Rollbacks;
    return Status::error(ErrorCode::BudgetExceeded,
                         std::string(SolverStats::abortReasonName(Why)) +
                             " budget exceeded; batch rolled back");
  }
  AcceptedLines.push_back(Line);
  ++Stats.Additions;
  return Status();
}

Status QueryEngine::checkRetract(const std::string &Line,
                                 std::string *Canon) const {
  if (!Valid)
    return Status::error(ErrorCode::FailedPrecondition,
                         "engine is invalid: " + InitError);
  std::string Text;
  Status St = System.canonicalizeConstraint(Line, *Bundle.Solver, Text);
  if (!St)
    return St;
  if (!Bundle.Solver->hasRootTag(Text))
    return Status::error(ErrorCode::NotFound,
                         "no live constraint '" + Text + "' to retract");
  if (Canon)
    *Canon = std::move(Text);
  return Status();
}

Status QueryEngine::retractConstraint(const std::string &Line) {
  if (!Valid)
    return Status::error(ErrorCode::FailedPrecondition,
                         "engine is invalid: " + InitError);
  std::string Canon;
  Status St = System.canonicalizeConstraint(Line, *Bundle.Solver, Canon);
  if (!St)
    return St;
  captureBaseIfAbortable();
  if (!Bundle.Solver->retract(Canon))
    return Status::error(ErrorCode::NotFound,
                         "no live constraint '" + Canon + "' to retract");
  ViewStale = true;
  // The cone replay runs under the live budgets (a retraction can
  // trigger arbitrary re-propagation); a breach rolls the whole batch
  // back, exactly as for an addition.
  Bundle.Solver->ensureClosed();
  if (Bundle.Solver->stats().Aborted) {
    ++Stats.BudgetAborts;
    SolverStats::AbortReason Why = Bundle.Solver->stats().Abort;
    Status Restored = rollback();
    if (!Restored)
      return Status::error(
          ErrorCode::Internal,
          std::string("budget breach (") + SolverStats::abortReasonName(Why) +
              ") could not be rolled back: " + Restored.message());
    ++Stats.Rollbacks;
    return Status::error(ErrorCode::BudgetExceeded,
                         std::string(SolverStats::abortReasonName(Why)) +
                             " budget exceeded; batch rolled back");
  }
  // The system records only constraints added through this engine —
  // adoptDeclarations() cleared the pre-existing ones, for which the
  // solver's base-root provenance is authoritative — so removal here is
  // best-effort.
  (void)System.removeConstraint(Canon);
  AcceptedLines.push_back(WalRetractPrefix + Canon);
  ++Stats.Retractions;
  return Status();
}

Status QueryEngine::rollback() {
  if (!HaveBase)
    return Status::error(ErrorCode::FailedPrecondition,
                         RollbackArmed
                             ? "no rollback base (captured only before "
                               "batches that can abort)"
                             : "no rollback base (solver was not "
                               "serializable)");

  // The live solver's budgets win over whatever the base snapshot
  // recorded (callers may have re-armed them since the base was taken).
  const SolverOptions Live = Bundle.Solver->options();

  SolverBundle Rebuilt;
  Status Load =
      GraphSnapshot::deserialize(BaseBytes.data(), BaseBytes.size(), Rebuilt);
  if (!Load)
    return Load.withContext("rebuilding pre-batch solver");

  // The journal was accepted under budgets; replaying it is not a new
  // batch, so budgets are off for the duration.
  ConstraintSolver &Fresh = *Rebuilt.Solver;
  Fresh.setBudgets(0, 0, 0);

  ConstraintSystemFile Replayed;
  Status Adopt = Replayed.adoptDeclarations(Fresh);
  if (!Adopt)
    return Adopt.withContext("re-adopting declarations during rollback");
  constexpr size_t PrefixLen = sizeof(WalRetractPrefix) - 1;
  for (size_t I = BaseLines; I != AcceptedLines.size(); ++I) {
    const std::string &Line = AcceptedLines[I];
    if (Line.compare(0, PrefixLen, WalRetractPrefix) == 0) {
      // Journaled retractions store the canonical text, so they apply
      // directly — each matched a live constraint when first accepted.
      std::string Canon = Line.substr(PrefixLen);
      if (!Fresh.retract(Canon))
        return Status::error(ErrorCode::Internal,
                             "journal retraction '" + Canon +
                                 "' did not match during rollback");
      (void)Replayed.removeConstraint(Canon);
    } else {
      Status St = Replayed.addLine(Line, Fresh);
      if (!St)
        return St.withContext("replaying journal line '" + Line + "'");
    }
    if (Fresh.stats().Aborted)
      return Status::error(ErrorCode::Internal,
                           "journal replay aborted with budgets disabled");
  }
  Fresh.setBudgets(Live.DeadlineMs, Live.MaxEdgeBudget, Live.MaxMemBytes);
  Fresh.setClosure(Live.Closure);
  Fresh.setPreprocess(Live.Preprocess);

  Bundle = std::move(Rebuilt);
  System = std::move(Replayed);
  ++Generation;
  ViewStale = true;
  return Status();
}

Status QueryEngine::resetFromSnapshot(const uint8_t *Data, size_t Size) {
  SolverBundle Rebuilt;
  Status Load = GraphSnapshot::deserialize(Data, Size, Rebuilt);
  if (!Load)
    return Load.withContext("rebuilding from replacement snapshot");
  ConstraintSystemFile Adopted;
  Status Adopt = Adopted.adoptDeclarations(*Rebuilt.Solver);
  if (!Adopt)
    return Adopt.withContext("adopting replacement snapshot declarations");
  Bundle = std::move(Rebuilt);
  System = std::move(Adopted);
  ++Generation;
  ViewStale = true;
  AcceptedLines.clear();
  BaseBytes.assign(Data, Data + Size);
  HaveBase = true;
  BaseLines = 0;
  RollbackArmed = true;
  Valid = true;
  InitError.clear();
  return Status();
}

Status QueryEngine::checkpointBase() {
  if (!Valid)
    return Status::error(ErrorCode::FailedPrecondition,
                         "engine is invalid: " + InitError);
  Status St = GraphSnapshot::checkSerializable(*Bundle.Solver);
  if (!St)
    return St.withContext("checkpointing rollback base");
  BaseBytes = std::vector<uint8_t>();
  HaveBase = false;
  AcceptedLines.clear();
  BaseLines = 0;
  RollbackArmed = true;
  return Status();
}
