//===- tests/bitvector_solver_test.cpp - Bitvector LS equivalence ----------===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Checks that the bitvector-backed least solutions and standard-form
/// difference propagation compute exactly what the seed's vector-backed
/// algorithms computed: every configuration is cross-checked against
/// ConstraintSolver::referenceLeastSolutions() (the pre-bitvector
/// concat+sort+unique pass, retained as an oracle) on random constraint
/// systems, difference propagation is compared against the element-wise
/// path, and the inductive-form order invariant the least-solution pass
/// relies on is verified as a real test instead of only an assert. The
/// incremental inductive-form settle is checked differentially against
/// the same oracle across random add/retract interleavings.
///
//===----------------------------------------------------------------------===//

#include "setcon/ConstraintFile.h"
#include "setcon/ConstraintSolver.h"
#include "support/PRNG.h"
#include "workload/RandomConstraints.h"

#include <gtest/gtest.h>

using namespace poce;

namespace {

struct Case {
  uint64_t Seed;
  uint32_t NumVars;
  uint32_t NumCons;
  double Density;
};

const Case Shapes[] = {
    {21, 12, 8, 1.0},  {22, 40, 26, 1.5}, {23, 40, 26, 3.0},
    {24, 80, 50, 1.0}, {25, 120, 80, 2.0}, {26, 200, 130, 1.2},
    {27, 60, 0, 2.5},  {28, 150, 100, 0.6},
};

std::vector<SolverOptions> variants(uint64_t Seed) {
  std::vector<SolverOptions> Out;
  for (GraphForm Form : {GraphForm::Standard, GraphForm::Inductive})
    for (CycleElim Elim : {CycleElim::None, CycleElim::Online})
      for (bool Diff : {true, false}) {
        SolverOptions Options = makeConfig(Form, Elim, Seed);
        Options.DiffProp = Diff;
        Out.push_back(Options);
      }
  return Out;
}

/// Runs one solve over \p Shape and asserts the bitvector-backed API
/// agrees with the reference algorithm on every variable.
void checkAgainstReference(const RandomConstraintShape &Shape,
                           const SolverOptions &Options) {
  ConstructorTable Constructors;
  TermTable Terms(Constructors);
  ConstraintSolver Solver(Terms, Options);
  workload::emitRandomConstraints(Shape, Solver);

  std::vector<std::vector<ExprId>> Reference =
      Solver.referenceLeastSolutions();
  Solver.finalize();
  for (VarId Var = 0; Var != Solver.numVars(); ++Var) {
    VarId Rep = Solver.rep(Var);
    const std::vector<ExprId> &LS = Solver.leastSolution(Var);
    ASSERT_EQ(LS, Reference[Rep])
        << Options.configName() << (Options.DiffProp ? "+diff" : "-diff")
        << " var " << Var;
    EXPECT_EQ(Solver.leastSolutionBits(Var).count(), LS.size());
  }
  EXPECT_TRUE(Solver.verifyGraphInvariants()) << Options.configName();
}

} // namespace

class BitvectorLSTest : public testing::TestWithParam<Case> {};

TEST_P(BitvectorLSTest, MatchesReferenceAcrossConfigs) {
  const Case &C = GetParam();
  PRNG Rng(C.Seed);
  RandomConstraintShape Shape =
      randomConstraintShape(C.NumVars, C.NumCons, C.Density / C.NumVars, Rng);
  for (const SolverOptions &Options : variants(C.Seed))
    checkAgainstReference(Shape, Options);
}

INSTANTIATE_TEST_SUITE_P(Shapes, BitvectorLSTest, testing::ValuesIn(Shapes),
                         [](const auto &Info) {
                           return "seed" + std::to_string(Info.param.Seed) +
                                  "_n" +
                                  std::to_string(Info.param.NumVars);
                         });

//===----------------------------------------------------------------------===//
// Difference propagation vs. element-wise propagation
//===----------------------------------------------------------------------===//

TEST(DiffPropTest, MatchesElementwiseCountersWithoutCollapses) {
  // Absent collapses, standard-form closure work is confluent: the batched
  // scheme must reproduce the element-wise counters bit for bit, not just
  // the solutions.
  for (const Case &C : Shapes) {
    PRNG Rng(C.Seed * 31);
    RandomConstraintShape Shape = randomConstraintShape(
        C.NumVars, C.NumCons, C.Density / C.NumVars, Rng);
    SolverStats Counters[2];
    for (bool Diff : {false, true}) {
      ConstructorTable Constructors;
      TermTable Terms(Constructors);
      SolverOptions Options =
          makeConfig(GraphForm::Standard, CycleElim::None, C.Seed);
      Options.DiffProp = Diff;
      ConstraintSolver Solver(Terms, Options);
      workload::emitRandomConstraints(Shape, Solver);
      Solver.finalize();
      Counters[Diff] = Solver.stats();
    }
    EXPECT_EQ(Counters[0].Work, Counters[1].Work) << C.Seed;
    EXPECT_EQ(Counters[0].RedundantAdds, Counters[1].RedundantAdds) << C.Seed;
    EXPECT_EQ(Counters[0].InitialEdges, Counters[1].InitialEdges) << C.Seed;
    EXPECT_EQ(Counters[0].SelfEdges, Counters[1].SelfEdges) << C.Seed;
    EXPECT_EQ(Counters[0].DistinctSources, Counters[1].DistinctSources)
        << C.Seed;
    // Only the batched run reports delta-propagation activity.
    EXPECT_EQ(Counters[0].DeltaPropagations, 0u);
  }
}

TEST(DiffPropTest, PruningIsObservable) {
  // A diamond re-delivers the same source along parallel paths: the
  // redundant deliveries must show up as pruned propagations.
  ConstructorTable Constructors;
  TermTable Terms(Constructors);
  SolverOptions Options = makeConfig(GraphForm::Standard, CycleElim::None);
  ConstraintSolver Solver(Terms, Options);
  ExprId S = Terms.cons(Constructors.getOrCreate("s", {}), {});
  VarId A = Solver.freshVar("a");
  VarId B = Solver.freshVar("b");
  VarId C = Solver.freshVar("c");
  VarId D = Solver.freshVar("d");
  for (auto [X, Y] : {std::pair{A, B}, {A, C}, {B, D}, {C, D}})
    Solver.addConstraint(Terms.var(X), Terms.var(Y));
  Solver.addConstraint(S, Terms.var(A));
  Solver.finalize();
  EXPECT_GT(Solver.stats().DeltaPropagations, 0u);
  EXPECT_GT(Solver.stats().PropagationsPruned, 0u);
  EXPECT_EQ(Solver.stats().RedundantAdds, 1u); // Second arrival at D.
  EXPECT_EQ(Solver.leastSolution(D).size(), 1u);
}

//===----------------------------------------------------------------------===//
// Inductive-form order invariant (previously guarded only by an assert)
//===----------------------------------------------------------------------===//

TEST(GraphInvariantTest, InductiveOrderHoldsOnCollapseHeavyGraphs) {
  // Dense cyclic systems exercise collapses, stale entries, and re-added
  // edges — the cases where a broken representation would leave a
  // predecessor with a larger order than its owner.
  for (uint64_t Seed : {1ULL, 2ULL, 3ULL, 4ULL, 5ULL}) {
    PRNG Rng(Seed);
    RandomConstraintShape Shape =
        randomConstraintShape(100, 60, 4.0 / 100, Rng);
    ConstructorTable Constructors;
    TermTable Terms(Constructors);
    ConstraintSolver Solver(
        Terms, makeConfig(GraphForm::Inductive, CycleElim::Online, Seed));
    workload::emitRandomConstraints(Shape, Solver);
    EXPECT_TRUE(Solver.verifyGraphInvariants()) << Seed;
    EXPECT_GT(Solver.stats().CyclesCollapsed, 0u) << Seed;
    // The invariant also survives compaction.
    Solver.compact();
    EXPECT_TRUE(Solver.verifyGraphInvariants()) << Seed;
  }
}

TEST(GraphInvariantTest, StandardFormPredsHoldSourcesOnly) {
  for (bool Diff : {true, false}) {
    PRNG Rng(7);
    RandomConstraintShape Shape = randomConstraintShape(80, 50, 2.0 / 80, Rng);
    ConstructorTable Constructors;
    TermTable Terms(Constructors);
    SolverOptions Options =
        makeConfig(GraphForm::Standard, CycleElim::Online, 7);
    Options.DiffProp = Diff;
    ConstraintSolver Solver(Terms, Options);
    workload::emitRandomConstraints(Shape, Solver);
    EXPECT_TRUE(Solver.verifyGraphInvariants());
  }
}

//===----------------------------------------------------------------------===//
// Lazy sorted-view cache
//===----------------------------------------------------------------------===//

TEST(LazyViewTest, ViewIsCachedAndInvalidated) {
  ConstructorTable Constructors;
  TermTable Terms(Constructors);
  ConstraintSolver Solver(Terms, makeConfig(GraphForm::Inductive,
                                            CycleElim::Online));
  ExprId S1 = Terms.cons(Constructors.getOrCreate("s1", {}), {});
  ExprId S2 = Terms.cons(Constructors.getOrCreate("s2", {}), {});
  VarId X = Solver.freshVar("x");
  Solver.addConstraint(S1, Terms.var(X));

  const std::vector<ExprId> &First = Solver.leastSolution(X);
  EXPECT_EQ(First.size(), 1u);
  // Repeated queries return the cached view.
  EXPECT_EQ(&Solver.leastSolution(X), &First);

  // A new constraint invalidates and the next query sees the new source.
  Solver.addConstraint(S2, Terms.var(X));
  EXPECT_EQ(Solver.leastSolution(X).size(), 2u);
  EXPECT_EQ(Solver.leastSolutionBits(X).count(), 2u);
}

//===----------------------------------------------------------------------===//
// Incremental inductive-form settle
//===----------------------------------------------------------------------===//

namespace {

/// One random mutation stream against an inductive-form solver: adds and
/// retracts of text lines over few variables, so cycles form, collapse,
/// and split again; sometimes several mutations share one settle, and
/// now and then a new variable is declared.
void runSettleDifferential(uint64_t Seed, CycleElim Elim,
                           ClosureMode Closure, SolverStats &Totals) {
  SolverOptions Options = makeConfig(GraphForm::Inductive, Elim, Seed);
  Options.Closure = Closure;
  ConstructorTable Constructors;
  TermTable Terms(Constructors);
  ConstraintSolver Solver(Terms, Options);
  ConstraintSystemFile System;
  const std::string Context = std::string(Options.configName()) +
                              (Closure == ClosureMode::Wave ? "/wave" : "") +
                              " seed " + std::to_string(Seed);
  auto Add = [&](const std::string &Line) {
    Status St = System.addLine(Line, Solver);
    ASSERT_TRUE(St.ok()) << Context << " line '" << Line << "': " << St;
  };
  uint32_t NumVars = 12;
  std::string Decl = "var";
  for (uint32_t I = 0; I != NumVars; ++I)
    Decl += " v" + std::to_string(I);
  Add(Decl);
  Add("cons s0");
  Add("cons s1");
  Add("cons s2");
  Add("cons ref + -");

  PRNG Rng(Seed * 6151 + static_cast<uint64_t>(Elim) * 31 +
           static_cast<uint64_t>(Closure));
  auto V = [&] { return "v" + std::to_string(Rng.nextBelow(NumVars)); };
  std::vector<std::string> Live;
  // Each variable's solution at the previous settle (empty for variables
  // that were not representatives then).
  std::vector<SparseBitVector> Prev;
  for (int Step = 0; Step != 150; ++Step) {
    const uint32_t Batch = Rng.nextBelow(4) == 0 ? 2 + Rng.nextBelow(3) : 1;
    for (uint32_t I = 0; I != Batch; ++I) {
      if (!Live.empty() && Rng.nextBelow(4) == 0) {
        size_t Victim = Rng.nextBelow(static_cast<uint32_t>(Live.size()));
        std::string Canon;
        ASSERT_TRUE(
            System.canonicalizeConstraint(Live[Victim], Solver, Canon).ok());
        ASSERT_TRUE(Solver.retract(Canon)) << Context << " '" << Canon << "'";
        (void)System.removeConstraint(Canon);
        Live.erase(Live.begin() + Victim);
        continue;
      }
      if (Rng.nextBelow(20) == 0) {
        Add("var v" + std::to_string(NumVars++));
        continue;
      }
      std::string Line;
      switch (Rng.nextBelow(6)) {
      case 0:
        Line = "s" + std::to_string(Rng.nextBelow(3)) + " <= " + V();
        break;
      case 1:
        Line = "ref(" + V() + ", " + V() + ") <= " + V();
        break;
      case 2:
        Line = V() + " <= ref(1, " + V() + ")";
        break;
      default: // Variable edges dominate so that cycles keep forming.
        Line = V() + " <= " + V();
        break;
      }
      Add(Line);
      Live.push_back(Line);
    }
    if (Rng.nextBelow(8) == 0)
      (void)Solver.compact();

    // Close first (wave mode defers): only the settle's own bumps count.
    Solver.ensureClosed();
    std::vector<uint64_t> Before(Solver.numVars());
    for (VarId Var = 0; Var != Solver.numVars(); ++Var)
      Before[Var] = Solver.mutationEpoch(Var);
    Solver.finalize();
    std::vector<std::vector<ExprId>> Reference =
        Solver.referenceLeastSolutions();
    const SparseBitVector Empty;
    std::vector<SparseBitVector> Now(Solver.numVars());
    for (VarId Var = 0; Var != Solver.numVars(); ++Var) {
      if (Solver.isLive(Var)) {
        Now[Var] = Solver.leastSolutionBits(Var);
        ASSERT_EQ(Solver.leastSolution(Var), Reference[Var])
            << Context << " step " << Step << " var " << Var;
      }
      const bool Changed =
          !(Now[Var] == (Var < Prev.size() ? Prev[Var] : Empty));
      ASSERT_EQ(Solver.mutationEpoch(Var) - Before[Var], Changed ? 1u : 0u)
          << Context << " step " << Step << " var " << Var;
    }
    Prev = std::move(Now);
  }
  ASSERT_TRUE(Solver.verifyGraphInvariants()) << Context;
  Totals += Solver.stats();
}

} // namespace

class IncrementalSettleTest : public testing::TestWithParam<uint64_t> {};

TEST_P(IncrementalSettleTest, MatchesReferenceAndBumpsExactlyTheChanged) {
  SolverStats Totals;
  for (CycleElim Elim : {CycleElim::None, CycleElim::Online})
    for (ClosureMode Closure : {ClosureMode::Worklist, ClosureMode::Wave})
      runSettleDifferential(GetParam(), Elim, Closure, Totals);
  // The stream must really exercise collapses and retraction splits.
  EXPECT_GT(Totals.CyclesCollapsed, 0u);
  EXPECT_GT(Totals.CollapsesSplit, 0u);
  EXPECT_GT(Totals.Retractions, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalSettleTest,
                         testing::Range<uint64_t>(1, 9));
