//===- tests/graph_test.cpp - Graph library unit tests ---------------------===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//

#include "graph/Digraph.h"
#include "graph/DotWriter.h"
#include "graph/RandomGraph.h"
#include "graph/SCC.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

using namespace poce;

//===----------------------------------------------------------------------===//
// Digraph
//===----------------------------------------------------------------------===//

TEST(DigraphTest, AddAndDedupeEdges) {
  Digraph G(3);
  EXPECT_TRUE(G.addEdge(0, 1));
  EXPECT_FALSE(G.addEdge(0, 1));
  EXPECT_TRUE(G.addEdge(1, 2));
  EXPECT_EQ(G.numEdges(), 2u);
  EXPECT_TRUE(G.hasEdge(0, 1));
  EXPECT_FALSE(G.hasEdge(1, 0));
}

TEST(DigraphTest, ReachableFrom) {
  Digraph G(5);
  G.addEdge(0, 1);
  G.addEdge(1, 2);
  G.addEdge(3, 4);
  auto Reach = G.reachableFrom(0);
  std::set<uint32_t> Set(Reach.begin(), Reach.end());
  EXPECT_EQ(Set, (std::set<uint32_t>{0, 1, 2}));
}

TEST(DigraphTest, TopologicalOrderOnDag) {
  Digraph G(4);
  G.addEdge(0, 1);
  G.addEdge(0, 2);
  G.addEdge(1, 3);
  G.addEdge(2, 3);
  auto Order = G.topologicalOrder();
  ASSERT_EQ(Order.size(), 4u);
  std::vector<uint32_t> Position(4);
  for (uint32_t I = 0; I != 4; ++I)
    Position[Order[I]] = I;
  EXPECT_LT(Position[0], Position[1]);
  EXPECT_LT(Position[1], Position[3]);
  EXPECT_LT(Position[2], Position[3]);
  EXPECT_TRUE(G.isAcyclic());
}

TEST(DigraphTest, TopologicalOrderDetectsCycle) {
  Digraph G(3);
  G.addEdge(0, 1);
  G.addEdge(1, 2);
  G.addEdge(2, 0);
  EXPECT_TRUE(G.topologicalOrder().empty());
  EXPECT_FALSE(G.isAcyclic());
}

TEST(DigraphTest, GrowTo) {
  Digraph G;
  G.growTo(10);
  EXPECT_EQ(G.numNodes(), 10u);
  EXPECT_EQ(G.addNode(), 10u);
}

//===----------------------------------------------------------------------===//
// SCC
//===----------------------------------------------------------------------===//

/// computeSCCs numbers components in reverse topological order of the
/// condensation: every edge u -> v has ComponentOf[u] >= ComponentOf[v].
/// Wave levelling and the offline preprocessing pass both sweep
/// components by descending id on the strength of this property.
static void expectReverseTopologicalNumbering(const Digraph &G,
                                              const SCCResult &SCCs) {
  for (uint32_t Node = 0; Node != G.numNodes(); ++Node)
    for (uint32_t Succ : G.successors(Node))
      EXPECT_GE(SCCs.ComponentOf[Node], SCCs.ComponentOf[Succ])
          << "edge " << Node << " -> " << Succ;
}

TEST(SCCTest, SingleCycle) {
  Digraph G(4);
  G.addEdge(0, 1);
  G.addEdge(1, 2);
  G.addEdge(2, 0);
  G.addEdge(2, 3);
  SCCResult SCCs = computeSCCs(G);
  EXPECT_EQ(SCCs.numComponents(), 2u);
  EXPECT_EQ(SCCs.ComponentOf[0], SCCs.ComponentOf[1]);
  EXPECT_EQ(SCCs.ComponentOf[1], SCCs.ComponentOf[2]);
  EXPECT_NE(SCCs.ComponentOf[0], SCCs.ComponentOf[3]);
  EXPECT_EQ(SCCs.numNodesInNontrivialSCCs(), 3u);
  EXPECT_EQ(SCCs.maxComponentSize(), 3u);
  EXPECT_EQ(SCCs.numNontrivialSCCs(), 1u);
  expectReverseTopologicalNumbering(G, SCCs);
}

TEST(SCCTest, MembersInDescendingDFSIndex) {
  // DFS visits 0, 1, 2, 3 in index order but finishes 2 and 3 before 1.
  // Members still list by descending index, root last: the periodic pass
  // re-enqueues constraints in this order.
  Digraph G(4);
  G.addEdge(0, 1);
  G.addEdge(1, 2);
  G.addEdge(2, 0);
  G.addEdge(1, 3);
  G.addEdge(3, 0);
  SCCResult SCCs = computeSCCs(G);
  ASSERT_EQ(SCCs.numComponents(), 1u);
  EXPECT_EQ(SCCs.Components[0], (std::vector<uint32_t>{3, 2, 1, 0}));
}

TEST(SCCTest, DagIsAllSingletons) {
  Digraph G(5);
  G.addEdge(0, 1);
  G.addEdge(1, 2);
  G.addEdge(2, 3);
  G.addEdge(3, 4);
  SCCResult SCCs = computeSCCs(G);
  EXPECT_EQ(SCCs.numComponents(), 5u);
  EXPECT_EQ(SCCs.numNodesInNontrivialSCCs(), 0u);
  expectReverseTopologicalNumbering(G, SCCs);
}

TEST(SCCTest, SelfLoopIsTrivialComponent) {
  // A self loop forms a component of size 1 (the solver never stores
  // self edges, but the ground-truth SCC analysis must not count them as
  // collapsible).
  Digraph G(2);
  G.addEdge(0, 0);
  G.addEdge(0, 1);
  SCCResult SCCs = computeSCCs(G);
  EXPECT_EQ(SCCs.numComponents(), 2u);
  EXPECT_EQ(SCCs.numNodesInNontrivialSCCs(), 0u);
}

TEST(SCCTest, EmptyGraphHasNoComponents) {
  Digraph Empty(0);
  EXPECT_EQ(computeSCCs(Empty).numComponents(), 0u);
}

TEST(SCCTest, TwoSCCsWithBridge) {
  Digraph G(6);
  // SCC {0,1,2} -> SCC {3,4} -> 5.
  G.addEdge(0, 1);
  G.addEdge(1, 2);
  G.addEdge(2, 0);
  G.addEdge(2, 3);
  G.addEdge(3, 4);
  G.addEdge(4, 3);
  G.addEdge(4, 5);
  SCCResult SCCs = computeSCCs(G);
  EXPECT_EQ(SCCs.numComponents(), 3u);
  EXPECT_EQ(SCCs.numNontrivialSCCs(), 2u);
  expectReverseTopologicalNumbering(G, SCCs);
  Digraph Condensed = condense(G, SCCs);
  EXPECT_TRUE(Condensed.isAcyclic());
  EXPECT_EQ(Condensed.numNodes(), 3u);
  EXPECT_EQ(Condensed.numEdges(), 2u);
}

TEST(SCCTest, LargeCycleDoesNotOverflowStack) {
  // The iterative DFS must handle very long chains/cycles.
  const uint32_t N = 300000;
  Digraph G(N);
  for (uint32_t I = 0; I + 1 != N; ++I)
    G.addEdge(I, I + 1);
  G.addEdge(N - 1, 0);
  SCCResult SCCs = computeSCCs(G);
  EXPECT_EQ(SCCs.numComponents(), 1u);
  EXPECT_EQ(SCCs.maxComponentSize(), N);
}

// Random graphs. Both seeded suites run computeSCCs; they keep the names
// they had when the repository carried a second SCC routine, so their
// per-seed test names stay stable.

// Brute-force SCC: nodes are equivalent iff mutually reachable.
static std::vector<uint32_t> bruteForceSCC(const Digraph &G) {
  uint32_t N = G.numNodes();
  std::vector<std::vector<bool>> Reach(N, std::vector<bool>(N, false));
  for (uint32_t I = 0; I != N; ++I)
    for (uint32_t Node : G.reachableFrom(I))
      Reach[I][Node] = true;
  std::vector<uint32_t> Label(N, ~0U);
  uint32_t Next = 0;
  for (uint32_t I = 0; I != N; ++I) {
    if (Label[I] != ~0U)
      continue;
    Label[I] = Next;
    for (uint32_t J = I + 1; J != N; ++J)
      if (Reach[I][J] && Reach[J][I])
        Label[J] = Next;
    ++Next;
  }
  return Label;
}

class TarjanRandomTest : public testing::TestWithParam<uint64_t> {};

TEST_P(TarjanRandomTest, AgreesWithBruteForce) {
  PRNG Rng(GetParam());
  uint32_t N = 5 + static_cast<uint32_t>(Rng.nextBelow(40));
  double P = 0.02 + Rng.nextDouble() * 0.2;
  Digraph G = randomDigraph(N, P, Rng);
  SCCResult SCCs = computeSCCs(G);
  std::vector<uint32_t> Reference = bruteForceSCC(G);
  for (uint32_t A = 0; A != N; ++A)
    for (uint32_t B = 0; B != N; ++B)
      EXPECT_EQ(SCCs.ComponentOf[A] == SCCs.ComponentOf[B],
                Reference[A] == Reference[B])
          << "nodes " << A << " and " << B;
  // Components and ComponentOf describe the same partition.
  for (uint32_t Comp = 0; Comp != SCCs.numComponents(); ++Comp)
    for (uint32_t Member : SCCs.Components[Comp])
      EXPECT_EQ(SCCs.ComponentOf[Member], Comp);
  expectReverseTopologicalNumbering(G, SCCs);
  EXPECT_TRUE(condense(G, SCCs).isAcyclic());
}

INSTANTIATE_TEST_SUITE_P(Seeds, TarjanRandomTest,
                         testing::Range<uint64_t>(1, 26));

/// Recursive Tarjan, kept only as a test oracle for the exact output
/// computeSCCs promises: components numbered in the order their roots
/// finish, and each component's members popped off the DFS stack
/// (descending DFS index, root last). The periodic pass re-enqueues in
/// member order, so its counters depend on this order, not just on the
/// partition.
static SCCResult referenceTarjan(const Digraph &G) {
  const uint32_t N = G.numNodes();
  const uint32_t Unvisited = ~0U;
  SCCResult Result;
  Result.ComponentOf.assign(N, Unvisited);
  std::vector<uint32_t> Index(N, Unvisited), LowLink(N, 0), Stack;
  std::vector<bool> OnStack(N, false);
  uint32_t NextIndex = 0;
  auto Visit = [&](auto &Self, uint32_t Node) -> void {
    Index[Node] = LowLink[Node] = NextIndex++;
    Stack.push_back(Node);
    OnStack[Node] = true;
    for (uint32_t Succ : G.successors(Node)) {
      if (Index[Succ] == Unvisited) {
        Self(Self, Succ);
        LowLink[Node] = std::min(LowLink[Node], LowLink[Succ]);
      } else if (OnStack[Succ]) {
        LowLink[Node] = std::min(LowLink[Node], Index[Succ]);
      }
    }
    if (LowLink[Node] != Index[Node])
      return;
    uint32_t Comp = static_cast<uint32_t>(Result.Components.size());
    std::vector<uint32_t> &Members = Result.Components.emplace_back();
    uint32_t Member;
    do {
      Member = Stack.back();
      Stack.pop_back();
      OnStack[Member] = false;
      Result.ComponentOf[Member] = Comp;
      Members.push_back(Member);
    } while (Member != Node);
  };
  for (uint32_t Node = 0; Node != N; ++Node)
    if (Index[Node] == Unvisited)
      Visit(Visit, Node);
  return Result;
}

class NuutilaRandomTest : public testing::TestWithParam<uint64_t> {};

TEST_P(NuutilaRandomTest, MatchesTarjanOnRandomGraphs) {
  PRNG Rng(GetParam());
  uint32_t N = 5 + static_cast<uint32_t>(Rng.nextBelow(60));
  double P = 0.02 + Rng.nextDouble() * 0.2;
  Digraph G = randomDigraph(N, P, Rng);
  SCCResult SCCs = computeSCCs(G);
  SCCResult Reference = referenceTarjan(G);
  EXPECT_EQ(SCCs.ComponentOf, Reference.ComponentOf);
  ASSERT_EQ(SCCs.numComponents(), Reference.numComponents());
  for (uint32_t Comp = 0; Comp != SCCs.numComponents(); ++Comp)
    EXPECT_EQ(SCCs.Components[Comp], Reference.Components[Comp])
        << "component " << Comp;
}

INSTANTIATE_TEST_SUITE_P(Seeds, NuutilaRandomTest,
                         testing::Range<uint64_t>(1, 26));

//===----------------------------------------------------------------------===//
// Random graphs
//===----------------------------------------------------------------------===//

TEST(RandomGraphTest, EdgeCountNearExpectation) {
  PRNG Rng(21);
  const uint32_t N = 300;
  const double P = 0.05;
  Digraph G = randomDigraph(N, P, Rng);
  double Expected = static_cast<double>(N) * (N - 1) * P;
  EXPECT_GT(G.numEdges(), Expected * 0.85);
  EXPECT_LT(G.numEdges(), Expected * 1.15);
}

TEST(RandomGraphTest, ZeroAndOneProbability) {
  PRNG Rng(22);
  EXPECT_EQ(randomDigraph(20, 0.0, Rng).numEdges(), 0u);
  EXPECT_EQ(randomDigraph(20, 1.0, Rng).numEdges(), 20u * 19u);
}

TEST(RandomGraphTest, ConstraintShapeCounts) {
  PRNG Rng(23);
  RandomConstraintShape Shape = randomConstraintShape(100, 60, 0.05, Rng);
  EXPECT_EQ(Shape.NumVars, 100u);
  EXPECT_EQ(Shape.NumSources + Shape.NumSinks, 60u);
  double ExpectedVarVar = 100.0 * 100.0 * 0.05;
  EXPECT_GT(Shape.VarVar.size(), ExpectedVarVar * 0.7);
  EXPECT_LT(Shape.VarVar.size(), ExpectedVarVar * 1.3);
  for (auto [From, To] : Shape.VarVar) {
    EXPECT_LT(From, 100u);
    EXPECT_LT(To, 100u);
    EXPECT_NE(From, To);
  }
  for (auto [Source, Var] : Shape.SourceVar) {
    EXPECT_LT(Source, Shape.NumSources);
    EXPECT_LT(Var, 100u);
  }
  for (auto [Var, Sink] : Shape.VarSink) {
    EXPECT_LT(Var, 100u);
    EXPECT_LT(Sink, Shape.NumSinks);
  }
}

TEST(RandomGraphTest, DeterministicForSeed) {
  PRNG A(5), B(5);
  RandomConstraintShape SA = randomConstraintShape(50, 30, 0.1, A);
  RandomConstraintShape SB = randomConstraintShape(50, 30, 0.1, B);
  EXPECT_EQ(SA.VarVar, SB.VarVar);
  EXPECT_EQ(SA.SourceVar, SB.SourceVar);
  EXPECT_EQ(SA.VarSink, SB.VarSink);
}

//===----------------------------------------------------------------------===//
// DOT output
//===----------------------------------------------------------------------===//

TEST(DotWriterTest, ContainsNodesAndEdges) {
  Digraph G(3);
  G.addEdge(0, 1);
  G.addEdge(1, 2);
  G.addEdge(2, 1);
  DotOptions Options;
  Options.GraphName = "test";
  Options.ColorSCCs = true;
  Options.Label = [](uint32_t Node) { return "N" + std::to_string(Node); };
  std::string Dot = writeDot(G, Options);
  EXPECT_NE(Dot.find("digraph \"test\""), std::string::npos);
  EXPECT_NE(Dot.find("n0 -> n1"), std::string::npos);
  EXPECT_NE(Dot.find("label=\"N2\""), std::string::npos);
  // Nodes 1 and 2 form an SCC and should be colored.
  EXPECT_NE(Dot.find("fillcolor"), std::string::npos);
}
