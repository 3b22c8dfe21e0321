//===- graph/SCC.cpp - Strongly connected components ----------------------===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//

#include "graph/SCC.h"

#include <algorithm>
#include <cassert>

using namespace poce;

uint32_t SCCResult::numNodesInNontrivialSCCs() const {
  uint32_t Count = 0;
  for (const auto &Component : Components)
    if (Component.size() >= 2)
      Count += static_cast<uint32_t>(Component.size());
  return Count;
}

uint32_t SCCResult::maxComponentSize() const {
  uint32_t Max = 0;
  for (const auto &Component : Components)
    Max = std::max(Max, static_cast<uint32_t>(Component.size()));
  return Max;
}

uint32_t SCCResult::numNontrivialSCCs() const {
  uint32_t Count = 0;
  for (const auto &Component : Components)
    if (Component.size() >= 2)
      ++Count;
  return Count;
}

// Nuutila's first improvement over Tarjan: track the candidate root of each
// node directly (Root) instead of a low-link index, and mark finished
// components in an inComponent array. Only nodes that are *not* roots of
// their component are pushed onto the candidate stack, so for the common
// mostly-acyclic inputs the stack stays near-empty where Tarjan's holds
// every open node. When a root finishes, exactly the stacked candidates
// with a larger DFS index belong to its component. Components are numbered
// as their roots finish, which is reverse topological order.
SCCResult poce::computeSCCs(const Digraph &G) {
  const uint32_t N = G.numNodes();
  constexpr uint32_t Unvisited = ~0U;

  SCCResult Result;
  Result.ComponentOf.assign(N, Unvisited);

  std::vector<uint32_t> Index(N, Unvisited);
  std::vector<uint32_t> Root(N, 0);
  std::vector<uint8_t> InComponent(N, 0);
  std::vector<uint32_t> Candidates; // non-root members awaiting their root
  uint32_t NextIndex = 0;

  // Explicit DFS frames: (node, position in its successor list).
  struct Frame {
    uint32_t Node;
    uint32_t SuccPos;
  };
  std::vector<Frame> CallStack;

  for (uint32_t Start = 0; Start != N; ++Start) {
    if (Index[Start] != Unvisited)
      continue;
    Index[Start] = NextIndex++;
    Root[Start] = Start;
    CallStack.push_back({Start, 0});

    while (!CallStack.empty()) {
      Frame &Top = CallStack.back();
      const auto &Succs = G.successors(Top.Node);
      if (Top.SuccPos < Succs.size()) {
        uint32_t Succ = Succs[Top.SuccPos++];
        if (Index[Succ] == Unvisited) {
          Index[Succ] = NextIndex++;
          Root[Succ] = Succ;
          CallStack.push_back({Succ, 0});
        } else if (!InComponent[Succ] &&
                   Index[Root[Succ]] < Index[Root[Top.Node]]) {
          Root[Top.Node] = Root[Succ];
        }
        continue;
      }

      // All successors explored. Either this node is the root of a now
      // complete component, or it awaits its root on the candidate stack.
      uint32_t Node = Top.Node;
      CallStack.pop_back();
      if (Root[Node] == Node) {
        uint32_t ComponentId = Result.numComponents();
        Result.Components.emplace_back();
        std::vector<uint32_t> &Members = Result.Components.back();
        while (!Candidates.empty() &&
               Index[Candidates.back()] > Index[Node]) {
          uint32_t Member = Candidates.back();
          Candidates.pop_back();
          InComponent[Member] = 1;
          Result.ComponentOf[Member] = ComponentId;
          Members.push_back(Member);
        }
        InComponent[Node] = 1;
        Result.ComponentOf[Node] = ComponentId;
        Members.push_back(Node);
        // List members in descending DFS index, root last. Callers such as
        // the periodic pass re-enqueue constraints in member order, so this
        // pins their counters; trivial components skip the sort.
        if (Members.size() > 2)
          std::sort(Members.begin(), Members.end() - 1,
                    [&Index](uint32_t A, uint32_t B) {
                      return Index[A] > Index[B];
                    });
      } else {
        Candidates.push_back(Node);
      }
      if (!CallStack.empty()) {
        uint32_t Parent = CallStack.back().Node;
        if (!InComponent[Node] &&
            Index[Root[Node]] < Index[Root[Parent]])
          Root[Parent] = Root[Node];
      }
    }
  }
  assert(Candidates.empty() && "candidate left without a component");
  return Result;
}

Digraph poce::condense(const Digraph &G, const SCCResult &SCCs) {
  Digraph Condensed(SCCs.numComponents());
  for (uint32_t Node = 0; Node != G.numNodes(); ++Node) {
    uint32_t From = SCCs.ComponentOf[Node];
    for (uint32_t Succ : G.successors(Node)) {
      uint32_t To = SCCs.ComponentOf[Succ];
      if (From != To)
        Condensed.addEdge(From, To);
    }
  }
  return Condensed;
}
