//===- graph/SCC.h - Strongly connected components ---------------*- C++ -*-===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Strongly connected components with Nuutila's improved algorithm
/// (Nuutila & Soisalon-Soininen, IPL 1994), iterative. The one SCC routine
/// of the project: the ground truth for cycle statistics (Table 1's
/// "variables in SCCs" columns, Figure 11's detection rates), the oracle's
/// variable -> witness map, the periodic baseline's collapses, wave
/// levelling, and the offline preprocessing pass's condensation.
///
//===----------------------------------------------------------------------===//

#ifndef POCE_GRAPH_SCC_H
#define POCE_GRAPH_SCC_H

#include "graph/Digraph.h"

#include <cstdint>
#include <vector>

namespace poce {

/// Result of an SCC computation over a Digraph.
struct SCCResult {
  /// Component id of every node. Components are numbered in reverse
  /// topological order of the condensation: every edge u -> v has
  /// ComponentOf[u] >= ComponentOf[v].
  std::vector<uint32_t> ComponentOf;

  /// Members of each component, in descending DFS index (the component's
  /// root, its first-visited node, last).
  std::vector<std::vector<uint32_t>> Components;

  uint32_t numComponents() const {
    return static_cast<uint32_t>(Components.size());
  }

  /// Number of nodes that live in a non-trivial (size >= 2) component.
  uint32_t numNodesInNontrivialSCCs() const;

  /// Size of the largest component.
  uint32_t maxComponentSize() const;

  /// Number of non-trivial (size >= 2) components.
  uint32_t numNontrivialSCCs() const;
};

/// Computes strongly connected components of \p G (iterative; safe for
/// graphs with millions of nodes).
SCCResult computeSCCs(const Digraph &G);

/// Builds the condensation of \p G given its SCC decomposition: one node
/// per component, deduplicated edges, no self-loops.
Digraph condense(const Digraph &G, const SCCResult &SCCs);

} // namespace poce

#endif // POCE_GRAPH_SCC_H
