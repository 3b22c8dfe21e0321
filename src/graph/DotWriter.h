//===- graph/DotWriter.h - Graphviz output ----------------------*- C++ -*-===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Renders a Digraph (or a constraint graph via its Digraph projection) to
/// Graphviz DOT text, with optional node labels and SCC cluster coloring.
///
//===----------------------------------------------------------------------===//

#ifndef POCE_GRAPH_DOTWRITER_H
#define POCE_GRAPH_DOTWRITER_H

#include "graph/Digraph.h"
#include "graph/SCC.h"

#include <functional>
#include <string>

namespace poce {

/// Options controlling DOT rendering.
struct DotOptions {
  std::string GraphName = "poce";
  /// Optional node labeler; defaults to the node id.
  std::function<std::string(uint32_t)> Label;
  /// When true, nodes of a non-trivial SCC share a fill color.
  bool ColorSCCs = false;
};

/// Renders \p G as DOT text.
std::string writeDot(const Digraph &G, const DotOptions &Options = {});

} // namespace poce

#endif // POCE_GRAPH_DOTWRITER_H
