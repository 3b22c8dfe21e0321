//===- workload/Suite.h - Benchmark suite catalog ---------------*- C++ -*-===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark suite mirroring the paper's Table 1: one synthetic
/// program per original benchmark name, sized to the same AST-node count
/// the paper reports (the programs themselves are generated — see the
/// substitution note in DESIGN.md). Helpers prepare (generate + parse) a
/// program and expose its metrics.
///
//===----------------------------------------------------------------------===//

#ifndef POCE_WORKLOAD_SUITE_H
#define POCE_WORKLOAD_SUITE_H

#include "andersen/Andersen.h"
#include "minic/AST.h"
#include "setcon/SolverOptions.h"
#include "workload/ProgramGenerator.h"

#include <memory>
#include <vector>

namespace poce {
namespace workload {

/// The full suite (27 entries, 0.7k to 87k target AST nodes), in the
/// paper's size order. \p Scale scales every target (benches use it to
/// bound runtime); \p MaxAstNodes, if nonzero, drops larger entries.
std::vector<ProgramSpec> paperSuite(double Scale = 1.0,
                                    uint32_t MaxAstNodes = 0);

/// A generated-and-parsed benchmark program.
struct PreparedProgram {
  ProgramSpec Spec;
  std::string Source;
  minic::TranslationUnit Unit;
  uint64_t AstNodes = 0;
  uint32_t Lines = 0;
  bool Ok = false;
  std::vector<std::string> Errors;
};

/// Generates and parses \p Spec. The result owns the AST.
std::unique_ptr<PreparedProgram> prepareProgram(const ProgramSpec &Spec);

/// One entry of a batch solve: program metrics plus the analysis result.
struct BatchSolveResult {
  ProgramSpec Spec;
  uint64_t AstNodes = 0;
  uint32_t Lines = 0;
  bool Ok = false; ///< Generation + parse succeeded and the solve ran.
  std::vector<std::string> Errors;
  andersen::AnalysisResult Result;
  /// Wall seconds for this entry (generate + parse + solve), as seen by
  /// the lane that ran it.
  double EntrySeconds = 0;
};

/// Prepares and solves every spec under \p Options, distributing the
/// independent inputs over \p Threads execution lanes (0 = one per
/// hardware thread, 1 = sequential). Results are returned in input order
/// and are bit-identical for any thread count: each entry owns its
/// constructor table, terms, solver, and (for oracle configurations) its
/// witness oracle, so entries share nothing. Each solve is itself
/// sequential; the lanes are the only parallelism.
std::vector<BatchSolveResult> solveSuite(const std::vector<ProgramSpec> &Specs,
                                         const SolverOptions &Options,
                                         unsigned Threads = 1,
                                         bool ExtractPointsTo = false);

} // namespace workload
} // namespace poce

#endif // POCE_WORKLOAD_SUITE_H
