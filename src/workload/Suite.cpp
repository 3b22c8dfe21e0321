//===- workload/Suite.cpp - Benchmark suite catalog -------------------------===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//

#include "workload/Suite.h"

#include "andersen/Andersen.h"
#include "setcon/Oracle.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"

#include <algorithm>

using namespace poce;
using namespace poce::workload;

namespace {
struct SuiteEntry {
  const char *Name;
  uint32_t AstNodes; ///< The paper's Table 1 AST-node count (target size).
};
} // namespace

// Names and sizes follow the paper's Table 1 (smallest to largest).
static const SuiteEntry PaperSuite[] = {
    {"allroots", 700},       {"diff.diffh", 935},
    {"anagram", 1078},       {"genetic", 1412},
    {"ks", 2284},            {"ul", 2395},
    {"ft", 3027},            {"compress", 3333},
    {"ratfor", 5269},        {"compiler", 5326},
    {"assembler", 6516},     {"ML-typecheck", 6752},
    {"eqntott", 8117},       {"simulator", 10946},
    {"less-177", 15179},     {"li", 16828},
    {"flex-2.4.7", 19056},   {"pmake", 31148},
    {"make-3.72.1", 36892},  {"inform-5.5", 38874},
    {"tar-1.11.2", 41035},   {"sgmls-1.1", 44533},
    {"screen-3.5.2", 49292}, {"cvs-1.3", 51223},
    {"espresso", 56938},     {"gawk-3.0.3", 71140},
    {"povray-2.2", 87391},
};

std::vector<ProgramSpec> poce::workload::paperSuite(double Scale,
                                                    uint32_t MaxAstNodes) {
  std::vector<ProgramSpec> Specs;
  uint64_t Seed = 0x706f6365'00000001ULL;
  for (const SuiteEntry &Entry : PaperSuite) {
    uint32_t Target =
        static_cast<uint32_t>(std::max(1.0, Entry.AstNodes * Scale));
    if (MaxAstNodes && Target > MaxAstNodes)
      continue;
    ProgramSpec Spec;
    Spec.Name = Entry.Name;
    Spec.TargetAstNodes = Target;
    Spec.Seed = Seed++;
    Specs.push_back(std::move(Spec));
  }
  return Specs;
}

std::unique_ptr<PreparedProgram>
poce::workload::prepareProgram(const ProgramSpec &Spec) {
  auto Prepared = std::make_unique<PreparedProgram>();
  Prepared->Spec = Spec;
  Prepared->Source = generateProgram(Spec);
  Prepared->Lines = static_cast<uint32_t>(
      std::count(Prepared->Source.begin(), Prepared->Source.end(), '\n'));
  Prepared->Ok = andersen::parseSource(Prepared->Source, Prepared->Unit,
                                       &Prepared->Errors, Spec.Name);
  Prepared->AstNodes = Prepared->Unit.numNodes();
  return Prepared;
}

std::vector<BatchSolveResult>
poce::workload::solveSuite(const std::vector<ProgramSpec> &Specs,
                           const SolverOptions &Options, unsigned Threads,
                           bool ExtractPointsTo) {
  std::vector<BatchSolveResult> Results(Specs.size());
  ThreadPool Pool(Threads);
  Pool.parallelFor(
      Specs.size(),
      [&](size_t I, unsigned) {
        Timer EntryTimer;
        BatchSolveResult &Out = Results[I];
        Out.Spec = Specs[I];
        std::unique_ptr<PreparedProgram> Program = prepareProgram(Specs[I]);
        Out.AstNodes = Program->AstNodes;
        Out.Lines = Program->Lines;
        Out.Errors = Program->Errors;
        if (!Program->Ok) {
          Out.EntrySeconds = EntryTimer.seconds();
          return;
        }
        ConstructorTable Constructors;
        Oracle WitnessOracle;
        const Oracle *OraclePtr = nullptr;
        if (Options.Elim == CycleElim::Oracle) {
          WitnessOracle = buildOracle(andersen::makeGenerator(Program->Unit),
                                      Constructors, Options);
          OraclePtr = &WitnessOracle;
        }
        Out.Result = andersen::runAnalysis(Program->Unit, Constructors,
                                           Options, OraclePtr,
                                           ExtractPointsTo);
        Out.Ok = true;
        Out.EntrySeconds = EntryTimer.seconds();
      },
      /*Grain=*/1);
  return Results;
}
