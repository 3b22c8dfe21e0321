//===- perfbench/src/PaperSuite.cpp - paper_suite workload ----------------===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's own experiment: the 27 programs of workload::paperSuite at
/// scale 1.0, each taken parse -> constraint generation -> closure -> least
/// solution -> points-to extraction under IF-Online and then SF-Online.
/// Passes over the suite repeat until the run's time is spent. Programs
/// are regenerated from the run's seed, so the seed changes the inputs
/// but not their sizes.
///
/// Gates, run between programs and outside their times, with code of the
/// benchmark's own: the IF and SF points-to maps of every program are
/// identical (by checksum of their canonical text); every pass, and an
/// untimed correctness pass, produce the same maps as the first; every
/// Andersen set is a subset of Steensgaard's for the same location.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "andersen/ConstraintGen.h"
#include "andersen/Steensgaard.h"
#include "minic/Diagnostics.h"
#include "minic/Lexer.h"
#include "minic/Parser.h"
#include "setcon/ConstraintSolver.h"
#include "support/Metrics.h"
#include "workload/ProgramGenerator.h"
#include "workload/Suite.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <sys/resource.h>

using namespace perfbench;
using namespace poce;

namespace {

using PointsToMap = std::map<std::string, std::vector<std::string>>;

struct Input {
  std::string Name;
  std::string Source;
};

struct Side {
  const char *Key; // "if" / "sf"
  SolverOptions Options;
};

struct ProgramResult {
  bool Ok = false;
  uint64_t Ns = 0;
  uint64_t Tokens = 0;
  uint64_t AstNodes = 0;
  uint32_t Locations = 0;
  SolverStats Stats;
  uint64_t FinalEdges = 0;
  PointsToMap PointsTo;
};

/// Stage span names per side, so each side's layers can be summed apart.
struct StageNames {
  const char *Program, *Lex, *Parse, *Gen, *Finalize, *Extract, *Teardown;
};
const StageNames IfNames = {"if.program",  "if.minic.lex",
                            "if.minic.parse", "if.andersen.gen_closure",
                            "if.setcon.finalize", "if.andersen.extract",
                            "if.bench.teardown"};
const StageNames SfNames = {"sf.program",  "sf.minic.lex",
                            "sf.minic.parse", "sf.andersen.gen_closure",
                            "sf.setcon.finalize", "sf.andersen.extract",
                            "sf.bench.teardown"};

/// One program through the paper pipeline. With \p Log set, every stage
/// is a span under \p ParentId; without it only the whole is timed. With
/// \p CountEdges (the untimed gate pass) the final edge count is taken.
void runProgram(const Input &In, const SolverOptions &Options,
                const StageNames &Names, SpanLog *Log, uint64_t ParentId,
                uint64_t Req, bool CountEdges, ProgramResult &Out) {
  uint64_t Start = nowNs();
  uint64_t ProgramId = Log ? Log->newId(0) : 0;
  auto Stage = [&](const char *Name, auto &&Body) {
    if (!Log) {
      Body();
      return;
    }
    uint64_t S = nowNs();
    Body();
    Log->add(0, {Log->newId(0), ProgramId, Req, Name, S, nowNs()});
  };

  minic::Diagnostics Diags(In.Name);
  std::vector<minic::Token> Tokens;
  Stage(Names.Lex, [&] {
    minic::Lexer Lexer(In.Source, Diags);
    Tokens = Lexer.lexAll();
  });
  Out.Tokens = Tokens.size();
  auto Unit = std::make_unique<minic::TranslationUnit>();
  bool Parsed = false;
  Stage(Names.Parse, [&] {
    minic::Parser Parser(std::move(Tokens), Diags, *Unit);
    Parsed = Parser.parseTranslationUnit() && !Diags.hasErrors();
  });
  Out.AstNodes = Unit->numNodes();

  std::unique_ptr<ConstructorTable> Constructors;
  std::unique_ptr<TermTable> Terms;
  std::unique_ptr<ConstraintSolver> Solver;
  std::unique_ptr<andersen::ConstraintGenerator> Generator;
  if (Parsed) {
    Stage(Names.Gen, [&] {
      Constructors = std::make_unique<ConstructorTable>();
      Terms = std::make_unique<TermTable>(*Constructors);
      Solver = std::make_unique<ConstraintSolver>(*Terms, Options);
      Generator = std::make_unique<andersen::ConstraintGenerator>(*Solver);
      Generator->run(*Unit);
    });
    Stage(Names.Finalize, [&] { Solver->finalize(); });
    Stage(Names.Extract, [&] {
      for (const andersen::Location &Loc : Generator->locations()) {
        std::vector<std::string> Targets;
        for (ExprId Term : Solver->leastSolution(Loc.Content)) {
          andersen::LocationId Target = Generator->locationOfRefTerm(Term);
          if (Target != andersen::ConstraintGenerator::NotFound)
            Targets.push_back(Generator->locations()[Target].Name);
        }
        std::sort(Targets.begin(), Targets.end());
        Targets.erase(std::unique(Targets.begin(), Targets.end()),
                      Targets.end());
        Out.PointsTo.emplace(Loc.Name, std::move(Targets));
      }
    });
    Out.Locations = static_cast<uint32_t>(Generator->locations().size());
    Out.Stats = Solver->stats();
    if (CountEdges)
      Out.FinalEdges = Solver->countFinalEdges();
  }
  Stage(Names.Teardown, [&] {
    Generator.reset();
    Solver.reset();
    Terms.reset();
    Constructors.reset();
    Unit.reset();
  });
  Out.Ok = Parsed;
  uint64_t End = nowNs();
  Out.Ns = End - Start;
  if (Log)
    Log->add(0, {ProgramId, ParentId, Req, Names.Program, Start, End});
}

uint64_t hashMap(const PointsToMap &Map) {
  uint64_t Hash = FnvBasis;
  for (const auto &[Name, Targets] : Map) {
    Hash = fnv1a(Hash, Name);
    Hash = fnv1a(Hash, "=");
    for (const std::string &T : Targets)
      Hash = fnv1a(fnv1a(Hash, T), ",");
    Hash = fnv1a(Hash, ";");
  }
  return Hash;
}

/// Names of locations where \p Andersen holds a target that \p Steens
/// does not; empty when Andersen is a subset location for location.
std::string firstSubsetViolation(const PointsToMap &Andersen,
                                 const PointsToMap &Steens) {
  static const std::vector<std::string> Empty;
  for (const auto &[Name, Targets] : Andersen) {
    auto It = Steens.find(Name);
    const std::vector<std::string> &Super =
        It == Steens.end() ? Empty : It->second;
    for (const std::string &T : Targets)
      if (!std::binary_search(Super.begin(), Super.end(), T))
        return Name + " -> " + T;
  }
  return "";
}

/// The benchmark process's peak resident set, in MB.
double peakRssMb() {
  struct rusage Usage;
  ::getrusage(RUSAGE_SELF, &Usage);
  return static_cast<double>(Usage.ru_maxrss) / 1024.0;
}

struct HistogramDelta {
  uint64_t Sum = 0, Count = 0;
};

} // namespace

Outcome perfbench::runPaperSuite(const RunConfig &Config, SpanLog &Log) {
  Outcome Out;
  std::vector<workload::ProgramSpec> Specs = workload::paperSuite(1.0);
  SplitMix SeedGen(Config.Seed);
  for (workload::ProgramSpec &Spec : Specs)
    Spec.Seed = SeedGen.next();

  // Set-up: source generation, repeated so its median is steady.
  std::vector<Input> Inputs;
  std::vector<double> SetupSamples;
  for (int K = 0; K != 9; ++K) {
    uint64_t Start = nowNs();
    std::vector<Input> Fresh;
    for (const workload::ProgramSpec &Spec : Specs)
      Fresh.push_back({Spec.Name, workload::generateProgram(Spec)});
    SetupSamples.push_back(double(nowNs() - Start) / 1e9);
    Inputs = std::move(Fresh);
  }

  const Side Sides[2] = {
      {"if", makeConfig(GraphForm::Inductive, CycleElim::Online)},
      {"sf", makeConfig(GraphForm::Standard, CycleElim::Online)}};
  const StageNames *NamesOf[2] = {&IfNames, &SfNames};
  const size_t N = Inputs.size();
  Histogram *Phase[3] = {
      &MetricsRegistry::global().histogram("poce_solver_closure_us"),
      &MetricsRegistry::global().histogram("poce_solver_cycle_search_us"),
      &MetricsRegistry::global().histogram("poce_solver_ls_us")};

  Gate Equal{"paper.if_equals_sf", true, false, ""};
  Gate Subset{"paper.subset_of_steensgaard", true, false, ""};
  Gate Agree{"paper.passes_agree", true, false, ""};

  // Timed passes. A pass takes each program through IF-Online and then
  // SF-Online; pipeline_X_s sums that configuration's program times. The
  // gate checks run between programs, outside those times. Pass 0 warms
  // the allocator and caches, records each map's checksum and the exact
  // solver counts, and is not reported. In a traced run the odd passes
  // are traced (spans + solver phase histograms), and the untraced passes
  // between them give the overhead.
  struct PassRecord {
    bool Traced = false;
    uint64_t SideNs[2] = {0, 0};
    std::vector<uint64_t> ProgramNs; // both configurations
    HistogramDelta PhaseSum[2][3];   // traced passes only
  };
  std::vector<PassRecord> Passes;
  std::vector<uint64_t> FirstHash[2];
  SolverStats Counts[2];
  uint64_t FinalEdges[2] = {0, 0}, Tokens = 0, Ast = 0, Locations = 0;
  uint64_t RunStart = nowNs();
  uint64_t Budget = static_cast<uint64_t>(Config.Seconds * 1e9);
  while (Passes.size() < 3 || nowNs() - RunStart < Budget) {
    PassRecord Rec;
    const bool First = Passes.empty();
    const uint64_t PassNo = Passes.size();
    Rec.Traced = Config.Trace && PassNo % 2 == 1;
    MetricsRegistry::setTimingEnabled(Rec.Traced);
    SpanLog *Spans = Rec.Traced ? &Log : nullptr;
    uint64_t PassId = Spans ? Log.newId(0) : 0;
    uint64_t PassStart = nowNs();
    for (size_t I = 0; I != N; ++I) {
      const uint64_t Req = PassNo * 1000 + I;
      bool Ok = true;
      uint64_t Hash[2] = {0, 0};
      for (int S = 0; S != 2; ++S) {
        HistogramSnapshot Before[3];
        for (int H = 0; H != 3; ++H)
          Before[H] = Phase[H]->snapshot();
        ProgramResult R;
        runProgram(Inputs[I], Sides[S].Options, *NamesOf[S], Spans, PassId,
                   Req, /*CountEdges=*/First && Config.Trace, R);
        for (int H = 0; H != 3; ++H) {
          HistogramSnapshot After = Phase[H]->snapshot();
          Rec.PhaseSum[S][H].Sum += After.Sum - Before[H].Sum;
          Rec.PhaseSum[S][H].Count += After.Count - Before[H].Count;
        }
        ++Out.Attempted;
        if (!R.Ok)
          ++Out.Failed;
        Rec.SideNs[S] += R.Ns;
        Rec.ProgramNs.push_back(R.Ns);

        // Gate checks on this configuration's map. The map is released
        // before the next configuration runs, so only one is ever held.
        uint64_t GateStart = nowNs();
        Hash[S] = hashMap(R.PointsTo);
        if (First) {
          FirstHash[S].push_back(Hash[S]);
          Counts[S] += R.Stats;
          FinalEdges[S] += R.FinalEdges;
        } else if (FirstHash[S][I] != Hash[S]) {
          Agree.Clean = Ok = false;
          Agree.Detail = Inputs[I].Name;
        }
        if (First && S == 0) {
          Tokens += R.Tokens;
          Ast += R.AstNodes;
          Locations += R.Locations;
        }
        if (S == 1 && Hash[1] != Hash[0]) {
          Equal.Clean = Ok = false;
          Equal.Detail = Inputs[I].Name;
        }
        // Non-vacuity, once: dropping one target from a real map must
        // break both the IF/SF equality and the agreement with pass 0.
        auto NonEmpty =
            std::find_if(R.PointsTo.begin(), R.PointsTo.end(),
                         [](const auto &E) { return !E.second.empty(); });
        if (First && S == 1 && !Equal.CorruptedFailed &&
            NonEmpty != R.PointsTo.end()) {
          NonEmpty->second.pop_back();
          uint64_t Damaged = hashMap(R.PointsTo);
          Equal.CorruptedFailed = Damaged != Hash[0];
          Agree.CorruptedFailed = Damaged != FirstHash[1][I];
        }
        R.PointsTo.clear();
        if (Spans)
          Log.add(0, {Log.newId(0), PassId, Req, "bench.gate", GateStart,
                      nowNs()});
      }
      ++Out.Attempted;
      if (!Ok)
        ++Out.Failed;
    }
    if (Spans)
      Log.add(0, {PassId, 0, PassNo * 1000, "pass", PassStart, nowNs()});
    std::fprintf(stderr, "perfbench: pass %llu%s if=%.4fs sf=%.4fs\n",
                 (unsigned long long)PassNo,
                 PassNo == 0 ? " (warm-up)" : Rec.Traced ? " (traced)" : "",
                 Rec.SideNs[0] / 1e9, Rec.SideNs[1] / 1e9);
    Passes.push_back(std::move(Rec));
  }
  MetricsRegistry::setTimingEnabled(false);
  double RssMb = peakRssMb();

  // Correctness pass, untimed: each program's IF-Online map again, which
  // must match pass 0 and be a subset of Steensgaard's, location for
  // location.
  for (size_t I = 0; I != N; ++I) {
    ++Out.Attempted;
    ProgramResult R;
    runProgram(Inputs[I], Sides[0].Options, *NamesOf[0], nullptr, 0, I,
               /*CountEdges=*/false, R);
    bool Ok = R.Ok && hashMap(R.PointsTo) == FirstHash[0][I];
    if (!Ok) {
      Agree.Clean = false;
      Agree.Detail = Inputs[I].Name;
    }
    PointsToMap Steens;
    auto Unit = std::make_unique<minic::TranslationUnit>();
    minic::Diagnostics Diags(Inputs[I].Name);
    minic::Lexer Lexer(Inputs[I].Source, Diags);
    minic::Parser Parser(Lexer.lexAll(), Diags, *Unit);
    if (Parser.parseTranslationUnit())
      Steens = andersen::runSteensgaard(*Unit).PointsTo;
    std::string Violation = firstSubsetViolation(R.PointsTo, Steens);
    if (!Violation.empty()) {
      Subset.Clean = Ok = false;
      Subset.Detail = Inputs[I].Name + ": " + Violation;
    }
    // Non-vacuity, once: a foreign target must break the subset check.
    auto NonEmpty =
        std::find_if(R.PointsTo.begin(), R.PointsTo.end(),
                     [](const auto &E) { return !E.second.empty(); });
    if (!Subset.CorruptedFailed && NonEmpty != R.PointsTo.end()) {
      NonEmpty->second.push_back("perfbench.not_a_location");
      Subset.CorruptedFailed =
          !firstSubsetViolation(R.PointsTo, Steens).empty();
    }
    if (!Ok)
      ++Out.Failed;
  }
  Out.Gates = {Equal, Subset, Agree};

  // End-to-end metrics over the untraced passes after the warm-up.
  // A (program, configuration) analysis is the operation; per pass, its
  // mean time is the pass time over the analyses it ran. The per-program
  // median is not used: it lands on whichever mid-sized program ranks
  // there, so it jumps with the seed.
  std::vector<double> SideS[2], PerOpUs, PassTotal[2];
  uint64_t OpSamples = 0;
  for (size_t P = 1; P != Passes.size(); ++P) {
    const PassRecord &R = Passes[P];
    PassTotal[R.Traced].push_back(double(R.SideNs[0] + R.SideNs[1]) / 1e9);
    if (R.Traced)
      continue;
    for (int S = 0; S != 2; ++S)
      SideS[S].push_back(double(R.SideNs[S]) / 1e9);
    PerOpUs.push_back(mean(R.ProgramNs) / 1e3);
    OpSamples += R.ProgramNs.size();
  }
  uint64_t Reported = SideS[0].size();
  Out.EndToEnd = {
      {"setup_s", median(SetupSamples), "s", SetupSamples.size(),
       "median source generation of the 27 programs"},
      {"peak_rss_mb", RssMb, "MB", 1, "benchmark process ru_maxrss"},
      {"op_p50_us", median(PerOpUs), "us", OpSamples,
       "per-analysis time of the median pass (pass time / analyses)"},
  };
  Out.Named = {
      {"pipeline_if_s", median(SideS[0]), "s", Reported,
       "IF-Online pass, parse -> points-to; median over passes"},
      {"pipeline_sf_s", median(SideS[1]), "s", Reported,
       "SF-Online pass, parse -> points-to; median over passes"},
      {"error_rate", Out.Attempted ? double(Out.Failed) / Out.Attempted : 0,
       "ratio", Out.Attempted, "failed over attempted"},
  };

  if (!Config.Trace)
    return Out;

  // Per-layer metrics from the traced passes' spans, per side and pass.
  std::vector<Span> All = Log.all();
  std::map<std::string, double> SumMs;
  for (const Span &S : All)
    SumMs[S.Name] += double(S.EndNs - S.StartNs) / 1e6;
  uint64_t TracedPasses = PassTotal[1].size();
  double PerPass = TracedPasses ? 1.0 / double(TracedPasses) : 0;
  auto LayerMs = [&](const char *Name) { return SumMs[Name] * PerPass; };

  double MinicS =
      (LayerMs("if.minic.lex") + LayerMs("if.minic.parse") +
       LayerMs("sf.minic.lex") + LayerMs("sf.minic.parse")) /
      2e3;
  auto Add = [&](std::string Name, double Value, const char *Unit,
                 uint64_t Samples, const char *Note) {
    Out.PerLayer.push_back({std::move(Name), Value, Unit, Samples, Note});
  };
  const char *PerPassNote = "per suite pass, mean over traced passes";
  Add("minic.lex_ms", (LayerMs("if.minic.lex") + LayerMs("sf.minic.lex")) / 2,
      "ms", TracedPasses * 2, PerPassNote);
  Add("minic.parse_ms",
      (LayerMs("if.minic.parse") + LayerMs("sf.minic.parse")) / 2, "ms",
      TracedPasses * 2, PerPassNote);
  Add("minic.tokens", double(Tokens), "count", N, "per suite");
  Add("minic.ast_nodes", double(Ast), "count", N, "per suite");
  Add("minic.ast_nodes_per_s", MinicS > 0 ? double(Ast) / MinicS : 0,
      "1/s", TracedPasses * 2, "AST nodes over lex+parse time");
  Add("andersen.locations", double(Locations), "count", N, "per suite");

  for (int S = 0; S != 2; ++S) {
    const std::string K = Sides[S].Key;
    const StageNames &Names = *NamesOf[S];
    const SolverStats &Sum = Counts[S];
    HistogramDelta Closure, Search, Ls;
    for (const PassRecord &P : Passes)
      if (P.Traced) {
        Closure.Sum += P.PhaseSum[S][0].Sum;
        Closure.Count += P.PhaseSum[S][0].Count;
        Search.Sum += P.PhaseSum[S][1].Sum;
        Search.Count += P.PhaseSum[S][1].Count;
        Ls.Sum += P.PhaseSum[S][2].Sum;
        Ls.Count += P.PhaseSum[S][2].Count;
      }
    auto Ratio = [](uint64_t A, uint64_t B) {
      return B ? double(A) / double(B) : 0.0;
    };
    Add("andersen." + K + ".gen_closure_ms", LayerMs(Names.Gen), "ms",
        TracedPasses * N, PerPassNote);
    Add("andersen." + K + ".extract_ms", LayerMs(Names.Extract), "ms",
        TracedPasses * N, PerPassNote);
    Add("andersen." + K + ".set_vars", double(Sum.VarsCreated), "count", N,
        "per suite");
    Add("setcon." + K + ".finalize_ms", LayerMs(Names.Finalize), "ms",
        TracedPasses * N, PerPassNote);
    Add("setcon." + K + ".closure_ms", double(Closure.Sum) / 1e3 * PerPass,
        "ms", Closure.Count, "poce_solver_closure_us sum per pass");
    Add("setcon." + K + ".cycle_search_ms",
        double(Search.Sum) / 1e3 * PerPass, "ms", Search.Count,
        "poce_solver_cycle_search_us sum per pass");
    Add("setcon." + K + ".ls_ms", double(Ls.Sum) / 1e3 * PerPass, "ms",
        Ls.Count, "poce_solver_ls_us sum per pass");
    Add("setcon." + K + ".work", double(Sum.Work), "count", N, "per suite");
    Add("setcon." + K + ".redundant_adds", double(Sum.RedundantAdds),
        "count", N, "per suite");
    Add("setcon." + K + ".redundant_ratio",
        Ratio(Sum.RedundantAdds, Sum.Work), "ratio", Sum.Work,
        "redundant_adds / work");
    Add("setcon." + K + ".cycle_searches", double(Sum.CycleSearches),
        "count", N, "per suite");
    Add("setcon." + K + ".cycle_search_steps", double(Sum.CycleSearchSteps),
        "count", N, "per suite");
    Add("setcon." + K + ".cycles_collapsed", double(Sum.CyclesCollapsed),
        "count", N, "per suite");
    Add("setcon." + K + ".search_hit_ratio",
        Ratio(Sum.CyclesCollapsed, Sum.CycleSearches), "ratio",
        Sum.CycleSearches, "cycles_collapsed / cycle_searches");
    Add("setcon." + K + ".vars_eliminated", double(Sum.VarsEliminated),
        "count", N, "per suite");
    Add("setcon." + K + ".final_edges", double(FinalEdges[S]), "count", N,
        "per suite");
    if (S == 0)
      Add("setcon.if.ls_union_words", double(Sum.LSUnionWords), "count", N,
          "per suite");
    else {
      Add("setcon.sf.delta_propagations", double(Sum.DeltaPropagations),
          "count", N, "per suite");
      Add("setcon.sf.propagations_pruned", double(Sum.PropagationsPruned),
          "count", N, "per suite");
      Add("setcon.sf.prune_ratio",
          Ratio(Sum.PropagationsPruned, Sum.DeltaPropagations), "ratio",
          Sum.DeltaPropagations, "propagations_pruned / delta_propagations");
    }
  }
  double Untraced = median(PassTotal[0]), Traced = median(PassTotal[1]);
  Add("bench.trace_overhead_pct",
      Untraced > 0 ? (Traced - Untraced) / Untraced * 100 : 0, "%",
      TracedPasses, "median traced pass vs median untraced pass");

  // Reconciliation: every traced pass's wall time against its child spans
  // (programs and gate checks), and every program against its stages.
  std::vector<uint64_t> Self = selfTimesNs(All);
  double WorstPass = 0;
  uint64_t ProgramNs = 0, ProgramResidualNs = 0;
  for (size_t I = 0; I != All.size(); ++I) {
    std::string Name = All[I].Name;
    uint64_t Duration = std::max<uint64_t>(1, All[I].EndNs - All[I].StartNs);
    if (Name == "pass")
      WorstPass = std::max(WorstPass, double(Self[I]) / double(Duration));
    else if (Name == "if.program" || Name == "sf.program") {
      ProgramNs += Duration;
      ProgramResidualNs += Self[I];
    }
  }
  double ProgramShare = double(ProgramResidualNs) / double(std::max<uint64_t>(
                                                      1, ProgramNs));
  char Line[320];
  std::snprintf(Line, sizeof Line,
                "reconcile paper_suite: pass wall = sum(program + gate) + "
                "residual, worst residual %.4f%% of a pass; program = "
                "sum(stage spans) + residual, residual %.4f%% (%.3f ms) of "
                "all program time",
                WorstPass * 100, ProgramShare * 100, ProgramResidualNs / 1e6);
  Out.Notes.push_back(Line);
  Out.Reconciled = WorstPass < 0.01 && ProgramShare < 0.01;
  return Out;
}
