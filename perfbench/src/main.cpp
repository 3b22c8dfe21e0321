//===- perfbench/src/main.cpp - Repository benchmark entry point ----------===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// perfbench --workload NAME --seed N --seconds S --trace 0|1
///           --out-dir DIR --bin-dir DIR [--commit ID]
///
/// Runs one workload (paper_suite, serve_read, serve_edit), prints the
/// machine/build record, a table of every metric with its unit and sample
/// count, the gate results, and as its last line one JSON object:
/// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
/// metrics are the gated end-to-end ones; with --trace 1 the per-layer
/// ones, and the run's spans are written to DIR/spans-NAME-SEED.jsonl.
/// Exit code 1 when any gate fails or an operation failed.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

using namespace perfbench;

namespace {

/// A fixed CPU probe that never gates: the same integer work on every
/// machine, so results from different hosts can be put side by side.
double calibrationMs() {
  std::vector<double> Samples;
  for (int K = 0; K != 5; ++K) {
    uint64_t Start = nowNs();
    uint64_t X = 0x9e3779b97f4a7c15ULL;
    for (int I = 0; I != 20'000'000; ++I) {
      X ^= X << 13;
      X ^= X >> 7;
      X ^= X << 17;
    }
    volatile uint64_t Sink = X;
    (void)Sink;
    Samples.push_back(double(nowNs() - Start) / 1e6);
  }
  return median(Samples);
}

std::string jsonNumber(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof Buf, "%.17g", V);
  return Buf;
}

void printTable(const char *Title, const std::vector<Metric> &Metrics) {
  std::printf("# %s\n", Title);
  for (const Metric &M : Metrics)
    std::printf("  %-34s %18.6f %-6s n=%-8llu %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str(), (unsigned long long)M.Samples,
                M.Note.c_str());
}

/// Every per-layer metric, in print order. A traced run reports all of
/// them; a layer a workload never enters reads 0 there.
std::vector<std::pair<std::string, std::string>> perLayerCatalog() {
  std::vector<std::pair<std::string, std::string>> C = {
      {"minic.lex_ms", "ms"},          {"minic.parse_ms", "ms"},
      {"minic.tokens", "count"},       {"minic.ast_nodes", "count"},
      {"minic.ast_nodes_per_s", "1/s"}, {"andersen.locations", "count"}};
  for (const char *K : {"if", "sf"}) {
    std::string P = K;
    for (auto [Name, Unit] :
         std::vector<std::pair<const char *, const char *>>{
             {"andersen.%.gen_closure_ms", "ms"},
             {"andersen.%.extract_ms", "ms"},
             {"andersen.%.set_vars", "count"},
             {"setcon.%.finalize_ms", "ms"},
             {"setcon.%.closure_ms", "ms"},
             {"setcon.%.cycle_search_ms", "ms"},
             {"setcon.%.ls_ms", "ms"},
             {"setcon.%.work", "count"},
             {"setcon.%.redundant_adds", "count"},
             {"setcon.%.redundant_ratio", "ratio"},
             {"setcon.%.cycle_searches", "count"},
             {"setcon.%.cycle_search_steps", "count"},
             {"setcon.%.cycles_collapsed", "count"},
             {"setcon.%.search_hit_ratio", "ratio"},
             {"setcon.%.vars_eliminated", "count"},
             {"setcon.%.final_edges", "count"}}) {
      std::string N = Name;
      N.replace(N.find('%'), 1, P);
      C.emplace_back(N, Unit);
    }
  }
  for (auto [Name, Unit] : std::vector<std::pair<const char *, const char *>>{
           {"setcon.if.ls_union_words", "count"},
           {"setcon.sf.delta_propagations", "count"},
           {"setcon.sf.propagations_pruned", "count"},
           {"setcon.sf.prune_ratio", "ratio"},
           {"serve.wal_append_us", "us"},
           {"serve.wal_bytes_per_write", "bytes"},
           {"serve.closure_us_per_write", "us"},
           {"serve.snapshot_serialize_us", "us"},
           {"setcon.retractions", "count"},
           {"setcon.cone_vars_per_retract", "count"},
           {"setcon.collapses_split", "count"},
           {"net.publish_us", "us"},
           {"net.view_build_us", "us"},
           {"net.publishes_per_write", "ratio"},
           {"net.server_query_us", "us"},
           {"net.read_unattributed_us", "us"},
           {"net.reads_during_write_ratio", "ratio"},
           {"net.write_unattributed_us", "us"},
           {"bench.writer_lag_p99_ms", "ms"},
           {"bench.writer_lag_max_ms", "ms"},
           {"bench.trace_overhead_pct", "%"},
           {"bench.calibration_ms", "ms"}})
    C.emplace_back(Name, Unit);
  return C;
}

/// Orders \p Measured by the catalog and fills in the layers this
/// workload does not enter. Returns false if a measured metric is not in
/// the catalog (it would otherwise be dropped silently).
bool completePerLayer(std::vector<Metric> &Measured) {
  std::vector<Metric> Out;
  for (const auto &[Name, Unit] : perLayerCatalog()) {
    auto It = std::find_if(Measured.begin(), Measured.end(),
                           [&](const Metric &M) { return M.Name == Name; });
    if (It != Measured.end())
      Out.push_back(*It);
    else
      Out.push_back({Name, 0, Unit, 0, "layer not on this workload's path"});
  }
  for (const Metric &M : Measured)
    if (std::none_of(Out.begin(), Out.end(),
                     [&](const Metric &O) { return O.Name == M.Name; })) {
      std::fprintf(stderr, "perfbench: per-layer metric %s is not in the "
                           "catalog\n", M.Name.c_str());
      return false;
    }
  Measured = std::move(Out);
  return true;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload paper_suite|serve_read|"
               "serve_edit --seed N --seconds S --trace 0|1 --out-dir DIR "
               "--bin-dir DIR [--commit ID]\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  RunConfig Config;
  std::string Commit = "unknown";
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string Key = Argv[I], Value = Argv[I + 1];
    if (Key == "--workload")
      Config.Workload = Value;
    else if (Key == "--seed")
      Config.Seed = std::strtoull(Value.c_str(), nullptr, 10);
    else if (Key == "--seconds")
      Config.Seconds = std::atof(Value.c_str());
    else if (Key == "--trace")
      Config.Trace = Value == "1";
    else if (Key == "--out-dir")
      Config.OutDir = Value;
    else if (Key == "--bin-dir")
      Config.BinDir = Value;
    else if (Key == "--commit")
      Commit = Value;
    else
      return usage();
  }
  if (Argc % 2 == 0 || Config.OutDir.empty() || Config.BinDir.empty() ||
      Config.Seconds <= 0)
    return usage();

#ifndef NDEBUG
  std::fprintf(stderr, "perfbench: refusing to measure an assertion-enabled "
                       "(Debug) build\n");
  return 2;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  std::fprintf(stderr, "perfbench: refusing to measure a sanitizer build\n");
  return 2;
#endif

  Config.Nproc = std::max(1u, std::thread::hardware_concurrency());
  double CalibrationMs = calibrationMs();
  SpanLog Log(Config.Nproc + 1);

  Outcome Out;
  if (Config.Workload == "paper_suite")
    Out = runPaperSuite(Config, Log);
  else if (Config.Workload == "serve_read" || Config.Workload == "serve_edit")
    Out = runServe(Config, Log);
  else
    return usage();

  std::printf("# record {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": "
              "%g, \"trace\": %d, \"nproc\": %u, \"build_type\": \"%s\", "
              "\"commit\": \"%s\", \"server_lanes\": %u, "
              "\"calibration_ms\": %.6f}\n",
              Config.Workload.c_str(), (unsigned long long)Config.Seed,
              Config.Seconds, Config.Trace ? 1 : 0, Config.Nproc,
              PERFBENCH_BUILD_TYPE, Commit.c_str(), Out.Lanes,
              CalibrationMs);

  bool GatesOk = true;
  for (const Gate &G : Out.Gates) {
    std::printf("# gate %-32s clean=%s corrupted=%s%s%s\n", G.Name.c_str(),
                G.Clean ? "pass" : "FAIL",
                G.CorruptedFailed ? "rejected" : "ACCEPTED",
                G.Detail.empty() ? "" : "  ", G.Detail.c_str());
    GatesOk = GatesOk && G.ok();
  }
  printTable("end-to-end (gated)", Out.EndToEnd);
  printTable("end-to-end (named, not gated)", Out.Named);

  std::vector<Metric> *Reported = &Out.EndToEnd;
  if (Config.Trace) {
    Out.PerLayer.push_back({"bench.calibration_ms", CalibrationMs, "ms", 5,
                            "fixed CPU probe, median of 5; never gates"});
    if (!completePerLayer(Out.PerLayer))
      return 2;
    printTable("per-layer (traced run)", Out.PerLayer);
    for (const std::string &Note : Out.Notes)
      std::printf("# %s\n", Note.c_str());
    std::string Path = Config.OutDir + "/spans-" + Config.Workload + "-" +
                       std::to_string(Config.Seed) + ".jsonl";
    if (!Log.write(Path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", Path.c_str());
      return 1;
    }
    std::printf("# spans written to %s\n", Path.c_str());
    Reported = &Out.PerLayer;
  }

  bool Correct = GatesOk && Out.Failed == 0 && Out.Reconciled;
  std::string Json = "{\"correct\": " + std::string(Correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(Out.Attempted) +
                     ", \"failed\": " + std::to_string(Out.Failed) +
                     ", \"metrics\": {";
  for (size_t I = 0; I != Reported->size(); ++I) {
    const Metric &M = (*Reported)[I];
    Json += (I ? ", \"" : "\"") + M.Name + "\": {\"value\": " +
            jsonNumber(M.Value) + ", \"unit\": \"" + M.Unit + "\"}";
  }
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  std::fflush(stdout);
  return Correct ? 0 : 1;
}
