//===- perfbench/src/Bench.h - Shared benchmark plumbing --------*- C++ -*-===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Clock, span log, metric and gate records shared by the two workload
/// families (paper pipeline, served requests). Everything here belongs to
/// the benchmark: it times calls into poce's public functions and protocol
/// verbs from outside and never reaches into the program.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One timed interval. Spans of one request share Req; Parent is the Id of
/// the enclosing span (0 for a root).
struct Span {
  uint64_t Id = 0;
  uint64_t Parent = 0;
  uint64_t Req = 0;
  const char *Name = "";
  uint64_t StartNs = 0;
  uint64_t EndNs = 0;
};

/// In-memory span store with one buffer per thread slot, so recording
/// takes no lock. Written out once, when the benchmark ends.
class SpanLog {
public:
  explicit SpanLog(unsigned Slots) : Buffers(Slots), NextId(Slots, 0) {}

  /// A fresh id for \p Slot (ids carry the slot in their top bits, so
  /// they are unique across threads).
  uint64_t newId(unsigned Slot) {
    return (static_cast<uint64_t>(Slot + 1) << 48) | ++NextId[Slot];
  }
  void add(unsigned Slot, const Span &S) { Buffers[Slot].push_back(S); }

  /// Every span of every slot.
  std::vector<Span> all() const;

  /// Writes one JSON object per span to \p Path.
  bool write(const std::string &Path) const;

private:
  std::vector<std::vector<Span>> Buffers;
  std::vector<uint64_t> NextId;
};

/// Self time of each span: its duration minus the part of it covered by
/// its children. Returned in the order of \p Spans.
std::vector<uint64_t> selfTimesNs(const std::vector<Span> &Spans);

/// A printed metric. Samples is how many measurements stand behind the
/// value; Note says how it was formed.
struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
  uint64_t Samples = 0;
  std::string Note;
};

/// A correctness gate and its non-vacuity check: Clean must pass on the
/// real outputs and Corrupted must fail on a deliberately damaged copy.
struct Gate {
  std::string Name;
  bool Clean = false;
  bool CorruptedFailed = false;
  std::string Detail;
  bool ok() const { return Clean && CorruptedFailed; }
};

/// What one workload run produced.
struct Outcome {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<Gate> Gates;
  /// Gated end-to-end metrics (JSON with tracing off).
  std::vector<Metric> EndToEnd;
  /// The workload's named end-to-end figures, printed with their sample
  /// counts but not gated.
  std::vector<Metric> Named;
  /// Per-layer metrics (JSON with tracing on).
  std::vector<Metric> PerLayer;
  /// Reconciliation lines printed in the traced run.
  std::vector<std::string> Notes;
  bool Reconciled = true;
  /// Server read lanes (serving workloads; 0 otherwise).
  unsigned Lanes = 0;
};

/// Command-line settings of one run.
struct RunConfig {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string OutDir;  ///< Scratch directory inside the checkout.
  std::string BinDir;  ///< Where scserved was built.
  unsigned Nproc = 1;
};

/// Sorted-copy ceil-rank percentile in the sample's own unit (ns, us...).
uint64_t percentileOf(std::vector<uint64_t> Samples, double P);

double median(std::vector<double> Values);
double mean(const std::vector<uint64_t> &Values);

/// FNV-1a over \p Text, chained from \p Hash.
uint64_t fnv1a(uint64_t Hash, const std::string &Text);
constexpr uint64_t FnvBasis = 14695981039346656037ULL;

/// splitmix64: the benchmark's own generator for workload inputs.
struct SplitMix {
  uint64_t State;
  explicit SplitMix(uint64_t Seed) : State(Seed) {}
  uint64_t next();
  uint64_t below(uint64_t N) { return next() % N; }
};

Outcome runPaperSuite(const RunConfig &Config, SpanLog &Log);
Outcome runServe(const RunConfig &Config, SpanLog &Log);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
