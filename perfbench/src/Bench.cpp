//===- perfbench/src/Bench.cpp - Shared benchmark plumbing ----------------===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "support/Metrics.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

using namespace perfbench;

std::vector<Span> SpanLog::all() const {
  std::vector<Span> Out;
  for (const std::vector<Span> &B : Buffers)
    Out.insert(Out.end(), B.begin(), B.end());
  return Out;
}

bool SpanLog::write(const std::string &Path) const {
  std::FILE *File = std::fopen(Path.c_str(), "w");
  if (!File)
    return false;
  for (const std::vector<Span> &B : Buffers)
    for (const Span &S : B)
      std::fprintf(File,
                   "{\"id\":%llu,\"parent\":%llu,\"req\":%llu,\"name\":\"%s\","
                   "\"start_ns\":%llu,\"end_ns\":%llu}\n",
                   (unsigned long long)S.Id, (unsigned long long)S.Parent,
                   (unsigned long long)S.Req, S.Name,
                   (unsigned long long)S.StartNs,
                   (unsigned long long)S.EndNs);
  return std::fclose(File) == 0;
}

std::vector<uint64_t> perfbench::selfTimesNs(const std::vector<Span> &Spans) {
  std::unordered_map<uint64_t, size_t> IndexOf;
  for (size_t I = 0; I != Spans.size(); ++I)
    IndexOf.emplace(Spans[I].Id, I);
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> Children(
      Spans.size());
  for (const Span &S : Spans) {
    auto It = IndexOf.find(S.Parent);
    if (S.Parent && It != IndexOf.end())
      Children[It->second].emplace_back(S.StartNs, S.EndNs);
  }
  std::vector<uint64_t> Self(Spans.size());
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::vector<std::pair<uint64_t, uint64_t>> &C = Children[I];
    std::sort(C.begin(), C.end());
    // Union of the children's intervals, clipped to the parent.
    uint64_t Covered = 0, Cursor = S.StartNs;
    for (const auto &[Begin, End] : C) {
      uint64_t From = std::max(Begin, Cursor);
      uint64_t To = std::min(End, S.EndNs);
      if (To > From) {
        Covered += To - From;
        Cursor = To;
      }
    }
    uint64_t Duration = S.EndNs - S.StartNs;
    Self[I] = Duration - std::min(Covered, Duration);
  }
  return Self;
}

uint64_t perfbench::percentileOf(std::vector<uint64_t> Samples, double P) {
  std::sort(Samples.begin(), Samples.end());
  return poce::exactPercentile(Samples, P);
}

double perfbench::median(std::vector<double> Values) {
  if (Values.empty())
    return 0;
  std::sort(Values.begin(), Values.end());
  size_t N = Values.size();
  return N % 2 ? Values[N / 2] : (Values[N / 2 - 1] + Values[N / 2]) / 2;
}

double perfbench::mean(const std::vector<uint64_t> &Values) {
  if (Values.empty())
    return 0;
  long double Sum = 0;
  for (uint64_t V : Values)
    Sum += V;
  return static_cast<double>(Sum / Values.size());
}

uint64_t perfbench::fnv1a(uint64_t Hash, const std::string &Text) {
  for (unsigned char C : Text) {
    Hash ^= C;
    Hash *= 1099511628211ULL;
  }
  return Hash;
}

uint64_t SplitMix::next() {
  uint64_t Z = (State += 0x9e3779b97f4a7c15ULL);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}
