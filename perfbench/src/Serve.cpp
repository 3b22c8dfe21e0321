//===- perfbench/src/Serve.cpp - serve_read and serve_edit workloads ------===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The served-request path: the shipped scserved binary on a Unix socket
/// with its write-ahead log armed (every accepted write is fsynced before it
/// is applied), holding a seeded random constraint system of 4,800
/// variables in serve_bench's base shape at scale 4. Both workloads share
/// the server and the graph and differ in traffic:
///
///   serve_read  closed-loop readers (a uniform ls/pts/alias mix) plus an
///               open-loop writer trickling edits, so views still
///               republish as they do in production;
///   serve_edit  an open-loop writer sending edits at a fixed rate well
///               below the writer lane's capacity, plus one closed-loop
///               reader.
///
/// An edit is a `retract` of a live base line followed by an `add` of a
/// new line, so the graph keeps its size. Writes are pipelined on one
/// connection and timed from their due time. The load generator is this
/// one process with no more threads and connections than nproc.
///
/// Gates: every reply is its expected `ok ...`; after the load, `ls` of
/// every variable must equal, by checksum, the least solution of the final
/// line set (base, minus retracted lines, plus added lines) computed here
/// by plain graph reachability, which shares no code with the solver.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "support/Metrics.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fcntl.h>
#include <fstream>
#include <map>
#include <poll.h>
#include <set>
#include <sstream>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <unordered_set>

using namespace perfbench;

namespace {

// serve_bench's base shape at scale 4.
constexpr uint32_t NumVars = 4800;
constexpr uint32_t NumLines = 3600;
constexpr uint32_t NumLocs = NumVars / 4;
/// Server read lanes, fixed so runs compare.
constexpr unsigned ServerLanes = 2;
/// scserved launches per run; setup_s is their median.
constexpr int Launches = 9;
/// Edit rates (retract + add pairs per second). serve_edit stays well below
/// the writer lane's capacity so its backlog stays bounded.
constexpr double ReadEditRate = 2.0;
constexpr double EditEditRate = 12.0;
/// Trace-overhead slices: tracing alternates on and off every slice.
constexpr uint64_t SliceNs = 500'000'000;
/// In traced slices, one read in this many is recorded as a span.
constexpr uint64_t ReadSpanEvery = 8;

//===----------------------------------------------------------------------===//
// Workload inputs
//===----------------------------------------------------------------------===//

/// One constraint line: `ref(lL, vA, vA) <= vB` or `vA <= vB`.
struct Line {
  bool Ref = false;
  uint32_t Loc = 0, A = 0, B = 0;
  std::string text() const {
    std::string To = " <= v" + std::to_string(B);
    if (!Ref)
      return "v" + std::to_string(A) + To;
    return "ref(l" + std::to_string(Loc) + ", v" + std::to_string(A) +
           ", v" + std::to_string(A) + ")" + To;
  }
};

Line randomLine(SplitMix &Rng) {
  Line L;
  L.A = static_cast<uint32_t>(Rng.below(NumVars));
  L.B = static_cast<uint32_t>(Rng.below(NumVars));
  if (Rng.below(3) == 0) {
    L.Ref = true;
    L.Loc = static_cast<uint32_t>(Rng.below(NumLocs));
  }
  return L;
}

/// A fresh line whose text is not in \p Live; inserts it.
Line freshLine(SplitMix &Rng, std::unordered_set<std::string> &Live) {
  for (;;) {
    Line L = randomLine(Rng);
    if (Live.insert(L.text()).second)
      return L;
  }
}

std::string declarations() {
  std::string Text = "cons ref + + -\n";
  for (uint32_t L = 0; L != NumLocs; ++L)
    Text += "cons l" + std::to_string(L) + "\n";
  for (uint32_t V = 0; V != NumVars; ++V)
    Text += "var v" + std::to_string(V) + "\n";
  return Text;
}

//===----------------------------------------------------------------------===//
// Oracle: least solutions by reachability
//===----------------------------------------------------------------------===//

/// For this constraint shape (sources and variable-variable inclusions,
/// no sinks) the least solution of v is the set of source terms of every
/// variable that reaches v. Returns a checksum over all variables'
/// sorted items, in variable order.
uint64_t oracleChecksum(const std::vector<Line> &Lines) {
  std::vector<std::vector<uint32_t>> Succ(NumVars);
  std::vector<std::vector<std::string>> Sources(NumVars);
  for (const Line &L : Lines) {
    if (L.Ref)
      Sources[L.B].push_back("ref(l" + std::to_string(L.Loc) + ", v" +
                             std::to_string(L.A) + ", ~v" +
                             std::to_string(L.A) + ")");
    else
      Succ[L.A].push_back(L.B);
  }
  std::vector<std::set<std::string>> Ls(NumVars);
  std::vector<uint32_t> Seen(NumVars, 0), Stack;
  uint32_t Epoch = 0;
  for (uint32_t V = 0; V != NumVars; ++V) {
    if (Sources[V].empty())
      continue;
    ++Epoch;
    Stack.assign(1, V);
    Seen[V] = Epoch;
    while (!Stack.empty()) {
      uint32_t X = Stack.back();
      Stack.pop_back();
      Ls[X].insert(Sources[V].begin(), Sources[V].end());
      for (uint32_t Y : Succ[X])
        if (Seen[Y] != Epoch) {
          Seen[Y] = Epoch;
          Stack.push_back(Y);
        }
    }
  }
  uint64_t Hash = FnvBasis;
  for (uint32_t V = 0; V != NumVars; ++V) {
    for (const std::string &Item : Ls[V])
      Hash = fnv1a(fnv1a(Hash, Item), ",");
    Hash = fnv1a(Hash, ";");
  }
  return Hash;
}

/// Splits an `ok { a, b(c, d) }` reply into its top-level items, sorted.
bool parseSetReply(const std::string &Reply, std::vector<std::string> &Items) {
  Items.clear();
  if (Reply.rfind("ok {", 0) != 0 || Reply.back() != '}')
    return false;
  std::string Body = Reply.substr(4, Reply.size() - 5);
  int Depth = 0;
  std::string Cur;
  for (char C : Body) {
    if (C == '(')
      ++Depth;
    if (C == ')')
      --Depth;
    if (C == ',' && Depth == 0) {
      Items.push_back(Cur);
      Cur.clear();
      continue;
    }
    if (C == ' ' && Cur.empty())
      continue;
    Cur += C;
  }
  while (!Cur.empty() && Cur.back() == ' ')
    Cur.pop_back();
  if (!Cur.empty())
    Items.push_back(Cur);
  std::sort(Items.begin(), Items.end());
  return true;
}

//===----------------------------------------------------------------------===//
// Client connection and server process
//===----------------------------------------------------------------------===//

/// A blocking line connection to the server's Unix socket.
class Conn {
public:
  Conn() = default;
  Conn(const Conn &) = delete;
  Conn &operator=(const Conn &) = delete;
  ~Conn() {
    if (Fd >= 0)
      ::close(Fd);
  }

  bool connect(const std::string &Path) {
    Fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (Fd < 0)
      return false;
    sockaddr_un Addr{};
    Addr.sun_family = AF_UNIX;
    if (Path.size() >= sizeof(Addr.sun_path))
      return false;
    std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
    return ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr),
                     sizeof(Addr)) == 0;
  }

  bool send(const std::string &Text) {
    size_t Off = 0;
    while (Off < Text.size()) {
      ssize_t N = ::send(Fd, Text.data() + Off, Text.size() - Off,
                         MSG_NOSIGNAL);
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0)
        return false;
      Off += static_cast<size_t>(N);
    }
    return true;
  }

  /// True when a whole line is already buffered.
  bool hasLine() const { return Buf.find('\n') != std::string::npos; }

  /// Reads what the socket has without blocking past \p TimeoutMs.
  /// Returns false on error or end of stream.
  bool fill(int TimeoutMs) {
    pollfd P{Fd, POLLIN, 0};
    int R = ::poll(&P, 1, TimeoutMs);
    if (R < 0)
      return errno == EINTR;
    if (R == 0)
      return true;
    char Chunk[65536];
    ssize_t N = ::recv(Fd, Chunk, sizeof Chunk, 0);
    if (N <= 0)
      return N < 0 && errno == EINTR;
    Buf.append(Chunk, static_cast<size_t>(N));
    return true;
  }

  bool popLine(std::string &Out) {
    size_t Pos = Buf.find('\n');
    if (Pos == std::string::npos)
      return false;
    Out.assign(Buf, 0, Pos);
    Buf.erase(0, Pos + 1);
    return true;
  }

  /// Blocks for one line (at most \p TimeoutMs in total).
  bool readLine(std::string &Out, int TimeoutMs = 60000) {
    uint64_t Deadline = nowNs() + uint64_t(TimeoutMs) * 1'000'000;
    while (!popLine(Out)) {
      if (nowNs() > Deadline || !fill(100))
        return false;
    }
    return true;
  }

  bool ask(const std::string &Request, std::string &Reply) {
    return send(Request + "\n") && readLine(Reply);
  }

  /// `metrics` replies span lines up to a `# EOF` marker.
  bool askMulti(const std::string &Request, std::string &Reply) {
    if (!ask(Request, Reply))
      return false;
    std::string More;
    while (More != "# EOF") {
      if (!readLine(More))
        return false;
      Reply += "\n" + More;
    }
    return true;
  }

private:
  int Fd = -1;
  std::string Buf;
};

/// One scserved child. The destructor kills and reaps it if it is still
/// running, so no error path leaves a process behind.
class ServerProc {
public:
  ServerProc() = default;
  ServerProc(const ServerProc &) = delete;
  ServerProc &operator=(const ServerProc &) = delete;
  ~ServerProc() {
    if (Pid > 0) {
      ::kill(Pid, SIGKILL);
      ::waitpid(Pid, nullptr, 0);
    }
    if (OutFd >= 0)
      ::close(OutFd);
  }

  /// Starts scserved and waits for its listening line.
  bool start(const std::string &Binary, const std::vector<std::string> &Args,
             const std::string &LogPath, std::string &Error) {
    int Pipe[2];
    if (::pipe2(Pipe, O_CLOEXEC) != 0) {
      Error = "pipe failed";
      return false;
    }
    Pid = ::fork();
    if (Pid < 0) {
      Error = "fork failed";
      return false;
    }
    if (Pid == 0) {
      ::dup2(Pipe[1], 1);
      int Log = ::open(LogPath.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (Log >= 0)
        ::dup2(Log, 2);
      std::vector<char *> Argv;
      Argv.push_back(const_cast<char *>(Binary.c_str()));
      for (const std::string &A : Args)
        Argv.push_back(const_cast<char *>(A.c_str()));
      Argv.push_back(nullptr);
      ::execv(Binary.c_str(), Argv.data());
      ::_exit(127);
    }
    ::close(Pipe[1]);
    OutFd = Pipe[0];
    std::string Out;
    uint64_t Deadline = nowNs() + 120'000'000'000ULL;
    while (Out.find("ok listening") == std::string::npos) {
      pollfd P{OutFd, POLLIN, 0};
      if (nowNs() > Deadline || ::poll(&P, 1, 200) < 0) {
        Error = "scserved did not start";
        return false;
      }
      if (!(P.revents & (POLLIN | POLLHUP)))
        continue;
      char Chunk[4096];
      ssize_t N = ::read(OutFd, Chunk, sizeof Chunk);
      if (N <= 0) {
        Error = "scserved exited during start-up: " + Out;
        return false;
      }
      Out.append(Chunk, static_cast<size_t>(N));
    }
    return true;
  }

  /// Peak resident set (VmHWM) of the server, in MB.
  double peakRssMb() const {
    std::ifstream Status("/proc/" + std::to_string(Pid) + "/status");
    std::string Key;
    while (Status >> Key) {
      if (Key == "VmHWM:") {
        double Kb = 0;
        Status >> Kb;
        return Kb / 1024.0;
      }
      std::getline(Status, Key);
    }
    return 0;
  }

  /// Waits for the process to exit (after `shutdown`); true on exit 0.
  bool reap(int TimeoutMs) {
    uint64_t Deadline = nowNs() + uint64_t(TimeoutMs) * 1'000'000;
    for (;;) {
      int Status = 0;
      pid_t R = ::waitpid(Pid, &Status, WNOHANG);
      if (R == Pid) {
        Pid = -1;
        return WIFEXITED(Status) && WEXITSTATUS(Status) == 0;
      }
      if (nowNs() > Deadline)
        return false;
      ::usleep(2000);
    }
  }

private:
  pid_t Pid = -1;
  int OutFd = -1;
};

//===----------------------------------------------------------------------===//
// Server metrics
//===----------------------------------------------------------------------===//

/// The counters read from the `metrics` and `stats` verbs.
struct ServerSample {
  std::map<std::string, double> Values;
  double get(const std::string &Name) const {
    auto It = Values.find(Name);
    return It == Values.end() ? 0 : It->second;
  }
};

bool sampleServer(Conn &C, ServerSample &Out) {
  std::string Reply;
  if (!C.askMulti("metrics", Reply))
    return false;
  std::istringstream In(Reply);
  std::string Row;
  while (std::getline(In, Row)) {
    if (Row.empty() || Row[0] == '#' || Row.rfind("ok", 0) == 0)
      continue;
    size_t Space = Row.rfind(' ');
    if (Space == std::string::npos || Row.find('{') != std::string::npos)
      continue;
    Out.Values[Row.substr(0, Space)] = std::atof(Row.c_str() + Space + 1);
  }
  if (!C.ask("stats", Reply) || Reply.rfind("ok ", 0) != 0)
    return false;
  std::istringstream Fields(Reply.substr(3));
  std::string Field;
  while (Fields >> Field) {
    size_t Eq = Field.find('=');
    if (Eq != std::string::npos)
      Out.Values["stats." + Field.substr(0, Eq)] =
          std::atof(Field.c_str() + Eq + 1);
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Load
//===----------------------------------------------------------------------===//

enum class Op : uint8_t { Add, Retract };

/// Latencies of one reader thread.
struct ReaderResult {
  std::vector<uint64_t> LatNs;
  std::vector<uint64_t> TracedNs, UntracedNs; // by trace slice
  uint64_t FirstSend = 0, LastReply = 0;
  uint64_t Failed = 0;
  std::string FirstBad;
};

/// Whether \p Reply is a well-formed answer to a read of \p Kind: 0 = ls,
/// 1 = pts (a set), 2 = alias (a boolean).
bool readReplyOk(int Kind, const std::string &Reply) {
  if (Kind == 2)
    return Reply == "ok true" || Reply == "ok false";
  return Reply.rfind("ok {", 0) == 0 && Reply.back() == '}';
}

void readerLoop(const std::string &Sock, uint64_t Seed, unsigned Slot,
                bool Trace, uint64_t T0, const std::atomic<bool> &Stop,
                SpanLog &Log, ReaderResult &Out) {
  Conn C;
  if (!C.connect(Sock)) {
    ++Out.Failed;
    Out.FirstBad = "reader connect failed";
    return;
  }
  SplitMix Rng(Seed);
  std::string Reply;
  uint64_t Req = 0;
  while (nowNs() < T0)
    ::usleep(200);
  while (!Stop.load(std::memory_order_relaxed)) {
    int Kind = static_cast<int>(Rng.below(3));
    uint32_t A = static_cast<uint32_t>(Rng.below(NumVars));
    uint32_t B = static_cast<uint32_t>(Rng.below(NumVars));
    std::string Request =
        Kind == 0 ? "ls v" + std::to_string(A)
        : Kind == 1 ? "pts v" + std::to_string(A)
                    : "alias v" + std::to_string(A) + " v" + std::to_string(B);
    uint64_t Start = nowNs();
    if (!Out.FirstSend)
      Out.FirstSend = Start;
    bool Ok = C.ask(Request, Reply);
    uint64_t End = nowNs();
    Out.LastReply = End;
    if (!Ok || !readReplyOk(Kind, Reply)) {
      ++Out.Failed;
      if (Out.FirstBad.empty())
        Out.FirstBad = Request + " -> " + (Ok ? Reply : "transport error");
      if (!Ok)
        return;
      continue;
    }
    Out.LatNs.push_back(End - Start);
    if (Trace) {
      bool Traced = ((Start - T0) / SliceNs) % 2 == 1;
      (Traced ? Out.TracedNs : Out.UntracedNs).push_back(End - Start);
      // One read in ReadSpanEvery keeps a span: enough to locate time,
      // and a span file of megabytes rather than hundreds.
      if (Traced && ++Req % ReadSpanEvery == 0)
        Log.add(Slot, {Log.newId(Slot), 0, (uint64_t(Slot) << 40) | Req,
                       Kind == 0   ? "client.ls"
                       : Kind == 1 ? "client.pts"
                                   : "client.alias",
                       Start, End});
    }
  }
}

/// One pipelined write.
struct PendingWrite {
  Op Kind;
  uint64_t DueNs, SentNs;
  uint64_t Req;
};

struct WriterResult {
  std::vector<uint64_t> AddNs, RetractNs, LagNs;
  std::vector<Line> Added, Retracted;
  uint64_t Failed = 0;
  std::string FirstBad;
};

/// Open-loop writes for \p Seconds, pipelined on \p C: edits at \p Rate
/// per second, each a retract of the next live base line and, half a
/// period later, the add of a fresh line. Writes are timed from their due
/// time, so a stall is charged to every write queued behind it.
void writerLoop(Conn &C, double Rate, double Seconds, uint64_t T0,
                std::vector<Line> &BaseOrder,
                std::unordered_set<std::string> &Live, SplitMix &Rng,
                bool Trace, SpanLog &Log, WriterResult &Out) {
  const uint64_t HalfPeriodNs = static_cast<uint64_t>(0.5e9 / Rate);
  const uint64_t EndNs = T0 + static_cast<uint64_t>(Seconds * 1e9);
  std::deque<PendingWrite> Pending;
  size_t NextBase = 0;
  uint64_t Write = 0;
  std::string Reply;
  for (;;) {
    uint64_t Now = nowNs();
    uint64_t Due = T0 + Write * HalfPeriodNs;
    if (Due < EndNs && Now >= Due) {
      bool IsRetract = Write % 2 == 0;
      std::string Request;
      if (IsRetract) {
        if (NextBase == BaseOrder.size()) {
          ++Out.Failed;
          Out.FirstBad = "ran out of base lines to retract";
          return;
        }
        const Line &Gone = BaseOrder[NextBase++];
        Live.erase(Gone.text());
        Out.Retracted.push_back(Gone);
        Request = "retract " + Gone.text() + "\n";
      } else {
        Out.Added.push_back(freshLine(Rng, Live));
        Request = "add " + Out.Added.back().text() + "\n";
      }
      uint64_t Sent = nowNs();
      if (!C.send(Request)) {
        ++Out.Failed;
        Out.FirstBad = "writer send failed";
        return;
      }
      Pending.push_back(
          {IsRetract ? Op::Retract : Op::Add, Due, Sent, ++Write});
      Out.LagNs.push_back(Sent - Due);
      continue;
    }
    if (Due >= EndNs && Pending.empty())
      break;
    int WaitMs = 50;
    if (Due < EndNs)
      WaitMs = static_cast<int>(
          std::min<uint64_t>(50, Due > Now ? (Due - Now) / 1'000'000 : 0));
    if (!C.hasLine() && !C.fill(WaitMs)) {
      ++Out.Failed;
      Out.FirstBad = "writer connection lost";
      return;
    }
    while (!Pending.empty() && C.popLine(Reply)) {
      uint64_t Ack = nowNs();
      PendingWrite W = Pending.front();
      Pending.pop_front();
      const char *Want = W.Kind == Op::Add ? "ok added" : "ok retracted";
      if (Reply != Want) {
        ++Out.Failed;
        if (Out.FirstBad.empty())
          Out.FirstBad = std::string(Want) + " expected, got " + Reply;
        continue;
      }
      (W.Kind == Op::Add ? Out.AddNs : Out.RetractNs).push_back(Ack - W.DueNs);
      if (Trace) {
        uint64_t Id = Log.newId(0);
        Log.add(0, {Id, 0, W.Req,
                    W.Kind == Op::Add ? "client.add" : "client.retract",
                    W.DueNs, Ack});
        Log.add(0, {Log.newId(0), Id, W.Req, "bench.send_lag", W.DueNs,
                    W.SentNs});
      }
    }
    if (Due >= EndNs && nowNs() > EndNs + 60'000'000'000ULL) {
      Out.Failed += Pending.size();
      Out.FirstBad = "writes still unanswered 60 s after the window";
      return;
    }
  }
}

double usOf(uint64_t Ns) { return double(Ns) / 1e3; }

} // namespace

Outcome perfbench::runServe(const RunConfig &Config, SpanLog &Log) {
  Outcome Out;
  Out.Lanes = ServerLanes;
  const bool Edit = Config.Workload == "serve_edit";
  const std::string Dir = Config.OutDir + "/" + Config.Workload;
  const std::string Scs = Dir + "/base.scs", Wal = Dir + "/graph.wal",
                    Sock = Dir + "/poce.sock", ServerLog = Dir + "/server.log";
  ::mkdir(Dir.c_str(), 0755);
  auto Fail = [&](const std::string &Why) {
    std::fprintf(stderr, "perfbench: %s: %s\n", Config.Workload.c_str(),
                 Why.c_str());
    ++Out.Attempted;
    ++Out.Failed;
    Out.Gates.push_back({"serve.run", false, false, Why});
    return Out;
  };

  // Inputs: a deduplicated random base system, and the order in which
  // base lines will be retracted.
  SplitMix Rng(Config.Seed);
  std::unordered_set<std::string> Live;
  std::vector<Line> Base;
  while (Base.size() != NumLines)
    Base.push_back(freshLine(Rng, Live));
  {
    std::ofstream File(Scs);
    File << declarations();
    for (const Line &L : Base)
      File << L.text() << "\n";
    if (!File)
      return Fail("cannot write " + Scs);
  }
  std::vector<Line> BaseOrder = Base;
  for (size_t I = BaseOrder.size(); I > 1; --I)
    std::swap(BaseOrder[I - 1], BaseOrder[Rng.below(I)]);

  // Set-up: launch -> first reply, several times; the last launch serves.
  const std::string Binary = Config.BinDir + "/scserved";
  const std::vector<std::string> Args = {
      "--config=if-online", "--wal=" + Wal, "--unix=" + Sock,
      "--net-lanes=" + std::to_string(ServerLanes), Scs};
  std::vector<double> SetupS;
  std::unique_ptr<ServerProc> Server;
  std::unique_ptr<Conn> Control;
  for (int K = 0; K != Launches; ++K) {
    if (Server) {
      std::string Bye;
      if (!Control->ask("shutdown", Bye) || Bye != "ok shutting_down" ||
          !Server->reap(30000))
        return Fail("scserved did not shut down cleanly");
    }
    ::unlink(Wal.c_str());
    ::unlink(Sock.c_str());
    uint64_t Start = nowNs();
    Server = std::make_unique<ServerProc>();
    std::string Error, Reply;
    if (!Server->start(Binary, Args, ServerLog, Error))
      return Fail(Error);
    Control = std::make_unique<Conn>();
    if (!Control->connect(Sock) || !Control->ask("ls v0", Reply) ||
        !readReplyOk(0, Reply))
      return Fail("first reply failed: " + Reply);
    SetupS.push_back(double(nowNs() - Start) / 1e9);
  }

  ServerSample Before, After;
  if (!sampleServer(*Control, Before))
    return Fail("metrics before the load failed");

  // Load: readers on their own threads, the writer on this one.
  const unsigned Readers =
      Edit ? 1u : std::max(1u, std::min(3u, Config.Nproc - 1));
  std::vector<ReaderResult> ReaderOut(Readers);
  std::atomic<bool> Stop{false};
  uint64_t T0 = nowNs() + 20'000'000;
  std::vector<std::thread> Threads;
  for (unsigned R = 0; R != Readers; ++R)
    Threads.emplace_back(readerLoop, Sock, Config.Seed * 31 + R + 1, R + 1,
                         Config.Trace, T0, std::cref(Stop), std::ref(Log),
                         std::ref(ReaderOut[R]));
  while (nowNs() < T0)
    ::usleep(1000);
  WriterResult W;
  writerLoop(*Control, Edit ? EditEditRate : ReadEditRate, Config.Seconds,
             T0, BaseOrder, Live, Rng, Config.Trace, Log, W);
  Stop.store(true);
  for (std::thread &T : Threads)
    T.join();

  if (!sampleServer(*Control, After))
    return Fail("metrics after the load failed");

  // Reads and writes, as the client saw them.
  std::vector<uint64_t> ReadNs, TracedNs, UntracedNs;
  uint64_t ReadStart = UINT64_MAX, ReadEnd = 0, ReadFailed = 0;
  std::string FirstBad = W.FirstBad;
  for (const ReaderResult &R : ReaderOut) {
    ReadNs.insert(ReadNs.end(), R.LatNs.begin(), R.LatNs.end());
    TracedNs.insert(TracedNs.end(), R.TracedNs.begin(), R.TracedNs.end());
    UntracedNs.insert(UntracedNs.end(), R.UntracedNs.begin(),
                      R.UntracedNs.end());
    if (R.FirstSend)
      ReadStart = std::min(ReadStart, R.FirstSend);
    ReadEnd = std::max(ReadEnd, R.LastReply);
    ReadFailed += R.Failed;
    if (FirstBad.empty())
      FirstBad = R.FirstBad;
  }
  std::vector<uint64_t> WriteNs = W.AddNs;
  WriteNs.insert(WriteNs.end(), W.RetractNs.begin(), W.RetractNs.end());
  const uint64_t Writes = WriteNs.size();
  Out.Attempted = ReadNs.size() + ReadFailed + Writes + W.Failed;
  Out.Failed = ReadFailed + W.Failed;

  Gate Replies{"serve.replies_ok", Out.Failed == 0, false, FirstBad};
  Replies.CorruptedFailed =
      !readReplyOk(0, "err internal injected") && !readReplyOk(2, "ok maybe");

  // Final state against the oracle: base - retracted + added.
  std::vector<Line> Final;
  {
    std::unordered_set<std::string> Gone;
    for (const Line &L : W.Retracted)
      Gone.insert(L.text());
    for (const Line &L : Base)
      if (!Gone.count(L.text()))
        Final.push_back(L);
    Final.insert(Final.end(), W.Added.begin(), W.Added.end());
  }
  uint64_t Served = FnvBasis;
  std::vector<std::string> Items;
  bool Transport = true;
  for (uint32_t V = 0; V != NumVars && Transport; ++V) {
    std::string Reply;
    Transport = Control->ask("ls v" + std::to_string(V), Reply) &&
                parseSetReply(Reply, Items);
    for (const std::string &Item : Items)
      Served = fnv1a(fnv1a(Served, Item), ",");
    Served = fnv1a(Served, ";");
  }
  Gate State{"serve.final_state_matches_oracle", false, false, ""};
  State.Clean = Transport && Served == oracleChecksum(Final);
  if (!State.Clean)
    State.Detail = Transport ? "ls checksum differs from the oracle"
                             : "ls sweep failed";
  // Non-vacuity: drop one added line from the oracle set; some such
  // damaged oracle must disagree with the served answers.
  for (size_t I = Final.size(); I-- > Final.size() - W.Added.size();) {
    std::vector<Line> Damaged = Final;
    Damaged.erase(Damaged.begin() + static_cast<ptrdiff_t>(I));
    if (oracleChecksum(Damaged) != Served) {
      State.CorruptedFailed = true;
      break;
    }
    if (Final.size() - I > 32)
      break;
  }
  ++Out.Attempted;
  if (!State.Clean)
    ++Out.Failed;

  double RssMb = Server->peakRssMb();
  auto ShutdownOk = [](const std::string &Reply, bool ExitedZero) {
    return Reply == "ok shutting_down" && ExitedZero;
  };
  std::string Bye;
  bool Asked = Control->ask("shutdown", Bye);
  bool CleanExit = ShutdownOk(Bye, Asked && Server->reap(30000));
  Gate Exit{"serve.clean_shutdown", CleanExit,
            !ShutdownOk("err internal injected", true), ""};
  Out.Gates = {Replies, State, Exit};
  if (!CleanExit)
    ++Out.Failed;

  // End-to-end: the workload's primary operation is a read on serve_read
  // and an edit on serve_edit, whose latency is its retract's plus its
  // add's, each from its due time. (Pooling adds and retracts would put
  // the median on the edge between their two clusters.)
  std::vector<uint64_t> EditNs;
  for (size_t K = 0; K < W.RetractNs.size() && K < W.AddNs.size(); ++K)
    EditNs.push_back(W.RetractNs[K] + W.AddNs[K]);
  const std::vector<uint64_t> &Primary = Edit ? EditNs : ReadNs;
  double ReadWindowS =
      ReadEnd > ReadStart ? double(ReadEnd - ReadStart) / 1e9 : 0;
  Out.EndToEnd = {
      {"setup_s", median(SetupS), "s", SetupS.size(),
       "scserved launch -> first reply, median of launches"},
      {"peak_rss_mb", RssMb, "MB", 1, "server VmHWM before shutdown"},
      {"op_p50_us", usOf(percentileOf(Primary, 0.5)), "us", Primary.size(),
       Edit ? "edit (retract + add, each from due time) p50" : "read p50"},
  };
  // A p99 has at least ten samples beyond it from 1,000 samples on.
  auto Tail = [](const std::vector<uint64_t> &V) {
    return std::string(V.size() >= 1000 ? "p99; >= 10 samples beyond"
                                        : "p99; fewer than 10 samples "
                                          "beyond: diagnostic only");
  };
  Out.Named = {
      {"read_p50_us", usOf(percentileOf(ReadNs, 0.5)), "us", ReadNs.size(),
       "client read latency"},
      {"read_p99_us", usOf(percentileOf(ReadNs, 0.99)), "us", ReadNs.size(),
       Tail(ReadNs)},
      {"read_qps", ReadWindowS > 0 ? double(ReadNs.size()) / ReadWindowS : 0,
       "1/s", ReadNs.size(), "completed reads over the readers' window"},
      {"add_p50_us", usOf(percentileOf(W.AddNs, 0.5)), "us", W.AddNs.size(),
       "due time -> ack"},
      {"add_p99_us", usOf(percentileOf(W.AddNs, 0.99)), "us", W.AddNs.size(),
       Tail(W.AddNs)},
      {"retract_p50_us", usOf(percentileOf(W.RetractNs, 0.5)), "us",
       W.RetractNs.size(), "due time -> ack"},
      {"retract_p99_us", usOf(percentileOf(W.RetractNs, 0.99)), "us",
       W.RetractNs.size(), Tail(W.RetractNs)},
      {"error_rate", Out.Attempted ? double(Out.Failed) / Out.Attempted : 0,
       "ratio", Out.Attempted, "failed over attempted"},
  };

  if (!Config.Trace)
    return Out;

  // Per-layer: means from deltas of the server's own counters.
  auto Delta = [&](const std::string &Name) {
    return After.get(Name) - Before.get(Name);
  };
  auto MeanOf = [&](const std::string &Hist) {
    double Count = Delta(Hist + "_count");
    return Count > 0 ? Delta(Hist + "_sum") / Count : 0.0;
  };
  auto PerWrite = [&](double Total) { return Writes ? Total / Writes : 0.0; };
  auto Add = [&](const char *Name, double Value, const char *Unit,
                 double Samples, const char *Note) {
    Out.PerLayer.push_back(
        {Name, Value, Unit, static_cast<uint64_t>(Samples), Note});
  };
  double WalPerWrite = PerWrite(Delta("poce_wal_append_us_sum"));
  double ClosurePerWrite = PerWrite(Delta("poce_solver_closure_us_sum"));
  double PublishPerWrite = PerWrite(Delta("poce_net_view_publish_us_sum"));
  double Publish = MeanOf("poce_net_view_publish_us");
  double Serialize = MeanOf("poce_snapshot_serialize_us");
  double ServerQuery = MeanOf("poce_net_query_latency_us");
  double ClientRead = mean(ReadNs) / 1e3, ClientWrite = mean(WriteNs) / 1e3;
  double Retracts = Delta("stats.retractions");
  Add("serve.wal_append_us", MeanOf("poce_wal_append_us"), "us",
      Delta("poce_wal_append_us_count"), "mean per WAL append");
  Add("serve.wal_bytes_per_write", PerWrite(Delta("stats.wal_bytes")),
      "bytes", Writes, "WAL growth per acknowledged write");
  Add("serve.closure_us_per_write", ClosurePerWrite, "us", Writes,
      "poce_solver_closure_us sum per write");
  Add("serve.snapshot_serialize_us", Serialize, "us",
      Delta("poce_snapshot_serialize_us_count"), "mean per serialize");
  Add("setcon.retractions", Retracts, "count", Retracts,
      "stats retractions delta");
  Add("setcon.cone_vars_per_retract",
      Retracts > 0 ? Delta("stats.cone_vars") / Retracts : 0, "count",
      Retracts, "cone_vars delta / retractions");
  Add("setcon.collapses_split", Delta("stats.collapses_split"), "count",
      Retracts, "stats collapses_split delta");
  Add("net.publish_us", Publish, "us",
      Delta("poce_net_view_publish_us_count"), "mean per view publish");
  Add("net.view_build_us", Publish - Serialize, "us",
      Delta("poce_net_view_publish_us_count"), "publish minus serialize");
  Add("net.publishes_per_write",
      PerWrite(Delta("poce_net_view_publishes_total")), "ratio", Writes,
      "view publishes / writes");
  Add("net.server_query_us", ServerQuery, "us",
      Delta("poce_net_query_latency_us_count"),
      "mean of poce_net_query_latency_us");
  Add("net.read_unattributed_us", ClientRead - ServerQuery, "us",
      ReadNs.size(), "client read mean minus server query mean");
  Add("net.reads_during_write_ratio",
      Delta("poce_net_queries_total") > 0
          ? Delta("poce_net_reads_during_write_total") /
                Delta("poce_net_queries_total")
          : 0,
      "ratio", Delta("poce_net_queries_total"),
      "reads during a write batch / reads");
  double Unattributed =
      ClientWrite - (WalPerWrite + ClosurePerWrite + PublishPerWrite);
  Add("net.write_unattributed_us", Unattributed, "us", Writes,
      "client write mean minus WAL, closure and publish per write");
  std::vector<uint64_t> LagSorted = W.LagNs;
  std::sort(LagSorted.begin(), LagSorted.end());
  Add("bench.writer_lag_p99_ms",
      double(poce::exactPercentile(LagSorted, 0.99)) / 1e6, "ms",
      LagSorted.size(), "send time minus due time");
  Add("bench.writer_lag_max_ms",
      LagSorted.empty() ? 0 : double(LagSorted.back()) / 1e6, "ms",
      LagSorted.size(), "send time minus due time");
  double Traced = mean(TracedNs), Untraced = mean(UntracedNs);
  Add("bench.trace_overhead_pct",
      Untraced > 0 ? (Traced - Untraced) / Untraced * 100 : 0, "%",
      TracedNs.size(), "read mean, traced vs untraced slices");

  // Reconciliation of the write path: the stage means plus the
  // unattributed residual make up the client's mean write latency; the
  // stages alone may not exceed it.
  char Text[400];
  std::snprintf(Text, sizeof Text,
                "reconcile %s writes: client mean %.1f us = wal %.1f + "
                "closure %.1f + publish %.1f + unattributed %.1f us "
                "(socket, queueing, validate, retraction cone); n=%llu",
                Config.Workload.c_str(), ClientWrite, WalPerWrite,
                ClosurePerWrite, PublishPerWrite, Unattributed,
                (unsigned long long)Writes);
  Out.Notes.push_back(Text);
  std::snprintf(Text, sizeof Text,
                "reconcile %s reads: client mean %.1f us = server %.1f + "
                "unattributed %.1f us; n=%zu",
                Config.Workload.c_str(), ClientRead, ServerQuery,
                ClientRead - ServerQuery, ReadNs.size());
  Out.Notes.push_back(Text);
  Out.Reconciled = Writes == 0 || Unattributed >= 0;
  return Out;
}
