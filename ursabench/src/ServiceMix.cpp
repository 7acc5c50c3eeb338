//===- ursabench/src/ServiceMix.cpp - Open-loop compile service load ------===//
//
// Part of the URSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// service_mix drives a service::Server (CompileService, two workers) over
// a Unix socket from one open-loop generator: seeded Poisson arrivals at
// two fixed rates, then a bounded ascending rate ladder. Each request is
// timed from the moment it was due, so a stalled generator or a queue
// that builds up shows in latency. Replies are compared byte for byte
// with a standalone private-cache compile of the same source, computed at
// set-up.
//
// The mix: a Zipf-repeated hot set (shared MeasurementCache hits) beside
// a stream of single-use functions (misses and inserts), half
// measure-heavy wide traces on an ample machine and half transform-heavy
// small traces on a tight one. After the timed phases, int/float twins of
// one kernel go to the classed machine, one request at a time, so a pair
// is never in flight together: their dependence shapes are identical, so
// they probe whether the shared cache keys on everything a measurement
// depends on.
//
// The server runs in a process forked from this one (the same library
// code, no separate binary): a server crash then shows as failed requests
// instead of ending the benchmark, and the twin probe restarts it.
//
// The rates and the p99 limit are constants, fixed from the capacity
// measured when this benchmark was introduced, so later commits are
// measured at the same offered load.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "ir/Parser.h"
#include "obs/Json.h"
#include "service/Client.h"
#include "service/CompileService.h"
#include "service/Server.h"
#include "support/RNG.h"
#include "ursa/Compiler.h"
#include "ursa/Report.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <limits>
#include <mutex>
#include <optional>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

using namespace ursa;
using namespace ursa::service;

namespace {

constexpr unsigned Workers = 2;
/// Capacity measured at introduction: the two workers complete about 800
/// compiles per busy second on this mix (4-core x86-64 host). The fixed
/// rates sit at a sixth and a third of it: at half and 80% load, queueing
/// amplified the host's run-to-run speed differences until p50 and p99
/// varied by more than the 25% bound between identical runs.
constexpr double LowRps = 120;  ///< about a sixth of the measured capacity
constexpr double HighRps = 240; ///< about a third of the measured capacity
/// The ladder: 45 rps steps from 360 to 1215. The shared host's capacity
/// moved that far from run to run: the highest passing step fell between
/// 495 and 1035 rps within one hour.
constexpr double LadderRps[] = {360, 405, 450, 495, 540,  585,  630,
                                675, 720, 765, 810, 855,  900,  945,
                                990, 1035, 1080, 1125, 1170, 1215};
constexpr double P99LimitMs = 100;
/// A ladder step with more requests in flight fails. The service enters
/// its first degradation tier when its queue stays half full (32 of 64),
/// and a degraded reply may differ from the standalone compile, so the
/// ladder stops short of it.
constexpr size_t BacklogCap = 32;
/// The repeat structure is an assumption, not a measurement: no recorded
/// compile-server trace or published repeat rate stands behind these
/// three values. As produced, 60% of the pre-ladder requests repeat a hot
/// function, and the server's shared measurement cache answers about 96%
/// of its lookups (seeds 3 and 11-15). service.cache_hit_share,
/// latency_ms_p50.low and max_rate_rps depend on these values, so a claim
/// that rests on the hit rate must say so. The two kinds of function,
/// measure-heavy and transform-heavy, are the two tiers of
/// bench_service_throughput.
constexpr unsigned HotCount = 24; ///< hot set size
constexpr double HotShare = 0.6;  ///< share of requests drawn from it
// The hot set is drawn Zipf-distributed with exponent 1.
constexpr unsigned TwinPairs = 4;
constexpr unsigned ProbeFresh = 24; ///< single-use functions the probe adds
constexpr unsigned QualityFresh = 1200; ///< single-use functions in quality sums
/// Standalone compiles of each measured function, one at set-up and the
/// rest after the timed phases; compile_ms_* take each function's median.
constexpr unsigned StandaloneReps = 3;
/// Set-ups timed for setup_s's median.
constexpr unsigned SetupReps = 9;

/// Share of the run's time given to each phase.
/// The warm-up fills the server's caches at the low rate; its replies are
/// checked but not timed.
constexpr double WarmShare = 0.05, LowShare = 0.3, HighShare = 0.3,
                 LadderShare = 0.35;
/// The low and high phases alternate in this many slices each, so both
/// rates sample the host's speed over the same 70% of the run instead of
/// two separate stretches of it.
constexpr unsigned Slices = 5;

enum Phase { Warm, Low, High, Ladder };

constexpr double Inf = std::numeric_limits<double>::infinity();

struct Event {
  double DueMs = 0; ///< from the phase start until sent, then from Epoch
  const ub::MixFn *F = nullptr;
  // Filled by the generator and the reader.
  double SendMs = -1, RecvMs = -1;
  double QueueMs = 0, CompileMs = 0;
  bool Ok = false, Match = false;
  std::string Error;

  bool sent() const { return SendMs >= 0; }
  /// From due to reply; a failed request misses every latency limit.
  double latencyMs() const { return Match ? RecvMs - DueMs : Inf; }
};

/// Events [Lo, Hi) of one phase slice or ladder step, sent at \p Rps.
struct Segment {
  Phase Kind;
  double Rps = 0;
  size_t Lo = 0, Hi = 0;
};

struct Arrivals {
  std::vector<Event> All;
  std::vector<Segment> Segs; ///< in sending order
  size_t PreLadder = 0;      ///< events before the ladder; all are sent
  size_t FreshUsed = 0;
};

/// Seeded Poisson arrivals at \p Rps for \p Ms, appended to \p A, given
/// their expected count: a Poisson process conditioned on its count puts
/// that many arrivals at sorted uniform times. The count is then the same
/// for every seed, and so is ok_share's base.
void poisson(RNG &Rng, double Rps, double Ms, const ub::MixCorpus &C,
             const std::vector<double> &ZipfCdf, Arrivals &A) {
  std::vector<double> Due(size_t(std::lround(Rps * Ms / 1000.0)));
  for (double &T : Due)
    T = Rng.unit() * Ms;
  std::sort(Due.begin(), Due.end());
  for (double T : Due) {
    Event E;
    E.DueMs = T;
    if (Rng.unit() < HotShare || A.FreshUsed == C.Fresh.size()) {
      size_t K = size_t(std::lower_bound(ZipfCdf.begin(), ZipfCdf.end(),
                                         Rng.unit()) -
                        ZipfCdf.begin());
      E.F = &C.Hot[std::min(K, C.Hot.size() - 1)];
    } else {
      E.F = &C.Fresh[A.FreshUsed++];
    }
    A.All.push_back(std::move(E));
  }
}

/// The whole schedule for a run of \p TotalMs, from the seed alone.
Arrivals makeArrivals(uint64_t Seed, const ub::MixCorpus &C, double TotalMs) {
  RNG Rng(Seed * 0x8BB84B93962EACC9ULL + 5);
  std::vector<double> ZipfCdf;
  double Sum = 0;
  for (unsigned K = 1; K <= C.Hot.size(); ++K)
    ZipfCdf.push_back(Sum += 1.0 / K);
  for (double &V : ZipfCdf)
    V /= Sum;
  Arrivals A;
  auto Add = [&](Phase Kind, double Rps, double Ms) {
    Segment S{Kind, Rps, A.All.size(), 0};
    poisson(Rng, Rps, Ms, C, ZipfCdf, A);
    S.Hi = A.All.size();
    A.Segs.push_back(S);
  };
  Add(Warm, LowRps, TotalMs * WarmShare);
  for (unsigned K = 0; K != Slices; ++K) {
    Add(Low, LowRps, TotalMs * LowShare / Slices);
    Add(High, HighRps, TotalMs * HighShare / Slices);
  }
  A.PreLadder = A.All.size();
  for (double Rps : LadderRps)
    Add(Ladder, Rps, TotalMs * LadderShare / double(std::size(LadderRps)));
  return A;
}

/// The standalone private-cache compile the service must reproduce;
/// returns its time, parse to emit, in ms.
double oracle(ub::MixFn &F) {
  MachineModel M = F.Machine.build();
  auto T0 = ub::Clock::now();
  StatusOr<Trace> T = parseTraceStatus(F.Source, F.Name);
  if (!T.isOk()) {
    F.Expected = "parse error: " + T.status().message();
    return ub::msSince(T0);
  }
  URSACompileResult CR = compileURSA(*T, M, ub::pinnedOptions());
  double Ms = ub::msSince(T0);
  if (!CR.Compile.Ok) {
    F.Expected = "compile error: " + CR.Compile.Error;
    return Ms;
  }
  F.Expected = formatCompileText("ursa", M, CR.Compile);
  F.Cycles = CR.Compile.Cycles;
  F.SpillOps = CR.Compile.SpillOps;
  for (unsigned R : CR.FinalRequired)
    F.Required += R;
  return Ms;
}

/// One more standalone compile of \p F; returns its time in ms, or a
/// negative value when its text differs from the oracle's.
double retime(const ub::MixFn &F) {
  MachineModel M = F.Machine.build();
  auto T0 = ub::Clock::now();
  StatusOr<Trace> T = parseTraceStatus(F.Source, F.Name);
  if (!T.isOk())
    return -1;
  URSACompileResult CR = compileURSA(*T, M, ub::pinnedOptions());
  double Ms = ub::msSince(T0);
  return CR.Compile.Ok && formatCompileText("ursa", M, CR.Compile) == F.Expected
             ? Ms
             : -1;
}

/// One standalone compile of each of \p Fns on this thread, with the
/// host-speed reference interleaved; appends each speed-corrected time to
/// its function's CompileMs. \p Compile returns a time, negative on a
/// failure, which is passed on to \p Failed.
template <typename CompileFn, typename FailFn>
void timedStandalone(const std::vector<ub::MixFn *> &Fns, ub::SpeedRef &Ref,
                     CompileFn Compile, FailFn Failed) {
  std::vector<double> Ms;
  double SumMs = 0;
  for (ub::MixFn *F : Fns) {
    Ref.keepUp(SumMs);
    Ms.push_back(Compile(*F));
    if (Ms.back() < 0)
      Failed(*F);
    SumMs += std::max(Ms.back(), 0.0);
  }
  const double Slow = Ref.take();
  for (size_t I = 0; I != Fns.size(); ++I)
    if (Ms[I] >= 0)
      Fns[I]->CompileMs.push_back(Ms[I] / Slow);
}

/// Oracles of every function in \p Fns, on up to three threads so the
/// host keeps a core for the server.
void computeOracles(const std::vector<ub::MixFn *> &Fns) {
  std::atomic<size_t> Next{0};
  auto Work = [&] {
    for (size_t I; (I = Next.fetch_add(1)) < Fns.size();)
      (void)oracle(*Fns[I]);
  };
  unsigned N = std::clamp(std::thread::hardware_concurrency(), 2u, 4u) - 1;
  std::vector<std::thread> Ts;
  for (unsigned I = 1; I < N; ++I)
    Ts.emplace_back(Work);
  Work();
  for (std::thread &T : Ts)
    T.join();
}

bool controlCall(ServiceClient &Cl, ServiceRequest::OpKind Op,
                 obs::JsonValue &Out) {
  ServiceRequest R;
  R.Op = Op;
  R.Id = "ctl";
  ServiceResponse Resp;
  std::string Err;
  return Cl.call(R, Resp).isOk() &&
         Resp.Status == ServiceResponse::StatusKind::Stats &&
         obs::parseJson(Resp.Text, Out, Err);
}

/// A server in a forked process, shut down (or killed) and reaped on
/// destruction. Fork before this process starts any thread.
class ChildServer {
public:
  explicit ChildServer(const std::string &EndpointIn) : Endpoint(EndpointIn) {
    std::fflush(nullptr);
    Pid = ::fork();
    if (Pid != 0)
      return;
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    // A crashing server must not leave a core file behind.
    struct rlimit NoCore = {0, 0};
    ::setrlimit(RLIMIT_CORE, &NoCore);
    ServiceConfig Cfg; // library defaults: no persistence, degradation on
    Cfg.Workers = Workers;
    Server Srv(Endpoint, Cfg);
    if (!Srv.start().isOk())
      std::_Exit(3);
    Srv.run();
    std::_Exit(0);
  }
  ~ChildServer() { stop(); }
  ChildServer(const ChildServer &) = delete;
  ChildServer &operator=(const ChildServer &) = delete;

  bool forked() const { return Pid > 0; }
  pid_t pid() const { return Pid; }

  /// True until the server process has ended.
  bool alive() {
    int St = 0;
    if (!Ended && ::waitpid(Pid, &St, WNOHANG) == Pid) {
      Ended = true;
      ExitStatus = St;
    }
    return !Ended;
  }

  /// Connects and waits for the first `health` ok; nullopt after 5 s or
  /// when the process ends.
  std::optional<ServiceClient> awaitHealthy() {
    for (int Try = 0; Try != 1000 && alive(); ++Try) {
      StatusOr<ServiceClient> Cl = ServiceClient::connect(Endpoint);
      obs::JsonValue H;
      const obs::JsonValue *St = nullptr;
      if (Cl.isOk() && controlCall(*Cl, ServiceRequest::OpKind::Health, H) &&
          (St = H.find("status")) && St->Str == "ok")
        return std::move(*Cl);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return std::nullopt;
  }

  /// How the process ended, for the record.
  std::string howEnded() {
    if (alive())
      return "still running";
    if (WIFSIGNALED(ExitStatus))
      return "killed by signal " + std::to_string(WTERMSIG(ExitStatus));
    return "exited with code " + std::to_string(WEXITSTATUS(ExitStatus));
  }

  /// Asks for a shutdown, waits up to 5 s, then kills; always reaps, and
  /// removes the socket file a crashed server leaves behind.
  void stop() {
    if (Pid <= 0)
      return;
    stopProcess();
    ::unlink(Endpoint.substr(Endpoint.find(':') + 1).c_str());
  }

private:
  void stopProcess() {
    if (!alive())
      return;
    if (StatusOr<ServiceClient> Cl = ServiceClient::connect(Endpoint);
        Cl.isOk()) {
      ServiceRequest R;
      R.Op = ServiceRequest::OpKind::Shutdown;
      R.Id = "bye";
      ServiceResponse Resp;
      (void)Cl->call(R, Resp);
    }
    for (int I = 0; I != 500 && alive(); ++I)
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    if (alive()) {
      ::kill(Pid, SIGKILL);
      ::waitpid(Pid, &ExitStatus, 0);
      Ended = true;
    }
  }

  std::string Endpoint;
  pid_t Pid = -1;
  bool Ended = false;
  int ExitStatus = 0;
};

double jsonNum(const obs::JsonValue &V,
               std::initializer_list<const char *> Path) {
  const obs::JsonValue *Cur = &V;
  for (const char *K : Path)
    if (!(Cur = Cur->find(K)))
      return 0;
  return Cur->isNumber() ? Cur->Num : 0;
}

/// The open-loop generator: sends events at their due times on one
/// pipelined connection while a reader thread collects replies.
class Generator {
public:
  Generator(ServiceClient &ClIn, std::vector<Event> &AllIn)
      : Cl(ClIn), All(AllIn), Epoch(ub::Clock::now()),
        Reader([this] { read(); }) {}
  ~Generator() {
    // A ping with a reserved id tells the reader the stream is done; a
    // reader that already saw the stream fail has returned.
    ServiceRequest R;
    R.Op = ServiceRequest::OpKind::Ping;
    R.Id = "done";
    if (!readerFailed())
      (void)Cl.send(R);
    Reader.join();
  }
  Generator(const Generator &) = delete;
  Generator &operator=(const Generator &) = delete;

  ub::Clock::time_point epoch() const { return Epoch; }

  /// Sends events [Lo, Hi) (due times relative to now) and waits for
  /// every reply. With \p Guard, stops sending once more than BacklogCap
  /// requests are in flight. Returns false when it stopped early.
  bool phase(size_t Lo, size_t Hi, bool Guard) {
    const double Start = ub::msSince(Epoch) + 20; // previous tail settles
    bool Held = true;
    for (size_t I = Lo; I != Hi && Held; ++I) {
      Event &E = All[I];
      E.DueMs += Start;
      std::this_thread::sleep_until(
          Epoch + std::chrono::microseconds(int64_t(E.DueMs * 1000)));
      ServiceRequest R;
      R.Id = "r" + std::to_string(I);
      R.Source = E.F->Source;
      R.Machine = E.F->Machine;
      {
        std::lock_guard<std::mutex> L(Mu);
        if ((Guard && Sent - Received > BacklogCap) || ReaderFailed) {
          Held = false;
          break;
        }
        E.SendMs = ub::msSince(Epoch);
        ++Sent;
      }
      Held = Cl.send(R).isOk();
    }
    std::unique_lock<std::mutex> L(Mu);
    Cv.wait(L, [&] { return Received == Sent || ReaderFailed; });
    return Held && !ReaderFailed;
  }

private:
  bool readerFailed() {
    std::lock_guard<std::mutex> L(Mu);
    return ReaderFailed;
  }

  void read() {
    for (;;) {
      ServiceResponse Resp;
      bool Closed = false;
      Status St = Cl.recv(Resp, Closed);
      double Now = ub::msSince(Epoch);
      std::lock_guard<std::mutex> L(Mu);
      if (!St.isOk() || Closed || Resp.Id == "done") {
        ReaderFailed |= !St.isOk() || Closed;
        Cv.notify_all();
        return;
      }
      size_t Idx = Resp.Id.size() > 1 && Resp.Id[0] == 'r'
                       ? std::strtoull(Resp.Id.c_str() + 1, nullptr, 10)
                       : All.size();
      if (Idx >= All.size())
        continue;
      Event &E = All[Idx];
      E.RecvMs = Now;
      E.QueueMs = Resp.QueueMs;
      E.CompileMs = Resp.CompileMs;
      E.Ok = Resp.Status == ServiceResponse::StatusKind::Ok;
      E.Match = E.Ok && Resp.Text == E.F->Expected;
      if (!E.Ok)
        E.Error = std::string(statusName(Resp.Status)) + ": " + Resp.Error;
      ++Received;
      Cv.notify_all();
    }
  }

  ServiceClient &Cl;
  std::vector<Event> &All;
  const ub::Clock::time_point Epoch;
  std::mutex Mu; ///< guards Sent, Received, ReaderFailed and reader writes
  std::condition_variable Cv;
  size_t Sent = 0, Received = 0;
  bool ReaderFailed = false;
  std::thread Reader; ///< last: starts after everything it reads
};

} // namespace

ub::Result ub::runServiceMix(const RunConfig &Cfg) {
  Result R;
  const std::string Endpoint =
      "unix:" + Cfg.OutDir + "/ub" + std::to_string(::getpid()) + ".sock";
  const double TotalMs = Cfg.Seconds * 1000.0;
  const size_t Steps = std::size(LadderRps);
  char Buf[240];

  // Enough single-use functions for every non-hot arrival the schedule
  // can draw (the hot-or-fresh draws stay well inside the 30% margin),
  // plus the probe's.
  double MeanRps = LowRps * (WarmShare + LowShare) + HighRps * HighShare;
  for (double Rps : LadderRps)
    MeanRps += Rps * LadderShare / double(Steps);
  const unsigned FreshCount =
      unsigned(MeanRps * Cfg.Seconds * (1 - HotShare) * 1.3) + 64 + ProbeFresh;

  // Set-up: corpus generation, server start and the first health ok,
  // SetupReps times; the last server serves the run. Every time this
  // workload reports is corrected for the host's speed (see SpeedRef).
  SpeedRef Ref;
  std::vector<double> SetupS;
  double SetupMs = 0;
  MixCorpus C;
  std::unique_ptr<ChildServer> Srv;
  std::optional<ServiceClient> Ctl;
  for (unsigned I = 0; I != SetupReps; ++I) {
    Ctl.reset();
    Srv.reset();
    Ref.keepUp(SetupMs);
    auto T0 = Clock::now();
    C = serviceMixCorpus(Cfg.Seed, HotCount, FreshCount, TwinPairs);
    Srv = std::make_unique<ChildServer>(Endpoint);
    if (Srv->forked())
      Ctl = Srv->awaitHealthy();
    if (!Ctl) {
      R.defect("server never reported health ok");
      return R;
    }
    SetupS.push_back(msSince(T0) / 1000.0);
    SetupMs += SetupS.back() * 1000.0;
  }
  const double SetupSlow = Ref.take();

  // Standalone compiles of every distinct function. The measured set (the
  // hot set and the first QualityFresh single-use functions, which every
  // seed requests before the ladder) compiles serially on this thread:
  // those times are the workload's compile_ms, free of queueing and of the
  // workers' contention; the rest compile once, in parallel.
  Arrivals A = makeArrivals(Cfg.Seed, C, TotalMs);
  std::vector<MixFn *> Measured, Rest;
  for (MixFn &F : C.Hot)
    Measured.push_back(&F);
  for (size_t I = 0; I != A.FreshUsed; ++I)
    (I < QualityFresh ? Measured : Rest).push_back(&C.Fresh[I]);
  for (MixFn &F : C.Twins)
    Rest.push_back(&F);
  auto OracleT0 = Clock::now();
  timedStandalone(Measured, Ref, oracle, [](MixFn &) {});
  computeOracles(Rest);
  std::snprintf(Buf, sizeof(Buf),
                "distinct functions: %zu; standalone compiles: %.2f s",
                Measured.size() + Rest.size(), msSince(OracleT0) / 1000.0);
  R.Notes.push_back(Buf);

  obs::JsonValue StatsBefore, StatsAfter;
  if (!controlCall(*Ctl, ServiceRequest::OpKind::Stats, StatsBefore))
    R.defect("stats verb failed");

  // The timed phases. One connection carries every compile, pipelined.
  StatusOr<ServiceClient> Conn = ServiceClient::connect(Endpoint);
  if (!Conn.isOk()) {
    R.defect("connect failed: " + Conn.status().message());
    return R;
  }
  double MaxRate = 0, PassedP99 = 0;
  size_t End = A.PreLadder;
  ub::Clock::time_point Epoch;
  // The host's speed before each segment and after the last, measured
  // while the server is idle. One measurement is too noisy to correct a
  // single segment by (adjacent ones, two seconds apart, differed by up
  // to 70%), so the timed phases are corrected by the median of them all.
  std::vector<double> Boundary;
  {
    Generator Gen(*Conn, A.All);
    Epoch = Gen.epoch();
    for (const Segment &S : A.Segs) {
      Boundary.push_back(Ref.take());
      if (S.Kind != Ladder) {
        Gen.phase(S.Lo, S.Hi, false);
        // The server's memory after a fixed amount of work: how far the
        // ladder gets varies, and each single-use function it reaches
        // adds a cache entry.
        R.ServerPeakRssMb = peakRssMb(Srv->pid());
        continue;
      }
      bool Held = Gen.phase(S.Lo, S.Hi, true);
      std::vector<double> Lat;
      for (size_t I = S.Lo; I != S.Hi; ++I)
        if (A.All[I].sent())
          Lat.push_back(A.All[I].latencyMs());
      double P99 = percentile(Lat, 99);
      std::snprintf(Buf, sizeof(Buf),
                    "ladder %5.0f rps: %zu sent, p99 %.1f ms%s", S.Rps,
                    Lat.size(), P99,
                    Held ? "" : " (stopped: backlog over the cap)");
      R.Notes.push_back(Buf);
      End = S.Hi;
      if (Held && P99 <= P99LimitMs) {
        MaxRate = S.Rps;
        PassedP99 = P99;
        continue;
      }
      // The first failing step: where p99 crossed the limit, interpolated
      // from the last passing step (a backlog stop gives no crossing).
      if (Held && MaxRate > 0 && std::isfinite(P99))
        MaxRate += (S.Rps - MaxRate) * (P99LimitMs - PassedP99) /
                   (P99 - PassedP99);
      break;
    }
    Boundary.push_back(Ref.take());
  }
  if (!controlCall(*Ctl, ServiceRequest::OpKind::Stats, StatsAfter))
    R.defect("stats verb failed");

  // Outcomes. Every event before the ladder counts, sent or not (a lost
  // connection stops the generator); ladder events after the failing
  // step were never meant to be sent.
  // Latencies and the workers' busy time are speed-corrected; the
  // service.* per-layer times are as measured.
  const double Slow = medianFactor(Boundary);
  std::vector<double> LowLat, HighLat, Late, Queue, Compile, Transport;
  std::vector<double> SliceP50;
  double BusyMs = 0;
  size_t HotSent = 0;
  for (const Segment &S : A.Segs) {
    std::vector<double> SliceLat;
    for (size_t I = S.Lo; I != S.Hi && I < End; ++I) {
      const Event &E = A.All[I];
      if (!E.sent() && S.Kind == Ladder)
        continue;
      ++R.Attempted;
      if (!E.Match) {
        ++R.Failed;
        R.OkFailed += S.Kind != Ladder;
        R.defect(E.F->Name +
                 (E.Ok           ? ": reply differs from the standalone compile"
                  : !E.sent()    ? ": not sent (connection lost)"
                  : E.RecvMs < 0 ? ": no reply"
                                 : ": " + E.Error));
      }
      if (S.Kind == Low || S.Kind == High) {
        SliceLat.push_back(E.latencyMs() / Slow);
        if (E.RecvMs >= 0) {
          Queue.push_back(E.QueueMs);
          Transport.push_back(E.RecvMs - E.SendMs - E.QueueMs - E.CompileMs);
        }
      }
      if (E.sent())
        Late.push_back(E.SendMs - E.DueMs);
      if (E.RecvMs >= 0) {
        Compile.push_back(E.CompileMs);
        BusyMs += E.CompileMs / Slow;
      }
      HotSent += S.Kind != Ladder && E.F >= C.Hot.data() &&
                 E.F < C.Hot.data() + C.Hot.size();
    }
    if (S.Kind == Low)
      SliceP50.push_back(median(SliceLat));
    std::vector<double> &Into = S.Kind == Low ? LowLat : HighLat;
    if (S.Kind == Low || S.Kind == High)
      Into.insert(Into.end(), SliceLat.begin(), SliceLat.end());
  }
  R.OkBase = A.PreLadder;

  // The twin probe: each pair int first, then float, one request at a
  // time, on the classed machine, which no other request uses. A twin
  // whose reply is wrong is sent again, alone, to a fresh server. When
  // that reply is right, the wrong one came from what the shared cache
  // held (the dependence-shape-only cache key of ROADMAP item 1): it is
  // reported as a known defect and counted in
  // service.history_dependent_replies, not as a failed operation: a
  // workload here is one on which no operation fails, so that `correct`
  // turns false only on a new fault. A twin that is wrong on a fresh
  // server too is a failed operation.
  auto Restart = [&] {
    Ctl.reset();
    Srv.reset(); // its socket file goes first, not the new server's
    Srv = std::make_unique<ChildServer>(Endpoint);
    if (Srv->forked())
      Ctl = Srv->awaitHealthy();
  };
  // The reply's fault, or "" when it matches the standalone compile.
  auto Ask = [&](const MixFn &F) -> std::string {
    if (!Srv->alive())
      Restart();
    if (!Ctl)
      return "server restart failed";
    ServiceRequest Req;
    Req.Id = F.Name;
    Req.Source = F.Source;
    Req.Machine = F.Machine;
    ServiceResponse Resp;
    Status St = Ctl->call(Req, Resp);
    if (St.isOk() && Resp.Status == ServiceResponse::StatusKind::Ok)
      return Resp.Text == F.Expected
                 ? ""
                 : "reply differs from the standalone compile";
    for (int I = 0; I != 100 && !St.isOk() && Srv->alive(); ++I)
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    if (!St.isOk())
      return "no reply (server " + Srv->howEnded() + ")";
    return std::string(statusName(Resp.Status)) + ": " + Resp.Error;
  };
  unsigned HistoryDependent = 0;
  for (const MixFn &F : C.Twins) {
    std::string Shared = Ask(F);
    if (Shared.empty()) {
      ++R.Attempted;
      continue;
    }
    Restart();
    std::string Fresh = Ask(F);
    if (Fresh.empty()) {
      ++HistoryDependent;
      R.Notes.push_back("KNOWN DEFECT (ROADMAP item 1): " + F.Name + ": " +
                        Shared + "; alone on a fresh server it matches");
      continue;
    }
    ++R.Attempted;
    ++R.Failed;
    R.defect(F.Name + ": " + Shared + "; on a fresh server: " + Fresh);
  }
  Ctl.reset();
  Srv.reset();
  std::snprintf(Buf, sizeof(Buf),
                "twin probe: %zu requests, %u history-dependent replies",
                C.Twins.size(), HistoryDependent);
  R.Notes.push_back(Buf);

  // The measured set's other standalone compiles, with the server gone.
  for (unsigned Rep = 1; Rep != StandaloneReps && !Cfg.Traced; ++Rep)
    timedStandalone(Measured, Ref, retime, [&](MixFn &F) {
      ++R.Failed;
      R.defect(F.Name + ": standalone compiles differ between repetitions");
    });
  if (!Cfg.Traced)
    R.Attempted += Measured.size() * (StandaloneReps - 1);

  // The p99s are per-layer metrics (no bound): on a shared host they moved
  // by more than 25% between identical runs.
  const double P99Low = percentile(LowLat, 99), P99High = percentile(HighLat, 99);
  auto Delta = [&](const char *Section, const char *Key) {
    return jsonNum(StatsAfter, {Section, Key}) -
           jsonNum(StatsBefore, {Section, Key});
  };
  const double Hits = Delta("counters", "ursa.driver.measure_cache.hits");
  const double Misses = Delta("counters", "ursa.driver.measure_cache.misses");
  const double HitShare = Hits + Misses > 0 ? Hits / (Hits + Misses) : 0.0;
  if (!Cfg.Traced) {
    // Compile time and code quality of the measured set, from the
    // standalone compiles the replies were checked against.
    uint64_t Cycles = 0, Spills = 0, Required = 0;
    std::vector<double> StandaloneMs;
    for (const MixFn *F : Measured) {
      Cycles += F->Cycles;
      Spills += F->SpillOps;
      Required += F->Required;
      StandaloneMs.push_back(median(F->CompileMs));
    }
    Tail T = tailOf(StandaloneMs);
    std::snprintf(Buf, sizeof(Buf),
                  "low %.0f rps: %zu requests, p99 %.2f ms; high %.0f rps: %zu "
                  "requests, p99 %.2f ms; p99 limit %.0f ms; compile_ms_tail "
                  "is p%g of %zu samples",
                  LowRps, LowLat.size(), P99Low, HighRps, HighLat.size(),
                  P99High, P99LimitMs, T.Pct, T.Samples);
    R.Notes.push_back(Buf);
    std::string Slice = "low-rate p50 per slice (ms):";
    for (double V : SliceP50) {
      std::snprintf(Buf, sizeof(Buf), " %.3f", V);
      Slice += Buf;
    }
    R.Notes.push_back(Slice);
    std::snprintf(Buf, sizeof(Buf),
                  "mix as produced: %.1f%% of pre-ladder requests from the hot "
                  "set; shared measurement-cache hit share %.3f",
                  100.0 * double(HotSent) / double(A.PreLadder), HitShare);
    R.Notes.push_back(Buf);
    std::snprintf(Buf, sizeof(Buf),
                  "host slower than nominal by x%.3f in the timed phases "
                  "(single measurements x%.3f-x%.3f), x%.3f in set-up; "
                  "measured max rate %.1f rps",
                  Slow, *std::min_element(Boundary.begin(), Boundary.end()),
                  *std::max_element(Boundary.begin(), Boundary.end()),
                  SetupSlow, MaxRate);
    R.Notes.push_back(Buf);
    R.metric("setup_s", median(SetupS) / SetupSlow, "s");
    // The workers' compile rate: completed compiles per second of busy
    // worker time, times the worker count.
    R.metric("throughput_fps",
             BusyMs > 0 ? double(Compile.size()) * Workers / (BusyMs / 1000)
                        : 0.0,
             "1/s");
    R.metric("compile_ms_p50", median(StandaloneMs), "ms");
    R.metric("compile_ms_tail", T.Value, "ms");
    R.metric("total_cycles", double(Cycles), "count");
    R.metric("spill_ops", double(Spills), "count");
    R.metric("resources_required", double(Required), "count");
    R.metric("latency_ms_p50.low", median(LowLat), "ms");
    // A host slower by a factor f serves a rate as a nominal one serves
    // f times that rate.
    R.metric("max_rate_rps", MaxRate * Slow, "1/s");
    return R;
  }
  R.metric("latency_ms_p99.low", P99Low, "ms");
  R.metric("latency_ms_p99.high", P99High, "ms");

  // Traced run: the request spans, the service's own counters, and the
  // layer probe over the hot set, the twins and some single-use functions.
  SpanLog Spans(Epoch);
  for (size_t I = 0; I != End; ++I) {
    const Event &E = A.All[I];
    if (!E.sent() || E.RecvMs < 0)
      continue;
    int Req = Spans.add("loadgen.request", I, -1, E.DueMs, E.RecvMs);
    Spans.spans()[size_t(Req)].QueueMs = E.QueueMs;
    Spans.spans()[size_t(Req)].CompileMs = E.CompileMs;
    Spans.add("loadgen.late", I, Req, E.DueMs, E.SendMs);
  }
  R.metric("service.queue_ms_p50", median(Queue), "ms");
  R.metric("service.queue_ms_p99", percentile(Queue, 99), "ms");
  R.metric("service.compile_ms_p50", median(Compile), "ms");
  R.metric("service.compile_ms_p99", percentile(Compile, 99), "ms");
  R.metric("service.transport_ms_p50", median(Transport), "ms");
  R.metric("service.transport_ms_p99", percentile(Transport, 99), "ms");
  R.metric("service.cache_hit_share", HitShare, "share");
  double Received = Delta("requests", "received");
  R.metric("service.shed_share",
           Received > 0 ? Delta("requests", "shed") / Received : 0.0, "share");
  R.metric("service.queue_depth_peak",
           jsonNum(StatsAfter, {"queue", "depth_peak"}), "count");
  double TierMax = 0;
  if (const obs::JsonValue *D = StatsAfter.find("degradation"))
    if (const obs::JsonValue *E = D->find("tier_entries"))
      for (size_t T = 0; T != E->Arr.size(); ++T)
        if (E->Arr[T].Num > 0)
          TierMax = double(T);
  R.metric("service.degrade_tier_max", TierMax, "count");
  R.metric("service.history_dependent_replies", HistoryDependent, "count");
  R.metric("loadgen.late_ms_p99", percentile(Late, 99), "ms");
  double Evals = Delta("counters", "ursa.driver.incremental.delta_evals");
  double Fallbacks = Delta("counters", "ursa.driver.incremental.fallbacks");
  R.metric("ursa.incremental.fallback_share",
           Evals + Fallbacks > 0 ? Fallbacks / (Evals + Fallbacks) : 0.0,
           "share");
  R.metric("ursa.measure_cache.hit_share", HitShare, "share");

  // Layer probe, once untraced (the overhead reference) and once traced.
  std::vector<MixFn *> Probe;
  for (MixFn &F : C.Hot)
    Probe.push_back(&F);
  for (MixFn &F : C.Twins)
    Probe.push_back(&F);
  for (size_t I = A.FreshUsed;
       I < C.Fresh.size() && I < A.FreshUsed + ProbeFresh; ++I) {
    (void)oracle(C.Fresh[I]);
    Probe.push_back(&C.Fresh[I]);
  }
  double UntracedMs = 0;
  for (MixFn *F : Probe) {
    auto T0 = Clock::now();
    StatusOr<Trace> T = parseTraceStatus(F->Source, F->Name);
    if (T.isOk())
      (void)compileURSA(*T, F->Machine.build(), pinnedOptions());
    UntracedMs += msSince(T0);
  }
  const size_t FirstProbeSpan = Spans.spans().size();
  LayerCounts Sum;
  for (size_t I = 0; I != Probe.size(); ++I) {
    const MixFn &F = *Probe[I];
    LayerCounts L = tracedCompile(Spans, End + I, F.Name, F.Source,
                                  F.Machine.build(), pinnedOptions());
    Sum.add(L);
    ++R.Attempted;
    if (!L.Ok || L.Cycles != F.Cycles || L.SpillOps != F.SpillOps) {
      ++R.Failed;
      R.defect(F.Name + ": traced pipeline differs from compileURSA");
    }
  }
  double TracedMs = 0;
  for (size_t I = FirstProbeSpan; I != Spans.spans().size(); ++I)
    if (Spans.spans()[I].Name == "compile")
      TracedMs += (Spans.spans()[I].EndUs - Spans.spans()[I].StartUs) / 1000.0;
  reportLayers(R, Spans, Sum, 1.0, UntracedMs, TracedMs);
  std::string Path = Cfg.OutDir + "/spans_" + Cfg.Workload + "_" +
                     std::to_string(Cfg.Seed) + ".json";
  if (!Spans.write(Path, Cfg))
    R.defect("could not write " + Path);
  else
    R.Notes.push_back("spans: " + Path);
  return R;
}
