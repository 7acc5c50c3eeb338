//===- ursabench/src/Common.cpp - Statistics, spans and pinning -----------===//
//
// Part of the URSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "obs/Json.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

extern char **environ;

using namespace ursa;

//===--- Environment --------------------------------------------------------===//

static std::vector<std::pair<std::string, std::string>> &pinnedStore() {
  static std::vector<std::pair<std::string, std::string>> Store;
  return Store;
}

const std::vector<std::pair<std::string, std::string>> &ub::pinnedEnv() {
  return pinnedStore();
}

void ub::pinEnvironment() {
  // Every knob that changes behaviour or cost, fixed to the library's
  // defaults. Whatever the caller's environment holds is dropped first.
  static const std::pair<const char *, const char *> Pins[] = {
      {"URSA_THREADS", "1"},        {"URSA_BEAM", "1"},
      {"URSA_INCREMENTAL", "1"},    {"URSA_VERIFY", "off"},
      {"URSA_CLOSURE", "auto"},     {"URSA_CLOSURE_THRESHOLD", "4096"},
      {"URSA_CACHE_SIZE", "4"},     {"URSA_STATS", "1"},
  };
  std::vector<std::string> Drop;
  for (char **E = environ; *E; ++E)
    if (!std::strncmp(*E, "URSA_", 5))
      Drop.emplace_back(*E, std::strcspn(*E, "="));
  for (const std::string &Name : Drop)
    ::unsetenv(Name.c_str());
  for (const auto &[Name, Value] : Pins) {
    ::setenv(Name, Value, 1);
    pinnedStore().emplace_back(Name, Value);
  }
  // URSA_TRACE, URSA_FLIGHT_DUMP and every URSA_SERVICE_* stay unset: the
  // service config is built explicitly in the service workload.
}

URSAOptions ub::pinnedOptions(unsigned MaxTotalRounds) {
  URSAOptions O;
  O.Threads = 1;
  O.BeamWidth = 1;
  O.IncrementalMeasure = true;
  O.MeasurementCacheSize = 4;
  O.Verify = VerifyLevel::None;
  if (MaxTotalRounds)
    O.MaxTotalRounds = MaxTotalRounds;
  return O;
}

//===--- Order statistics -------------------------------------------------===//

double ub::percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = size_t(std::ceil(P / 100.0 * double(V.size())));
  return V[std::min(V.size() - 1, Rank ? Rank - 1 : 0)];
}

double ub::median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

ub::Tail ub::tailOf(std::vector<double> V) {
  Tail T;
  T.Samples = V.size();
  if (V.empty())
    return T;
  std::sort(V.begin(), V.end());
  if (V.size() < 20) {
    T.Value = V.back();
    return T;
  }
  // The sample with exactly ten beyond it.
  T.Value = V[V.size() - 11];
  T.Pct = 100.0 * double(V.size() - 10) / double(V.size());
  return T;
}

double ub::peakRssMb(int Pid) {
  std::string Path =
      "/proc/" + (Pid ? std::to_string(Pid) : std::string("self")) + "/status";
  std::ifstream In(Path);
  for (std::string Line; std::getline(In, Line);)
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0; // kB
  return 0;
}

//===--- Host speed -------------------------------------------------------===//

namespace {

/// Where the reference's results go, so the closures are not optimised away.
volatile uint64_t ReferenceSink;

/// \p Reps bitset transitive closures of a fixed N-node DAG (each node has
/// six successors among the next 64); returns their time in ms.
template <unsigned N> double closureMs(unsigned Reps) {
  constexpr unsigned W = (N + 63) / 64, Succs = 6;
  static const std::vector<unsigned> Succ = [] {
    std::vector<unsigned> S;
    uint64_t X = 12345;
    for (unsigned I = 0; I != N; ++I)
      for (unsigned K = 0; K != Succs; ++K) {
        X = X * 6364136223846793005ULL + 1442695040888963407ULL;
        S.push_back(I + 1 + unsigned((X >> 33) % 64));
      }
    return S;
  }();
  static std::vector<uint64_t> Rows(W * N);
  auto T0 = ub::Clock::now();
  for (unsigned R = 0; R != Reps; ++R) {
    std::fill(Rows.begin(), Rows.end(), 0);
    for (unsigned I = N; I-- != 0;) {
      uint64_t *Ri = &Rows[size_t(I) * W];
      for (unsigned K = 0; K != Succs; ++K) {
        unsigned J = Succ[I * Succs + K];
        if (J >= N)
          continue;
        Ri[J / 64] |= uint64_t(1) << (J % 64);
        const uint64_t *Rj = &Rows[size_t(J) * W];
        for (unsigned Wd = 0; Wd != W; ++Wd)
          Ri[Wd] |= Rj[Wd];
      }
    }
    ReferenceSink = Rows[W * 7];
  }
  return ub::msSince(T0);
}

} // namespace

void ub::SpeedRef::sample(bool Count) {
  double Small = closureMs<1536>(6), Large = closureMs<6000>(1);
  if (Count) {
    SmallMs.push_back(Small);
    LargeMs.push_back(Large);
    SampledMs += Small + Large;
  }
}

void ub::SpeedRef::keepUp(double WorkMs, double Share) {
  // The first run after other work finds the reference's data evicted; it
  // is run but not counted, so every sample is a warm one and the factor
  // does not depend on how the samples fall between compiles.
  if (SampledMs < Share * WorkMs)
    sample(false);
  while (SampledMs < Share * WorkMs)
    sample(true);
}

double ub::SpeedRef::take() {
  if (SmallMs.size() < 5)
    sample(false);
  while (SmallMs.size() < 5)
    sample(true);
  double F = std::sqrt(median(SmallMs) / NominalSmallMs *
                       (median(LargeMs) / NominalLargeMs));
  SmallMs.clear();
  LargeMs.clear();
  SampledMs = 0;
  Factors.push_back(F);
  return F;
}

double ub::medianFactor(const std::vector<double> &Factors) {
  return Factors.empty() ? 1.0 : median(Factors);
}

//===--- Spans --------------------------------------------------------------===//

double ub::SpanLog::usNow() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - Epoch)
      .count();
}

int ub::SpanLog::open(const char *Name, uint64_t Fn, int Parent) {
  Span S;
  S.Name = Name;
  S.Fn = Fn;
  S.Parent = Parent;
  S.StartUs = usNow();
  Spans.push_back(std::move(S));
  return int(Spans.size()) - 1;
}

void ub::SpanLog::close(int Id) { Spans[size_t(Id)].EndUs = usNow(); }

int ub::SpanLog::add(const char *Name, uint64_t Fn, int Parent,
                     double StartMs, double EndMs) {
  Span S;
  S.Name = Name;
  S.Fn = Fn;
  S.Parent = Parent;
  S.StartUs = StartMs * 1000.0;
  S.EndUs = EndMs * 1000.0;
  Spans.push_back(std::move(S));
  return int(Spans.size()) - 1;
}

std::map<std::string, ub::SpanLog::Totals> ub::SpanLog::totals() const {
  std::vector<double> ChildUs(Spans.size(), 0.0);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      ChildUs[size_t(S.Parent)] += S.EndUs - S.StartUs;
  std::map<std::string, Totals> Out;
  for (size_t I = 0; I != Spans.size(); ++I) {
    Totals &T = Out[Spans[I].Name];
    double Dur = Spans[I].EndUs - Spans[I].StartUs;
    T.TotalMs += Dur / 1000.0;
    T.SelfMs += (Dur - ChildUs[I]) / 1000.0;
    ++T.Count;
  }
  return Out;
}

bool ub::SpanLog::write(const std::string &Path, const RunConfig &C) const {
  obs::JsonWriter W;
  W.beginObject();
  W.kv("schema", "ursabench.spans.v1");
  W.kv("workload", C.Workload);
  W.kv("seed", C.Seed);
  W.key("pinned_env").beginObject();
  for (const auto &[K, V] : pinnedEnv())
    W.kv(K, V);
  W.endObject();
  W.key("spans").beginArray();
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    W.beginObject();
    W.kv("id", uint64_t(I));
    W.kv("name", S.Name);
    W.kv("start_us", S.StartUs);
    W.kv("end_us", S.EndUs);
    W.kv("parent", int64_t(S.Parent));
    W.kv("fn", S.Fn);
    if (S.QueueMs >= 0) {
      W.kv("queue_ms", S.QueueMs);
      W.kv("compile_ms", S.CompileMs);
    }
    W.endObject();
  }
  W.endArray();
  W.endObject();
  FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  const std::string &Doc = W.str();
  bool Ok = std::fwrite(Doc.data(), 1, Doc.size(), F) == Doc.size();
  return std::fclose(F) == 0 && Ok;
}

//===--- Metric sets -------------------------------------------------------===//

namespace {

/// Every per-layer metric, in BENCHMARK.json order, with its unit.
const std::pair<const char *, const char *> LayerMetrics[] = {
    {"ir.parse_ms", "ms"},
    {"ir.verify_ms", "ms"},
    {"graph.build_dag_ms", "ms"},
    {"graph.analysis_ms", "ms"},
    {"graph.closure_bytes", "bytes"},
    {"graph.hammocks_ms", "ms"},
    {"ursa.kills_ms", "ms"},
    {"ursa.reuse_ms", "ms"},
    {"order.decompose_ms", "ms"},
    {"ursa.measure_ms", "ms"},
    {"ursa.excess_sets_ms", "ms"},
    {"ursa.driver_ms", "ms"},
    {"ursa.reduce_ms", "ms"},
    {"ursa.driver.rounds", "count"},
    {"ursa.driver.proposals_tried", "count"},
    {"ursa.driver.ms_per_proposal", "ms"},
    {"ursa.driver.win_ratio", "ratio"},
    {"ursa.incremental.fallback_share", "share"},
    {"ursa.measure_cache.hit_share", "share"},
    {"sched.list_schedule_ms", "ms"},
    {"sched.reg_assign_ms", "ms"},
    {"sched.emit_ms", "ms"},
    {"sched.finish_ms", "ms"},
    {"sched.assign_spill_rounds", "count"},
    {"service.queue_ms_p50", "ms"},
    {"service.queue_ms_p99", "ms"},
    {"service.compile_ms_p50", "ms"},
    {"service.compile_ms_p99", "ms"},
    {"service.transport_ms_p50", "ms"},
    {"service.transport_ms_p99", "ms"},
    {"service.cache_hit_share", "share"},
    {"service.shed_share", "share"},
    {"service.queue_depth_peak", "count"},
    {"service.degrade_tier_max", "count"},
    {"service.history_dependent_replies", "count"},
    {"latency_ms_p99.low", "ms"},
    {"latency_ms_p99.high", "ms"},
    {"loadgen.late_ms_p99", "ms"},
    {"unattributed_share", "share"},
    {"trace.overhead_share", "share"},
};

/// Span name behind each timed per-layer metric.
const std::pair<const char *, const char *> SpanMetrics[] = {
    {"ir.parse", "ir.parse_ms"},
    {"ir.verify", "ir.verify_ms"},
    {"graph.build_dag", "graph.build_dag_ms"},
    {"graph.analysis", "graph.analysis_ms"},
    {"graph.hammocks", "graph.hammocks_ms"},
    {"ursa.kills", "ursa.kills_ms"},
    {"ursa.reuse", "ursa.reuse_ms"},
    {"order.decompose", "order.decompose_ms"},
    {"ursa.measure", "ursa.measure_ms"},
    {"ursa.excess_sets", "ursa.excess_sets_ms"},
    {"ursa.driver", "ursa.driver_ms"},
    {"sched.list_schedule", "sched.list_schedule_ms"},
    {"sched.reg_assign", "sched.reg_assign_ms"},
    {"sched.emit", "sched.emit_ms"},
    {"sched.finish", "sched.finish_ms"},
};

} // namespace

void ub::reportLayers(Result &R, const SpanLog &S, const LayerCounts &Sum,
                      double Units, double UntracedCompileMs,
                      double TracedCompileMs) {
  std::map<std::string, SpanLog::Totals> T = S.totals();
  auto PerUnit = [&](const char *Span) {
    auto It = T.find(Span);
    return It == T.end() ? 0.0 : It->second.TotalMs / Units;
  };
  for (const auto &[Span, Metric] : SpanMetrics)
    R.metric(Metric, PerUnit(Span), "ms");
  R.metric("graph.closure_bytes", Sum.ClosureBytesMax, "bytes");

  // The driver's first measurement is what the probe times outside it
  // (closure, hammocks, measureAll); the rest estimates the reduction loop.
  double FirstMeasure = PerUnit("graph.analysis") + PerUnit("graph.hammocks") +
                        PerUnit("ursa.measure");
  R.metric("ursa.reduce_ms", PerUnit("ursa.driver") - FirstMeasure, "ms");
  R.metric("ursa.driver.rounds", double(Sum.Rounds) / Units, "count");
  R.metric("ursa.driver.proposals_tried", double(Sum.Proposals) / Units,
           "count");
  R.metric("ursa.driver.ms_per_proposal",
           Sum.Proposals ? Sum.RoundMs / double(Sum.Proposals) : 0.0, "ms");
  R.metric("ursa.driver.win_ratio",
           Sum.Proposals ? double(Sum.Rounds) / double(Sum.Proposals) : 0.0,
           "ratio");
  R.metric("sched.assign_spill_rounds", double(Sum.AssignSpillRounds) / Units,
           "count");

  // Unattributed: compile-span time not covered by its timed children.
  auto Compile = T.find("compile");
  if (Compile != T.end() && Compile->second.TotalMs > 0)
    R.metric("unattributed_share",
             Compile->second.SelfMs / Compile->second.TotalMs, "share");
  R.metric("trace.overhead_share",
           UntracedCompileMs > 0 ? TracedCompileMs / UntracedCompileMs - 1
                                 : 0.0,
           "share");

  // Human-readable attribution table of the compile and probe spans, by
  // total time per unit.
  std::vector<std::pair<double, std::string>> Rows;
  for (const auto &[Name, Tot] : T)
    if (Name.rfind("loadgen.", 0) != 0)
      Rows.push_back({Tot.TotalMs, Name});
  std::sort(Rows.rbegin(), Rows.rend());
  double CompileMs = Compile == T.end() ? 0 : Compile->second.TotalMs;
  char Buf[160];
  R.Notes.push_back("span                      total_ms/unit  self_ms/unit  "
                    "share_of_compile");
  for (const auto &[Ms, Name] : Rows) {
    const SpanLog::Totals &Tot = T[Name];
    std::snprintf(Buf, sizeof(Buf), "  %-24s %12.2f %13.2f %10.1f%%",
                  Name.c_str(), Tot.TotalMs / Units, Tot.SelfMs / Units,
                  CompileMs > 0 ? 100.0 * Tot.TotalMs / CompileMs : 0.0);
    R.Notes.push_back(Buf);
  }
}

void ub::fillMissingLayers(Result &R) {
  for (const auto &[Name, Unit] : LayerMetrics) {
    bool Have = false;
    for (const auto &M : R.Metrics)
      Have |= M.first == Name;
    if (!Have)
      R.metric(Name, 0.0, Unit);
  }
  // Keep BENCHMARK.json's order.
  std::vector<std::pair<std::string, std::pair<double, std::string>>> Sorted;
  for (const auto &[Name, Unit] : LayerMetrics)
    for (const auto &M : R.Metrics)
      if (M.first == Name)
        Sorted.push_back(M);
  R.Metrics = std::move(Sorted);
}

void ub::closedLoopLatency(Result &R, const std::vector<double> &CompileMs,
                           double Fps) {
  R.metric("latency_ms_p50.low", median(CompileMs), "ms");
  R.metric("max_rate_rps", Fps, "1/s");
}
