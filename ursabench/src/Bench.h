//===- ursabench/src/Bench.h - Shared benchmark machinery -------*- C++ -*-===//
//
// Part of the URSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Declarations shared by the three workloads of the URSA benchmark:
/// the seeded corpora, the result record every workload fills, order
/// statistics, and the benchmark-side span log of the traced run.
///
/// Every layer is timed from outside, around calls into the library's
/// public functions; nothing here reaches into the library's internals.
///
//===----------------------------------------------------------------------===//

#ifndef URSABENCH_BENCH_H
#define URSABENCH_BENCH_H

#include "ir/Interpreter.h"
#include "service/Protocol.h"
#include "ursa/Driver.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

namespace ub {

using Clock = std::chrono::steady_clock;

inline double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}
inline double msSince(Clock::time_point A) { return msBetween(A, Clock::now()); }

/// Command-line settings of one run.
struct RunConfig {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Traced = false;
  std::string OutDir = "."; ///< where the traced run writes its spans
};

/// One function of a batch corpus, with its oracle: the interpreter's
/// result on seeded inputs, computed when the corpus is generated.
struct BatchFn {
  std::string Name;
  std::string Source;
  ursa::service::MachineSpec Machine;
  unsigned MaxTotalRounds = 0; ///< 0 = the driver's default
  ursa::MemoryState Inputs;
  ursa::ExecResult Expected;
};

/// tight_small: kernelSuite() plus seeded small draws on tight machines.
std::vector<BatchFn> tightSmallCorpus(uint64_t Seed);
/// large_fit: a handful of big traces on machines they fit or nearly fit.
std::vector<BatchFn> largeFitCorpus(uint64_t Seed);

/// One service_mix request source: its text, machine, and the standalone
/// private-cache compile of it (filled at set-up).
struct MixFn {
  std::string Name;
  std::string Source;
  ursa::service::MachineSpec Machine;
  std::string Expected; ///< formatCompileText of a private-cache compile
  uint64_t Cycles = 0, SpillOps = 0, Required = 0; ///< of that compile
  /// Each standalone compile's time, parse to emit, speed-corrected.
  std::vector<double> CompileMs;
};

/// The service_mix corpus: \p Hot Zipf-repeated functions, \p Fresh
/// single-use functions, and \p TwinPairs int/float twin pairs.
struct MixCorpus {
  std::vector<MixFn> Hot;
  std::vector<MixFn> Fresh;
  std::vector<MixFn> Twins; ///< pairs: [2i] int, [2i+1] float
};
MixCorpus serviceMixCorpus(uint64_t Seed, unsigned Hot, unsigned Fresh,
                           unsigned TwinPairs);

/// The driver options every benchmark compile uses: the library defaults
/// with each environment-dependent knob fixed, so an ambient variable
/// cannot change what is measured.
ursa::URSAOptions pinnedOptions(unsigned MaxTotalRounds = 0);

/// Clears every URSA_* variable of the process and sets the pinned ones.
/// Call first thing in main, before any library code reads them.
void pinEnvironment();
/// The pinned variables, for the record.
const std::vector<std::pair<std::string, std::string>> &pinnedEnv();

//===--- Order statistics -------------------------------------------------===//

/// Nearest-rank percentile \p P (0..100) of \p V; 0 when empty.
double percentile(std::vector<double> V, double P);
double median(std::vector<double> V);

/// The tail the benchmark reports: the highest percentile that still has
/// at least ten samples beyond it, i.e. the eleventh-largest sample. With
/// fewer than 20 samples the maximum is reported instead (Pct 100).
struct Tail {
  double Pct = 100;
  double Value = 0;
  size_t Samples = 0;
};
Tail tailOf(std::vector<double> V);

/// Peak resident set size (VmHWM) of process \p Pid, or of this process
/// when \p Pid is 0, in MiB; 0 when it cannot be read. getrusage() is no
/// substitute: its maximum survives exec, so it would report the Python
/// launcher's footprint when that is the larger.
double peakRssMb(int Pid = 0);

//===--- Host speed -------------------------------------------------------===//

/// The host-speed reference every timed metric is corrected by.
///
/// On a shared host, other tenants slow every core at once, by up to 2x
/// for tens of seconds at a time and with no steal time; thread CPU time
/// slows just as much as wall time. The same corpus pass of tight_small
/// then took about 45% longer in one run than in another minutes later.
/// So each stretch of timed work is interleaved, on the same thread, with
/// a fixed reference that is benchmark code only: bitset transitive
/// closures, the shape of the closure work the compiler itself does, of a
/// fixed DAG whose matrix fits in a core's cache (1,536 nodes, 290 KB)
/// and of one that does not (6,000 nodes, 4.5 MB). Contention slows the
/// two by different amounts, and a compile by an amount in between: over
/// the passes of tight_small and large_fit compared, the compile's
/// slowdown was within 5% of the geometric mean of the two references'
/// slowdowns, while the large one alone was off by up to 14% and the
/// small one alone by up to 20%. The factor is therefore that geometric
/// mean over its nominal value, and a timed value is reported as the
/// measured value divided by the factor: the time the work takes when the
/// host runs the references in their nominal times. A change to the
/// library cannot move them.
class SpeedRef {
public:
  /// The references' times on the 4-core x86-64 host this benchmark was
  /// introduced on, rounded, when that host was quiet.
  static constexpr double NominalSmallMs = 0.5, NominalLargeMs = 1.0;

  /// Samples the references until their counted samples since the last
  /// take() have cost \p Share of \p WorkMs, the timed work done since
  /// then.
  void keepUp(double WorkMs, double Share = 0.03);
  /// How much slower than nominal the host ran since the last take()
  /// (from the median samples; at least 5, taken now if missing), and
  /// starts a new stretch.
  double take();
  /// Every take()'s factor so far, for the record.
  const std::vector<double> &factors() const { return Factors; }

private:
  /// Runs both references once; records their times when \p Count.
  void sample(bool Count);
  std::vector<double> SmallMs, LargeMs;
  double SampledMs = 0;
  std::vector<double> Factors;
};

/// The median of \p Factors, or 1 when empty.
double medianFactor(const std::vector<double> &Factors);

//===--- Results ------------------------------------------------------------===//

/// What a workload reports: the end-to-end or per-layer metrics (by the
/// names BENCHMARK.json lists), the operation counts, and any defect the
/// oracle or the determinism check found.
struct Result {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// ok_share is 1 - OkFailed / OkBase over a set of operations fixed
  /// before the run starts (the corpus's functions; service_mix's
  /// scheduled pre-ladder requests), so that one more failed
  /// operation always moves it by at least 1 / OkBase.
  uint64_t OkBase = 0;
  uint64_t OkFailed = 0;
  /// service_mix: the forked server's peak RSS before the ladder, in MiB;
  /// peak_rss_mb is the larger of it and this process's.
  double ServerPeakRssMb = 0;
  std::vector<std::string> Defects; ///< printed; any entry makes correct false
  std::vector<std::pair<std::string, std::pair<double, std::string>>> Metrics;
  std::vector<std::string> Notes; ///< human-readable lines printed first

  void metric(const std::string &Name, double Value, const std::string &Unit) {
    Metrics.push_back({Name, {Value, Unit}});
  }
  void defect(std::string D) {
    if (Defects.size() < 20)
      Defects.push_back(std::move(D));
  }
};

//===--- Traced run -------------------------------------------------------===//

/// Benchmark-side spans, kept in memory and written once at exit.
class SpanLog {
public:
  struct Span {
    std::string Name;
    double StartUs = 0, EndUs = 0;
    int Parent = -1;
    uint64_t Fn = 0; ///< per-function (or per-request) id
    double QueueMs = -1, CompileMs = -1; ///< service replies only
  };

  explicit SpanLog(Clock::time_point EpochIn) : Epoch(EpochIn) {}

  int open(const char *Name, uint64_t Fn, int Parent);
  void close(int Id);
  /// Records an already-finished interval, in ms since the epoch.
  int add(const char *Name, uint64_t Fn, int Parent, double StartMs,
          double EndMs);

  /// Times \p F as span \p Name under \p Parent and returns its value.
  template <typename F>
  auto time(const char *Name, uint64_t Fn, int Parent, F &&Body) {
    int Id = open(Name, Fn, Parent);
    if constexpr (std::is_void_v<decltype(Body())>) {
      Body();
      close(Id);
    } else {
      auto V = Body();
      close(Id);
      return V;
    }
  }

  std::vector<Span> &spans() { return Spans; }
  const std::vector<Span> &spans() const { return Spans; }

  /// Per span name: total duration and total self time (duration minus
  /// the part covered by child spans), in ms.
  struct Totals {
    double TotalMs = 0, SelfMs = 0;
    uint64_t Count = 0;
  };
  std::map<std::string, Totals> totals() const;

  /// Writes ursabench.spans.v1 JSON; returns false on I/O failure.
  bool write(const std::string &Path, const RunConfig &C) const;

private:
  double usNow() const;
  Clock::time_point Epoch;
  std::vector<Span> Spans;
};

//===--- Workloads ----------------------------------------------------------===//

Result runTightSmall(const RunConfig &C);
Result runLargeFit(const RunConfig &C);
Result runServiceMix(const RunConfig &C);

/// Shared by both batch workloads: \p Corpus is regenerated by \p Gen for
/// the set-up timing.
Result runBatch(const RunConfig &C, std::vector<BatchFn> (*Gen)(uint64_t));

/// The traced per-function pipeline both batch workloads and the
/// service_mix probe use: times parse, DAG build, the driver and the
/// pipeline tail under a "compile" span, then the inner layers (verify,
/// closure, hammocks, kills, reuse, decomposition, measurement, excessive
/// sets, scheduling, assignment, emission) under a "probe" span.
struct LayerCounts {
  uint64_t Rounds = 0, Proposals = 0, AssignSpillRounds = 0;
  double RoundMs = 0;            ///< sum of RoundRecord::DurationMs
  double ClosureBytesMax = 0;
  // Quality, for the traced-vs-untraced identity check.
  uint64_t Cycles = 0, SpillOps = 0, Required = 0;
  bool Ok = false;

  /// Accumulates the layer counts of \p O (not its quality).
  void add(const LayerCounts &O) {
    Rounds += O.Rounds;
    Proposals += O.Proposals;
    AssignSpillRounds += O.AssignSpillRounds;
    RoundMs += O.RoundMs;
    ClosureBytesMax = std::max(ClosureBytesMax, O.ClosureBytesMax);
  }
};
LayerCounts tracedCompile(SpanLog &S, uint64_t Fn, const std::string &Name,
                          const std::string &Source,
                          const ursa::MachineModel &M,
                          const ursa::URSAOptions &O);

/// Per-layer metrics from the traced spans and counts; \p Units is how
/// many corpus passes (or probe sweeps) the spans cover.
void reportLayers(Result &R, const SpanLog &S, const LayerCounts &Sum,
                  double Units, double UntracedCompileMs,
                  double TracedCompileMs);

/// Emits every per-layer metric a workload did not produce as 0, so each
/// workload reports the full per-layer set (a layer it bypasses did no
/// work).
void fillMissingLayers(Result &R);

/// Emits latency_ms_p50.low and max_rate_rps for a closed-loop batch
/// workload, where a function's latency is its compile time and the
/// capacity is the completed rate.
void closedLoopLatency(Result &R, const std::vector<double> &CompileMs,
                       double Fps);

} // namespace ub

#endif // URSABENCH_BENCH_H
