//===- ursabench/src/Batch.cpp - tight_small and large_fit ----------------===//
//
// Part of the URSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The batch workloads compile a seeded corpus serially in-process, parse
// to emit, in a closed loop on one thread, pass after pass until the run's
// time is spent. Every compile is checked twice: its program is simulated
// against the interpreter on the corpus's seeded inputs, and its quality
// (cycles, spill ops, required resources, driver rounds and proposals)
// must equal the first pass's for the same function — the allocator is
// deterministic, so any difference is a defect, not noise.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "ir/Parser.h"
#include "obs/Stats.h"
#include "ursa/Compiler.h"
#include "vliw/Simulator.h"

#include <cstdio>

using namespace ursa;

namespace {

struct Quality {
  uint64_t Cycles = 0, SpillOps = 0, Required = 0, Rounds = 0, Proposals = 0;
  bool operator==(const Quality &O) const {
    return Cycles == O.Cycles && SpillOps == O.SpillOps &&
           Required == O.Required && Rounds == O.Rounds &&
           Proposals == O.Proposals;
  }
};

struct Corpus {
  std::vector<ub::BatchFn> Fns;
  std::vector<MachineModel> Models;
  std::vector<URSAOptions> Opts;
};

/// Compiles every function once, untraced, with the host-speed reference
/// interleaved; appends each function's speed-corrected compile time to its
/// entry of \p PerFn, marks the functions that failed in \p FnFailed and
/// returns the pass's summed compile time as measured.
double untracedPass(const Corpus &C, std::vector<Quality> &First,
                    std::vector<std::vector<double>> &PerFn,
                    std::vector<bool> &FnFailed, ub::SpeedRef &Ref,
                    ub::Result &R) {
  const bool Record = First.empty();
  double PassMs = 0;
  std::vector<std::pair<size_t, double>> Timed;
  for (size_t I = 0; I != C.Fns.size(); ++I) {
    const ub::BatchFn &F = C.Fns[I];
    ++R.Attempted;
    Ref.keepUp(PassMs);
    auto T0 = ub::Clock::now();
    StatusOr<Trace> T = parseTraceStatus(F.Source, F.Name);
    if (!T.isOk()) {
      ++R.Failed;
      FnFailed[I] = true;
      R.defect(F.Name + ": parse failed: " + T.status().message());
      if (Record)
        First.push_back({});
      continue;
    }
    URSACompileResult CR = compileURSA(*T, C.Models[I], C.Opts[I]);
    double Ms = ub::msSince(T0);
    Timed.push_back({I, Ms});
    PassMs += Ms;

    Quality Q;
    Q.Cycles = CR.Compile.Cycles;
    Q.SpillOps = CR.Compile.SpillOps;
    for (unsigned V : CR.FinalRequired)
      Q.Required += V;
    Q.Rounds = CR.AllocRounds;
    for (const RoundRecord &RR : CR.AllocRoundLog)
      Q.Proposals += RR.ProposalsTried;
    if (Record)
      First.push_back(Q);

    bool Bad = false;
    if (!CR.Compile.Ok) {
      Bad = true;
      R.defect(F.Name + ": compile failed: " + CR.Compile.Error);
    } else {
      SimResult Sim = simulate(*CR.Compile.Prog, F.Inputs);
      if (!Sim.Ok || !(Sim.Exec == F.Expected)) {
        Bad = true;
        R.defect(F.Name + ": simulated output differs from interpret()");
      }
    }
    if (!Record && !(Q == First[I])) {
      Bad = true;
      R.defect(F.Name + ": quality or driver counts differ between passes");
    }
    R.Failed += Bad;
    if (Bad)
      FnFailed[I] = true;
  }
  const double Slow = Ref.take();
  for (const auto &[I, Ms] : Timed)
    PerFn[I].push_back(Ms / Slow);
  return PassMs;
}

/// Keeps starting passes while another one of the mean length still ends
/// within \p BudgetMs; at least \p MinPasses.
template <typename PassFn>
std::vector<double> passesFor(double BudgetMs, unsigned MinPasses, PassFn P) {
  std::vector<double> WallMs;
  auto Start = ub::Clock::now();
  while (WallMs.size() < MinPasses ||
         ub::msSince(Start) + ub::median(WallMs) <= BudgetMs) {
    auto T0 = ub::Clock::now();
    P();
    WallMs.push_back(ub::msSince(T0));
  }
  return WallMs;
}

uint64_t counter(const std::vector<obs::StatValue> &Snap, const char *Name) {
  for (const obs::StatValue &V : Snap)
    if (V.Name == Name)
      return V.Value;
  return 0;
}

} // namespace

ub::Result ub::runBatch(const RunConfig &Cfg,
                        std::vector<BatchFn> (*Gen)(uint64_t)) {
  Result R;
  // Set-up is corpus generation (sources plus interpreter oracles),
  // repeated for about a second (at least 25 times) so its median is
  // steady, and corrected for the host's speed like every timed metric.
  Corpus C;
  SpeedRef Ref;
  std::vector<double> SetupS;
  double SetupMs = 0;
  while (SetupS.size() < 25 || SetupMs < 1000) {
    Ref.keepUp(SetupMs);
    auto T0 = Clock::now();
    C.Fns = Gen(Cfg.Seed);
    SetupS.push_back(msSince(T0) / 1000.0);
    SetupMs += SetupS.back() * 1000.0;
  }
  const double SetupSlow = Ref.take();
  for (const BatchFn &F : C.Fns) {
    C.Models.push_back(F.Machine.build());
    C.Opts.push_back(pinnedOptions(F.MaxTotalRounds));
  }
  R.Notes.push_back("corpus: " + std::to_string(C.Fns.size()) + " functions");

  std::vector<Quality> First;
  std::vector<std::vector<double>> PerFn(C.Fns.size());
  std::vector<bool> FnFailed(C.Fns.size(), false);
  const double BudgetMs = Cfg.Seconds * 1000.0;

  if (!Cfg.Traced) {
    unsigned Passes = 0;
    passesFor(BudgetMs, 3, [&] {
      untracedPass(C, First, PerFn, FnFailed, Ref, R);
      ++Passes;
    });
    // One sample per function: the median of its speed-corrected compile
    // times over the run's passes. One sample per function keeps the
    // percentiles from shifting with the number of passes that fit.
    std::vector<double> FnMs;
    double TotalMs = 0;
    for (const std::vector<double> &V : PerFn)
      if (!V.empty()) {
        FnMs.push_back(median(V));
        TotalMs += FnMs.back();
      }
    R.OkBase = C.Fns.size();
    R.OkFailed = uint64_t(std::count(FnFailed.begin(), FnFailed.end(), true));
    Quality Sum;
    for (const Quality &Q : First) {
      Sum.Cycles += Q.Cycles;
      Sum.SpillOps += Q.SpillOps;
      Sum.Required += Q.Required;
    }
    // A pass at each function's median compile: functions per second.
    double Fps = TotalMs > 0 ? double(FnMs.size()) / (TotalMs / 1000) : 0;
    Tail T = tailOf(FnMs);
    char Buf[320];
    std::snprintf(Buf, sizeof(Buf),
                  "passes: %u; host slower than nominal by x%.3f (set-up "
                  "x%.3f); compile_ms_tail is p%.1f of %zu per-function "
                  "medians; latency_ms_p50.low and max_rate_rps repeat "
                  "compile_ms_p50 and throughput_fps (closed loop)",
                  Passes, medianFactor(Ref.factors()), SetupSlow, T.Pct,
                  T.Samples);
    R.Notes.push_back(Buf);
    R.metric("setup_s", median(SetupS) / SetupSlow, "s");
    R.metric("throughput_fps", Fps, "1/s");
    R.metric("compile_ms_p50", median(FnMs), "ms");
    R.metric("compile_ms_tail", T.Value, "ms");
    R.metric("total_cycles", double(Sum.Cycles), "count");
    R.metric("spill_ops", double(Sum.SpillOps), "count");
    R.metric("resources_required", double(Sum.Required), "count");
    closedLoopLatency(R, FnMs, Fps);
    return R;
  }

  // Traced run: untraced passes for the overhead reference, then traced
  // passes, each half of the time.
  std::vector<double> UntracedPassMs;
  passesFor(BudgetMs / 2, 1, [&] {
    UntracedPassMs.push_back(untracedPass(C, First, PerFn, FnFailed, Ref, R));
  });

  SpanLog S(Clock::now());
  LayerCounts Sum;
  unsigned TracedPasses = 0;
  const std::vector<obs::StatValue> Before = obs::snapshotStats();
  passesFor(BudgetMs / 2, 1, [&] {
    for (size_t I = 0; I != C.Fns.size(); ++I) {
      const BatchFn &F = C.Fns[I];
      ++R.Attempted;
      LayerCounts L = tracedCompile(S, TracedPasses * C.Fns.size() + I, F.Name,
                                    F.Source, C.Models[I], C.Opts[I]);
      Sum.add(L);
      const Quality &Q = First[I];
      if (!L.Ok || L.Cycles != Q.Cycles || L.SpillOps != Q.SpillOps ||
          L.Required != Q.Required || L.Rounds != Q.Rounds ||
          L.Proposals != Q.Proposals) {
        ++R.Failed;
        R.defect(F.Name + ": traced pipeline differs from compileURSA");
      }
    }
    ++TracedPasses;
  });
  const std::vector<obs::StatValue> After = obs::snapshotStats();
  auto Delta = [&](const char *Name) {
    return double(counter(After, Name) - counter(Before, Name));
  };

  double TracedCompileMs = 0;
  for (const SpanLog::Span &Sp : S.spans())
    if (Sp.Name == "compile")
      TracedCompileMs += (Sp.EndUs - Sp.StartUs) / 1000.0;
  reportLayers(R, S, Sum, double(TracedPasses), median(UntracedPassMs),
               TracedCompileMs / TracedPasses);
  double Evals = Delta("ursa.driver.incremental.delta_evals");
  double Fallbacks = Delta("ursa.driver.incremental.fallbacks");
  double Hits = Delta("ursa.driver.measure_cache.hits");
  double Misses = Delta("ursa.driver.measure_cache.misses");
  R.metric("ursa.incremental.fallback_share",
           Evals + Fallbacks > 0 ? Fallbacks / (Evals + Fallbacks) : 0.0,
           "share");
  R.metric("ursa.measure_cache.hit_share",
           Hits + Misses > 0 ? Hits / (Hits + Misses) : 0.0, "share");
  std::string Path = Cfg.OutDir + "/spans_" + Cfg.Workload + "_" +
                     std::to_string(Cfg.Seed) + ".json";
  if (!S.write(Path, Cfg))
    R.defect("could not write " + Path);
  else
    R.Notes.push_back("spans: " + Path);
  return R;
}

ub::Result ub::runTightSmall(const RunConfig &C) {
  return runBatch(C, tightSmallCorpus);
}

ub::Result ub::runLargeFit(const RunConfig &C) {
  return runBatch(C, largeFitCorpus);
}
