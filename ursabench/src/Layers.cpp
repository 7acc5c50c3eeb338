//===- ursabench/src/Layers.cpp - The traced per-function pipeline --------===//
//
// Part of the URSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// compileURSA with Verify off is parse -> buildDAG -> runURSA ->
// finishAndEmit; the "compile" span replays exactly those public calls,
// so its children attribute compile time and its output must equal the
// untraced compile's. The inner layers (closure, hammocks, kills, reuse,
// decomposition, measurement, excessive sets, scheduling, assignment,
// emission) are not reachable from outside runURSA/finishAndEmit, so a
// separate "probe" span calls each of them once on the same function:
// the probe of the input DAG reproduces the driver's first measurement,
// and the probe of the final DAG reproduces one scheduling attempt.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "graph/Analysis.h"
#include "graph/DAGBuilder.h"
#include "graph/Hammocks.h"
#include "ir/Parser.h"
#include "ir/Verifier.h"
#include "order/Chains.h"
#include "sched/ListScheduler.h"
#include "sched/Pipelines.h"
#include "sched/RegAssign.h"
#include "ursa/KillSelection.h"
#include "ursa/Measure.h"
#include "ursa/ReuseDAG.h"

#include <memory>

using namespace ursa;

ub::LayerCounts ub::tracedCompile(SpanLog &S, uint64_t Fn,
                                  const std::string &Name,
                                  const std::string &Source,
                                  const MachineModel &M,
                                  const URSAOptions &O) {
  LayerCounts C;
  int Root = S.open("compile", Fn, -1);
  StatusOr<Trace> T = S.time("ir.parse", Fn, Root,
                             [&] { return parseTraceStatus(Source, Name); });
  if (!T.isOk()) {
    S.close(Root);
    return C;
  }
  DependenceDAG D =
      S.time("graph.build_dag", Fn, Root, [&] { return buildDAG(*T); });
  URSAResult A = S.time("ursa.driver", Fn, Root,
                        [&] { return runURSA(std::move(D), M, O); });
  DependenceDAG Final = A.DAG; // kept for the scheduling probe
  CompileResult CR = S.time("sched.finish", Fn, Root,
                            [&] { return finishAndEmit(std::move(A.DAG), M); });
  S.close(Root);

  C.Ok = CR.Ok;
  C.Rounds = A.Rounds;
  for (const RoundRecord &RR : A.RoundLog) {
    C.Proposals += RR.ProposalsTried;
    C.RoundMs += RR.DurationMs;
  }
  C.AssignSpillRounds = CR.AssignSpillRounds;
  C.Cycles = CR.Cycles;
  C.SpillOps = CR.SpillOps;
  for (unsigned R : A.FinalRequired)
    C.Required += R;

  int Probe = S.open("probe", Fn, -1);
  S.time("ir.verify", Fn, Probe, [&] { return verifyTrace(*T); });
  DependenceDAG D0 = buildDAG(*T);
  auto An = S.time("graph.analysis", Fn, Probe,
                   [&] { return std::make_unique<DAGAnalysis>(D0); });
  C.ClosureBytesMax = double(An->closureMemoryBytes());
  auto HF = S.time("graph.hammocks", Fn, Probe,
                   [&] { return std::make_unique<HammockForest>(D0, *An); });
  KillMap Kills =
      S.time("ursa.kills", Fn, Probe, [&] { return selectKillsGreedy(D0, *An); });
  const auto Resources = machineResources(M);
  for (const auto &[Res, Limit] : Resources) {
    (void)Limit;
    ReuseRelation RR = S.time("ursa.reuse", Fn, Probe, [&] {
      if (Res.Kind == ResourceId::FU)
        return Res.AllClasses ? buildFUReuse(D0, *An)
                              : buildFUReuseForClass(D0, *An, Res.FUClass);
      return Res.AllClasses ? buildRegReuse(D0, *An, Kills)
                            : buildRegReuseForClass(D0, *An, Kills, Res.RC);
    });
    // The engine measureResource picks: row-direct for lazy relations,
    // hammock-prioritized otherwise.
    S.time("order.decompose", Fn, Probe, [&] {
      return RR.Rel.isLazy()
                 ? decomposeChainsRows(RR.Rel, RR.Active)
                 : decomposeChainsPrioritized(RR.Rel, RR.Active, *HF);
    });
  }
  std::vector<Measurement> Ms = S.time(
      "ursa.measure", Fn, Probe, [&] { return measureAll(D0, *An, *HF, M); });
  S.time("ursa.excess_sets", Fn, Probe, [&] {
    for (size_t I = 0; I != Ms.size(); ++I)
      if (Ms[I].MaxRequired > Resources[I].second)
        (void)findExcessiveSets(Ms[I], *An, *HF, Resources[I].second);
  });
  Schedule Sched = S.time("sched.list_schedule", Fn, Probe,
                          [&] { return listSchedule(Final, M); });
  RegAssignment RA = S.time("sched.reg_assign", Fn, Probe,
                            [&] { return assignRegisters(Final, Sched, M); });
  if (RA.Ok)
    S.time("sched.emit", Fn, Probe,
           [&] { return emitSchedule(Final, Sched, RA, M); });
  S.close(Probe);
  return C;
}
