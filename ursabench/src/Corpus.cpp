//===- ursabench/src/Corpus.cpp - Seeded workload inputs ------------------===//
//
// Part of the URSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Every input the program sees is generated here from the run's seed.
// Composition (shapes, size strata, machines) is fixed; the seed draws
// the structure inside each stratum, so two seeds load the same layers
// in the same proportions and differ only in the particular functions.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "support/RNG.h"
#include "workload/Generators.h"
#include "workload/Kernels.h"

#include <cmath>

using namespace ursa;
using ursa::service::MachineSpec;

namespace {

MachineSpec homogeneous(unsigned Fus, unsigned Regs) {
  MachineSpec S;
  S.Fus = Fus;
  S.Regs = Regs;
  return S;
}

/// The classed 2/1/1 machine with 8 GPRs and 4 FPRs.
MachineSpec classed() {
  MachineSpec S;
  S.Classed = true;
  S.IntFus = 2, S.FltFus = 1, S.MemFus = 1, S.Gprs = 8, S.Fprs = 4;
  return S;
}

/// Text form plus the interpreter's answer on seeded inputs.
ub::BatchFn withOracle(std::string Name, const Trace &T, MachineSpec M,
                       RNG &Rng, unsigned MaxTotalRounds = 0) {
  ub::BatchFn F;
  F.Name = std::move(Name);
  F.Source = T.str();
  F.Machine = M;
  F.MaxTotalRounds = MaxTotalRounds;
  F.Inputs = randomInputs(T, Rng);
  F.Expected = interpret(T, F.Inputs);
  return F;
}

/// Size \p K of \p N spread over [Lo, Hi] on a log scale (compile cost
/// grows steeply with size, so a log spread keeps the many small
/// functions the workload is named for).
unsigned sizeStep(unsigned K, unsigned N, unsigned Lo, unsigned Hi) {
  double U = double(K) / double(N - 1);
  return unsigned(std::lround(double(Lo) * std::pow(double(Hi) / Lo, U)));
}

/// B blocks of about W parallel chains of about L ops, each block joined
/// by a comb; block boundaries are separators. The seed picks the ops and
/// jitters the chain lengths by one.
Trace blockTrace(RNG &Rng, unsigned Blocks, unsigned Width, unsigned Len) {
  static const Opcode Ops[] = {Opcode::Add, Opcode::Xor, Opcode::Sub};
  Trace T("block");
  int Join = T.emitLoad("seed");
  for (unsigned B = 0; B != Blocks; ++B) {
    std::vector<int> Tails;
    for (unsigned W = 0; W != Width; ++W) {
      int V = Join;
      unsigned L = Len - 1 + unsigned(Rng.below(3));
      for (unsigned I = 0; I != L; ++I)
        V = T.emitOp(Ops[Rng.below(3)], V, Join);
      Tails.push_back(V);
    }
    int J = Tails[0];
    for (unsigned W = 1; W != Width; ++W)
      J = T.emitOp(Opcode::Xor, J, Tails[W]);
    Join = J;
  }
  T.emitStore("out", Join);
  return T;
}

Trace layeredTrace(RNG &Rng, unsigned Instrs) {
  GenOptions G;
  G.Shape = GenOptions::ShapeKind::Layered;
  G.NumInstrs = Instrs;
  G.NumInputs = 16;
  G.NumOutputs = 8;
  G.Window = 32;
  G.Seed = Rng.next();
  return generateTrace(G);
}

} // namespace

std::vector<ub::BatchFn> ub::tightSmallCorpus(uint64_t Seed) {
  RNG Rng(Seed * 0x9E3779B97F4A7C15ULL + 11);
  const MachineSpec Machines[] = {homogeneous(2, 6), homogeneous(4, 8),
                                  classed()};
  std::vector<BatchFn> Out;
  for (const auto &[Name, T] : kernelSuite())
    for (const MachineSpec &M : Machines)
      Out.push_back(withOracle(Name + "@" + M.key(), T, M, Rng));

  // Seeded draws: every shape on every machine at fixed sizes spread over
  // 24..96 generator ops (about 30..120 trace instructions), with fixed
  // shape parameters, float share, branches and memory ops; the seed
  // draws each function's structure.
  // Fixing everything but the structure keeps the corpus's cost the same
  // from seed to seed (the shape parameters alone swing a function's
  // driver rounds several-fold).
  constexpr unsigned PerCell = 16;
  static const double FloatLevels[] = {0.0, 0.3, 0.6};
  for (unsigned Shape = 0; Shape != 3; ++Shape)
    for (const MachineSpec &M : Machines)
      for (unsigned K = 0; K != PerCell; ++K) {
        GenOptions G;
        G.Shape = GenOptions::ShapeKind(Shape);
        G.NumInstrs = sizeStep(K, PerCell, 24, 96);
        G.NumInputs = 3 + K % 6;
        G.NumOutputs = 1 + K % 3;
        G.Window = 4 + (K * 5) % 12;
        G.FloatFraction = FloatLevels[K % 3];
        G.BranchProb = K % 2 ? 0.05 : 0.0;
        G.MemOpProb = K % 4 >= 2 ? 0.1 : 0.0;
        G.Seed = Rng.next();
        Trace T = generateTrace(G);
        Out.push_back(withOracle("gen" + std::to_string(Out.size()) + "@" +
                                     M.key(),
                                 T, M, Rng));
      }
  return Out;
}

std::vector<ub::BatchFn> ub::largeFitCorpus(uint64_t Seed) {
  RNG Rng(Seed * 0xD1B54A32D192ED03ULL + 29);
  std::vector<BatchFn> Out;
  // Separator-rich block traces that fit a 32x64 machine: the closure,
  // reuse relations and chain decomposition at 10k and 20k nodes.
  Out.push_back(withOracle("block10k_fit", blockTrace(Rng, 10, 32, 31),
                           homogeneous(32, 64), Rng));
  Out.push_back(withOracle("block20k_fit", blockTrace(Rng, 20, 32, 31),
                           homogeneous(32, 64), Rng));
  // Separator-poor layered traces on both sides of the 4096-node closure
  // threshold (dense below, blocked above). The 6k trace gets 24 registers:
  // with 20, seed 35 of the 80 tried did not fit, and its reduction rounds
  // took 1.7 s and peaked at 269 MB where the others fit in about 40 ms
  // and 13 MB, a seed-driven cliff in throughput and peak memory.
  Out.push_back(withOracle("layered3k_dense", layeredTrace(Rng, 3000),
                           homogeneous(16, 20), Rng));
  Out.push_back(withOracle("layered6k_blocked", layeredTrace(Rng, 6000),
                           homogeneous(16, 24), Rng));
  // A 10k block trace on 16 FUs, driver capped at one round: the cost of
  // proposal scoring (delta closures) at scale.
  Out.push_back(withOracle("block10k_capped", blockTrace(Rng, 10, 32, 31),
                           homogeneous(16, 64), Rng, /*MaxTotalRounds=*/1));
  // Four register-short layered traces, capped at one round, so the
  // assignment phase spills at scale (four, so the spill count is steady
  // from seed to seed).
  for (const char *Name : {"layered2k_spill_a", "layered2k_spill_b",
                           "layered2k_spill_c", "layered2k_spill_d"})
    Out.push_back(withOracle(Name, layeredTrace(Rng, 2000), homogeneous(16, 4),
                             Rng, /*MaxTotalRounds=*/1));
  return Out;
}

namespace {

/// An expression kernel over add/sub/mul emitted once per element type:
/// the int and float instantiations have identical dependence shape.
std::pair<Trace, Trace> twinPair(RNG &Rng, unsigned Ops) {
  Trace I("twin_int"), F("twin_flt");
  std::vector<int> VI, VF;
  unsigned Inputs = 4 + unsigned(Rng.below(4));
  for (unsigned K = 0; K != Inputs; ++K) {
    std::string Var = "x" + std::to_string(K);
    VI.push_back(I.emitLoad(Var, Domain::Int));
    VF.push_back(F.emitLoad(Var, Domain::Float));
  }
  static const Opcode IntOps[] = {Opcode::Add, Opcode::Sub, Opcode::Mul};
  static const Opcode FltOps[] = {Opcode::FAdd, Opcode::FSub, Opcode::FMul};
  for (unsigned K = 0; K != Ops; ++K) {
    unsigned Op = unsigned(Rng.below(3));
    // Locality-biased operands, like the layered generator.
    size_t N = VI.size(), W = std::min<size_t>(N, 6);
    size_t A = N - 1 - Rng.below(W), B = N - 1 - Rng.below(W);
    VI.push_back(I.emitOp(IntOps[Op], VI[A], VI[B]));
    VF.push_back(F.emitOp(FltOps[Op], VF[A], VF[B]));
  }
  // Fold every value that no later op consumed, so nothing is dead.
  std::vector<unsigned> Uses(VI.size(), 0);
  for (unsigned K = 0; K != I.size(); ++K)
    for (unsigned O = 0; O != I.instr(K).numOperands(); ++O)
      ++Uses[size_t(I.instr(K).operand(O))];
  int AccI = VI.back(), AccF = VF.back();
  for (size_t K = 0; K + 1 < VI.size(); ++K)
    if (!Uses[size_t(VI[K])]) {
      AccI = I.emitOp(Opcode::Add, AccI, VI[K]);
      AccF = F.emitOp(Opcode::FAdd, AccF, VF[K]);
    }
  I.emitStore("out", AccI);
  F.emitStore("out", AccF);
  return {std::move(I), std::move(F)};
}

ub::MixFn mixFn(std::string Name, const Trace &T, MachineSpec M) {
  ub::MixFn F;
  F.Name = std::move(Name);
  F.Source = T.str();
  F.Machine = M;
  return F;
}

/// Service function \p K: measure-heavy wide traces on an ample machine,
/// or transform-heavy small ones on a tight machine, alternating. Sizes
/// and shape parameters follow K; the seed draws only the structure, so
/// the mix costs the same from seed to seed.
ub::MixFn serviceFn(RNG &Rng, unsigned K, const std::string &Tag) {
  GenOptions G;
  G.Seed = Rng.next();
  G.NumInputs = 4 + K % 8;
  G.NumOutputs = 2 + K % 3;
  if (K % 2 == 0) {
    G.Shape = GenOptions::ShapeKind::Layered;
    G.NumInstrs = 150 + (K * 61) % 150;
    G.Window = 16 + (K * 7) % 16;
    return mixFn(Tag + "measure" + std::to_string(K), generateTrace(G),
                 homogeneous(16, 64));
  }
  G.Shape = K % 4 == 1 ? GenOptions::ShapeKind::Layered
                       : GenOptions::ShapeKind::Expression;
  G.NumInstrs = 12 + (K * 5) % 6;
  G.Window = 4 + K % 8;
  G.FloatFraction = K % 3 == 0 ? 0.3 : 0.0;
  // The layered ones get five registers, so many of them spill.
  return mixFn(Tag + "transform" + std::to_string(K), generateTrace(G),
               homogeneous(2, K % 4 == 1 ? 5 : 6));
}

} // namespace

ub::MixCorpus ub::serviceMixCorpus(uint64_t Seed, unsigned Hot,
                                   unsigned Fresh, unsigned TwinPairs) {
  RNG Rng(Seed * 0xA0761D6478BD642FULL + 47);
  MixCorpus C;
  for (unsigned K = 0; K != Hot; ++K)
    C.Hot.push_back(serviceFn(Rng, K, "hot_"));
  for (unsigned K = 0; K != Fresh; ++K)
    C.Fresh.push_back(serviceFn(Rng, K, "fresh_"));
  for (unsigned K = 0; K != TwinPairs; ++K) {
    auto [I, F] = twinPair(Rng, 10 + unsigned(Rng.below(10)));
    C.Twins.push_back(mixFn("twin_int" + std::to_string(K), I, classed()));
    C.Twins.push_back(mixFn("twin_flt" + std::to_string(K), F, classed()));
  }
  return C;
}
