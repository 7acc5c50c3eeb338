//===- ursabench/src/main.cpp - Benchmark entry point ---------------------===//
//
// Part of the URSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// ursa_perfbench --workload tight_small|large_fit|service_mix --seed N
//                --seconds S --trace 0|1 [--out-dir DIR]
//
// Runs one workload in this process and prints, last, one JSON line:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// (and writes the run's spans to DIR). Every metric a workload does not
// exercise is still printed, as 0 for a bypassed layer; see README.md.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

namespace {

int usage(const char *Why) {
  std::fprintf(stderr,
               "ursa_perfbench: %s\nusage: ursa_perfbench --workload "
               "tight_small|large_fit|service_mix --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR]\n",
               Why);
  return 2;
}

/// JSON number; a non-finite value (a failed request at a percentile)
/// has no JSON form and is written as a huge finite one.
std::string num(double V) {
  if (!std::isfinite(V))
    V = V > 0 ? 1e300 : -1e300;
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

std::string quoted(const std::string &S) {
  std::string Out = "\"";
  for (char Ch : S) {
    if (Ch == '"' || Ch == '\\')
      Out += '\\';
    Out += Ch;
  }
  return Out + "\"";
}

} // namespace

int main(int argc, char **argv) {
  ub::pinEnvironment();

  ub::RunConfig C;
  bool HaveWorkload = false;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    if (I + 1 >= argc)
      return usage(("missing value for " + A).c_str());
    const char *V = argv[++I];
    if (A == "--workload") {
      C.Workload = V;
      HaveWorkload = true;
    } else if (A == "--seed") {
      C.Seed = std::strtoull(V, nullptr, 10);
    } else if (A == "--seconds") {
      C.Seconds = std::atof(V);
    } else if (A == "--trace") {
      C.Traced = std::strcmp(V, "0") != 0;
    } else if (A == "--out-dir") {
      C.OutDir = V;
    } else {
      return usage(("unknown flag " + A).c_str());
    }
  }
  if (!HaveWorkload || !(C.Seconds > 0))
    return usage("--workload and a positive --seconds are required");

  ub::Result R;
  if (C.Workload == "tight_small")
    R = ub::runTightSmall(C);
  else if (C.Workload == "large_fit")
    R = ub::runLargeFit(C);
  else if (C.Workload == "service_mix")
    R = ub::runServiceMix(C);
  else
    return usage(("unknown workload " + C.Workload).c_str());

  if (C.Traced)
    ub::fillMissingLayers(R);
  else
    R.metric("ok_share",
             R.OkBase ? 1.0 - double(R.OkFailed) / double(R.OkBase) : 0.0,
             "share");
  if (!C.Traced)
    R.metric("peak_rss_mb", std::max(ub::peakRssMb(), R.ServerPeakRssMb),
             "MB");

  std::printf("workload %s, seed %llu, %g s, trace %d\n", C.Workload.c_str(),
              (unsigned long long)C.Seed, C.Seconds, int(C.Traced));
  std::printf("pinned:");
  for (const auto &[K, V] : ub::pinnedEnv())
    std::printf(" %s=%s", K.c_str(), V.c_str());
  std::printf("\n");
  for (const std::string &N : R.Notes)
    std::printf("%s\n", N.c_str());
  for (const std::string &D : R.Defects)
    std::printf("DEFECT: %s\n", D.c_str());
  std::printf("attempted %llu, failed %llu (failed_share %.6f); ok_share "
              "base %llu, failed %llu\n",
              (unsigned long long)R.Attempted, (unsigned long long)R.Failed,
              R.Attempted ? double(R.Failed) / double(R.Attempted) : 0.0,
              (unsigned long long)R.OkBase, (unsigned long long)R.OkFailed);
  for (const auto &[Name, VU] : R.Metrics)
    std::printf("  %-34s %16.6g %s\n", Name.c_str(), VU.first,
                VU.second.c_str());

  const bool Correct = R.Defects.empty() && R.Failed == 0 && R.Attempted > 0;
  std::string J = "{\"correct\": ";
  J += Correct ? "true" : "false";
  J += ", \"attempted\": " + std::to_string(R.Attempted);
  J += ", \"failed\": " + std::to_string(R.Failed);
  J += ", \"metrics\": {";
  for (size_t I = 0; I != R.Metrics.size(); ++I) {
    const auto &[Name, VU] = R.Metrics[I];
    J += (I ? ", " : "") + quoted(Name) + ": {\"value\": " + num(VU.first) +
         ", \"unit\": " + quoted(VU.second) + "}";
  }
  J += "}}";
  std::printf("%s\n", J.c_str());
  std::fflush(stdout);
  return R.Attempted > 0 ? 0 : 1;
}
