// kbench: runs one benchmark workload and prints its report as a
// "KBENCH_RESULT {...}" JSON line (run.py turns it into metrics).
//
//   kbench <workload> <seed> <seconds> <trace 0|1>
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "bench.h"

int main(int argc, char** argv) {
  if (argc != 5) {
    std::fprintf(stderr, "usage: %s <workload> <seed> <seconds> <trace 0|1>\n",
                 argv[0]);
    return 2;
  }
  kbench::RunArgs args;
  args.workload = argv[1];
  args.seed = std::strtoull(argv[2], nullptr, 10);
  args.seconds = std::atof(argv[3]);
  args.trace = std::atoi(argv[4]) != 0;
  // The workloads are sized for four cores; never use more than the host has.
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  args.threads = std::clamp(hw, 1, 4);
  if (args.workload == "offline-plan") return kbench::RunOfflinePlan(args);
  if (args.workload == "diurnal-control") return kbench::RunDiurnalControl(args);
  if (args.workload == "telemetry-fleet") return kbench::RunTelemetryFleet(args);
  std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
  return 2;
}
