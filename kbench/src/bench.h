// Shared pieces of the kbench workloads: the run report, wall-clock
// timing, the plan/decision correctness checks, and the per-layer replays
// (DIRECT with a benchmark-owned objective, evaluator unit costs) that the
// traced runs time from outside the library.
#ifndef KBENCH_BENCH_H_
#define KBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <ctime>
#include <map>
#include <string>
#include <vector>

#include "core/problem.h"

namespace kbench {

/// Command-line arguments of one workload run.
struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Threads the host offers a workload's parallel replays (min(nproc, 4)).
  int threads = 1;
};

/// Seconds since an arbitrary epoch on the monotonic clock.
inline double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Readings of the wall clock and of this process's CPU clock. End-to-end
/// times are taken on the CPU clock: the measured loops are single-threaded,
/// so a request's CPU time is its wall time less the time the host did not
/// run the process (a shared host steals 8-17% of it). Traced per-layer
/// times are wall times.
struct Stamp {
  double wall = 0;
  double cpu = 0;
  static Stamp Take() {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return {Now(), static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec)};
  }
  Stamp operator-(const Stamp& o) const { return {wall - o.wall, cpu - o.cpu}; }
  Stamp& operator+=(const Stamp& o) {
    wall += o.wall;
    cpu += o.cpu;
    return *this;
  }
};

/// Order-sensitive FNV-1a digest, used to compare plans, transcripts and
/// decisions between repeats and thread counts.
class Digest {
 public:
  void Add(uint64_t v);
  void Add(double v);
  void Add(const std::vector<int>& v);
  void Add(const std::string& s);
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ULL;
};

/// Counts checked outputs and failed ones; keeps the first failure texts.
class Checker {
 public:
  /// Records one checked output. An empty `why` means it passed.
  void Record(const std::string& why);
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::vector<std::string> failures_;
};

/// Why `plan` is not a valid, feasible placement of `problem` on servers
/// [0, cap) whose objective is `objective`; empty when it is. Checks one
/// entry per slot, every index inside the cap, pins, replica and
/// anti-affinity separation, a finite objective that matches a fresh
/// Evaluator::Evaluate re-price, and feasibility.
std::string CheckPlan(const kairos::core::ConsolidationProblem& problem,
                      const std::vector<int>& plan, int cap, double objective);

/// What one workload run reports. run.py turns it into metrics.
struct Report {
  /// CPU time of each set-up.
  std::vector<double> setup_s;
  /// CPU time of each request the workload defines.
  std::vector<double> request_s;
  /// Work completed and the CPU time it took (throughput = work / time).
  double work = 0;
  double work_seconds = 0;
  /// Deterministic quality figure of the outputs (see README).
  double result_cost = 0;
  /// Named figures printed for the reader only (see run.py INFO_UNITS).
  std::map<std::string, double> info;
  /// Per-layer metrics of a traced run.
  std::map<std::string, double> layers;
};

/// Prints `report` and the checker's counts as one JSON line prefixed by
/// "KBENCH_RESULT ".
void PrintReport(const RunArgs& args, const Report& report,
                 const Checker& checker, double peak_rss_mb);

/// Peak resident set size of this process, in MB.
double PeakRssMb();

/// Timings of one DIRECT replay.
struct DirectSplit {
  double minimize_s = 0;
  double objective_s = 0;
  int64_t evaluations = 0;
};

/// Runs opt::DirectOptimizer::Minimize over the slot -> server encoding of
/// `problem` at `k` servers (restricted to `targets` when non-empty, pins
/// honoured), with an objective owned here that decodes the point and calls
/// Evaluator::Evaluate, and times the objective calls.
DirectSplit ReplayDirect(const kairos::core::ConsolidationProblem& problem,
                         int k, const std::vector<int>& targets, int budget,
                         double epsilon);

/// Evaluator unit costs on one loaded plan.
struct EvalCosts {
  double evaluate_s = 0;
  int64_t evaluates = 0;
  double move_delta_s = 0;
  int64_t move_deltas = 0;
  double batch_s = 0;
  int64_t batch_targets = 0;
};

/// Times Evaluate of `plan`, then seeded MoveDelta and MoveDeltaBatch calls
/// on the loaded plan, and adds them to `costs`.
void ReplayEvaluator(const kairos::core::ConsolidationProblem& problem, int k,
                     const std::vector<int>& plan, uint64_t seed,
                     EvalCosts* costs);

/// Adds the evaluator and DIRECT layer metrics to `layers`.
void AddEvalLayers(const EvalCosts& costs, int samples,
                   std::map<std::string, double>* layers);
void AddDirectLayers(const DirectSplit& split,
                     std::map<std::string, double>* layers);

/// The workloads.
int RunOfflinePlan(const RunArgs& args);
int RunDiurnalControl(const RunArgs& args);
int RunTelemetryFleet(const RunArgs& args);

}  // namespace kbench

#endif  // KBENCH_BENCH_H_
