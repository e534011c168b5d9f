#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <set>

#include "core/evaluator.h"
#include "opt/direct.h"
#include "util/rng.h"

namespace kbench {

using kairos::core::ConsolidationProblem;
using kairos::core::Evaluator;

void Digest::Add(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xFF;
    h_ *= 1099511628211ULL;
  }
}

void Digest::Add(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  Add(bits);
}

void Digest::Add(const std::vector<int>& v) {
  Add(static_cast<uint64_t>(v.size()));
  for (int x : v) Add(static_cast<uint64_t>(static_cast<int64_t>(x)));
}

void Digest::Add(const std::string& s) {
  Add(static_cast<uint64_t>(s.size()));
  for (unsigned char c : s) Add(static_cast<uint64_t>(c));
}

void Checker::Record(const std::string& why) {
  ++attempted_;
  if (why.empty()) return;
  ++failed_;
  if (failures_.size() < 8) failures_.push_back(why);
}

std::string CheckPlan(const ConsolidationProblem& problem,
                      const std::vector<int>& plan, int cap,
                      double objective) {
  if (static_cast<int>(plan.size()) != problem.TotalSlots()) {
    return "plan has " + std::to_string(plan.size()) + " entries for " +
           std::to_string(problem.TotalSlots()) + " slots";
  }
  // Servers hosting each workload's slots, in slot order.
  std::vector<std::vector<int>> servers_of(problem.workloads.size());
  size_t slot = 0;
  for (size_t w = 0; w < problem.workloads.size(); ++w) {
    const auto& wl = problem.workloads[w];
    for (int r = 0; r < wl.replicas; ++r, ++slot) {
      const int s = plan[slot];
      if (s < 0 || s >= cap) {
        return "slot " + std::to_string(slot) + " on server " +
               std::to_string(s) + " outside cap " + std::to_string(cap);
      }
      if (wl.pinned_server >= 0 && wl.pinned_server < cap &&
          s != wl.pinned_server) {
        return "workload " + wl.name + " leaves its pinned server";
      }
      servers_of[w].push_back(s);
    }
    const std::set<int> distinct(servers_of[w].begin(), servers_of[w].end());
    if (distinct.size() != servers_of[w].size()) {
      return "replicas of " + wl.name + " share a server";
    }
  }
  for (const auto& [a, b] : problem.anti_affinity) {
    for (int sa : servers_of[a]) {
      for (int sb : servers_of[b]) {
        if (sa == sb) {
          return "anti-affinity pair " + std::to_string(a) + "/" +
                 std::to_string(b) + " shares server " + std::to_string(sa);
        }
      }
    }
  }
  if (!std::isfinite(objective)) return "objective is not finite";
  Evaluator ev(problem, cap);
  const double repriced = ev.Evaluate(plan);
  if (std::abs(repriced - objective) > 1e-9 * std::max(1.0, std::abs(objective))) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "objective %.12g != re-price %.12g",
                  objective, repriced);
    return buf;
  }
  ev.Load(plan);
  if (!ev.IsFeasible()) return "plan is infeasible";
  return "";
}

namespace {

void PrintJsonString(const std::string& s) {
  std::putchar('"');
  for (unsigned char c : s) {
    if (c == '"' || c == '\\') {
      std::putchar('\\');
      std::putchar(c);
    } else if (c < 0x20) {
      std::printf("\\u%04x", c);
    } else {
      std::putchar(c);
    }
  }
  std::putchar('"');
}

void PrintJsonArray(const std::vector<double>& v) {
  std::putchar('[');
  for (size_t i = 0; i < v.size(); ++i) {
    std::printf(i ? ",%.17g" : "%.17g", v[i]);
  }
  std::putchar(']');
}

void PrintJsonMap(const std::map<std::string, double>& m) {
  std::putchar('{');
  bool first = true;
  for (const auto& [k, v] : m) {
    if (!first) std::putchar(',');
    first = false;
    PrintJsonString(k);
    std::printf(":%.17g", std::isfinite(v) ? v : 0.0);
  }
  std::putchar('}');
}

}  // namespace

void PrintReport(const RunArgs& args, const Report& report,
                 const Checker& checker, double peak_rss_mb) {
  std::printf("KBENCH_RESULT {\"workload\":");
  PrintJsonString(args.workload);
  std::printf(",\"seed\":%llu,\"trace\":%d,\"threads\":%d",
              static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
              args.threads);
  std::printf(",\"attempted\":%lld,\"failed\":%lld,\"failures\":[",
              static_cast<long long>(checker.attempted()),
              static_cast<long long>(checker.failed()));
  for (size_t i = 0; i < checker.failures().size(); ++i) {
    if (i) std::putchar(',');
    PrintJsonString(checker.failures()[i]);
  }
  std::printf("],\"setup_s\":");
  PrintJsonArray(report.setup_s);
  std::printf(",\"request_s\":");
  PrintJsonArray(report.request_s);
  std::printf(",\"work\":%.17g,\"work_seconds\":%.17g", report.work,
              report.work_seconds);
  std::printf(",\"result_cost\":%.17g,\"peak_rss_mb\":%.17g",
              report.result_cost, peak_rss_mb);
  std::printf(",\"info\":");
  PrintJsonMap(report.info);
  std::printf(",\"layers\":");
  PrintJsonMap(report.layers);
  std::printf("}\n");
  std::fflush(stdout);
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux
}

DirectSplit ReplayDirect(const ConsolidationProblem& problem, int k,
                         const std::vector<int>& targets, int budget,
                         double epsilon) {
  Evaluator ev(problem, k);
  const int m = static_cast<int>(targets.size());
  std::vector<int> decoded(ev.num_slots());
  DirectSplit split;
  // Decoding mirrors the engine's slot -> server encoding: pinned slots stay
  // put, the others map their coordinate onto [0, k) or onto `targets`.
  const auto objective = [&](const std::vector<double>& x) {
    const double t0 = Now();
    int slot = 0;
    for (const auto& w : problem.workloads) {
      for (int r = 0; r < w.replicas; ++r, ++slot) {
        if (w.pinned_server >= 0 && w.pinned_server < k) {
          decoded[slot] = w.pinned_server;
        } else if (m > 0) {
          decoded[slot] =
              targets[std::clamp(static_cast<int>(x[slot] * m), 0, m - 1)];
        } else {
          decoded[slot] = std::clamp(static_cast<int>(x[slot] * k), 0, k - 1);
        }
      }
    }
    const double value = ev.Evaluate(decoded);
    split.objective_s += Now() - t0;
    return value;
  };
  kairos::opt::DirectOptions options;
  options.max_evaluations = budget;
  options.epsilon = epsilon;
  const double t0 = Now();
  const kairos::opt::DirectResult result =
      kairos::opt::DirectOptimizer().Minimize(objective, ev.num_slots(), options);
  split.minimize_s = Now() - t0;
  split.evaluations = result.evaluations;
  return split;
}

void ReplayEvaluator(const ConsolidationProblem& problem, int k,
                     const std::vector<int>& plan, uint64_t seed,
                     EvalCosts* costs) {
  Evaluator ev(problem, k);
  constexpr int kEvaluates = 64;
  volatile double sink = 0;
  double t0 = Now();
  for (int i = 0; i < kEvaluates; ++i) sink = sink + ev.Evaluate(plan);
  costs->evaluate_s += Now() - t0;
  costs->evaluates += kEvaluates;

  ev.Load(plan);
  kairos::util::Rng rng(seed);
  const int slots = ev.num_slots();
  constexpr int kMoves = 512;
  std::vector<int> move_slot(kMoves), move_to(kMoves);
  for (int i = 0; i < kMoves; ++i) {
    move_slot[i] = static_cast<int>(rng.UniformInt(0, slots - 1));
    move_to[i] = static_cast<int>(rng.UniformInt(0, k - 1));
  }
  t0 = Now();
  for (int i = 0; i < kMoves; ++i) {
    sink = sink + ev.MoveDelta(move_slot[i], move_to[i]);
  }
  costs->move_delta_s += Now() - t0;
  costs->move_deltas += kMoves;

  std::vector<int> targets;
  std::vector<double> deltas;
  constexpr int kBatches = 16;
  for (int i = 0; i < kBatches; ++i) {
    const int slot = move_slot[i];
    targets.clear();
    for (int j = 0; j < k; ++j) {
      if (j != plan[slot]) targets.push_back(j);
    }
    if (targets.empty()) continue;
    t0 = Now();
    ev.MoveDeltaBatch(slot, targets, &deltas);
    costs->batch_s += Now() - t0;
    costs->batch_targets += static_cast<int64_t>(targets.size());
  }
}

void AddEvalLayers(const EvalCosts& costs, int samples,
                   std::map<std::string, double>* layers) {
  auto& l = *layers;
  if (costs.evaluates > 0) {
    l["core.evaluate_ns"] = 1e9 * costs.evaluate_s / costs.evaluates;
  }
  if (costs.move_deltas > 0) {
    l["core.move_delta_ns"] = 1e9 * costs.move_delta_s / costs.move_deltas;
  }
  if (costs.batch_targets > 0) {
    l["core.move_delta_batch_ns_per_target"] =
        1e9 * costs.batch_s / costs.batch_targets;
  }
  l["core.evaluate_samples"] = samples;
}

void AddDirectLayers(const DirectSplit& split,
                     std::map<std::string, double>* layers) {
  auto& l = *layers;
  const double self = split.minimize_s - split.objective_s;
  l["opt.direct_self_s"] = self;
  l["opt.direct_objective_s"] = split.objective_s;
  l["opt.direct_evals"] = static_cast<double>(split.evaluations);
  if (split.evaluations > 0) {
    l["opt.direct_self_ns_per_eval"] = 1e9 * self / split.evaluations;
  }
}

}  // namespace kbench
