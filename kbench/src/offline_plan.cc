// offline-plan: closed-loop plan requests to ConsolidationEngine::Solve with
// default EngineOptions. A round is the four paper datasets on a uniform
// fleet followed by the four heterogeneous fleet scenarios, generated afresh
// for every round from (seed, round), so a run times many distinct
// instances. Rounds repeat until the run's seconds are used; the first
// round's first request is solved again at the end and must give the same
// plan.
#include <algorithm>
#include <cstdio>
#include <memory>

#include "bench.h"
#include "core/dimensioner.h"
#include "core/engine.h"
#include "core/greedy.h"
#include "model/analytic.h"
#include "obs/sink.h"
#include "sim/disk.h"
#include "trace/dataset.h"
#include "trace/scenario.h"

namespace kbench {

namespace {

using namespace kairos;

constexpr int kSamples = 288;         // 24 h at 5-minute windows
constexpr int kFleetWorkloads = 24;   // workloads per fleet scenario
constexpr int kSetupRepeats = 9;

struct Request {
  std::string name;
  core::ConsolidationProblem problem;
};

struct Inputs {
  std::unique_ptr<model::DiskModel> disk;
  std::vector<Request> requests;
  uint64_t digest = 0;
};

Inputs MakeInputs(uint64_t run_seed, int round) {
  const uint64_t seed = run_seed * 1000003ULL + static_cast<uint64_t>(round);
  Inputs in;
  in.disk = std::make_unique<model::DiskModel>(model::BuildAnalyticModel(
      sim::DiskSpec::Raid10(), model::AnalyticConfig{}, 120e9, 2000.0));
  trace::TraceConfig trace_config;
  trace_config.samples = kSamples;
  const trace::DatasetGenerator gen(seed, trace_config);
  for (trace::DatasetKind kind : trace::AllDatasets()) {
    Request r;
    r.name = trace::DatasetName(kind);
    r.problem.workloads = trace::ToProfiles(gen.Generate(kind));
    r.problem.disk_model = in.disk.get();
    in.requests.push_back(std::move(r));
  }
  int index = 0;
  // The four swept fleets plus kInterleavedMix, the fleet whose cheapest
  // cover only the class-count knapsack finds. Nine requests per round
  // also put the median inside one request kind's times instead of on the
  // boundary between two kinds.
  std::vector<trace::FleetScenarioKind> fleets = trace::AllFleetScenarios();
  fleets.push_back(trace::FleetScenarioKind::kInterleavedMix);
  for (trace::FleetScenarioKind kind : fleets) {
    trace::ScenarioConfig config;
    config.workloads = kFleetWorkloads;
    config.steps = kSamples;
    config.seed = seed * 131ULL + static_cast<uint64_t>(++index);
    trace::FleetScenario scenario = trace::MakeFleetScenario(kind, config);
    Request r;
    r.name = trace::FleetScenarioName(kind);
    r.problem.workloads = std::move(scenario.profiles);
    r.problem.fleet = std::move(scenario.fleet);
    in.requests.push_back(std::move(r));
  }
  Digest d;
  for (const Request& r : in.requests) {
    for (const auto& w : r.problem.workloads) {
      for (double v : w.cpu_cores.values()) d.Add(v);
      for (double v : w.ram_bytes.values()) d.Add(v);
    }
  }
  in.digest = d.value();
  return in;
}

uint64_t PlanDigest(const core::ConsolidationPlan& plan) {
  Digest d;
  d.Add(plan.assignment.server_of_slot);
  d.Add(plan.objective);
  return d.value();
}

/// Layer times of one request, replayed through the engine's public
/// pipeline in the order Solve() runs it.
struct Replay {
  double bound_s = 0, greedy_s = 0, probe_s = 0, dimension_s = 0,
         polish_s = 0;
  int64_t probes = 0, probes_feasible = 0, budget_probes = 0;
  double objective = 0;
  int k = 0;
  std::vector<int> targets;
};

Replay ReplaySolve(const core::ConsolidationProblem& problem) {
  Replay r;
  obs::Sink sink;
  core::EngineOptions options;
  options.sink = &sink;
  core::ConsolidationEngine engine(problem, options);
  const int cap = problem.ServerCap();

  double t0 = Now();
  const int flb = core::FractionalLowerBound(problem);
  r.bound_s = Now() - t0;
  t0 = Now();
  const core::GreedyResult greedy = core::GreedyBaseline(problem, cap);
  r.greedy_s = Now() - t0;

  core::Assignment best;
  int best_k = -1;
  if (!problem.fleet.Uniform()) {
    core::FleetDimensioner dimensioner(problem, engine, options);
    t0 = Now();
    const core::DimensioningResult dim = dimensioner.Run(greedy);
    r.dimension_s = Now() - t0;
    r.budget_probes = dim.budget_probes;
    if (dim.found) {
      best = dim.assignment;
      best_k = cap;
      r.targets = dim.servers;
    }
  } else {
    // The count search of Solve(): probe the greedy upper bound, then
    // bisect down to the fractional lower bound.
    int upper = std::min(greedy.feasible ? greedy.servers_used : cap, cap);
    int lower = std::min(std::max(1, flb), upper);
    const auto probe = [&](int k, core::Assignment* out) {
      const double p0 = Now();
      const bool ok = engine.ProbeK(k, options.probe_direct_evaluations, out);
      r.probe_s += Now() - p0;
      return ok;
    };
    core::Assignment a;
    if (probe(upper, &a)) {
      best = a;
      best_k = upper;
      while (lower < upper) {
        const int mid = lower + (upper - lower) / 2;
        core::Assignment mid_a;
        if (probe(mid, &mid_a)) {
          best = mid_a;
          best_k = upper = mid;
        } else {
          lower = mid + 1;
        }
      }
    } else {
      for (int k = upper + 1; k <= cap; ++k) {
        if (probe(k, &a)) {
          best = a;
          best_k = k;
          break;
        }
      }
    }
  }
  bool polished_fallback = false;
  if (best_k < 0) {
    bool clean = false;
    best = core::GreedyMultiResource(problem, cap, &clean);
    best_k = cap;
    polished_fallback = true;
  }
  t0 = Now();
  core::ConsolidationPlan plan = engine.PolishPlan(
      best, best_k, r.targets.empty() ? nullptr : &r.targets);
  if (!problem.fleet.Uniform() && (greedy.feasible || !polished_fallback)) {
    bool clean = false;
    const core::Assignment seed =
        greedy.feasible ? greedy.assignment
                        : core::GreedyMultiResource(problem, cap, &clean);
    const core::ConsolidationPlan rescue = engine.PolishPlan(seed, cap);
    if ((rescue.feasible && !plan.feasible) ||
        (rescue.feasible == plan.feasible && rescue.objective < plan.objective)) {
      plan = rescue;
    }
  }
  r.polish_s = Now() - t0;
  r.probes = sink.metrics().counter("engine.probes")->Value();
  r.probes_feasible = sink.metrics().counter("engine.probes_feasible")->Value();
  r.objective = plan.objective;
  r.k = best_k;
  return r;
}

}  // namespace

int RunOfflinePlan(const RunArgs& args_in) {
  RunArgs args = args_in;
  args.threads = 1;  // Solve() runs on the calling thread
  Report report;
  Checker checker;
  Inputs in;
  uint64_t input_digest = 0;
  for (int i = 0; i < kSetupRepeats; ++i) {
    in = Inputs();
    const Stamp t0 = Stamp::Take();
    in = MakeInputs(args.seed, 0);
    report.setup_s.push_back((Stamp::Take() - t0).cpu);
    if (i == 0) input_digest = in.digest;
    checker.Record(in.digest == input_digest
                       ? ""
                       : "input generation differs between set-ups");
  }

  const size_t n = in.requests.size();
  const Inputs first = std::move(in);
  uint64_t first_plan = 0;
  double fleet_cost = 0;
  Replay totals;
  DirectSplit direct;
  EvalCosts eval_costs;
  double replay_wall = 0, untraced_wall = 0;
  int replay_mismatches = 0;

  const double start = Now();
  for (int round = 0; round == 0 || Now() - start < args.seconds; ++round) {
    if (round > 0) in = MakeInputs(args.seed, round);
    const Inputs& cur = round == 0 ? first : in;
    for (size_t i = 0; i < n; ++i) {
      const core::ConsolidationProblem& problem = cur.requests[i].problem;
      const Stamp t0 = Stamp::Take();
      const core::ConsolidationPlan plan =
          core::ConsolidationEngine(problem, core::EngineOptions()).Solve();
      const Stamp dt = Stamp::Take() - t0;
      report.request_s.push_back(dt.cpu);
      report.work += 1;
      report.work_seconds += dt.cpu;

      std::string why = CheckPlan(problem, plan.assignment.server_of_slot,
                                  problem.ServerCap(), plan.objective);
      if (why.empty() && !plan.feasible) why = "engine reports infeasible";
      if (round == 0) {
        fleet_cost += plan.fleet_cost;
        if (i == 0) first_plan = PlanDigest(plan);
      }
      if (!why.empty()) why = cur.requests[i].name + ": " + why;
      checker.Record(why);

      if (!args.trace) continue;
      const double r0 = Now();
      const Replay r = ReplaySolve(problem);
      replay_wall += Now() - r0;
      untraced_wall += dt.wall;
      if (r.objective != plan.objective) ++replay_mismatches;
      totals.bound_s += r.bound_s;
      totals.greedy_s += r.greedy_s;
      totals.probe_s += r.probe_s;
      totals.dimension_s += r.dimension_s;
      totals.polish_s += r.polish_s;
      totals.probes += r.probes;
      totals.probes_feasible += r.probes_feasible;
      totals.budget_probes += r.budget_probes;

      const sim::FleetSpec::PlacementMask mask =
          problem.fleet.PlacementTargets(r.k);
      const std::vector<int> targets =
          !r.targets.empty() ? r.targets
                             : (mask.masked ? mask.targets : std::vector<int>());
      const core::EngineOptions defaults;
      const DirectSplit split = ReplayDirect(
          problem, r.k, targets, defaults.direct_evaluations,
          defaults.direct_epsilon);
      direct.minimize_s += split.minimize_s;
      direct.objective_s += split.objective_s;
      direct.evaluations += split.evaluations;
      ReplayEvaluator(problem, problem.ServerCap(),
                      plan.assignment.server_of_slot, args.seed + i,
                      &eval_costs);
    }
  }

  // One seed, one plan: the first request again, with the same result.
  const uint64_t again = PlanDigest(
      core::ConsolidationEngine(first.requests[0].problem, core::EngineOptions())
          .Solve());
  checker.Record(again == first_plan ? "" : "a repeated request gives another plan");

  report.result_cost = fleet_cost / static_cast<double>(n);
  report.info["fleet_cost"] = fleet_cost;
  if (args.trace) {
    auto& l = report.layers;
    l["core.bound_s"] = totals.bound_s;
    l["core.greedy_s"] = totals.greedy_s;
    l["core.probe_s"] = totals.probe_s;
    l["core.probes"] = static_cast<double>(totals.probes);
    l["core.probe_feasible_ratio"] =
        totals.probes > 0 ? static_cast<double>(totals.probes_feasible) /
                                static_cast<double>(totals.probes)
                          : 0.0;
    l["core.dimension_s"] = totals.dimension_s;
    l["core.budget_probes"] = static_cast<double>(totals.budget_probes);
    l["core.polish_s"] = totals.polish_s;
    AddDirectLayers(direct, &l);
    AddEvalLayers(eval_costs, kSamples, &l);
    l["trace.coverage"] = (totals.bound_s + totals.greedy_s + totals.probe_s +
                           totals.dimension_s + totals.polish_s) /
                          replay_wall;
    l["trace.overhead"] = replay_wall / untraced_wall;
    report.info["replay_mismatches"] = replay_mismatches;
  }
  PrintReport(args, report, checker, PeakRssMb());
  return 0;
}

}  // namespace kbench
