// diurnal-control: seeded telemetry days replayed step by step through
// online::ConsolidationController with its default configuration
// (migration-aware, portfolio {polish, greedy, anneal, tabu}). A round is
// several kDiurnal days plus one kFlashCrowd day, generated afresh for every
// round from (seed, round). Rounds repeat until the run's seconds are used;
// plan quality is scored on the first kScoredRounds rounds, and the first
// day is replayed again at the end and must give the same transcript.
#include <algorithm>
#include <cstdio>
#include <memory>

#include "bench.h"
#include "core/engine.h"
#include "obs/sink.h"
#include "online/controller.h"
#include "online/migration.h"
#include "solve/portfolio.h"
#include "solve/solver.h"
#include "trace/scenario.h"

namespace kbench {

namespace {

using namespace kairos;

constexpr int kWorkloads = 24;
constexpr int kSteps = 288;  // one day at 5-minute windows
constexpr int kDiurnalDays = 4;
// Portfolio threads of the controller. On a shared four-vCPU host, racing
// the members on two or four threads let a descheduled member set the
// re-solve time: the re-solve tail moved by 15-40% between identical runs,
// against about 4% on one thread. The traced run also replays every
// re-solve's portfolio at the host's thread count (solve.portfolio_wall_s.tN).
constexpr int kPortfolioThreads = 1;
constexpr int kScoredRounds = 2;
constexpr int kSetupRepeats = 9;

struct Day {
  std::string name;
  std::vector<monitor::WorkloadProfile> profiles;
  std::vector<std::vector<online::TelemetrySample>> steps;
};

struct Inputs {
  std::vector<Day> days;
  uint64_t digest = 0;
};

Inputs MakeInputs(uint64_t run_seed, int round) {
  const uint64_t seed = run_seed * 1000003ULL + static_cast<uint64_t>(round);
  Inputs in;
  Digest d;
  for (int i = 0; i <= kDiurnalDays; ++i) {
    const bool flash = i == kDiurnalDays;
    trace::ScenarioConfig config;
    config.workloads = kWorkloads;
    config.steps = kSteps;
    config.seed = seed * 7919ULL + static_cast<uint64_t>(i);
    const trace::ScenarioKind kind =
        flash ? trace::ScenarioKind::kFlashCrowd : trace::ScenarioKind::kDiurnal;
    Day day;
    day.name = trace::ScenarioName(kind) + "#" + std::to_string(i);
    day.profiles = trace::MakeScenario(kind, config).profiles;
    online::ReplayFeed feed = online::ReplayFeed::FromProfiles(day.profiles);
    std::vector<online::TelemetrySample> samples;
    while (feed.Next(&samples)) {
      for (const auto& s : samples) d.Add(s.cpu_cores);
      day.steps.push_back(samples);
    }
    in.days.push_back(std::move(day));
  }
  in.digest = d.value();
  return in;
}

online::ControllerConfig MakeConfig(const Day& day, int threads,
                                    obs::Sink* sink) {
  online::ControllerConfig config;
  config.base.workloads = day.profiles;
  config.threads = threads;
  config.sink = sink;
  return config;
}

/// The controller's per-(solve, member) portfolio seed derivation.
uint64_t MixSeed(uint64_t seed, int solve_index, int member) {
  uint64_t x =
      seed ^ (0x9E3779B97F4A7C15ULL * static_cast<uint64_t>(solve_index + 1));
  x += 0xBF58476D1CE4E5B9ULL * static_cast<uint64_t>(member + 1);
  return x == 0 ? 1 : x;
}

/// The re-solve problem the controller solved at its latest control event:
/// the current rolling profiles plus, after the bootstrap, the incumbent
/// placement and migration cost.
core::ConsolidationProblem CapturedProblem(
    const online::ConsolidationController& c,
    const online::ControllerConfig& config, const std::vector<int>& before) {
  core::ConsolidationProblem problem = c.SnapshotProblem();
  if (config.migration_aware && !before.empty()) {
    problem.current_assignment = before;
    problem.migration_cost_weight = config.migration_cost_weight;
  }
  return problem;
}

/// Outcome of replaying one day through a controller.
struct DayRun {
  std::string transcript;
  Stamp ingest;          // all Ingest calls
  double detect_s = 0;   // wall time of the Ingest calls that adopted no plan
  int moves = 0;
  double service_sum = 0;
  int service_steps = 0;
};

/// Per-layer totals of the traced replays.
struct Layers {
  std::map<std::string, double> member_s;
  double portfolio_s = 0, portfolio_n_s = 0, migration_s = 0,
         detect_to_migrate_s = 0, detect_s = 0;
  int64_t resolves = 0, noop_resolves = 0, moving_candidates = 0;
  int replay_mismatches = 0;
  DirectSplit direct;
  EvalCosts eval;
};

/// Replays the solver portfolio, each member on its own, and the migration
/// planner on the re-solve problem of `c`'s latest control event.
void ReplayResolve(const online::ConsolidationController& c,
                   const online::ControllerConfig& config,
                   const std::vector<int>& before, int threads_n,
                   Checker* checker, Layers* layers) {
  const int solve_index = static_cast<int>(c.history().size()) - 1;
  const online::ControlEvent& event = c.history().back();
  const core::ConsolidationProblem problem = CapturedProblem(c, config, before);
  solve::SolveBudget budget = config.budget;
  budget.sink = nullptr;
  if (config.migration_aware && !before.empty()) {
    budget.seed_assignment = before;
    for (int& s : budget.seed_assignment) {
      if (s >= c.active_servers()) s %= c.active_servers();
    }
  }
  std::vector<solve::PortfolioSolverSpec> specs;
  for (size_t i = 0; i < config.solvers.size(); ++i) {
    specs.push_back({config.solvers[i],
                     MixSeed(config.seed, solve_index, static_cast<int>(i))});
  }
  solve::PortfolioOptions options;
  options.threads = config.threads;
  options.budget = budget;
  double t0 = Now();
  const solve::PortfolioResult result =
      solve::PortfolioRunner(options).Run(problem, specs);
  layers->portfolio_s += Now() - t0;
  if (result.best.assignment.server_of_slot != event.plan) {
    ++layers->replay_mismatches;
  }
  options.threads = threads_n;
  t0 = Now();
  const solve::PortfolioResult parallel =
      solve::PortfolioRunner(options).Run(problem, specs);
  layers->portfolio_n_s += Now() - t0;
  checker->Record(parallel.best.assignment.server_of_slot ==
                          result.best.assignment.server_of_slot
                      ? ""
                      : "portfolio plan depends on its thread count");
  // Each member alone must return the plan it returned inside the
  // multi-threaded portfolio.
  for (size_t i = 0; i < specs.size(); ++i) {
    std::unique_ptr<solve::Solver> solver =
        solve::SolverRegistry::Global().Create(specs[i].solver, specs[i].seed);
    t0 = Now();
    const core::ConsolidationPlan plan = solver->Solve(problem, budget, nullptr);
    layers->member_s[specs[i].solver] += Now() - t0;
    checker->Record(
        plan.assignment.server_of_slot ==
                parallel.members[i].plan.assignment.server_of_slot
            ? ""
            : specs[i].solver + " plan depends on the portfolio thread count");
  }
  if (!before.empty()) {
    t0 = Now();
    const online::MigrationPlan migration =
        online::MigrationPlanner().Plan(problem, before, event.plan);
    layers->migration_s += Now() - t0;
    if (migration.total_moves() != event.moves) ++layers->replay_mismatches;
  }
  const DirectSplit split =
      ReplayDirect(problem, solve::HardCap(problem), {},
                   budget.direct_evaluations, core::EngineOptions().direct_epsilon);
  layers->direct.minimize_s += split.minimize_s;
  layers->direct.objective_s += split.objective_s;
  layers->direct.evaluations += split.evaluations;
  ReplayEvaluator(problem, c.active_servers(), event.plan,
                  static_cast<uint64_t>(solve_index) + 1, &layers->eval);
}

/// Replays `day` through a fresh controller, timing every Ingest call and
/// checking every adopted plan. With `layers` set, each control event is
/// also replayed layer by layer (untimed by the Ingest clock).
DayRun RunDay(const Day& day, int threads, obs::Sink* sink, bool score,
              Report* report, Checker* checker, Layers* layers,
              int replay_threads = 1) {
  const online::ControllerConfig config = MakeConfig(day, threads, sink);
  online::ConsolidationController c(config);
  DayRun run;
  size_t events = 0;
  std::vector<int> before;
  for (const auto& samples : day.steps) {
    const Stamp t0 = Stamp::Take();
    c.Ingest(samples);
    const Stamp dt = Stamp::Take() - t0;
    run.ingest += dt;
    if (c.history().size() == events) {
      run.detect_s += dt.wall;
    } else {
      events = c.history().size();
      const online::ControlEvent& event = c.history().back();
      if (report != nullptr) report->request_s.push_back(dt.cpu);
      std::string why =
          CheckPlan(CapturedProblem(c, config, before), event.plan,
                    c.active_servers(), event.objective);
      if (why.empty() && !event.feasible) why = "adopted an infeasible plan";
      checker->Record(why.empty() ? "" : day.name + " step " +
                                             std::to_string(event.step) +
                                             ": " + why);
      if (layers != nullptr) {
        ReplayResolve(c, config, before, replay_threads, checker, layers);
        ++layers->resolves;
        if (!before.empty()) {
          ++layers->moving_candidates;
          if (event.moves == 0) ++layers->noop_resolves;
        }
      }
      before = event.plan;
    }
    if (score && !c.assignment().empty()) {
      run.service_sum += c.CurrentServiceObjective();
      ++run.service_steps;
    }
  }
  run.transcript = c.RenderHistory();
  run.moves = c.total_moves();
  return run;
}

/// Sum of the controller's detect-to-migrate latencies recorded in `sink`,
/// looked up by track and event name.
double DetectToMigrateSeconds(const obs::Sink& sink) {
  const std::vector<std::string> tracks = sink.trace().TrackNames();
  const std::vector<std::string> names = sink.trace().EventNames();
  double total = 0;
  for (const obs::TraceEvent& e : sink.trace().MergedTrace()) {
    if (e.track < tracks.size() && tracks[e.track] == "controller" &&
        e.name < names.size() && names[e.name] == "detect_to_migrate") {
      total += e.d0;
    }
  }
  return total;
}

}  // namespace

int RunDiurnalControl(const RunArgs& args_in) {
  const int host_threads = args_in.threads;
  RunArgs args = args_in;
  args.threads = kPortfolioThreads;
  Report report;
  Checker checker;
  Inputs in;
  uint64_t input_digest = 0;
  for (int i = 0; i < kSetupRepeats; ++i) {
    in = Inputs();
    const Stamp t0 = Stamp::Take();
    in = MakeInputs(args.seed, 0);
    // Controller construction is part of set-up too.
    for (const Day& day : in.days) {
      online::ConsolidationController c(MakeConfig(day, args.threads, nullptr));
    }
    report.setup_s.push_back((Stamp::Take() - t0).cpu);
    if (i == 0) input_digest = in.digest;
    checker.Record(in.digest == input_digest
                       ? ""
                       : "input generation differs between set-ups");
  }

  const size_t n = in.days.size();
  const Day first_day = in.days[0];
  std::string first_transcript;
  double service_sum = 0;
  int service_steps = 0, moves = 0;
  double untraced_s = 0, traced_s = 0;
  Layers layers;

  const double start = Now();
  for (int round = 0; round < kScoredRounds || Now() - start < args.seconds;
       ++round) {
    if (round > 0) in = MakeInputs(args.seed, round);
    const bool scored = round < kScoredRounds;
    for (size_t d = 0; d < n; ++d) {
      const Day& day = in.days[d];
      const DayRun run = RunDay(day, args.threads, nullptr, scored, &report,
                                &checker, nullptr);
      report.work += static_cast<double>(day.steps.size());
      report.work_seconds += run.ingest.cpu;
      if (round == 0 && d == 0) first_transcript = run.transcript;
      if (scored) {
        service_sum += run.service_sum;
        service_steps += run.service_steps;
        moves += run.moves;
      }
      if (!args.trace) continue;
      // The traced replay: the same day with an obs::Sink attached, each
      // control event replayed layer by layer.
      obs::Sink sink;
      const DayRun traced =
          RunDay(day, args.threads, &sink, false, nullptr, &checker, &layers,
                 host_threads);
      checker.Record(traced.transcript == run.transcript
                         ? ""
                         : day.name + " transcript changes with a sink attached");
      untraced_s += run.ingest.wall;
      traced_s += traced.ingest.wall;
      layers.detect_s += traced.detect_s;
      layers.detect_to_migrate_s += DetectToMigrateSeconds(sink);
      const int64_t resolves =
          sink.metrics().counter("controller.resolves")->Value();
      checker.Record(resolves == static_cast<int64_t>(
                                     std::count(run.transcript.begin(),
                                                run.transcript.end(), '\n'))
                         ? ""
                         : day.name + " sink resolve count disagrees");
    }
  }
  // One seed, one transcript: the first day again, and in a traced run also
  // with the portfolio on the host's thread count.
  const DayRun again =
      RunDay(first_day, args.threads, nullptr, false, nullptr, &checker, nullptr);
  checker.Record(again.transcript == first_transcript
                     ? ""
                     : first_day.name + " transcript differs when replayed");
  if (args.trace) {
    const DayRun parallel =
        RunDay(first_day, host_threads, nullptr, false, nullptr, &checker, nullptr);
    checker.Record(parallel.transcript == first_transcript
                       ? ""
                       : first_day.name + " transcript depends on thread count");
  }

  report.result_cost = service_sum / std::max(1, service_steps);
  report.info["moves"] = moves;
  if (args.trace) {
    auto& l = report.layers;
    for (const auto& [name, seconds] : layers.member_s) {
      l["solve." + name + "_s"] = seconds;
    }
    l["solve.portfolio_wall_s"] = layers.portfolio_s;
    l["solve.portfolio_wall_s.tN"] = layers.portfolio_n_s;
    l["online.migration_plan_s"] = layers.migration_s;
    l["online.detect_s"] = layers.detect_s;
    l["online.detect_to_migrate_s"] = layers.detect_to_migrate_s;
    l["online.resolves"] = static_cast<double>(layers.resolves);
    l["online.noop_resolve_frac"] =
        layers.moving_candidates > 0
            ? static_cast<double>(layers.noop_resolves) /
                  static_cast<double>(layers.moving_candidates)
            : 0.0;
    AddDirectLayers(layers.direct, &l);
    AddEvalLayers(layers.eval, online::ControllerConfig().window_samples, &l);
    l["trace.coverage"] =
        (layers.detect_s + layers.portfolio_s + layers.migration_s) / traced_s;
    l["trace.overhead"] = traced_s / untraced_s;
    report.info["replay_mismatches"] = layers.replay_mismatches;
  }
  PrintReport(args, report, checker, PeakRssMb());
  return 0;
}

}  // namespace kbench
