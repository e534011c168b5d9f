// Google-benchmark microbenchmarks of the hot primitives: buffer-pool
// touches, flush-batch selection, disk-model evaluation, objective
// evaluation and incremental move deltas, and DIRECT iterations. These
// bound the cost of monitoring (must be negligible next to transaction
// work) and of the consolidation engine's inner loops.
#include <benchmark/benchmark.h>

#include <cstring>
#include <vector>

#include "bench_common.h"
#include "core/engine.h"
#include "core/evaluator.h"
#include "db/buffer_pool.h"
#include "db/flusher.h"
#include "model/analytic.h"
#include "obs/sink.h"
#include "online/estimators.h"
#include "online/ingest.h"
#include "online/streaming_profile.h"
#include "opt/direct.h"
#include "sim/disk.h"
#include "util/rng.h"
#include "util/units.h"

namespace kairos {
namespace {

void BM_BufferPoolTouchHit(benchmark::State& state) {
  db::BufferPool pool(1 << 16);
  for (db::PageId p = 0; p < (1 << 16); ++p) pool.Touch(p, false);
  util::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        pool.Touch(static_cast<db::PageId>(rng.UniformInt(0, (1 << 16) - 1)), false));
  }
}
BENCHMARK(BM_BufferPoolTouchHit);

void BM_BufferPoolTouchMissEvict(benchmark::State& state) {
  db::BufferPool pool(1 << 12);
  util::Rng rng(1);
  db::PageId next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pool.Touch(next++, (next & 3) == 0));
  }
}
BENCHMARK(BM_BufferPoolTouchMissEvict);

void BM_FlusherSelectBatch(benchmark::State& state) {
  db::BufferPool pool(1 << 16);
  util::Rng rng(2);
  for (int i = 0; i < (1 << 14); ++i) {
    pool.Touch(static_cast<db::PageId>(rng.UniformInt(0, (1 << 16) - 1)), true);
  }
  db::Flusher flusher{db::FlusherConfig{}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(flusher.SelectBatch(pool, 0.1, 0.5, false, 120.0));
  }
}
BENCHMARK(BM_FlusherSelectBatch);

void BM_DiskSortedWriteCost(benchmark::State& state) {
  sim::Disk disk{sim::DiskSpec{}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(disk.SortedWriteCost(1000, 16384, 4ULL << 30));
  }
}
BENCHMARK(BM_DiskSortedWriteCost);

void BM_DiskModelPredict(benchmark::State& state) {
  const model::DiskModel m = model::BuildAnalyticModel(
      sim::DiskSpec::Raid10(), model::AnalyticConfig{}, 96e9, 2000);
  double ws = 1e9;
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.PredictWriteBytesPerSec(ws, 500.0));
    ws = ws < 90e9 ? ws + 1e9 : 1e9;
  }
}
BENCHMARK(BM_DiskModelPredict);

core::ConsolidationProblem MakeProblem(int n, int samples) {
  static std::vector<core::ConsolidationProblem> keep;
  core::ConsolidationProblem prob;
  util::Rng rng(7);
  for (int i = 0; i < n; ++i) {
    monitor::WorkloadProfile p;
    p.name = "w" + std::to_string(i);
    std::vector<double> cpu(samples), ram(samples), rows(samples);
    for (int t = 0; t < samples; ++t) {
      cpu[t] = rng.Uniform(0.1, 1.5);
      ram[t] = rng.Uniform(4e9, 20e9);
      rows[t] = rng.Uniform(10, 200);
    }
    p.cpu_cores = util::TimeSeries(300, cpu);
    p.ram_bytes = util::TimeSeries(300, ram);
    p.update_rows_per_sec = util::TimeSeries(300, rows);
    p.working_set_bytes = 8e9;
    prob.workloads.push_back(p);
  }
  return prob;
}

void BM_EvaluatorFull(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto prob = MakeProblem(n, 288);
  core::Evaluator ev(prob, std::max(2, n / 8));
  util::Rng rng(3);
  std::vector<int> assignment(ev.num_slots());
  for (auto& a : assignment) a = static_cast<int>(rng.UniformInt(0, ev.max_servers() - 1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ev.Evaluate(assignment));
  }
}
BENCHMARK(BM_EvaluatorFull)->Arg(32)->Arg(128)->Arg(196);

// --- MoveDelta ops/sec: the incremental hot path of every local search,
// --- SA/tabu sweep, and online re-solve. Items-per-second in the report
// --- is moves evaluated (or applied) per second.

void BM_EvaluatorMoveDelta(benchmark::State& state) {
  const auto prob = MakeProblem(196, 288);
  core::Evaluator ev(prob, 24);
  util::Rng rng(3);
  std::vector<int> assignment(ev.num_slots());
  for (auto& a : assignment) a = static_cast<int>(rng.UniformInt(0, 23));
  ev.Load(assignment);
  for (auto _ : state) {
    const int slot = static_cast<int>(rng.UniformInt(0, ev.num_slots() - 1));
    const int to = static_cast<int>(rng.UniformInt(0, 23));
    benchmark::DoNotOptimize(ev.MoveDelta(slot, to));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EvaluatorMoveDelta);

void BM_EvaluatorMoveDeltaDisk(benchmark::State& state) {
  // Same shape with an active nonlinear disk axis on every server: adds
  // two saturation-frontier evaluations per what-if.
  auto prob = MakeProblem(196, 288);
  static const model::DiskModel disk_model = model::BuildAnalyticModel(
      sim::DiskSpec::Raid10(), model::AnalyticConfig{}, 96e9, 2000);
  prob.disk_model = &disk_model;
  core::Evaluator ev(prob, 24);
  util::Rng rng(3);
  std::vector<int> assignment(ev.num_slots());
  for (auto& a : assignment) a = static_cast<int>(rng.UniformInt(0, 23));
  ev.Load(assignment);
  for (auto _ : state) {
    const int slot = static_cast<int>(rng.UniformInt(0, ev.num_slots() - 1));
    const int to = static_cast<int>(rng.UniformInt(0, 23));
    benchmark::DoNotOptimize(ev.MoveDelta(slot, to));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EvaluatorMoveDeltaDisk);

void BM_EvaluatorMoveDeltaBatched(benchmark::State& state) {
  // The batched counterpart of BM_EvaluatorMoveDeltaDisk: one slot scored
  // against all 24 candidate targets per MoveDeltaBatch call (the
  // cross-shard rebalancer's access pattern). Items processed counts
  // *candidate moves*, directly comparable to the scalar bench's rate —
  // the batch amortizes the slot-removal half of the delta across the
  // whole target row.
  auto prob = MakeProblem(196, 288);
  static const model::DiskModel disk_model = model::BuildAnalyticModel(
      sim::DiskSpec::Raid10(), model::AnalyticConfig{}, 96e9, 2000);
  prob.disk_model = &disk_model;
  core::Evaluator ev(prob, 24);
  util::Rng rng(3);
  std::vector<int> assignment(ev.num_slots());
  for (auto& a : assignment) a = static_cast<int>(rng.UniformInt(0, 23));
  ev.Load(assignment);
  std::vector<int> targets(24);
  for (int j = 0; j < 24; ++j) targets[j] = j;
  std::vector<double> deltas;
  for (auto _ : state) {
    const int slot = static_cast<int>(rng.UniformInt(0, ev.num_slots() - 1));
    ev.MoveDeltaBatch(slot, targets, &deltas);
    benchmark::DoNotOptimize(deltas.data());
  }
  state.SetItemsProcessed(state.iterations() * targets.size());
}
BENCHMARK(BM_EvaluatorMoveDeltaBatched);

void BM_EvaluatorApplyMove(benchmark::State& state) {
  const auto prob = MakeProblem(196, 288);
  core::Evaluator ev(prob, 24);
  util::Rng rng(3);
  std::vector<int> assignment(ev.num_slots());
  for (auto& a : assignment) a = static_cast<int>(rng.UniformInt(0, 23));
  ev.Load(assignment);
  for (auto _ : state) {
    const int slot = static_cast<int>(rng.UniformInt(0, ev.num_slots() - 1));
    const int to = static_cast<int>(rng.UniformInt(0, 23));
    ev.ApplyMove(slot, to);
    benchmark::DoNotOptimize(ev.current_cost());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EvaluatorApplyMove);

// --- Observability substrate: the null-sink branch and the attached-sink
// --- write path must both be negligible next to a DIRECT probe (the
// --- granularity the engine instruments at).

void BM_RegistryCounter(benchmark::State& state) {
  obs::Sink sink;
  obs::Counter* c = sink.metrics().counter("bench.counter");
  for (auto _ : state) {
    c->Add(1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RegistryCounter);

void BM_TraceSinkEmit(benchmark::State& state) {
  obs::Sink sink;
  const uint32_t track = sink.trace().InternTrack("bench");
  const uint32_t name = sink.trace().InternName("event");
  int64_t i = 0;
  for (auto _ : state) {
    sink.trace().Emit(track, name, obs::EventKind::kPoint, i++, 1, 0.5);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceSinkEmit);

/// The engine probe loop with a null vs attached sink: ProbeK carries the
/// instrumented branch, so the two arms bound the observer's overhead at
/// probe granularity (expected: indistinguishable — a DIRECT probe costs
/// orders of magnitude more than a ring write).
void BM_EngineProbeLoop(benchmark::State& state) {
  const bool attached = state.range(0) != 0;
  const auto prob = MakeProblem(32, 64);
  obs::Sink sink;
  core::EngineOptions options;
  options.probe_direct_evaluations = 60;
  options.sink = attached ? &sink : nullptr;
  core::ConsolidationEngine engine(prob, options);
  const int k = std::max(2, 32 / 4);
  for (auto _ : state) {
    core::Assignment out;
    benchmark::DoNotOptimize(engine.ProbeK(k, 60, &out));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(attached ? "sink=attached" : "sink=null");
}
BENCHMARK(BM_EngineProbeLoop)->Arg(0)->Arg(1);

// --- Telemetry ingestion: the pre-SoA per-sample scalar path vs the
// --- fused IngestBatch hot loop vs the striped parallel IngestPlane.
// --- Items processed counts telemetry samples, so the three rates are the
// --- samples/sec ladder of the online control plane's ingestion tier.

constexpr int kIngestStreams = 8192;
constexpr size_t kIngestWindow = 12;

std::vector<online::TelemetrySample> MakeIngestStep(int streams) {
  util::Rng rng(13);
  std::vector<online::TelemetrySample> step(streams);
  for (auto& s : step) {
    s.cpu_cores = rng.Exponential(0.8);
    s.ram_bytes = rng.Uniform(1e9, 8e9);
    s.update_rows_per_sec = rng.Exponential(50.0);
    s.working_set_bytes = rng.Uniform(1e9, 6e9);
  }
  return step;
}

void BM_IngestScalarPerSample(benchmark::State& state) {
  // One scalar estimator object per stream per signal, updated stream by
  // stream — the shape the SoA banks replaced.
  std::vector<online::RollingWindow> cpu(kIngestStreams,
                                         online::RollingWindow(kIngestWindow, 300.0));
  std::vector<online::RollingWindow> ram = cpu, rate = cpu;
  std::vector<online::P2Quantile> p95(kIngestStreams, online::P2Quantile(0.95));
  std::vector<online::DecayingMax> ws(kIngestStreams, online::DecayingMax(0.995));
  const auto step = MakeIngestStep(kIngestStreams);
  for (auto _ : state) {
    for (int w = 0; w < kIngestStreams; ++w) {
      const online::TelemetrySample& s = step[w];
      cpu[w].Push(s.cpu_cores);
      ram[w].Push(s.ram_bytes);
      rate[w].Push(s.update_rows_per_sec);
      p95[w].Add(s.cpu_cores);
      ws[w].Push(s.working_set_bytes);
    }
    benchmark::DoNotOptimize(cpu.data());
  }
  state.SetItemsProcessed(state.iterations() * kIngestStreams);
}
BENCHMARK(BM_IngestScalarPerSample);

void BM_IngestBatch(benchmark::State& state) {
  online::StreamingProfileBuilder builder(kIngestStreams, kIngestWindow, 300.0);
  const auto step = MakeIngestStep(kIngestStreams);
  for (auto _ : state) {
    builder.IngestBatch(step.data(), 0, kIngestStreams);
    builder.CommitStep();
    benchmark::DoNotOptimize(builder.samples_seen());
  }
  state.SetItemsProcessed(state.iterations() * kIngestStreams);
}
BENCHMARK(BM_IngestBatch);

void BM_IngestBatchStriped(benchmark::State& state) {
  online::StreamingProfileBuilder builder(kIngestStreams, kIngestWindow, 300.0);
  online::IngestOptions options;
  options.threads = static_cast<int>(state.range(0));
  options.stripes = 16;  // enough stripes to feed 8 workers
  online::IngestPlane plane(&builder, options);
  const auto step = MakeIngestStep(kIngestStreams);
  for (auto _ : state) {
    plane.IngestStep(step);
    benchmark::DoNotOptimize(builder.samples_seen());
  }
  state.SetItemsProcessed(state.iterations() * kIngestStreams);
  state.SetLabel("threads=" + std::to_string(options.threads));
}
// Real time: the workers' CPU time is not on the caller's clock, so
// items/sec from CPU time would overstate the striped throughput.
BENCHMARK(BM_IngestBatchStriped)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

// Args: dims, evaluation budget. Evaluations grow as 1 + 2m, so an even
// budget ends one short of its limit and an odd one exactly on it; both
// parities are timed.
void BM_DirectSphere(benchmark::State& state) {
  const int dims = static_cast<int>(state.range(0));
  opt::DirectOptimizer direct;
  opt::DirectOptions opts;
  opts.max_evaluations = static_cast<int>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(direct.Minimize(
        [](const std::vector<double>& x) {
          double s = 0;
          for (double xi : x) s += (xi - 0.4) * (xi - 0.4);
          return s;
        },
        dims, opts));
  }
}
BENCHMARK(BM_DirectSphere)->ArgsProduct({{4, 32, 128}, {1000, 1001}});

}  // namespace
}  // namespace kairos

// Custom main instead of BENCHMARK_MAIN(): the harness flags (--smoke,
// --metrics-out) must be stripped before benchmark::Initialize, which
// rejects arguments it does not recognize, and the run ends by writing the
// standard BENCH_microbench.json report.
int main(int argc, char** argv) {
  kairos::bench::BenchReporter reporter("microbench", argc, argv);
  std::vector<char*> bench_args;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) continue;
    if (std::strncmp(argv[i], "--metrics-out=", 14) == 0) continue;
    bench_args.push_back(argv[i]);
  }
  int bench_argc = static_cast<int>(bench_args.size());
  benchmark::Initialize(&bench_argc, bench_args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return reporter.WriteReport();
}
