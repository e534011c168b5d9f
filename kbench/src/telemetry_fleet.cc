// telemetry-fleet: the monitoring half at fleet scale. 200k telemetry
// streams are ingested step by step through online::IngestPlane, its
// stripes run inline on one thread (the traced run adds a pass on the
// host's threads). Every control interval the current fingerprints are
// built the way the controller's DetectDrift does
// (IngestPlane::ForEachStripe -> StreamingProfileBuilder::Stats ->
// DriftDetector::ScanRange, folded in stripe order -> Decide). No solver
// and no evaluator run here.
//
// Streams are scaled copies of a pool of trace::MakeScenario diurnal
// workloads, so the inputs stay small while every stream is distinct.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include "bench.h"
#include "online/drift.h"
#include "online/ingest.h"
#include "online/streaming_profile.h"
#include "trace/scenario.h"
#include "util/rng.h"

namespace kbench {

namespace {

using namespace kairos;

constexpr int kStreams = 200000;
constexpr int kSteps = 64;
constexpr int kTemplates = 4096;
// The controller's defaults: rolling window, monitoring step, control
// interval and warm-up.
constexpr int kWindow = 12;
constexpr double kInterval = 300.0;
constexpr int kControlInterval = 2;
constexpr int kWarmup = 6;
constexpr int kSetupRepeats = 9;
// Ingest threads of the measured passes (see bench.h, Stamp).
constexpr int kMeasuredThreads = 1;

struct Inputs {
  // Template series, step-major: value of template p at step t is
  // [t * kTemplates + p].
  std::vector<double> cpu, ram, rate;
  std::vector<double> working_set;
  // Exact p95 CPU of each template over all steps (linear interpolation).
  std::vector<double> p95_cpu;
  std::vector<int> template_of;
  std::vector<double> scale;
  uint64_t digest = 0;

  void FillStep(int t, std::vector<online::TelemetrySample>* out) const {
    out->resize(kStreams);
    const size_t row = static_cast<size_t>(t) * kTemplates;
    for (int w = 0; w < kStreams; ++w) {
      const int p = template_of[w];
      const double s = scale[w];
      online::TelemetrySample& x = (*out)[w];
      x.cpu_cores = cpu[row + p] * s;
      x.ram_bytes = ram[row + p] * s;
      x.update_rows_per_sec = rate[row + p] * s;
      x.working_set_bytes = working_set[p] * s;
    }
  }
};

Inputs MakeInputs(uint64_t seed) {
  Inputs in;
  trace::ScenarioConfig config;
  config.workloads = kTemplates;
  config.steps = kSteps;
  config.seed = seed;
  const trace::ScenarioTelemetry pool =
      trace::MakeScenario(trace::ScenarioKind::kDiurnal, config);
  const size_t cells = static_cast<size_t>(kSteps) * kTemplates;
  in.cpu.resize(cells);
  in.ram.resize(cells);
  in.rate.resize(cells);
  for (int p = 0; p < kTemplates; ++p) {
    const monitor::WorkloadProfile& w = pool.profiles[p];
    for (int t = 0; t < kSteps; ++t) {
      in.cpu[static_cast<size_t>(t) * kTemplates + p] = w.cpu_cores.values()[t];
      in.ram[static_cast<size_t>(t) * kTemplates + p] = w.ram_bytes.values()[t];
      in.rate[static_cast<size_t>(t) * kTemplates + p] =
          w.update_rows_per_sec.values()[t];
    }
    in.working_set.push_back(w.working_set_bytes);
    std::vector<double> sorted = w.cpu_cores.values();
    std::sort(sorted.begin(), sorted.end());
    const double pos = 0.95 * static_cast<double>(sorted.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, sorted.size() - 1);
    in.p95_cpu.push_back(sorted[lo] +
                         (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]));
  }
  util::Rng rng(seed ^ 0x7E1E5EEDULL);
  in.template_of.resize(kStreams);
  in.scale.resize(kStreams);
  Digest d;
  for (int w = 0; w < kStreams; ++w) {
    in.template_of[w] = static_cast<int>(rng.UniformInt(0, kTemplates - 1));
    in.scale[w] = rng.Uniform(0.5, 1.5);
    d.Add(static_cast<uint64_t>(in.template_of[w]));
    d.Add(in.scale[w]);
  }
  for (double v : in.cpu) d.Add(v);
  in.digest = d.value();
  return in;
}

/// The detector's deviation rule, restated from DriftConfig.
bool Deviates(double current, double reference, double relative,
              double floor) {
  const double delta = std::abs(current - reference);
  return delta > floor && delta > relative * std::abs(reference);
}

/// Per-phase wall time of a traced pass.
struct Phases {
  double ingest_s = 0, summarize_s = 0, scan_s = 0;
  int64_t summarized_streams = 0;
};

/// Outcome of one pass over the steps.
struct Pass {
  uint64_t decisions = 0;  // digest of every control decision
  Stamp time;              // the step loop, less input generation and checks
  /// Mean relative error of the streaming lifetime p95 CPU estimate
  /// against the exact p95 of each stream's samples.
  double p95_error = 0;
};

/// Ingests every step through a fresh builder on a plane of `threads`
/// ingest threads and takes the drift decision every control interval.
/// Each decision is checked against an independent rescan. The CPU time of
/// each post-bootstrap control step goes to `request_s` when it is set;
/// `phases` collects wall times.
Pass RunPass(const Inputs& in, int threads, Phases* phases,
             std::vector<double>* request_s, Checker* checker) {
  online::StreamingProfileBuilder builder(kStreams, kWindow, kInterval);
  online::IngestOptions options;
  options.threads = threads;
  online::IngestPlane plane(&builder, options);
  const online::DriftConfig drift_config;
  online::DriftDetector drift(drift_config);
  std::vector<online::TelemetrySample> samples;
  std::vector<monitor::ProfileStats> stats(kStreams), reference;
  std::vector<online::DriftScan> scans(plane.stripes().num_stripes());
  Digest digest;
  Pass pass;
  Stamp since_control;
  bool bootstrapped = false;

  // Input generation and the decision checks are not the system's work:
  // their time is taken out of the pass's time.
  Stamp excluded;
  const Stamp pass_start = Stamp::Take();
  for (int step = 0; step < kSteps; ++step) {
    const Stamp fill_start = Stamp::Take();
    in.FillStep(step, &samples);
    Stamp t0 = Stamp::Take();
    excluded += t0 - fill_start;
    plane.IngestStep(samples);
    Stamp t1 = Stamp::Take();
    since_control += t1 - t0;
    if (phases != nullptr) phases->ingest_s += (t1 - t0).wall;
    if (static_cast<int>(builder.samples_seen()) < kWarmup) continue;
    if (bootstrapped && step % kControlInterval != 0) continue;

    // Fingerprints of every stream, each stripe summarising its own range.
    t0 = Stamp::Take();
    plane.ForEachStripe([&](int, int begin, int end) {
      for (int w = begin; w < end; ++w) stats[w] = builder.Stats(w);
    });
    t1 = Stamp::Take();
    online::DriftDecision decision;
    bool scanned = false;
    if (!bootstrapped) {
      drift.Rebase(step, stats);
    } else if (drift.ScanEnabled(step, stats.size())) {
      scanned = true;
      plane.ForEachStripe([&](int s, int begin, int end) {
        scans[s] = drift.ScanRange(stats, begin, end);
      });
      online::DriftScan folded;
      int drifted_shards = 0;
      for (const online::DriftScan& scan : scans) {
        if (scan.drifted_streams == 0) continue;
        if (folded.first_stream < 0) folded.first_stream = scan.first_stream;
        folded.drifted_streams += scan.drifted_streams;
        ++drifted_shards;
      }
      decision = drift.Decide(folded, drifted_shards);
      // A firing decision is followed by a re-solve, which rebases the
      // detector on the fingerprints it solved against.
      if (decision.resolve) drift.Rebase(step, stats);
    }
    const Stamp t2 = Stamp::Take();
    if (phases != nullptr) {
      phases->summarize_s += (t1 - t0).wall;
      phases->scan_s += (t2 - t1).wall;
      phases->summarized_streams += kStreams;
    }
    since_control += t2 - t0;
    if (bootstrapped && request_s != nullptr) {
      request_s->push_back(since_control.cpu);
    }
    since_control = Stamp();

    // Check the decision like a plan: rescan every stream independently.
    const Stamp check_start = Stamp::Take();
    std::string why;
    if (scanned) {
      int first = -1, drifted = 0;
      for (int w = 0; w < kStreams; ++w) {
        if (Deviates(stats[w].p95_cpu_cores, reference[w].p95_cpu_cores,
                     drift_config.relative_threshold,
                     drift_config.absolute_cpu_floor_cores) ||
            Deviates(stats[w].p95_ram_bytes, reference[w].p95_ram_bytes,
                     drift_config.relative_threshold,
                     drift_config.absolute_ram_floor_bytes)) {
          if (first < 0) first = w;
          ++drifted;
        }
      }
      const std::string reason =
          drifted > 0 ? "drift:w" + std::to_string(first) : "";
      if (decision.resolve != (drifted > 0) || decision.first_stream != first ||
          decision.drifted_streams != drifted || decision.reason != reason) {
        why = "step " + std::to_string(step) + ": decision (" +
              decision.reason + ", " + std::to_string(decision.drifted_streams) +
              ") != rescan (" + reason + ", " + std::to_string(drifted) + ")";
      }
    }
    checker->Record(why);
    if (!bootstrapped || decision.resolve) reference = stats;
    bootstrapped = true;
    digest.Add(static_cast<uint64_t>(step));
    digest.Add(decision.reason);
    digest.Add(static_cast<uint64_t>(decision.drifted_streams));
    digest.Add(static_cast<uint64_t>(decision.drifted_shards));
    excluded += Stamp::Take() - check_start;
  }
  pass.time = (Stamp::Take() - pass_start) - excluded;
  // The final fingerprints fold in the whole ingested state.
  for (int w = 0; w < kStreams; ++w) {
    const double estimate = builder.LifetimeP95Cpu(w);
    const double exact = in.p95_cpu[in.template_of[w]] * in.scale[w];
    pass.p95_error += std::abs(estimate - exact) / exact;
    if (w % 97 == 0) {
      digest.Add(stats[w].p95_cpu_cores);
      digest.Add(estimate);
    }
  }
  pass.p95_error /= kStreams;
  pass.decisions = digest.value();
  return pass;
}

}  // namespace

int RunTelemetryFleet(const RunArgs& args) {
  Report report;
  Checker checker;
  Inputs in;
  uint64_t input_digest = 0;
  for (int i = 0; i < kSetupRepeats; ++i) {
    in = Inputs();
    const Stamp t0 = Stamp::Take();
    in = MakeInputs(args.seed);
    {
      online::StreamingProfileBuilder builder(kStreams, kWindow, kInterval);
      online::IngestOptions options;
      options.threads = kMeasuredThreads;
      online::IngestPlane plane(&builder, options);
    }
    report.setup_s.push_back((Stamp::Take() - t0).cpu);
    if (i == 0) input_digest = in.digest;
    checker.Record(in.digest == input_digest
                       ? ""
                       : "input generation differs between set-ups");
  }

  const double samples_per_pass = static_cast<double>(kStreams) * kSteps;
  uint64_t first_pass = 0;
  Phases phases, parallel;
  double untraced_s = 0, traced_s = 0;
  int traced_passes = 0;

  if (args.trace) {
    // The same steps on the host's threads: the ingest speedup, and one
    // seed, one set of decisions, at every ingest thread count.
    first_pass = RunPass(in, args.threads, &parallel, nullptr, &checker).decisions;
  }
  const double start = Now();
  for (int round = 0; round == 0 || Now() - start < args.seconds; ++round) {
    const Pass pass = RunPass(in, kMeasuredThreads, nullptr, &report.request_s,
                              &checker);
    report.work += samples_per_pass;
    report.work_seconds += pass.time.cpu;
    report.result_cost = pass.p95_error;
    if (round == 0 && !args.trace) {
      first_pass = pass.decisions;
    } else {
      checker.Record(pass.decisions == first_pass
                         ? ""
                         : "drift decisions differ between passes or thread "
                           "counts");
    }
    if (!args.trace) continue;
    const Pass traced =
        RunPass(in, kMeasuredThreads, &phases, nullptr, &checker);
    checker.Record(traced.decisions == first_pass
                       ? ""
                       : "traced pass changes the drift decisions");
    untraced_s += pass.time.wall;
    traced_s += traced.time.wall;
    ++traced_passes;
  }

  if (args.trace) {
    auto& l = report.layers;
    const double traced_samples = samples_per_pass * traced_passes;
    l["online.ingest_s"] = phases.ingest_s;
    l["online.ingest_ns_per_sample"] = 1e9 * phases.ingest_s / traced_samples;
    l["online.ingest_samples_per_s.t1"] = traced_samples / phases.ingest_s;
    l["online.ingest_samples_per_s.tN"] = samples_per_pass / parallel.ingest_s;
    l["util.parallel_speedup"] =
        (phases.ingest_s / traced_passes) / parallel.ingest_s;
    l["online.summarize_s"] = phases.summarize_s;
    l["online.summarize_ns_per_stream"] =
        1e9 * phases.summarize_s /
        static_cast<double>(phases.summarized_streams);
    l["online.drift_scan_s"] = phases.scan_s;
    l["online.streams"] = kStreams;
    l["online.window_samples"] = kWindow;
    l["trace.coverage"] =
        (phases.ingest_s + phases.summarize_s + phases.scan_s) / traced_s;
    l["trace.overhead"] = traced_s / untraced_s;
  }
  PrintReport(args, report, checker, PeakRssMb());
  return 0;
}

}  // namespace kbench
