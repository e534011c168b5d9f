// StreamingProfileBuilder: turns a telemetry stream into rolling
// monitor::WorkloadProfiles the consolidation solver can re-solve against.
// Each workload keeps the last W samples (the solver's time-varying view),
// a P² estimator for the lifetime p95, and a decaying-max working-set
// estimate — all O(1) per sample.
//
// State lives in SoA estimator banks (online/estimators.h): flat per-signal
// arrays updated by a batch hot loop, not per-workload objects. The batch
// step protocol makes the builder stripeable: IngestBatch(samples, b, e)
// touches only workloads [b, e), so disjoint stripes can be ingested from
// different threads (online/ingest.h), followed by one CommitStep(). The
// resulting state is bit-identical to the serial Ingest() path regardless
// of striping.
#ifndef KAIROS_ONLINE_STREAMING_PROFILE_H_
#define KAIROS_ONLINE_STREAMING_PROFILE_H_

#include <cstddef>
#include <vector>

#include "monitor/profile.h"
#include "online/estimators.h"
#include "online/telemetry.h"

namespace kairos::online {

class StreamingProfileBuilder {
 public:
  /// Largest W: Stats() summarises each window in a stack buffer of this
  /// many samples.
  static constexpr size_t kMaxWindowSamples = monitor::kMaxFingerprintSamples;

  /// `window_samples` is W, the rolling-profile length handed to re-solves;
  /// `interval_seconds` is the monitoring step. Throws
  /// std::invalid_argument unless 1 <= W <= kMaxWindowSamples.
  StreamingProfileBuilder(int num_workloads, size_t window_samples,
                          double interval_seconds,
                          double working_set_decay = 0.995);

  /// Ingests one step (one sample per workload, in workload order).
  /// Equivalent to IngestBatch over all workloads plus CommitStep().
  void Ingest(const std::vector<TelemetrySample>& samples);

  /// Batch hot loop: absorbs the current step's samples for workloads
  /// [begin, end). `samples` is the full step (indexed by workload id).
  /// Callers must cover every workload exactly once per step — disjoint
  /// ranges may run concurrently — then call CommitStep() once.
  void IngestBatch(const TelemetrySample* samples, int begin, int end);

  /// Advances the shared step state; single-threaded, once per step.
  void CommitStep();

  int num_workloads() const { return num_workloads_; }
  size_t samples_seen() const { return samples_seen_; }

  /// Rolling profile of workload `w` (series only — name/replicas/pinning
  /// metadata stay with the caller's problem template). Allocates three
  /// series; for the problem snapshot a re-solve runs on.
  monitor::WorkloadProfile Profile(int w) const;

  /// Window fingerprint of workload `w`: mean, p95 and peak of CPU and RAM
  /// and the p95 of the update rate over the last W samples, plus the
  /// working-set estimate. Bitwise equal to monitor::Summarize(Profile(w)),
  /// but allocation-free: each signal's window is gathered from the ring
  /// into a stack buffer and run through monitor::SummarizeWindow. Reads
  /// only stream w, so disjoint streams may be summarised concurrently.
  monitor::ProfileStats Stats(int w) const;

  /// Lifetime p95 CPU of workload `w` from the P² estimator (reporting).
  double LifetimeP95Cpu(int w) const { return p95_cpu_.Estimate(w); }

 private:
  int num_workloads_;
  size_t samples_seen_ = 0;
  RollingWindowBank cpu_, ram_, rate_;
  P2QuantileBank p95_cpu_;
  DecayingMaxBank working_set_;
};

}  // namespace kairos::online

#endif  // KAIROS_ONLINE_STREAMING_PROFILE_H_
