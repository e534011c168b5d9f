// WorkloadProfile: the resource time series describing one workload, as
// produced by the resource monitor (or imported from historical rrdtool
// statistics). This is the input record of the consolidation engine.
#ifndef KAIROS_MONITOR_PROFILE_H_
#define KAIROS_MONITOR_PROFILE_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "util/timeseries.h"

namespace kairos::monitor {

/// Per-workload resource utilization over time, normalized to standard
/// cores and bytes.
struct WorkloadProfile {
  std::string name;

  /// CPU used, in standard cores, including the per-instance OS+DBMS
  /// overhead of the dedicated source server (the combined-load estimator
  /// removes the duplicated overhead when co-locating).
  util::TimeSeries cpu_cores;

  /// RAM the workload actually needs (buffer pool gauging result, or
  /// scaled-down historical allocation when gauging was not possible).
  util::TimeSeries ram_bytes;

  /// Row-modification rate (updates+inserts+deletes), the disk model's
  /// load input.
  util::TimeSeries update_rows_per_sec;

  /// Working set size, the disk model's size input.
  double working_set_bytes = 0;

  /// --- Raw OS-reported statistics, kept for the naive-baseline
  /// comparisons of Figure 6 ---
  /// Allocated (RSS) memory as the OS reports it (overestimate).
  util::TimeSeries os_ram_bytes;
  /// Physical write throughput as iostat reports it on the dedicated
  /// server, including idle-time flushing (overestimate of requirement).
  util::TimeSeries os_write_bytes_per_sec;

  /// Number of replicas to place (each on a distinct server).
  int replicas = 1;
  /// If >= 0, this workload must be placed on that server index.
  int pinned_server = -1;

  /// Peak values (conveniences over the series).
  double PeakCpuCores() const { return cpu_cores.Max(); }
  double PeakRamBytes() const { return ram_bytes.Max(); }
  double PeakUpdateRate() const { return update_rows_per_sec.Max(); }
};

/// Summary statistics of one profile — the compact fingerprint the online
/// drift detector compares between the profile a plan was solved against
/// and the live rolling profile.
struct ProfileStats {
  double mean_cpu_cores = 0;
  double p95_cpu_cores = 0;
  double peak_cpu_cores = 0;
  double mean_ram_bytes = 0;
  double p95_ram_bytes = 0;
  double peak_ram_bytes = 0;
  double p95_update_rows_per_sec = 0;
  double working_set_bytes = 0;
};

/// Longest signal window the fingerprint is defined for. The kernel keeps
/// its order statistics in a fixed stack buffer sized for this bound; the
/// online windows in use are a dozen samples, so 256 leaves wide margin.
inline constexpr size_t kMaxFingerprintSamples = 256;

/// Mean, p95 and peak of one signal window.
struct WindowStats {
  double mean = 0;
  double p95 = 0;
  double peak = 0;
};

/// The per-signal fingerprint kernel over `n` samples, oldest first. Bitwise
/// equal to util::TimeSeries's Mean(), Percentile(95.0) and Max() over the
/// same samples, without allocating or sorting: the mean is the
/// chronological sum, the peak a running max (first maximum wins, as
/// std::max_element), and the p95 interpolates util::Percentile's two order
/// statistics, taken from a branchless top-m selection. NaN samples are
/// outside the contract, as they are for the sort it replaces; so is which
/// of +0 and -0 a tie between them yields. Throws std::invalid_argument
/// when `n` exceeds kMaxFingerprintSamples. All zeros when `n` is 0.
WindowStats SummarizeWindow(const double* values, size_t n);

/// Assembles a fingerprint from the window summaries of its three signals.
ProfileStats Fingerprint(const WindowStats& cpu, const WindowStats& ram,
                         const WindowStats& rate, double working_set_bytes);

/// Computes the summary fingerprint of a profile: SummarizeWindow over each
/// series (so each must hold at most kMaxFingerprintSamples samples). The
/// online StreamingProfileBuilder::Stats runs the same kernel on its ring
/// buffers, so there is one fingerprint definition.
ProfileStats Summarize(const WorkloadProfile& profile);

}  // namespace kairos::monitor

#endif  // KAIROS_MONITOR_PROFILE_H_
