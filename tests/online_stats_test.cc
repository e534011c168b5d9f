// The allocation-free window fingerprint: StreamingProfileBuilder::Stats and
// monitor::Summarize (both on monitor::SummarizeWindow) against an oracle
// that never touches the kernel — util::Percentile, TimeSeries::Mean and
// TimeSeries::Max over RollingWindowBank::ToSeries — compared bitwise, field
// by field, at every prefix through the ring wrap.
//
// NaN is outside the contract: the sort the oracle runs is not well defined
// over a NaN, so no window here holds one; keeping NaN out of the banks is
// the ingest boundary's job. Likewise no window mixes +0 and -0, whose
// relative order that sort leaves unspecified.
#include "online/streaming_profile.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "monitor/profile.h"
#include "online/telemetry.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/timeseries.h"

namespace kairos::online {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

uint64_t Bits(double x) {
  uint64_t bits = 0;
  std::memcpy(&bits, &x, sizeof bits);
  return bits;
}

void ExpectBitwiseEqual(const monitor::ProfileStats& got,
                        const monitor::ProfileStats& want,
                        const std::string& where) {
  const auto field = [&](const char* name, double a, double b) {
    EXPECT_EQ(Bits(a), Bits(b)) << where << " " << name << ": " << a << " vs " << b;
  };
  field("mean_cpu_cores", got.mean_cpu_cores, want.mean_cpu_cores);
  field("p95_cpu_cores", got.p95_cpu_cores, want.p95_cpu_cores);
  field("peak_cpu_cores", got.peak_cpu_cores, want.peak_cpu_cores);
  field("mean_ram_bytes", got.mean_ram_bytes, want.mean_ram_bytes);
  field("p95_ram_bytes", got.p95_ram_bytes, want.p95_ram_bytes);
  field("peak_ram_bytes", got.peak_ram_bytes, want.peak_ram_bytes);
  field("p95_update_rows_per_sec", got.p95_update_rows_per_sec,
        want.p95_update_rows_per_sec);
  field("working_set_bytes", got.working_set_bytes, want.working_set_bytes);
}

monitor::ProfileStats Oracle(const monitor::WorkloadProfile& profile) {
  monitor::ProfileStats stats;
  stats.mean_cpu_cores = profile.cpu_cores.Mean();
  stats.p95_cpu_cores = util::Percentile(profile.cpu_cores.values(), 95.0);
  stats.peak_cpu_cores = profile.cpu_cores.Max();
  stats.mean_ram_bytes = profile.ram_bytes.Mean();
  stats.p95_ram_bytes = util::Percentile(profile.ram_bytes.values(), 95.0);
  stats.peak_ram_bytes = profile.ram_bytes.Max();
  stats.p95_update_rows_per_sec =
      util::Percentile(profile.update_rows_per_sec.values(), 95.0);
  stats.working_set_bytes = profile.working_set_bytes;
  return stats;
}

using SampleFn = std::function<double(util::Rng*, int step, int stream)>;

// Feeds `steps` steps into a W-sample builder and checks Stats and
// Summarize(Profile) against the oracle after every step, so every partial
// fill (size < W), the first full window and each ring offset are covered.
void CheckEveryPrefix(size_t window, int streams, int steps, uint64_t seed,
                      const SampleFn& sample) {
  StreamingProfileBuilder builder(streams, window, 300.0);
  util::Rng rng(seed);
  std::vector<TelemetrySample> step_samples(streams);
  for (int t = 0; t < steps; ++t) {
    for (int w = 0; w < streams; ++w) {
      TelemetrySample& s = step_samples[w];
      s.cpu_cores = sample(&rng, t, w);
      s.ram_bytes = sample(&rng, t, w);
      s.update_rows_per_sec = sample(&rng, t, w);
      s.working_set_bytes = rng.Uniform(1.0, 6.0);
    }
    builder.Ingest(step_samples);
    for (int w = 0; w < streams; ++w) {
      const monitor::WorkloadProfile profile = builder.Profile(w);
      const monitor::ProfileStats want = Oracle(profile);
      const std::string where =
          "W=" + std::to_string(window) + " t=" + std::to_string(t) +
          " w=" + std::to_string(w);
      ExpectBitwiseEqual(builder.Stats(w), want, where + " Stats");
      ExpectBitwiseEqual(monitor::Summarize(profile), want, where + " Summarize");
    }
  }
}

const size_t kWindows[] = {1, 2, 3, 7, 12, 21, 40,
                           StreamingProfileBuilder::kMaxWindowSamples};

int StepsFor(size_t window) { return static_cast<int>(2 * window + 5); }

TEST(StatsKernelTest, RandomWindowsMatchOracle) {
  for (size_t window : kWindows) {
    CheckEveryPrefix(window, 4, StepsFor(window), 101 + window,
                     [](util::Rng* rng, int, int) { return rng->Exponential(3.0); });
  }
}

TEST(StatsKernelTest, HeavyTiesMatchOracle) {
  // Four distinct values: the p95's two order statistics are usually equal
  // and often tie with the peak.
  for (size_t window : kWindows) {
    CheckEveryPrefix(window, 4, StepsFor(window), 211 + window,
                     [](util::Rng* rng, int, int) {
                       return 0.5 * static_cast<double>(rng->UniformInt(0, 3));
                     });
  }
}

TEST(StatsKernelTest, MonotoneRunsMatchOracle) {
  // Rising samples sink through the whole selection network every step;
  // falling ones never enter it once it is full.
  for (size_t window : kWindows) {
    CheckEveryPrefix(window, 2, StepsFor(window), 307,
                     [](util::Rng*, int t, int w) {
                       return w == 0 ? 1.0 + t : 1000.0 - t;
                     });
  }
}

TEST(StatsKernelTest, InfiniteSamplesMatchOracle) {
  // Sparse +inf and -inf among finite samples: the -inf seed of the
  // selection must not be mistaken for a sample, and inf arithmetic in the
  // mean and interpolation (inf - inf, inf * 0) must match bit for bit.
  for (size_t window : kWindows) {
    CheckEveryPrefix(window, 4, StepsFor(window), 401 + window,
                     [](util::Rng* rng, int, int) {
                       const int pick = static_cast<int>(rng->UniformInt(0, 9));
                       if (pick == 0) return kInf;
                       if (pick == 1) return -kInf;
                       return rng->Uniform(-5.0, 5.0);
                     });
  }
}

TEST(StatsKernelTest, AllNegativeInfinityWindowMatchesOracle) {
  CheckEveryPrefix(12, 1, 30, 5, [](util::Rng*, int, int) { return -kInf; });
}

TEST(StatsKernelTest, EmptyBuilderIsAllZeros) {
  StreamingProfileBuilder builder(2, 12, 300.0);
  ExpectBitwiseEqual(builder.Stats(1), monitor::ProfileStats(), "empty");
}

TEST(StatsKernelTest, SummarizeHandlesUnequalSeriesLengths) {
  util::Rng rng(9);
  const auto series = [&](size_t n) {
    std::vector<double> v(n);
    for (double& x : v) x = rng.Exponential(2.0);
    return util::TimeSeries(300.0, std::move(v));
  };
  monitor::WorkloadProfile profile;
  profile.cpu_cores = series(5);
  profile.ram_bytes = series(StreamingProfileBuilder::kMaxWindowSamples);
  profile.update_rows_per_sec = series(0);
  profile.working_set_bytes = 3.0;
  ExpectBitwiseEqual(monitor::Summarize(profile), Oracle(profile), "profile");
}

TEST(StatsKernelTest, WindowPastTheBoundIsRejected) {
  constexpr size_t kBound = StreamingProfileBuilder::kMaxWindowSamples;
  EXPECT_THROW(StreamingProfileBuilder(1, kBound + 1, 300.0), std::invalid_argument);
  EXPECT_THROW(StreamingProfileBuilder(1, 0, 300.0), std::invalid_argument);
  EXPECT_NO_THROW(StreamingProfileBuilder(1, kBound, 300.0));

  const std::vector<double> long_window(kBound + 1, 1.0);
  EXPECT_THROW(monitor::SummarizeWindow(long_window.data(), long_window.size()),
               std::invalid_argument);
  monitor::WorkloadProfile profile;
  profile.cpu_cores = util::TimeSeries(300.0, long_window);
  EXPECT_THROW(monitor::Summarize(profile), std::invalid_argument);
}

}  // namespace
}  // namespace kairos::online
