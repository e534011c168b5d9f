#include "opt/direct.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <random>
#include <string>

namespace kairos::opt {
namespace {

double Sphere(const std::vector<double>& x, const std::vector<double>& center) {
  double s = 0;
  for (size_t i = 0; i < x.size(); ++i) {
    const double d = x[i] - center[i];
    s += d * d;
  }
  return s;
}

TEST(DirectTest, MinimizesSphere1D) {
  DirectOptimizer direct;
  DirectOptions opts;
  opts.max_evaluations = 300;
  const auto res = direct.Minimize(
      [](const std::vector<double>& x) { return Sphere(x, {0.7}); }, 1, opts);
  EXPECT_NEAR(res.x[0], 0.7, 0.02);
  EXPECT_LT(res.fx, 1e-3);
}

TEST(DirectTest, MinimizesSphere4D) {
  DirectOptimizer direct;
  DirectOptions opts;
  opts.max_evaluations = 3000;
  const std::vector<double> center{0.2, 0.8, 0.5, 0.35};
  const auto res = direct.Minimize(
      [&](const std::vector<double>& x) { return Sphere(x, center); }, 4, opts);
  EXPECT_LT(res.fx, 0.01);
}

TEST(DirectTest, EscapesLocalMinima) {
  // Rastrigin-flavored multimodal function on [0,1], global min at 0.5.
  DirectOptimizer direct;
  DirectOptions opts;
  opts.max_evaluations = 2000;
  const auto f = [](const std::vector<double>& x) {
    double s = 0;
    for (double xi : x) {
      const double z = (xi - 0.5) * 8.0;
      s += z * z - 3.0 * std::cos(2.0 * M_PI * z) + 3.0;
    }
    return s;
  };
  const auto res = direct.Minimize(f, 2, opts);
  EXPECT_LT(res.fx, 0.5);
  EXPECT_NEAR(res.x[0], 0.5, 0.05);
  EXPECT_NEAR(res.x[1], 0.5, 0.05);
}

TEST(DirectTest, RespectsEvaluationBudget) {
  DirectOptimizer direct;
  DirectOptions opts;
  opts.max_evaluations = 100;
  int calls = 0;
  direct.Minimize(
      [&](const std::vector<double>& x) {
        ++calls;
        return Sphere(x, {0.3, 0.3, 0.3});
      },
      3, opts);
  EXPECT_LE(calls, opts.max_evaluations);
  EXPECT_GE(calls, 50);
}

TEST(DirectTest, StopsWhenNoPairFitsTheBudget) {
  // An even budget ends one evaluation short (1 + 2m evaluations): the run
  // must stop there instead of idling through max_iterations.
  DirectOptimizer direct;
  DirectOptions opts;
  opts.max_evaluations = 500;
  const std::vector<double> center(24, 0.3);
  const auto res = direct.Minimize(
      [&](const std::vector<double>& x) { return Sphere(x, center); }, 24, opts);
  EXPECT_EQ(res.evaluations, 499);
  EXPECT_FALSE(res.hit_target);
  EXPECT_LT(res.iterations, 50);
  EXPECT_LT(res.iterations, opts.max_iterations);
}

TEST(DirectTest, StopsAtTargetValue) {
  DirectOptimizer direct;
  DirectOptions opts;
  opts.max_evaluations = 100000;
  opts.target_value = 0.01;
  const auto res = direct.Minimize(
      [](const std::vector<double>& x) { return Sphere(x, {0.5, 0.5}); }, 2, opts);
  EXPECT_TRUE(res.hit_target);
  EXPECT_LT(res.evaluations, 1000);
}

TEST(DirectTest, HandlesFlatFunction) {
  DirectOptimizer direct;
  DirectOptions opts;
  opts.max_evaluations = 200;
  const auto res =
      direct.Minimize([](const std::vector<double>&) { return 7.0; }, 3, opts);
  EXPECT_DOUBLE_EQ(res.fx, 7.0);
}

TEST(DirectTest, ZeroDims) {
  DirectOptimizer direct;
  const auto res =
      direct.Minimize([](const std::vector<double>&) { return 1.0; }, 0,
                      DirectOptions{});
  EXPECT_TRUE(res.x.empty());
}

TEST(DirectTest, EpsilonBiasesSearch) {
  // Both settings minimize; with a deceptive function the more-global
  // epsilon should not do worse than a tiny epsilon at equal budget.
  const auto f = [](const std::vector<double>& x) {
    // Deep narrow basin near 0.9, broad shallow basin near 0.3.
    const double a = (x[0] - 0.9) / 0.02;
    const double b = (x[0] - 0.3) / 0.3;
    return std::min(a * a - 2.0, b * b - 1.0);
  };
  DirectOptimizer direct;
  DirectOptions global;
  global.max_evaluations = 1500;
  global.epsilon = 1e-2;
  DirectOptions local = global;
  local.epsilon = 1e-7;
  const auto res_g = direct.Minimize(f, 1, global);
  const auto res_l = direct.Minimize(f, 1, local);
  EXPECT_LE(res_g.fx, -1.9);   // found the deep basin
  EXPECT_LE(res_l.fx, -0.95);  // at least the shallow one
}

TEST(DirectTest, BestPointWithinBounds) {
  DirectOptimizer direct;
  DirectOptions opts;
  opts.max_evaluations = 500;
  const auto res = direct.Minimize(
      [](const std::vector<double>& x) { return -x[0] - x[1]; }, 2, opts);
  for (double v : res.x) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
  EXPECT_GT(res.x[0], 0.8);  // pushed toward the boundary
}

}  // namespace

// ---------------------------------------------------------------------------
// Parity oracle: the straightforward Minimize (per-rectangle vectors, a
// std::pow per diameter term, iterations until max_iterations), kept as the
// reference the optimized implementation must match bit for bit.
// ---------------------------------------------------------------------------
namespace reference {

struct Rect {
  std::vector<double> center;
  std::vector<uint16_t> levels;
  double f = 0;
  double diameter = 0;
};

double Diameter(const std::vector<uint16_t>& levels) {
  double s = 0;
  for (uint16_t l : levels) {
    const double side = std::pow(3.0, -static_cast<double>(l));
    s += side * side;
  }
  return 0.5 * std::sqrt(s);
}

DirectResult Minimize(const DirectOptimizer::Objective& f, int dims,
                      const DirectOptions& options) {
  DirectResult result;
  if (dims <= 0) return result;

  std::vector<Rect> rects;
  Rect root;
  root.center.assign(dims, 0.5);
  root.levels.assign(dims, 0);
  root.f = f(root.center);
  root.diameter = Diameter(root.levels);
  result.evaluations = 1;
  result.x = root.center;
  result.fx = root.f;
  rects.push_back(std::move(root));

  auto consider = [&](const std::vector<double>& x, double fx) {
    if (fx < result.fx) {
      result.fx = fx;
      result.x = x;
    }
  };

  for (int iter = 0; iter < options.max_iterations; ++iter) {
    if (result.evaluations >= options.max_evaluations) break;
    if (result.fx <= options.target_value) {
      result.hit_target = true;
      break;
    }
    result.iterations = iter + 1;

    // Group rectangles by diameter; keep the best rect per group.
    std::map<double, size_t> best_per_diameter;  // diameter -> index
    for (size_t i = 0; i < rects.size(); ++i) {
      auto [it, inserted] = best_per_diameter.try_emplace(rects[i].diameter, i);
      if (!inserted && rects[i].f < rects[it->second].f) it->second = i;
    }

    // Candidate (d, fmin) points in ascending diameter order.
    std::vector<std::pair<double, size_t>> groups(best_per_diameter.begin(),
                                                  best_per_diameter.end());

    // Potentially-optimal selection (Jones' two conditions).
    std::vector<size_t> selected;
    const double fbest = result.fx;
    for (size_t g = 0; g < groups.size(); ++g) {
      const double dj = groups[g].first;
      const double fj = rects[groups[g].second].f;
      double k_lo = 0.0;
      double k_hi = std::numeric_limits<double>::infinity();
      bool dominated = false;
      for (size_t h = 0; h < groups.size(); ++h) {
        if (h == g) continue;
        const double di = groups[h].first;
        const double fi = rects[groups[h].second].f;
        if (di < dj) {
          k_lo = std::max(k_lo, (fj - fi) / (dj - di));
        } else if (di > dj) {
          k_hi = std::min(k_hi, (fi - fj) / (di - dj));
        } else if (fi < fj) {
          dominated = true;
        }
      }
      if (dominated || k_lo > k_hi) continue;
      // Nontrivial improvement condition with the most favorable K.
      const double k = std::min(k_hi, 1e300);
      const double threshold =
          fbest - options.epsilon * std::max(std::fabs(fbest), 1e-12);
      if (std::isfinite(k)) {
        if (fj - k * dj > threshold) continue;
      }
      selected.push_back(groups[g].second);
    }
    if (selected.empty()) {
      // Numerical corner: always divide the largest rectangle.
      selected.push_back(groups.back().second);
    }

    // Divide each selected rectangle along its longest dimensions.
    for (size_t idx : selected) {
      if (result.evaluations >= options.max_evaluations) break;
      // Copy: rects will be appended to (iterator invalidation).
      Rect parent = rects[idx];

      uint16_t min_level = std::numeric_limits<uint16_t>::max();
      for (uint16_t l : parent.levels) min_level = std::min(min_level, l);
      std::vector<int> long_dims;
      for (int d = 0; d < dims; ++d) {
        if (parent.levels[d] == min_level) long_dims.push_back(d);
      }
      const double delta = std::pow(3.0, -static_cast<double>(min_level) - 1.0);

      // Sample c +/- delta e_d for each long dimension.
      struct Probe {
        int dim;
        double f_plus, f_minus, w;
        std::vector<double> x_plus, x_minus;
      };
      std::vector<Probe> probes;
      for (int d : long_dims) {
        if (result.evaluations + 2 > options.max_evaluations) break;
        Probe p;
        p.dim = d;
        p.x_plus = parent.center;
        p.x_plus[d] += delta;
        p.x_minus = parent.center;
        p.x_minus[d] -= delta;
        p.f_plus = f(p.x_plus);
        p.f_minus = f(p.x_minus);
        result.evaluations += 2;
        consider(p.x_plus, p.f_plus);
        consider(p.x_minus, p.f_minus);
        p.w = std::min(p.f_plus, p.f_minus);
        probes.push_back(std::move(p));
      }
      if (probes.empty()) continue;
      std::sort(probes.begin(), probes.end(),
                [](const Probe& a, const Probe& b) { return a.w < b.w; });

      // Trisect best-w dimension first (Jones' division order). Work on the
      // local copy: push_back below may reallocate `rects`.
      for (const Probe& p : probes) {
        parent.levels[p.dim] += 1;
        Rect plus;
        plus.center = p.x_plus;
        plus.levels = parent.levels;
        plus.f = p.f_plus;
        plus.diameter = Diameter(plus.levels);
        Rect minus;
        minus.center = p.x_minus;
        minus.levels = parent.levels;
        minus.f = p.f_minus;
        minus.diameter = Diameter(minus.levels);
        rects.push_back(std::move(plus));
        rects.push_back(std::move(minus));
      }
      parent.diameter = Diameter(parent.levels);
      rects[idx] = std::move(parent);
    }
  }
  return result;
}

}  // namespace reference

namespace {

uint64_t Bits(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

/// Asserts bitwise-equal x and fx plus equal evaluations and hit_target.
/// Iteration counts differ by design: the reference idles on after the
/// last affordable pair.
void ExpectParity(const DirectOptimizer::Objective& f, int dims,
                  const DirectOptions& opts, const std::string& label) {
  SCOPED_TRACE(label);
  const DirectResult want = reference::Minimize(f, dims, opts);
  const DirectResult got = DirectOptimizer().Minimize(f, dims, opts);
  EXPECT_EQ(Bits(got.fx), Bits(want.fx));
  EXPECT_EQ(got.evaluations, want.evaluations);
  EXPECT_EQ(got.hit_target, want.hit_target);
  EXPECT_LE(got.iterations, want.iterations);
  ASSERT_EQ(got.x.size(), want.x.size());
  for (size_t i = 0; i < want.x.size(); ++i) {
    ASSERT_EQ(Bits(got.x[i]), Bits(want.x[i])) << "x[" << i << "]";
  }
}

/// Seeded objectives: a random anisotropic bowl with a cosine ripple, a
/// constant, a coarse staircase (few distinct values, so most of the
/// selection runs on ties, like the engine's decoded server indices) and a
/// staircase peaked at the center (every +/- pair ties, both improving).
std::vector<std::pair<std::string, DirectOptimizer::Objective>> Objectives(
    int dims, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<double> center(dims), weight(dims);
  for (int d = 0; d < dims; ++d) {
    center[d] = unit(rng);
    weight[d] = 0.2 + 2.0 * unit(rng);
  }
  const auto random_bowl = [center, weight](const std::vector<double>& x) {
    double s = 0;
    for (size_t i = 0; i < x.size(); ++i) {
      const double z = x[i] - center[i];
      s += weight[i] * z * z + 0.05 * std::cos(17.0 * z);
    }
    return s;
  };
  const auto flat = [](const std::vector<double>&) { return 3.0; };
  const auto staircase = [center](const std::vector<double>& x) {
    int s = 0;
    for (size_t i = 0; i < x.size(); ++i) {
      s += std::abs(static_cast<int>(x[i] * 4) - static_cast<int>(center[i] * 4));
    }
    return static_cast<double>(s);
  };
  const auto symmetric = [](const std::vector<double>& x) {
    double s = 0;
    for (double xi : x) s -= std::floor(std::fabs(xi - 0.5) * 8);
    return s;
  };
  return {{"random", random_bowl},
          {"flat", flat},
          {"staircase", staircase},
          {"symmetric", symmetric}};
}

TEST(DirectParityTest, MatchesReferenceAcrossDimsBudgetsAndEpsilon) {
  const int kDims[] = {1, 2, 4, 24, 97, 128};
  const int kBudgets[] = {1, 2, 3, 4, 5, 64, 65, 400, 401};
  const double kEpsilons[] = {1e-7, 1e-4, 1e-2};
  for (int dims : kDims) {
    for (const auto& [name, f] : Objectives(dims, 1000 + dims)) {
      for (int budget : kBudgets) {
        for (double eps : kEpsilons) {
          DirectOptions opts;
          opts.max_evaluations = budget;
          opts.epsilon = eps;
          ExpectParity(f, dims, opts,
                       name + " dims=" + std::to_string(dims) +
                           " budget=" + std::to_string(budget) +
                           " eps=" + std::to_string(eps));
        }
      }
    }
  }
}

TEST(DirectParityTest, MatchesReferenceOnDeepLowDimSearches) {
  // Long runs in few dimensions drive trisection depths far down the
  // side-length table.
  for (int dims : {1, 2}) {
    for (const auto& [name, f] : Objectives(dims, 77 + dims)) {
      for (int budget : {2000, 2001}) {
        DirectOptions opts;
        opts.max_evaluations = budget;
        ExpectParity(f, dims, opts,
                     name + " dims=" + std::to_string(dims) +
                         " budget=" + std::to_string(budget));
      }
    }
  }
}

TEST(DirectParityTest, TargetReachedOnTheLastAffordablePair) {
  // Find an even budget whose final pair is the one that first reaches the
  // incumbent value, then use that value as the target: the run must stop
  // with hit_target set, because the target check precedes the no-pair-fits
  // check.
  for (int dims : {2, 4, 24}) {
    const auto objectives = Objectives(dims, 500 + dims);
    const DirectOptimizer::Objective& f = objectives[0].second;
    bool found = false;
    for (int budget = 10; budget <= 400 && !found; budget += 2) {
      DirectOptions opts;
      opts.max_evaluations = budget;
      opts.target_value = reference::Minimize(f, dims, opts).fx;
      const DirectResult want = reference::Minimize(f, dims, opts);
      if (!want.hit_target || want.evaluations != budget - 1) continue;
      found = true;
      ExpectParity(f, dims, opts,
                   "dims=" + std::to_string(dims) +
                       " budget=" + std::to_string(budget));
      EXPECT_TRUE(DirectOptimizer().Minimize(f, dims, opts).hit_target);
    }
    EXPECT_TRUE(found) << "dims=" << dims;
  }
}

}  // namespace
}  // namespace kairos::opt
