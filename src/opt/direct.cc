#include "opt/direct.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>

namespace kairos::opt {

namespace {

/// Squared side lengths (3^-l)^2 by trisection depth l, grown on demand.
/// Diameter() sums the same doubles a per-dimension std::pow produced, in
/// the same dimension order, so every diameter is bit-identical to it.
class SideSquares {
 public:
  double Diameter(const uint16_t* levels, int dims) {
    double s = 0;
    for (int d = 0; d < dims; ++d) s += Square(levels[d]);
    return 0.5 * std::sqrt(s);
  }

 private:
  double Square(uint16_t l) {
    while (table_.size() <= l) {
      const double side = std::pow(3.0, -static_cast<double>(table_.size()));
      table_.push_back(side * side);
    }
    return table_[l];
  }

  std::vector<double> table_;
};

/// Coordinates reserved at most up front (see Minimize).
constexpr size_t kReserveCoords = size_t{1} << 22;

}  // namespace

DirectResult DirectOptimizer::Minimize(const Objective& f, int dims,
                                       const DirectOptions& options) const {
  DirectResult result;
  if (dims <= 0) return result;
  const size_t n = static_cast<size_t>(dims);

  // Rectangle i: center centers[i*n ..], per-dimension trisection depth
  // levels[i*n ..] (side length in dim d is 3^-levels[i*n + d]), value
  // fvals[i] and diameter diams[i].
  //
  // Every evaluation adds one rectangle, so reserving the budget up front
  // (capped for huge budgets) spares the arrays re-allocations that would
  // hold two copies at once.
  const size_t reserve =
      std::min<size_t>(std::max(options.max_evaluations, 1),
                       std::max<size_t>(kReserveCoords / n, 1));
  std::vector<double> centers;
  std::vector<uint16_t> levels;
  std::vector<double> fvals;
  std::vector<double> diams;
  centers.reserve(reserve * n);
  levels.reserve(reserve * n);
  fvals.reserve(reserve);
  diams.reserve(reserve);
  centers.assign(n, 0.5);
  levels.assign(n, 0);
  SideSquares sides;

  // One reused point: the parent center while a rectangle is divided, with
  // a single coordinate displaced for each probe.
  std::vector<double> x(centers);
  fvals.push_back(f(x));
  diams.push_back(sides.Diameter(levels.data(), dims));
  result.evaluations = 1;
  result.x = x;
  result.fx = fvals[0];

  auto consider = [&](double fx) {
    if (fx < result.fx) {
      result.fx = fx;
      result.x = x;
    }
  };

  struct Probe {
    int dim;
    double f_plus, f_minus, w;
  };
  std::vector<Probe> probes;
  std::vector<uint16_t> parent_levels(n);

  for (int iter = 0; iter < options.max_iterations; ++iter) {
    if (result.evaluations >= options.max_evaluations) break;
    if (result.fx <= options.target_value) {
      result.hit_target = true;
      break;
    }
    // Every division samples a +/- pair: once none fits the remaining
    // budget, further iterations could only select and evaluate nothing.
    if (result.evaluations + 2 > options.max_evaluations) break;
    result.iterations = iter + 1;

    // Group rectangles by diameter; keep the best rect per group.
    std::map<double, size_t> best_per_diameter;  // diameter -> index
    for (size_t i = 0; i < fvals.size(); ++i) {
      auto [it, inserted] = best_per_diameter.try_emplace(diams[i], i);
      if (!inserted && fvals[i] < fvals[it->second]) it->second = i;
    }

    // Candidate (d, fmin) points in ascending diameter order.
    std::vector<std::pair<double, size_t>> groups(best_per_diameter.begin(),
                                                  best_per_diameter.end());

    // Potentially-optimal selection (Jones' two conditions).
    std::vector<size_t> selected;
    const double fbest = result.fx;
    for (size_t g = 0; g < groups.size(); ++g) {
      const double dj = groups[g].first;
      const double fj = fvals[groups[g].second];
      double k_lo = 0.0;
      double k_hi = std::numeric_limits<double>::infinity();
      bool dominated = false;
      for (size_t h = 0; h < groups.size(); ++h) {
        if (h == g) continue;
        const double di = groups[h].first;
        const double fi = fvals[groups[h].second];
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
      if (result.evaluations + 2 > options.max_evaluations) break;
      // Local copies: the appends below may reallocate the flat arrays.
      std::copy_n(centers.begin() + idx * n, n, x.begin());
      std::copy_n(levels.begin() + idx * n, n, parent_levels.begin());

      const uint16_t min_level =
          *std::min_element(parent_levels.begin(), parent_levels.end());
      const double delta = std::pow(3.0, -static_cast<double>(min_level) - 1.0);

      // Sample c +/- delta e_d for each long dimension.
      probes.clear();
      for (int d = 0; d < dims; ++d) {
        if (parent_levels[d] != min_level) continue;
        if (result.evaluations + 2 > options.max_evaluations) break;
        const double c = x[d];
        Probe p;
        p.dim = d;
        x[d] = c + delta;
        p.f_plus = f(x);
        consider(p.f_plus);
        x[d] = c - delta;
        p.f_minus = f(x);
        consider(p.f_minus);
        x[d] = c;
        result.evaluations += 2;
        p.w = std::min(p.f_plus, p.f_minus);
        probes.push_back(p);
      }
      std::sort(probes.begin(), probes.end(),
                [](const Probe& a, const Probe& b) { return a.w < b.w; });

      // Trisect best-w dimension first (Jones' division order): both
      // children of dimension d take the parent's depths at that point,
      // and the parent ends with the depths of its last children.
      double diameter = 0;
      for (const Probe& p : probes) {
        parent_levels[p.dim] += 1;
        diameter = sides.Diameter(parent_levels.data(), dims);
        const double c = x[p.dim];
        x[p.dim] = c + delta;
        centers.insert(centers.end(), x.begin(), x.end());
        x[p.dim] = c - delta;
        centers.insert(centers.end(), x.begin(), x.end());
        x[p.dim] = c;
        for (int child = 0; child < 2; ++child) {
          levels.insert(levels.end(), parent_levels.begin(), parent_levels.end());
          diams.push_back(diameter);
        }
        fvals.push_back(p.f_plus);
        fvals.push_back(p.f_minus);
      }
      std::copy(parent_levels.begin(), parent_levels.end(),
                levels.begin() + idx * n);
      diams[idx] = diameter;
    }
  }
  return result;
}

}  // namespace kairos::opt
