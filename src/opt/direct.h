// DIRECT (DIviding RECTangles) global optimization, after D. R. Jones —
// the general-purpose global solver the paper uses (via Tomlab) for the
// mixed-integer nonlinear consolidation program. This implementation works
// on the unit hypercube [0,1]^n; the consolidation engine encodes each
// (workload, replica) slot as one dimension mapped onto server indices.
//
// The epsilon parameter is DIRECT's local/global search balance knob that
// Section 6 discusses: larger epsilon biases toward large rectangles
// (global exploration), smaller epsilon polishes around the incumbent.
#ifndef KAIROS_OPT_DIRECT_H_
#define KAIROS_OPT_DIRECT_H_

#include <cstdint>
#include <functional>
#include <vector>

namespace kairos::opt {

/// Budget and behaviour knobs for one Minimize() call.
struct DirectOptions {
  int max_evaluations = 5000;
  int max_iterations = 1000;
  /// Potentially-optimal filter: required improvement over the incumbent,
  /// relative (Jones' epsilon). Larger = more global.
  double epsilon = 1e-4;
  /// Stop early when the incumbent reaches this value (e.g., a known
  /// feasibility threshold during the binary search on server count).
  double target_value = -1e300;
};

/// Result of a DIRECT run.
struct DirectResult {
  std::vector<double> x;     ///< Best point found (in [0,1]^n).
  double fx = 0;             ///< Objective at x.
  int evaluations = 0;
  /// Dividing iterations: select the potentially-optimal rectangles, then
  /// trisect them. Iterations that could divide nothing are not run.
  int iterations = 0;
  bool hit_target = false;   ///< Stopped because target_value was reached.
};

/// The optimizer. Stateless between Minimize() calls.
class DirectOptimizer {
 public:
  using Objective = std::function<double(const std::vector<double>&)>;

  /// Minimizes `f` over [0,1]^dims. The center is always evaluated; each
  /// division then samples +/- pairs, so evaluations grow as 1 + 2m. Before
  /// every iteration the run stops, in this order, when
  ///   1. the budget is spent (evaluations >= max_evaluations),
  ///   2. the target is reached (fx <= target_value; sets hit_target),
  ///   3. no pair fits the rest of the budget (evaluations + 2 >
  ///      max_evaluations), as after an even budget's last pair,
  /// or after max_iterations dividing iterations.
  DirectResult Minimize(const Objective& f, int dims, const DirectOptions& options) const;
};

}  // namespace kairos::opt

#endif  // KAIROS_OPT_DIRECT_H_
