#include "core/evaluator.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "util/rng.h"
#include "util/units.h"

namespace kairos::core {
namespace {

monitor::WorkloadProfile MakeProfile(const std::string& name, double cpu_cores,
                                     double ram_gb, double rows = 0,
                                     int samples = 4) {
  monitor::WorkloadProfile p;
  p.name = name;
  p.cpu_cores = util::TimeSeries::Constant(300, samples, cpu_cores);
  p.ram_bytes = util::TimeSeries::Constant(300, samples,
                                           ram_gb * static_cast<double>(util::kGiB));
  p.update_rows_per_sec = util::TimeSeries::Constant(300, samples, rows);
  p.working_set_bytes = ram_gb * 0.8 * static_cast<double>(util::kGiB);
  return p;
}

/// A disk model with a flat ~10000 rows/s frontier over 1-3 GB.
model::DiskModel FlatDiskModel() {
  std::vector<model::ProfilePoint> points;
  for (double ws : {1e9, 2e9, 3e9}) {
    for (double rate : {2000.0, 6000.0, 10000.0}) {
      model::ProfilePoint p;
      p.working_set_bytes = ws;
      p.target_rows_per_sec = rate;
      p.achieved_rows_per_sec = rate;
      p.write_bytes_per_sec = 150 * rate;
      points.push_back(p);
    }
  }
  return model::DiskModel::Fit(points);
}

ConsolidationProblem SmallProblem(int n, double cpu_each = 1.0, double ram_gb = 8.0) {
  ConsolidationProblem prob;
  for (int i = 0; i < n; ++i) {
    prob.workloads.push_back(MakeProfile("w" + std::to_string(i), cpu_each, ram_gb));
  }
  return prob;
}

TEST(EvaluatorTest, FewerServersAlwaysCheaper) {
  ConsolidationProblem prob = SmallProblem(4, 0.5, 4.0);
  Evaluator ev(prob, 4);
  // All on one server (fits easily) vs spread across four.
  const double packed = ev.Evaluate({0, 0, 0, 0});
  const double spread = ev.Evaluate({0, 1, 2, 3});
  EXPECT_LT(packed, spread);
}

TEST(EvaluatorTest, BalancePreferredAtEqualServerCount) {
  ConsolidationProblem prob = SmallProblem(4, 2.0, 8.0);
  Evaluator ev(prob, 2);
  const double balanced = ev.Evaluate({0, 0, 1, 1});
  const double skewed = ev.Evaluate({0, 0, 0, 1});
  EXPECT_LT(balanced, skewed);
}

TEST(EvaluatorTest, CpuViolationPenalized) {
  // 12-core target: 8 workloads of 2 cores each = 16 cores on one server.
  ConsolidationProblem prob = SmallProblem(8, 2.0, 1.0);
  Evaluator ev(prob, 8);
  std::vector<int> packed(8, 0);
  std::vector<int> spread{0, 0, 0, 1, 1, 1, 0, 1};
  EXPECT_GT(ev.Evaluate(packed), ev.Evaluate(spread));
  ev.Load(packed);
  EXPECT_FALSE(ev.IsFeasible());
  ev.Load(spread);
  EXPECT_TRUE(ev.IsFeasible());
}

TEST(EvaluatorTest, RamViolationPenalized) {
  // 96 GB target: two 60 GB workloads cannot share.
  ConsolidationProblem prob = SmallProblem(2, 0.1, 60.0);
  Evaluator ev(prob, 2);
  ev.Load({0, 0});
  EXPECT_FALSE(ev.IsFeasible());
  ev.Load({0, 1});
  EXPECT_TRUE(ev.IsFeasible());
}

TEST(EvaluatorTest, ReplicasForcedApart) {
  ConsolidationProblem prob = SmallProblem(2, 0.5, 4.0);
  prob.workloads[0].replicas = 2;
  Evaluator ev(prob, 3);
  ASSERT_EQ(ev.num_slots(), 3);
  // Slots 0,1 are replicas of workload 0.
  ev.Load({0, 0, 1});
  EXPECT_FALSE(ev.IsFeasible());
  ev.Load({0, 1, 1});
  EXPECT_TRUE(ev.IsFeasible());
}

TEST(EvaluatorTest, AntiAffinityPairs) {
  ConsolidationProblem prob = SmallProblem(3, 0.5, 4.0);
  prob.anti_affinity.push_back({0, 1});
  Evaluator ev(prob, 2);
  ev.Load({0, 0, 1});
  EXPECT_FALSE(ev.IsFeasible());
  ev.Load({0, 1, 0});
  EXPECT_TRUE(ev.IsFeasible());
}

TEST(EvaluatorTest, PinnedSlotPenalizedElsewhere) {
  ConsolidationProblem prob = SmallProblem(2, 0.5, 4.0);
  prob.workloads[1].pinned_server = 1;
  Evaluator ev(prob, 2);
  const double wrong = ev.Evaluate({0, 0});
  const double right = ev.Evaluate({0, 1});
  EXPECT_GT(wrong, right + 1e6);
}

TEST(EvaluatorTest, MoveDeltaMatchesFullRecompute) {
  ConsolidationProblem prob = SmallProblem(6, 1.3, 9.0);
  prob.workloads[2].replicas = 2;
  Evaluator ev(prob, 4);
  util::Rng rng(3);
  std::vector<int> assignment(ev.num_slots());
  for (auto& a : assignment) a = static_cast<int>(rng.UniformInt(0, 3));
  ev.Load(assignment);
  for (int trial = 0; trial < 200; ++trial) {
    const int slot = static_cast<int>(rng.UniformInt(0, ev.num_slots() - 1));
    const int to = static_cast<int>(rng.UniformInt(0, 3));
    const double delta = ev.MoveDelta(slot, to);
    std::vector<int> moved = ev.assignment();
    const double before = ev.Evaluate(moved);
    moved[slot] = to;
    const double after = ev.Evaluate(moved);
    EXPECT_NEAR(delta, after - before, 1e-6 * std::max(1.0, std::abs(after)));
    // Occasionally apply the move to vary the cached state.
    if (trial % 3 == 0) ev.ApplyMove(slot, to);
  }
}

TEST(EvaluatorTest, ApplyMoveKeepsCostConsistent) {
  ConsolidationProblem prob = SmallProblem(5, 0.8, 6.0);
  Evaluator ev(prob, 3);
  util::Rng rng(4);
  std::vector<int> assignment(ev.num_slots(), 0);
  ev.Load(assignment);
  for (int i = 0; i < 100; ++i) {
    const int slot = static_cast<int>(rng.UniformInt(0, ev.num_slots() - 1));
    const int to = static_cast<int>(rng.UniformInt(0, 2));
    ev.ApplyMove(slot, to);
  }
  EXPECT_NEAR(ev.current_cost(), ev.Evaluate(ev.assignment()),
              1e-6 * std::max(1.0, ev.current_cost()));
}

TEST(EvaluatorTest, ServerLoadSnapshot) {
  ConsolidationProblem prob = SmallProblem(3, 1.0, 8.0);
  Evaluator ev(prob, 2);
  ev.Load({0, 0, 1});
  const auto s0 = ev.GetServerLoad(0);
  const auto s1 = ev.GetServerLoad(1);
  EXPECT_TRUE(s0.used);
  EXPECT_EQ(s0.num_slots, 2);
  EXPECT_EQ(s1.num_slots, 1);
  // Two workloads' CPU plus one instance overhead.
  EXPECT_NEAR(s0.cpu_cores[0], 2.0 - prob.per_instance_cpu_overhead_cores, 1e-9);
  const auto unused = [&] {
    Evaluator e2(prob, 3);
    e2.Load({0, 0, 0});
    return e2.GetServerLoad(2);
  }();
  EXPECT_FALSE(unused.used);
}

TEST(EvaluatorTest, DiskConstraintViaModel) {
  const model::DiskModel m = FlatDiskModel();
  ASSERT_TRUE(m.valid());

  ConsolidationProblem prob;
  prob.disk_model = &m;
  prob.workloads.push_back(MakeProfile("a", 0.2, 4.0, 7000));
  prob.workloads.push_back(MakeProfile("b", 0.2, 4.0, 7000));
  Evaluator ev(prob, 2);
  ev.Load({0, 0});  // 14000 rows/s > 0.9 * ~10000
  EXPECT_FALSE(ev.IsFeasible());
  ev.Load({0, 1});
  EXPECT_TRUE(ev.IsFeasible());
}

TEST(EvaluatorMigrationTest, ChargesMovedSlots) {
  ConsolidationProblem prob = SmallProblem(4, 0.5, 4.0);
  prob.current_assignment = {0, 0, 1, 1};
  prob.migration_cost_weight = 10.0;
  prob.migration_move_cost = {1.0, 2.0, 1.0, 1.0};
  Evaluator ev(prob, 2);

  ev.Load({0, 0, 1, 1});  // stay put: no penalty
  EXPECT_DOUBLE_EQ(ev.migration_cost(), 0.0);
  EXPECT_EQ(ev.MovesFromCurrent(), 0);

  ev.Load({1, 0, 1, 0});  // w0 moves (cost 1), w3 moves (cost 1)
  EXPECT_DOUBLE_EQ(ev.migration_cost(), 20.0);
  EXPECT_EQ(ev.MovesFromCurrent(), 2);

  ev.Load({0, 1, 1, 1});  // w1 moves at double cost
  EXPECT_DOUBLE_EQ(ev.migration_cost(), 20.0);

  // One-shot and incremental evaluation agree, including the penalty.
  EXPECT_DOUBLE_EQ(ev.Evaluate({1, 0, 1, 0}),
                   [&] { Evaluator e2(prob, 2); e2.Load({1, 0, 1, 0});
                         return e2.current_cost(); }());
}

TEST(EvaluatorMigrationTest, MoveDeltaMatchesReload) {
  ConsolidationProblem prob = SmallProblem(5, 0.8, 6.0);
  prob.current_assignment = {0, 0, 1, 1, 2};
  prob.migration_cost_weight = 25.0;
  Evaluator ev(prob, 3);
  ev.Load({0, 0, 1, 1, 2});

  for (int slot = 0; slot < 5; ++slot) {
    for (int to = 0; to < 3; ++to) {
      const double predicted = ev.current_cost() + ev.MoveDelta(slot, to);
      Evaluator fresh(prob, 3);
      std::vector<int> moved = ev.assignment();
      moved[slot] = to;
      fresh.Load(moved);
      EXPECT_NEAR(predicted, fresh.current_cost(), 1e-6)
          << "slot " << slot << " -> " << to;
    }
  }

  // ApplyMove keeps the incremental migration cost in sync with a reload.
  ev.ApplyMove(0, 2);
  ev.ApplyMove(4, 0);
  Evaluator fresh(prob, 3);
  fresh.Load(ev.assignment());
  EXPECT_NEAR(ev.current_cost(), fresh.current_cost(), 1e-6);
  EXPECT_DOUBLE_EQ(ev.migration_cost(), fresh.migration_cost());
  EXPECT_EQ(ev.MovesFromCurrent(), 2);
}

TEST(EvaluatorBatchTest, MoveDeltaBatchBitIdenticalToScalar) {
  // A problem exercising every delta term at once: pins, anti-affinity,
  // replicas, and a migration penalty. The batch path must reproduce the
  // scalar MoveDelta bit for bit (same FP association), not just closely.
  ConsolidationProblem prob = SmallProblem(8, 0.9, 6.0);
  prob.workloads[1].replicas = 2;
  prob.workloads[2].pinned_server = 1;
  prob.anti_affinity = {{3, 4}};
  prob.current_assignment = {0, 1, 1, 1, 2, 2, 0, 3, 3};
  prob.migration_cost_weight = 25.0;

  const int cap = 4;
  Evaluator ev(prob, cap);
  ev.Load({0, 1, 2, 1, 2, 3, 0, 1, 3});

  std::vector<int> targets(cap);
  for (int j = 0; j < cap; ++j) targets[j] = j;
  std::vector<double> deltas;
  for (int slot = 0; slot < ev.num_slots(); ++slot) {
    ev.MoveDeltaBatch(slot, targets, &deltas);
    ASSERT_EQ(deltas.size(), targets.size());
    for (int i = 0; i < cap; ++i) {
      EXPECT_EQ(deltas[i], ev.MoveDelta(slot, targets[i]))
          << "slot " << slot << " -> " << targets[i];
    }
  }

  // Still exact after incremental mutation.
  ev.ApplyMove(0, 3);
  ev.ApplyMove(5, 0);
  for (int slot = 0; slot < ev.num_slots(); ++slot) {
    ev.MoveDeltaBatch(slot, targets, &deltas);
    for (int i = 0; i < cap; ++i) {
      EXPECT_EQ(deltas[i], ev.MoveDelta(slot, targets[i]))
          << "post-move slot " << slot << " -> " << targets[i];
    }
  }
}

// ---------------------------------------------------------------------------
// Evaluate() reuses the previous call's per-server costs; these check that
// the reuse never shows in a result, and that ApplyMove's cached cost stays
// exact.

/// A workload whose series vary per sample, so the order in which server
/// aggregates are summed shows in the low bits.
monitor::WorkloadProfile NoisyProfile(const std::string& name, util::Rng* rng,
                                      int samples) {
  std::vector<double> cpu(samples), ram(samples), rows(samples);
  const double cpu_mean = rng->Uniform(0.3, 3.0);
  const double ram_gb = rng->Uniform(1.0, 20.0);
  const double rate = rng->Uniform(0.0, 3000.0);
  for (int t = 0; t < samples; ++t) {
    cpu[t] = cpu_mean * rng->Uniform(0.6, 1.4);
    ram[t] = ram_gb * rng->Uniform(0.9, 1.1) * static_cast<double>(util::kGiB);
    rows[t] = rate * rng->Uniform(0.5, 1.5);
  }
  monitor::WorkloadProfile p;
  p.name = name;
  p.cpu_cores = util::TimeSeries(300, cpu);
  p.ram_bytes = util::TimeSeries(300, ram);
  p.update_rows_per_sec = util::TimeSeries(300, rows);
  p.working_set_bytes = ram_gb * 0.1 * static_cast<double>(util::kGiB);
  return p;
}

/// Twelve noisy workloads (two with replicas) under the problem's shared
/// disk model, on an unbounded homogeneous fleet (`hetero` false) or on a
/// bounded three-class fleet: a drained legacy class, a cheap small class
/// with its own disk model, and a dear big class. The hetero variant also
/// carries a pin, anti-affinity pairs and a migration term.
ConsolidationProblem ParityProblem(bool hetero, const model::DiskModel* disk,
                                   uint64_t seed) {
  util::Rng rng(seed);
  ConsolidationProblem prob;
  prob.disk_model = disk;
  for (int i = 0; i < 12; ++i) {
    prob.workloads.push_back(NoisyProfile("w" + std::to_string(i), &rng, 24));
  }
  prob.workloads[2].replicas = 2;
  prob.workloads[7].replicas = 3;
  prob.max_servers = 8;
  if (!hetero) return prob;

  sim::MachineSpec small = sim::MachineSpec::ConsolidationTarget();
  small.cores = 6;
  small.ram_bytes = 48 * util::kGiB;
  prob.fleet.classes.clear();
  prob.fleet.AddClass(sim::MachineSpec::ConsolidationTarget(), 2, 1.0)
      .AddClass(small, 4, 0.6)
      .AddClass(sim::MachineSpec::ConsolidationTarget(), 3, 1.3);
  prob.fleet.classes[0].drained = true;
  prob.fleet.classes[1].disk_model =
      std::make_shared<const model::DiskModel>(FlatDiskModel());
  prob.workloads[4].pinned_server = 3;
  prob.anti_affinity = {{0, 5}, {1, 9}, {6, 6}};
  prob.current_assignment.resize(prob.TotalSlots());
  for (auto& j : prob.current_assignment) {
    j = static_cast<int>(rng.UniformInt(0, prob.ServerCap() - 1));
  }
  prob.migration_cost_weight = 25.0;
  return prob;
}

std::vector<int> RandomAssignment(util::Rng* rng, int slots, int cap) {
  std::vector<int> a(slots);
  for (auto& j : a) j = static_cast<int>(rng->UniformInt(0, cap - 1));
  return a;
}

TEST(EvaluatorReuseTest, EvaluateBitIdenticalToFreshEvaluator) {
  const model::DiskModel disk = FlatDiskModel();
  ASSERT_TRUE(disk.valid());
  for (const bool hetero : {false, true}) {
    const ConsolidationProblem prob = ParityProblem(hetero, &disk, 11);
    const int cap = prob.ServerCap();
    Evaluator ev(prob, cap);
    util::Rng rng(hetero ? 21 : 22);
    const int slots = ev.num_slots();
    std::vector<int> a = RandomAssignment(&rng, slots, cap);
    ev.Load(a);
    for (int step = 0; step < 400; ++step) {
      // Next point differs from the last one in 0, 1, 2 or all slots —
      // DIRECT's centre, +delta and -delta probes change one or two.
      switch (rng.UniformInt(0, 3)) {
        case 0:
          break;
        case 1:
          a[rng.UniformInt(0, slots - 1)] = static_cast<int>(rng.UniformInt(0, cap - 1));
          break;
        case 2:
          for (int k = 0; k < 2; ++k) {
            a[rng.UniformInt(0, slots - 1)] =
                static_cast<int>(rng.UniformInt(0, cap - 1));
          }
          break;
        default:
          a = RandomAssignment(&rng, slots, cap);
      }
      // The incremental cache lives beside the reuse state; exercising it
      // must not disturb Evaluate().
      if (step % 7 == 3) ev.Load(RandomAssignment(&rng, slots, cap));
      if (step % 5 == 1) {
        ev.ApplyMove(static_cast<int>(rng.UniformInt(0, slots - 1)),
                     static_cast<int>(rng.UniformInt(0, cap - 1)));
      }
      const double reused = ev.Evaluate(a);
      Evaluator fresh(prob, cap);
      ASSERT_EQ(reused, fresh.Evaluate(a))
          << (hetero ? "hetero" : "homogeneous") << " step " << step;
      if (!hetero) {
        // Without pins and migration, Load() sums the same terms in the
        // same order; its aggregates fold slots in ascending order, so
        // this also pins down the order Evaluate() folds in.
        fresh.Load(a);
        ASSERT_EQ(reused, fresh.current_cost()) << "step " << step;
      }
    }
  }
}

TEST(EvaluatorReuseTest, UnpinnedApplyMoveAddsExactlyMoveDelta) {
  const model::DiskModel disk = FlatDiskModel();
  const ConsolidationProblem prob = ParityProblem(true, &disk, 12);
  const int cap = prob.ServerCap();
  Evaluator ev(prob, cap);
  util::Rng rng(31);
  ev.Load(RandomAssignment(&rng, ev.num_slots(), cap));
  int mismatches = 0;
  int applied = 0;
  while (applied < 10000) {
    const int slot = static_cast<int>(rng.UniformInt(0, ev.num_slots() - 1));
    if (ev.PinOfSlot(slot) >= 0) continue;
    const int to = static_cast<int>(rng.UniformInt(0, cap - 1));
    const double before = ev.current_cost();
    const double delta = ev.MoveDelta(slot, to);
    ev.ApplyMove(slot, to);
    if (ev.current_cost() != before + delta) ++mismatches;
    ++applied;
  }
  EXPECT_EQ(mismatches, 0);
  Evaluator fresh(prob, cap);
  fresh.Load(ev.assignment());
  EXPECT_NEAR(ev.total_violation(), fresh.total_violation(),
              1e-9 * std::max(1.0, fresh.total_violation()));
  EXPECT_DOUBLE_EQ(ev.migration_cost(), fresh.migration_cost());
}

void ExpectMatchesFullEvaluation(const Evaluator& ev,
                                 const ConsolidationProblem& prob,
                                 const std::string& where) {
  const double full = ev.Evaluate(ev.assignment());
  EXPECT_NEAR(ev.current_cost(), full, 1e-12 * std::abs(full)) << where;
  Evaluator fresh(prob, ev.max_servers());
  fresh.Load(ev.assignment());
  EXPECT_NEAR(ev.total_violation(), fresh.total_violation(),
              1e-12 * std::max(1.0, fresh.total_violation()))
      << where;
  EXPECT_EQ(ev.IsFeasible(), fresh.IsFeasible()) << where;
}

TEST(EvaluatorReuseTest, PinnedMovesKeepCachedCostExact) {
  // Moving a pinned slot home used to leave kPinPenalty and one violation
  // unit in the cache, so a stitched shard plan that had to return a pin
  // home never looked feasible.
  ConsolidationProblem prob = SmallProblem(3, 0.5, 4.0);
  prob.workloads[1].pinned_server = 1;
  Evaluator ev(prob, 3);
  ev.Load({0, 0, 2});
  EXPECT_FALSE(ev.IsFeasible());
  ev.ApplyMove(1, 1);  // home
  ExpectMatchesFullEvaluation(ev, prob, "home");
  EXPECT_TRUE(ev.IsFeasible());
  EXPECT_EQ(ev.total_violation(), 0.0);
  ev.ApplyMove(1, 0);  // off the pin
  ExpectMatchesFullEvaluation(ev, prob, "off");
  EXPECT_FALSE(ev.IsFeasible());
  ev.ApplyMove(1, 2);  // off the pin to off the pin
  ExpectMatchesFullEvaluation(ev, prob, "off to off");
  EXPECT_EQ(ev.total_violation(), 1.0);

  // Pinned moves interleaved with unpinned ones on the full problem.
  const model::DiskModel disk = FlatDiskModel();
  const ConsolidationProblem hetero = ParityProblem(true, &disk, 13);
  const int cap = hetero.ServerCap();
  Evaluator hev(hetero, cap);
  util::Rng rng(41);
  hev.Load(RandomAssignment(&rng, hev.num_slots(), cap));
  int pinned_slot = -1;
  for (int s = 0; s < hev.num_slots(); ++s) {
    if (hev.PinOfSlot(s) >= 0) pinned_slot = s;
  }
  ASSERT_GE(pinned_slot, 0);
  for (int i = 0; i < 200; ++i) {
    const int slot = static_cast<int>(rng.UniformInt(0, hev.num_slots() - 1));
    hev.ApplyMove(slot, static_cast<int>(rng.UniformInt(0, cap - 1)));
    const int to = i % 3 == 0 ? hev.PinOfSlot(pinned_slot)
                              : static_cast<int>(rng.UniformInt(0, cap - 1));
    hev.ApplyMove(pinned_slot, to);
    ExpectMatchesFullEvaluation(hev, hetero, "pinned move " + std::to_string(i));
  }
}

TEST(EvaluatorMigrationTest, ServerSavingsStillDominateMoves) {
  // Consolidating 2 -> 1 servers saves kServerCost, which must beat moving
  // every slot at the default weight.
  ConsolidationProblem prob = SmallProblem(4, 0.5, 4.0);
  prob.current_assignment = {0, 0, 1, 1};
  prob.migration_cost_weight = 25.0;
  Evaluator ev(prob, 2);
  EXPECT_LT(ev.Evaluate({0, 0, 0, 0}), ev.Evaluate({0, 0, 1, 1}));
}

}  // namespace
}  // namespace kairos::core
