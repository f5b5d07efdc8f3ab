#include "exp/sweep.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "runtime/scheduler.hpp"
#include "sim/machine_config.hpp"
#include "workloads/suite.hpp"

namespace cuttlefish::exp {
namespace {

/// Bitwise equality — determinism means *byte*-identical doubles, not
/// approximately equal ones.
bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool same_bits(const ValueAggregate& a, const ValueAggregate& b) {
  return a.n == b.n && same_bits(a.mean, b.mean) &&
         same_bits(a.ci95, b.ci95) && same_bits(a.min, b.min) &&
         same_bits(a.max, b.max);
}

::testing::AssertionResult results_identical(
    const std::vector<RunResult>& a, const std::vector<RunResult>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure() << "size mismatch";
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (!same_bits(a[i].time_s, b[i].time_s) ||
        !same_bits(a[i].energy_j, b[i].energy_j) ||
        a[i].instructions != b[i].instructions) {
      return ::testing::AssertionFailure()
             << "scalar mismatch at spec " << i;
    }
    if (a[i].nodes.size() != b[i].nodes.size()) {
      return ::testing::AssertionFailure() << "node count at spec " << i;
    }
    for (size_t n = 0; n < a[i].nodes.size(); ++n) {
      if (a[i].nodes[n].slab != b[i].nodes[n].slab ||
          a[i].nodes[n].ticks != b[i].nodes[n].ticks ||
          a[i].nodes[n].cf_opt != b[i].nodes[n].cf_opt ||
          a[i].nodes[n].uf_opt != b[i].nodes[n].uf_opt) {
        return ::testing::AssertionFailure()
               << "node " << n << " mismatch at spec " << i;
      }
    }
  }
  return ::testing::AssertionSuccess();
}

/// A grid shaped like the paper benches: per model a Default baseline
/// point plus a policy point paired to it, several seeds each.
SweepGrid make_grid(const sim::MachineConfig& machine, int reps) {
  SweepGrid grid(machine);
  RunOptions opt;
  for (const char* name : {"SOR-irt", "Heat-irt"}) {
    const auto& model = workloads::find_benchmark(name);
    const int base = grid.add_default(std::string(name) + "/Default", model,
                                      opt, reps, 900);
    grid.add_policy(std::string(name) + "/Cuttlefish", model,
                    core::PolicyKind::kFull, opt, reps, 900, base);
  }
  return grid;
}

TEST(SweepGrid, SeedsDeriveFromPointBaseAndRep) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  const SweepGrid grid = make_grid(machine, 3);
  ASSERT_EQ(grid.size(), 12u);
  ASSERT_EQ(grid.points().size(), 4u);
  for (const SweepPoint& p : grid.points()) {
    for (int rep = 0; rep < p.reps; ++rep) {
      const RunSpec& spec =
          grid.specs()[static_cast<size_t>(grid.spec_index(
              static_cast<int>(&p - grid.points().data()), rep))];
      EXPECT_EQ(spec.seed, 900u + static_cast<uint64_t>(rep));
      EXPECT_EQ(spec.rep, rep);
    }
  }
  // Policy points pair with their model's Default point.
  EXPECT_EQ(grid.points()[1].baseline_point, 0);
  EXPECT_EQ(grid.points()[3].baseline_point, 2);
}

TEST(SweepEngine, RepeatedSerialRunsAreByteIdentical) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  const SweepGrid grid = make_grid(machine, 2);
  const auto first = run_sweep(grid, nullptr);
  const auto second = run_sweep(grid, nullptr);
  EXPECT_TRUE(results_identical(first, second));
}

TEST(SweepEngine, ParallelMatchesSerialByteForByte) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  const SweepGrid grid = make_grid(machine, 3);
  const auto serial = run_sweep(grid, nullptr);

  // 1 worker and 4 workers must reproduce the serial table exactly,
  // including every aggregated statistic, regardless of how the runs
  // interleave across workers.
  for (const int workers : {1, 4}) {
    const auto parallel = run_sweep(grid, workers);
    EXPECT_TRUE(results_identical(serial, parallel))
        << workers << " workers";
    const auto s_sum = summarize(grid, serial);
    const auto p_sum = summarize(grid, parallel);
    ASSERT_EQ(s_sum.size(), p_sum.size());
    for (size_t i = 0; i < s_sum.size(); ++i) {
      EXPECT_TRUE(same_bits(s_sum[i].time_s, p_sum[i].time_s));
      EXPECT_TRUE(same_bits(s_sum[i].energy_j, p_sum[i].energy_j));
      EXPECT_TRUE(same_bits(s_sum[i].edp, p_sum[i].edp));
      EXPECT_EQ(s_sum[i].has_baseline, p_sum[i].has_baseline);
      if (s_sum[i].has_baseline) {
        EXPECT_TRUE(same_bits(s_sum[i].energy_savings_pct,
                              p_sum[i].energy_savings_pct));
        EXPECT_TRUE(same_bits(s_sum[i].slowdown_pct, p_sum[i].slowdown_pct));
        EXPECT_TRUE(
            same_bits(s_sum[i].edp_savings_pct, p_sum[i].edp_savings_pct));
      }
    }
  }
}

TEST(SweepEngine, ReusedSchedulerRunsBackToBackSweeps) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  const SweepGrid grid = make_grid(machine, 2);
  const auto serial = run_sweep(grid, nullptr);
  runtime::TaskScheduler scheduler(2);
  const auto first = run_sweep(grid, &scheduler);
  const auto second = run_sweep(grid, &scheduler);
  EXPECT_TRUE(results_identical(serial, first));
  EXPECT_TRUE(results_identical(serial, second));
}

TEST(SweepEngine, SummarizePairsBaselineBySeed) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  SweepGrid grid(machine);
  const auto& model = workloads::find_benchmark("SOR-irt");
  RunOptions opt;
  const int base =
      grid.add_default("base", model, opt, /*reps=*/2, /*seed0=*/7);
  // A "policy" point that is actually another Default run with the same
  // seeds: every paired ratio must be exactly zero.
  grid.add_default("other", model, opt, 2, 7);
  const int self = grid.add_policy("self", model, core::PolicyKind::kFull,
                                   opt, 2, 7, base);
  (void)self;
  auto specs_copy = grid.specs();
  ASSERT_EQ(specs_copy.size(), 6u);

  auto results = run_sweep(grid, nullptr);
  // Overwrite the policy runs with the baseline's to isolate the pairing
  // arithmetic from the actual policy behaviour.
  results[4] = results[0];
  results[5] = results[1];
  const auto summary = summarize(grid, results);
  ASSERT_EQ(summary.size(), 3u);
  EXPECT_FALSE(summary[0].has_baseline);
  EXPECT_TRUE(summary[2].has_baseline);
  EXPECT_EQ(summary[2].energy_savings_pct.mean, 0.0);
  EXPECT_EQ(summary[2].slowdown_pct.mean, 0.0);
  EXPECT_EQ(summary[2].edp_savings_pct.mean, 0.0);
}

TEST(SweepEngine, SummarizeLeavesMissingCellsAndTheirPairsOut) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  SweepGrid grid(machine);
  const auto& model = workloads::find_benchmark("SOR-irt");
  RunOptions opt;
  const int base = grid.add_default("base", model, opt, /*reps=*/3, 7);
  grid.add_policy("full", model, core::PolicyKind::kFull, opt, 3, 7, base);
  auto results = run_sweep(grid, nullptr);
  const auto all = summarize(grid, results);
  // An empty mask is the plain summary, bit for bit.
  const auto unmasked = summarize(grid, results, std::vector<uint8_t>(6, 0));
  for (size_t p = 0; p < all.size(); ++p) {
    EXPECT_TRUE(same_bits(all[p].time_s, unmasked[p].time_s));
    EXPECT_TRUE(same_bits(all[p].edp_savings_pct, unmasked[p].edp_savings_pct));
  }

  // A quarantined baseline replicate holds a zeroed result; comparing
  // against it would abort on a degenerate baseline.
  results[1] = RunResult{};
  std::vector<uint8_t> missing(6, 0);
  missing[1] = 1;
  const auto masked = summarize(grid, results, missing);
  // The baseline point summarises its two remaining replicates...
  const auto two = aggregate_values({results[0].time_s, results[2].time_s});
  EXPECT_TRUE(same_bits(masked[0].time_s, two));
  // ...and the policy point keeps all three runs but only the two pairs
  // whose baseline exists.
  EXPECT_TRUE(same_bits(masked[1].time_s, all[1].time_s));
  const auto pairs = aggregate_values(
      {compare(results[3], results[0]).slowdown_pct,
       compare(results[5], results[2]).slowdown_pct});
  EXPECT_TRUE(same_bits(masked[1].slowdown_pct, pairs));
  EXPECT_EQ(masked[0].time_s.n, 2);
  EXPECT_EQ(masked[1].time_s.n, 3);
  EXPECT_EQ(masked[1].slowdown_pct.n, 2);
}

// At one replicate per point (cuttlefishctl's default), a missing cell
// empties every aggregate it feeds: summarize() must report n == 0 for
// them rather than abort on an empty accumulator.
TEST(SweepEngine, SummarizeOneReplicateWithMissingCells) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  SweepGrid grid(machine);
  const auto& model = workloads::find_benchmark("SOR-irt");
  RunOptions opt;
  const int base = grid.add_default("base", model, opt, /*reps=*/1, 7);
  grid.add_policy("full", model, core::PolicyKind::kFull, opt, 1, 7, base);
  const auto results = run_sweep(grid, nullptr);
  const auto all = summarize(grid, results);
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].time_s.n, 1);
  EXPECT_EQ(all[1].edp_savings_pct.n, 1);

  // The baseline is missing: its own aggregates are empty, and so are
  // the policy point's ratios, while the policy run itself still counts.
  auto zeroed = results;
  zeroed[0] = RunResult{};
  const auto no_base = summarize(grid, zeroed, {1, 0});
  EXPECT_EQ(no_base[0].time_s.n, 0);
  EXPECT_EQ(no_base[0].energy_j.n, 0);
  EXPECT_EQ(no_base[0].time_s.mean, 0.0);
  EXPECT_TRUE(same_bits(no_base[1].time_s, all[1].time_s));
  EXPECT_TRUE(no_base[1].has_baseline);
  EXPECT_EQ(no_base[1].energy_savings_pct.n, 0);
  EXPECT_EQ(no_base[1].slowdown_pct.n, 0);
  EXPECT_EQ(no_base[1].edp_savings_pct.n, 0);

  // The policy cell is missing: the baseline point is whole, the policy
  // point has neither runs nor pairs.
  zeroed = results;
  zeroed[1] = RunResult{};
  const auto no_policy = summarize(grid, zeroed, {0, 1});
  EXPECT_TRUE(same_bits(no_policy[0].time_s, all[0].time_s));
  EXPECT_EQ(no_policy[1].time_s.n, 0);
  EXPECT_EQ(no_policy[1].edp.n, 0);
  EXPECT_TRUE(no_policy[1].has_baseline);
  EXPECT_EQ(no_policy[1].edp_savings_pct.n, 0);
}

TEST(SweepEngine, SweepOrderedPreservesIndexKeying) {
  std::vector<int64_t> out(64, -1);
  runtime::TaskScheduler scheduler(4);
  sweep_ordered(
      64, [&](int64_t i) { out[static_cast<size_t>(i)] = i * i; },
      &scheduler);
  for (int64_t i = 0; i < 64; ++i) EXPECT_EQ(out[static_cast<size_t>(i)], i * i);
}

}  // namespace
}  // namespace cuttlefish::exp
