// One RateTable per calibrated program: every run that borrows a table —
// calibration's Default runs, every spec of the program, machines
// interleaved quantum by quantum — must produce the bytes a run on a
// private table produces. Cached rates are exact and each machine copies
// its current rate out of the table, so neither the order in which runs
// fill a shared table nor another machine re-keying a slot may show in
// any result. Comparisons are on encode_result bytes or raw double bits,
// never tolerances.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "exp/calibrate.hpp"
#include "exp/driver.hpp"
#include "exp/result_cache.hpp"
#include "exp/sweep.hpp"
#include "runtime/scheduler.hpp"
#include "sim/machine_config.hpp"
#include "sim/rate_table.hpp"
#include "sim/sim_machine.hpp"
#include "workloads/suite.hpp"

namespace cuttlefish::exp {
namespace {

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// calibrate_program's loop with every Default run on a private table:
/// the reference both table-sharing paths must reproduce.
void calibrate_privately(sim::PhaseProgram& program,
                         const sim::MachineConfig& machine, double target_s) {
  RunOptions options;
  options.seed = 0;
  for (int iteration = 0; iteration < 6; ++iteration) {
    const RunResult r = run_default(machine, program, options);
    const double ratio = target_s / r.time_s;
    if (std::abs(ratio - 1.0) <= 0.002) return;
    program.scale_instructions(ratio);
  }
}

bool same_segments(const sim::PhaseProgram& a, const sim::PhaseProgram& b) {
  if (a.segments().size() != b.segments().size()) return false;
  for (size_t i = 0; i < a.segments().size(); ++i) {
    const sim::Segment& x = a.segments()[i];
    const sim::Segment& y = b.segments()[i];
    if (!same_bits(x.instructions, y.instructions) ||
        !same_bits(x.op.cpi0, y.op.cpi0) || !same_bits(x.op.tipi, y.op.tipi) ||
        x.op_index != y.op_index) {
      return false;
    }
  }
  return true;
}

TEST(RateTable, CalibrationWithAndWithoutATableIsBitwiseEqual) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  for (const char* name : {"SOR-irt", "MiniFE", "AMG"}) {
    SCOPED_TRACE(name);
    const auto& model = workloads::find_benchmark(name);
    sim::PhaseProgram reference = model.build_program(11);
    calibrate_privately(reference, machine, model.default_time_s);

    sim::PhaseProgram own = model.build_program(11);
    calibrate_program(own, machine, model.default_time_s);
    EXPECT_TRUE(same_segments(reference, own));

    sim::PhaseProgram shared = model.build_program(11);
    sim::RateTable rates(machine, shared);
    calibrate_program(shared, rates, model.default_time_s);
    EXPECT_TRUE(same_segments(reference, shared));

    const CalibratedProgram calibrated(model, machine, 11);
    EXPECT_TRUE(same_segments(reference, calibrated.program));
    EXPECT_TRUE(same_segments(reference,
                              build_calibrated(model, machine, 11)));
  }
}

TEST(RateTable, RandomRunSequencesOnOneTableMatchPrivateTables) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  const core::PolicyKind policies[] = {
      core::PolicyKind::kFull, core::PolicyKind::kCoreOnly,
      core::PolicyKind::kUncoreOnly, core::PolicyKind::kMonitor,
      core::PolicyKind::kMpc};
  SplitMix64 rng(0x7ab1e);
  for (const char* name : {"Heat-irt", "HPCCG", "AMG"}) {
    const auto& model = workloads::find_benchmark(name);
    // The table calibration filled is the one every run below borrows.
    CalibratedProgram calibrated(model, machine, 3);
    for (int run = 0; run < 30; ++run) {
      RunOptions options;
      options.seed = rng.next_below(1000);
      options.capture_timeline = rng.next_below(3) == 0;
      options.controller.tinv_s = rng.next_below(2) == 0 ? 0.020 : 0.040;
      const uint64_t kind = rng.next_below(3);
      const auto pick = [&](const FreqLadder& ladder) {
        return ladder.at(static_cast<Level>(
            rng.next_below(static_cast<uint64_t>(ladder.levels()))));
      };
      const FreqMHz cf = pick(machine.core_ladder);
      const FreqMHz uf = pick(machine.uncore_ladder);
      const core::PolicyKind policy = policies[rng.next_below(5)];
      const auto execute = [&](sim::RateTable* rates) {
        RunOptions o = options;
        o.rates = rates;
        switch (kind) {
          case 0:
            return run_default(machine, calibrated.program, o);
          case 1:
            return run_fixed(machine, calibrated.program, cf, uf, o);
          default:
            return run_policy(machine, calibrated.program, policy, o);
        }
      };
      SCOPED_TRACE(std::string(name) + " run " + std::to_string(run) +
                   " kind " + std::to_string(kind));
      const std::string borrowed = encode_result(execute(&calibrated.rates));
      const std::string owned = encode_result(execute(nullptr));
      EXPECT_EQ(borrowed, owned);
    }
  }
}

/// Every counter a machine exposes, bit for bit.
::testing::AssertionResult same_state(sim::SimMachine& a,
                                      sim::SimMachine& b) {
  if (!same_bits(a.now(), b.now()) ||
      !same_bits(a.energy_joules(), b.energy_joules()) ||
      a.instructions_retired() != b.instructions_retired() ||
      a.tor_inserts() != b.tor_inserts() ||
      a.rapl_energy_raw() != b.rapl_energy_raw() ||
      a.frequency_switches() != b.frequency_switches() ||
      !same_bits(a.demand_bandwidth_now(), b.demand_bandwidth_now())) {
    return ::testing::AssertionFailure()
           << "machines diverged at t=" << a.now();
  }
  return ::testing::AssertionSuccess();
}

TEST(RateTable, InterleavedMachinesOnOneTableMatchPrivateTables) {
  // Two ops in long runs of segments, so the two machines are mostly on
  // the same row; their frequencies are drawn so the (CF, UF) keys often
  // share a direct-mapped slot — each machine's lookup re-keys the slot
  // the other is running at.
  const sim::MachineConfig machine = sim::haswell_2650v3();
  sim::PhaseProgram program;
  for (int i = 0; i < 600; ++i) {
    const bool memory_bound = (i / 10) % 2 == 1;
    program.add(4e8, memory_bound ? 1.6 : 0.8, memory_bound ? 0.02 : 0.001);
  }
  ASSERT_EQ(program.ops().size(), 2u);
  sim::RateTable rates(machine, program);
  sim::SimMachine a(rates, 1);
  sim::SimMachine b(rates, 2);
  sim::SimMachine a_own(machine, program, 1);
  sim::SimMachine b_own(machine, program, 2);
  const int ncf = machine.core_ladder.levels();
  const int nuf = machine.uncore_ladder.levels();
  SplitMix64 rng(99);
  const auto level_below = [&rng](int n) {
    return static_cast<Level>(rng.next_below(static_cast<uint64_t>(n)));
  };
  int collisions = 0;
  for (int quantum = 0; !a.workload_done() || !b.workload_done(); ++quantum) {
    if (quantum % 7 == 0) {
      const Level cf = level_below(ncf);
      const Level uf = level_below(nuf);
      // b's key cf * nuf + uf sits 8 (one slot round) after a's when it
      // fits on the ladders, else anywhere.
      const int key = cf * nuf + uf + 8;
      const bool collide = key < ncf * nuf && rng.next_below(2) == 0;
      const Level cf_b = collide ? key / nuf : level_below(ncf);
      const Level uf_b = collide ? key % nuf : level_below(nuf);
      collisions += collide ? 1 : 0;
      for (sim::SimMachine* m : {&a, &a_own}) {
        m->set_core_frequency(machine.core_ladder.at(cf));
        m->set_uncore_frequency(machine.uncore_ladder.at(uf));
      }
      for (sim::SimMachine* m : {&b, &b_own}) {
        m->set_core_frequency(machine.core_ladder.at(cf_b));
        m->set_uncore_frequency(machine.uncore_ladder.at(uf_b));
      }
    }
    // Alternate which machine moves first, and let b look at its demand
    // (a table lookup of its own) between a's steps.
    if (quantum % 2 == 0) {
      a.advance(0.02);
      (void)b.demand_bandwidth_now();
      b.advance(0.02);
    } else {
      b.advance(0.02);
      a.advance(0.02);
    }
    a_own.advance(0.02);
    b_own.advance(0.02);
    ASSERT_TRUE(same_state(a, a_own)) << "machine a, quantum " << quantum;
    ASSERT_TRUE(same_state(b, b_own)) << "machine b, quantum " << quantum;
  }
  EXPECT_GT(collisions, 20);
}

TEST(RateTable, SweepIsByteIdenticalAtEveryWorkerCountWithFewGroups) {
  // Two program groups (one model, two seeds) of many specs each: fewer
  // groups than the widest scheduler, so some workers get no group.
  const sim::MachineConfig machine = sim::haswell_2650v3();
  const auto& model = workloads::find_benchmark("SOR-irt");
  SweepGrid grid(machine);
  const RunOptions opt;
  const int base = grid.add_default("Default", model, opt, 2, 40);
  grid.add_policy("Cuttlefish", model, core::PolicyKind::kFull, opt, 2, 40,
                  base);
  grid.add_policy("-Core", model, core::PolicyKind::kCoreOnly, opt, 2, 40,
                  base);
  grid.add_fixed("min/min", model, machine.core_ladder.min(),
                 machine.uncore_ladder.min(), opt, 2, 40);
  grid.add_fixed("max/2.2", model, machine.core_ladder.max(), FreqMHz{2200},
                 opt, 2, 40);

  // Reference: each spec on its own program and a private table.
  std::vector<std::string> standalone;
  for (const RunSpec& spec : grid.specs()) {
    standalone.push_back(encode_result(run_spec(
        spec, build_calibrated(*spec.model, machine, spec.seed))));
  }
  for (const int workers : {1, 2, 4}) {
    SCOPED_TRACE(std::to_string(workers) + " workers");
    const std::vector<RunResult> results = run_sweep(grid, workers);
    ASSERT_EQ(results.size(), standalone.size());
    for (size_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ(encode_result(results[i]), standalone[i]) << "spec " << i;
    }
  }
}

}  // namespace
}  // namespace cuttlefish::exp
