// The rate-cache contract: SimMachine's per-(op, CF, UF) cache must be
// *bit-identical* to direct PerfModel/PowerModel evaluation — every pinned
// table, decision trace and paper artifact stands on that. The oracle here
// re-implements the uncached advance loop (direct model calls, same noise
// stream, same accumulation order) and the fuzz drives both through random
// ladder geometries, operating points, frequency walks and step sizes,
// comparing every counter with exact equality — never tolerance.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "sim/machine_config.hpp"
#include "sim/perf_model.hpp"
#include "sim/phase_workload.hpp"
#include "sim/power_model.hpp"
#include "sim/sim_machine.hpp"

namespace cuttlefish::sim {
namespace {

/// Direct-evaluation reference: the pre-rate-cache advance loop. Noise
/// sigmas in the fuzz stay below the clamp region (sigma * 3 < 1), so the
/// unclamped factor here matches SimMachine's floored one bit-for-bit.
/// Deliberately NOT shared with bench/micro_sim.cpp's DirectSim: that one
/// is a frozen historical throughput reference (the seed design), while
/// this oracle must track SimMachine::advance semantics exactly — the two
/// are expected to diverge as the machine evolves.
class OracleSim {
 public:
  OracleSim(const MachineConfig& cfg, const PhaseProgram& program,
            uint64_t noise_seed)
      : cfg_(cfg), perf_(cfg_), power_(cfg_), cursor_(&program),
        noise_(noise_seed), core_f_(cfg_.core_ladder.max()),
        uncore_f_(cfg_.uncore_ladder.max()) {}

  void set_core_frequency(FreqMHz f) {
    if (f != core_f_) stall_s_ += cfg_.core_switch_latency_s;
    core_f_ = f;
  }
  void set_uncore_frequency(FreqMHz f) {
    if (f != uncore_f_) stall_s_ += cfg_.uncore_switch_latency_s;
    uncore_f_ = f;
  }

  double advance(double dt) {
    double left = dt;
    while (left > 1e-12 && !cursor_.done()) {
      if (stall_s_ > 1e-12) {
        const double step = std::min(left, stall_s_);
        const double watts =
            power_.package_watts(core_f_, uncore_f_, 0.0, 0.0);
        energy_j_ += watts * step * noise_factor();
        now_s_ += step;
        stall_s_ -= step;
        left -= step;
        continue;
      }
      const OperatingPoint& op = cursor_.op();
      const double ips =
          perf_.instructions_per_second(core_f_, uncore_f_, op);
      const double seg_time = cursor_.remaining_in_segment() / ips;
      const double step = std::min(left, seg_time);
      const double instr = ips * step;
      const double util = perf_.utilization(core_f_, uncore_f_, op);
      const double miss_rate = ips * op.tipi;
      const double watts =
          power_.package_watts(core_f_, uncore_f_, util, miss_rate);
      energy_j_ += watts * step * noise_factor();
      instr_ += instr;
      tor_ += instr * op.tipi;
      cursor_.consume(instr);
      now_s_ += step;
      left -= step;
    }
    return dt - left;
  }

  double demand_bandwidth_now() const {
    if (cursor_.done()) return 0.0;
    const OperatingPoint& op = cursor_.op();
    return perf_.demand_bandwidth(
        perf_.instructions_per_second(core_f_, uncore_f_, op), op);
  }

  double now() const { return now_s_; }
  double energy_joules() const { return energy_j_; }
  double instr() const { return instr_; }
  double tor() const { return tor_; }
  bool done() const { return cursor_.done(); }

 private:
  double noise_factor() {
    if (cfg_.power_noise_sigma <= 0.0) return 1.0;
    const double u =
        noise_.next_double() + noise_.next_double() + noise_.next_double();
    const double z = (u - 1.5) * 2.0;
    return 1.0 + cfg_.power_noise_sigma * z;
  }

  MachineConfig cfg_;
  PerfModel perf_;
  PowerModel power_;
  WorkloadCursor cursor_;
  SplitMix64 noise_;
  double now_s_ = 0.0;
  double energy_j_ = 0.0;
  double instr_ = 0.0;
  double tor_ = 0.0;
  double stall_s_ = 0.0;
  FreqMHz core_f_;
  FreqMHz uncore_f_;
};

MachineConfig random_machine(SplitMix64& rng) {
  MachineConfig cfg = haswell_2650v3();
  const int cf_min = 800 + 100 * static_cast<int>(rng.next_below(6));
  const int cf_levels = 3 + static_cast<int>(rng.next_below(13));
  const int uf_min = 800 + 100 * static_cast<int>(rng.next_below(6));
  const int uf_levels = 3 + static_cast<int>(rng.next_below(17));
  cfg.core_ladder = FreqLadder(FreqMHz{cf_min},
                               FreqMHz{cf_min + 100 * (cf_levels - 1)}, 100);
  cfg.uncore_ladder = FreqLadder(
      FreqMHz{uf_min}, FreqMHz{uf_min + 100 * (uf_levels - 1)}, 100);
  // Sigma stays well inside the clamp-free region (|z| <= 3).
  cfg.power_noise_sigma = rng.next_below(3) == 0 ? 0.0 : 0.1 * rng.next_double();
  return cfg;
}

PhaseProgram random_program(SplitMix64& rng) {
  PhaseProgram program;
  const int direct_segments = 1 + static_cast<int>(rng.next_below(6));
  for (int i = 0; i < direct_segments; ++i) {
    const double cpi0 = 0.5 + 2.0 * rng.next_double();
    const double tipi = rng.next_below(4) == 0 ? 0.0 : 0.3 * rng.next_double();
    program.add(1e8 + 1e9 * rng.next_double(), cpi0, tipi);
  }
  // A repeated block exercises op dedup across segments.
  PhaseProgram block;
  const int block_segments = 1 + static_cast<int>(rng.next_below(4));
  for (int i = 0; i < block_segments; ++i) {
    block.add(1e8 + 5e8 * rng.next_double(), 0.6 + rng.next_double(),
              0.2 * rng.next_double());
  }
  program.repeat(1 + static_cast<int>(rng.next_below(5)), block.segments());
  return program;
}

TEST(SimRateCache, FuzzMatchesDirectEvaluationExactly) {
  SplitMix64 rng(0xfeedULL);
  for (int trial = 0; trial < 60; ++trial) {
    const MachineConfig cfg = random_machine(rng);
    const PhaseProgram program = random_program(rng);
    const uint64_t noise_seed = rng.next();
    SimMachine machine(cfg, program, noise_seed);
    OracleSim oracle(cfg, program, noise_seed);

    for (int step = 0; step < 200 && !machine.workload_done(); ++step) {
      if (rng.next_below(3) == 0) {
        const Level cf = static_cast<Level>(
            rng.next_below(static_cast<uint64_t>(cfg.core_ladder.levels())));
        machine.set_core_frequency(cfg.core_ladder.at(cf));
        oracle.set_core_frequency(cfg.core_ladder.at(cf));
      }
      if (rng.next_below(3) == 0) {
        const Level uf = static_cast<Level>(rng.next_below(
            static_cast<uint64_t>(cfg.uncore_ladder.levels())));
        machine.set_uncore_frequency(cfg.uncore_ladder.at(uf));
        oracle.set_uncore_frequency(cfg.uncore_ladder.at(uf));
      }
      const double dt = 1e-4 + 0.05 * rng.next_double();
      const double elapsed = machine.advance(dt);
      const double oracle_elapsed = oracle.advance(dt);

      // Exact ==, never tolerance: the cache must hand back the very
      // doubles direct evaluation produces.
      ASSERT_EQ(elapsed, oracle_elapsed) << "trial " << trial;
      ASSERT_EQ(machine.now(), oracle.now()) << "trial " << trial;
      ASSERT_EQ(machine.energy_joules(), oracle.energy_joules())
          << "trial " << trial;
      ASSERT_EQ(machine.instructions_retired(),
                static_cast<uint64_t>(oracle.instr()))
          << "trial " << trial;
      ASSERT_EQ(machine.tor_inserts(), static_cast<uint64_t>(oracle.tor()))
          << "trial " << trial;
      ASSERT_EQ(machine.workload_done(), oracle.done()) << "trial " << trial;
    }
  }
}

/// Every counter of `machine` equals the oracle's, exactly.
void assert_identical(const SimMachine& machine, const OracleSim& oracle,
                      int step) {
  ASSERT_EQ(machine.now(), oracle.now()) << "step " << step;
  ASSERT_EQ(machine.energy_joules(), oracle.energy_joules()) << "step " << step;
  ASSERT_EQ(machine.instructions_retired(),
            static_cast<uint64_t>(oracle.instr()))
      << "step " << step;
  ASSERT_EQ(machine.tor_inserts(), static_cast<uint64_t>(oracle.tor()))
      << "step " << step;
  ASSERT_EQ(machine.workload_done(), oracle.done()) << "step " << step;
}

TEST(SimRateCache, SlotCollisionsAndEvictionsStayExact) {
  // One long segment: every (CF, UF) revisit hits the same op's row, and
  // keys cf * nuf + uf that agree mod 8 share a slot, so this walk keeps
  // evicting and re-filling slots while rates stay hoisted across quanta.
  const MachineConfig cfg = haswell_2650v3();
  const int nuf = cfg.uncore_ladder.levels();
  PhaseProgram program;
  program.add(1e14, 1.1, 0.05);
  SimMachine machine(cfg, program, 0x51075ULL);
  OracleSim oracle(cfg, program, 0x51075ULL);

  // Keys congruent to 3 mod 8 across the whole ladder grid.
  std::vector<int> keys;
  for (int key = 3; key < cfg.core_ladder.levels() * nuf; key += 8) {
    keys.push_back(key);
  }
  ASSERT_GT(keys.size(), 8u);
  SplitMix64 rng(99);
  for (int step = 0; step < 400; ++step) {
    // Mostly bounce between two colliding keys, sometimes jump anywhere
    // along the congruence class.
    const int key = rng.next_below(4) == 0
                        ? keys[rng.next_below(keys.size())]
                        : keys[static_cast<size_t>(step % 2)];
    const FreqMHz cf = cfg.core_ladder.at(key / nuf);
    const FreqMHz uf = cfg.uncore_ladder.at(key % nuf);
    machine.set_core_frequency(cf);
    oracle.set_core_frequency(cf);
    machine.set_uncore_frequency(uf);
    oracle.set_uncore_frequency(uf);
    // The governor's query may be the first touch of a (CF, UF) point, or
    // land between two quanta that reuse the hoisted rates.
    ASSERT_EQ(machine.demand_bandwidth_now(), oracle.demand_bandwidth_now())
        << "step " << step;
    machine.advance(2e-4);
    oracle.advance(2e-4);
    ASSERT_EQ(machine.demand_bandwidth_now(), oracle.demand_bandwidth_now())
        << "step " << step;
    machine.advance(3e-3);
    oracle.advance(3e-3);
    ASSERT_NO_FATAL_FAILURE(assert_identical(machine, oracle, step));
  }
  ASSERT_FALSE(machine.workload_done());
}

TEST(SimRateCache, EveryDistinctJitteredOpMatchesDirectEvaluation) {
  // The suite models' shape: jittered TIPIs make each segment its own
  // op, so every segment boundary is a cold row.
  MachineConfig cfg = haswell_2650v3();
  cfg.power_noise_sigma = 0.02;
  SplitMix64 rng(2024);
  PhaseProgram program;
  for (int i = 0; i < 400; ++i) {
    const double slab = static_cast<double>(rng.next_below(30));
    const double tipi = 0.004 * (slab + 0.2 + 0.6 * rng.next_double());
    program.add(2e7 + 2e8 * rng.next_double(), 0.9, tipi);
  }
  ASSERT_EQ(program.ops().size(), program.segments().size());

  SimMachine machine(cfg, program, 77);
  OracleSim oracle(cfg, program, 77);
  for (int step = 0; !machine.workload_done(); ++step) {
    ASSERT_LT(step, 100000);
    if (rng.next_below(4) == 0) {
      const FreqMHz cf = cfg.core_ladder.at(static_cast<Level>(
          rng.next_below(static_cast<uint64_t>(cfg.core_ladder.levels()))));
      machine.set_core_frequency(cf);
      oracle.set_core_frequency(cf);
    }
    if (rng.next_below(4) == 0) {
      const FreqMHz uf = cfg.uncore_ladder.at(static_cast<Level>(
          rng.next_below(static_cast<uint64_t>(cfg.uncore_ladder.levels()))));
      machine.set_uncore_frequency(uf);
      oracle.set_uncore_frequency(uf);
    }
    ASSERT_EQ(machine.demand_bandwidth_now(), oracle.demand_bandwidth_now())
        << "step " << step;
    ASSERT_EQ(machine.advance(1e-3), oracle.advance(1e-3)) << "step " << step;
    ASSERT_NO_FATAL_FAILURE(assert_identical(machine, oracle, step));
  }
}

TEST(SimRateCache, DemandBandwidthMatchesDirectEvaluation) {
  const MachineConfig cfg = haswell_2650v3();
  const PerfModel perf(cfg);
  SplitMix64 rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    // One-op program: the governor-facing demand query has a known
    // operating point for the whole run.
    const OperatingPoint op{0.5 + 2.0 * rng.next_double(),
                            rng.next_below(5) == 0
                                ? 0.0
                                : 0.3 * rng.next_double()};
    PhaseProgram program;
    program.add(1e13, op.cpi0, op.tipi);
    SimMachine machine(cfg, program, rng.next());
    const FreqMHz cf = cfg.core_ladder.at(static_cast<Level>(
        rng.next_below(static_cast<uint64_t>(cfg.core_ladder.levels()))));
    const FreqMHz uf = cfg.uncore_ladder.at(static_cast<Level>(
        rng.next_below(static_cast<uint64_t>(cfg.uncore_ladder.levels()))));
    machine.set_core_frequency(cf);
    machine.set_uncore_frequency(uf);
    machine.advance(0.05);
    ASSERT_FALSE(machine.workload_done());
    const double direct = perf.demand_bandwidth(
        perf.instructions_per_second(cf, uf, op), op);
    EXPECT_EQ(machine.demand_bandwidth_now(), direct);
  }
}

TEST(PhaseProgramOps, DedupSharesOpIndicesAcrossRepeats) {
  PhaseProgram block;
  block.add(1e9, 1.0, 0.05).add(2e9, 1.2, 0.10);
  PhaseProgram program;
  program.add(5e8, 1.0, 0.05);  // same op as block[0]
  program.repeat(50, block.segments());
  ASSERT_EQ(program.segments().size(), 101u);
  // 101 segments collapse to 2 distinct operating points.
  EXPECT_EQ(program.ops().size(), 2u);
  EXPECT_EQ(program.segments()[0].op_index, 0u);
  for (size_t i = 1; i < program.segments().size(); i += 2) {
    EXPECT_EQ(program.segments()[i].op_index, 0u);
    EXPECT_EQ(program.segments()[i + 1].op_index, 1u);
  }
}

TEST(PhaseProgramOps, ScaleInstructionsPreservesOps) {
  PhaseProgram program;
  program.add(1e9, 1.0, 0.05).add(1e9, 1.1, 0.0);
  program.scale_instructions(2.5);
  EXPECT_EQ(program.ops().size(), 2u);
  EXPECT_EQ(program.segments()[0].op_index, 0u);
  EXPECT_EQ(program.segments()[1].op_index, 1u);
  EXPECT_EQ(program.total_instructions(), 5e9);
}

TEST(PhaseProgramInterning, IndicesFollowFirstSeenOrder) {
  PhaseProgram program;
  program.add(1e9, 1.3, 0.02)
      .add(1e9, 1.0, 0.05)
      .add(1e9, 1.3, 0.02)
      .add(1e9, 0.8, 0.10)
      .add(1e9, 1.0, 0.05);
  const std::vector<uint32_t> expected{0, 1, 0, 2, 1};
  ASSERT_EQ(program.segments().size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(program.segments()[i].op_index, expected[i]) << "segment " << i;
  }
  ASSERT_EQ(program.ops().size(), 3u);
  EXPECT_EQ(program.ops()[0].cpi0, 1.3);
  EXPECT_EQ(program.ops()[1].cpi0, 1.0);
  EXPECT_EQ(program.ops()[2].cpi0, 0.8);

  // Many distinct ops: indices are dense and sequential.
  PhaseProgram many;
  for (int i = 0; i < 5000; ++i) many.add(1e6, 1.0, 1e-5 * i);
  for (int i = 0; i < 5000; ++i) many.add(1e6, 1.0, 1e-5 * (4999 - i));
  ASSERT_EQ(many.ops().size(), 5000u);
  for (uint32_t i = 0; i < 5000; ++i) {
    EXPECT_EQ(many.segments()[i].op_index, i);
    EXPECT_EQ(many.segments()[5000 + i].op_index, 4999 - i);
  }
}

TEST(PhaseProgramInterning, SignedZeroTipisKeepSeparateIndices) {
  PhaseProgram program;
  program.add(1e9, 1.0, 0.0).add(1e9, 1.0, -0.0).add(1e9, 1.0, 0.0);
  ASSERT_EQ(program.ops().size(), 2u);
  EXPECT_EQ(program.segments()[0].op_index, 0u);
  EXPECT_EQ(program.segments()[1].op_index, 1u);
  EXPECT_EQ(program.segments()[2].op_index, 0u);
  EXPECT_FALSE(std::signbit(program.ops()[0].tipi));
  EXPECT_TRUE(std::signbit(program.ops()[1].tipi));
}

TEST(PhaseProgramInterning, CopiesAndMovesKeepDeduping) {
  PhaseProgram original;
  original.add(1e9, 1.0, 0.05).add(1e9, 1.2, 0.10);

  PhaseProgram copy = original;
  copy.add(1e9, 1.2, 0.10).add(1e9, 0.9, 0.01);
  copy.repeat(3, original.segments());
  EXPECT_EQ(copy.ops().size(), 3u);
  EXPECT_EQ(copy.segments()[2].op_index, 1u);
  EXPECT_EQ(copy.segments()[3].op_index, 2u);
  for (size_t i = 4; i < copy.segments().size(); i += 2) {
    EXPECT_EQ(copy.segments()[i].op_index, 0u);
    EXPECT_EQ(copy.segments()[i + 1].op_index, 1u);
  }
  // The copy's additions never leak into the original.
  original.add(1e9, 0.9, 0.01);
  EXPECT_EQ(original.ops().size(), 3u);
  EXPECT_EQ(original.segments()[2].op_index, 2u);

  PhaseProgram moved = std::move(copy);
  moved.add(1e9, 0.9, 0.01).add(1e9, 1.0, 0.05).add(1e9, 1.5, 0.2);
  EXPECT_EQ(moved.ops().size(), 4u);
  const size_t n = moved.segments().size();
  EXPECT_EQ(moved.segments()[n - 3].op_index, 2u);
  EXPECT_EQ(moved.segments()[n - 2].op_index, 0u);
  EXPECT_EQ(moved.segments()[n - 1].op_index, 3u);

  PhaseProgram assigned;
  assigned.add(1e9, 2.0, 0.3);
  assigned = moved;
  assigned.repeat(2, moved.segments());
  EXPECT_EQ(assigned.ops().size(), 4u);
  assigned.add(1e9, 2.0, 0.3);
  EXPECT_EQ(assigned.ops().size(), 5u);
  EXPECT_EQ(assigned.segments().back().op_index, 4u);
}

TEST(PerfModelUtilization, GivenIpsIsBitIdenticalToRecompute) {
  const MachineConfig cfg = haswell_2650v3();
  const PerfModel perf(cfg);
  SplitMix64 rng(11);
  for (int i = 0; i < 500; ++i) {
    const OperatingPoint op{0.5 + 2.0 * rng.next_double(),
                            rng.next_below(4) == 0
                                ? 0.0
                                : 0.3 * rng.next_double()};
    const FreqMHz cf = cfg.core_ladder.at(static_cast<Level>(
        rng.next_below(static_cast<uint64_t>(cfg.core_ladder.levels()))));
    const FreqMHz uf = cfg.uncore_ladder.at(static_cast<Level>(
        rng.next_below(static_cast<uint64_t>(cfg.uncore_ladder.levels()))));
    const double ips = perf.instructions_per_second(cf, uf, op);
    EXPECT_EQ(perf.utilization_given_ips(ips, cf, op),
              perf.utilization(cf, uf, op));
    // The factored smooth-min is the same arithmetic as the direct form.
    if (op.tipi > 0.0) {
      EXPECT_EQ(perf.combine_rooflines(
                    perf.roofline_term(perf.compute_roofline(cf, op)),
                    perf.roofline_term(perf.memory_roofline(uf, op))),
                ips);
    }
  }
}

}  // namespace
}  // namespace cuttlefish::sim
