#pragma once

#include <cstdint>

#include "sim/machine_config.hpp"
#include "sim/phase_workload.hpp"
#include "sim/rate_table.hpp"
#include "workloads/suite.hpp"

namespace cuttlefish::exp {

/// Rescale `program`'s instruction counts so its Default-policy execution
/// on `machine_cfg` lasts `target_s` seconds (the Table-1 "OpenMP Time"
/// column). Iterates simulate-and-scale until within `tolerance`
/// (relative); the Default run is noise-free in time, so two or three
/// iterations converge. The iterations share one rate table.
void calibrate_program(sim::PhaseProgram& program,
                       const sim::MachineConfig& machine_cfg, double target_s,
                       double tolerance = 0.002);

/// The same, calibrating against rates.config() with every iteration
/// borrowing `rates`, the table of `program`. Scaling never changes a
/// program's ops, so the table stays valid for the program's later runs.
void calibrate_program(sim::PhaseProgram& program, sim::RateTable& rates,
                       double target_s, double tolerance = 0.002);

/// Build a benchmark model's phase program and calibrate it.
sim::PhaseProgram build_calibrated(const workloads::BenchmarkModel& model,
                                   const sim::MachineConfig& machine_cfg,
                                   uint64_t seed);

/// A model's calibrated program (build_calibrated's bits) together with
/// the rate table its calibration filled, for the program's runs to
/// borrow through RunOptions::rates. Neither copyable nor movable: the
/// table points at the program.
struct CalibratedProgram {
  CalibratedProgram(const workloads::BenchmarkModel& model,
                    const sim::MachineConfig& machine_cfg, uint64_t seed);

  sim::PhaseProgram program;
  sim::RateTable rates;
};

}  // namespace cuttlefish::exp
