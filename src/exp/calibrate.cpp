#include "exp/calibrate.hpp"

#include <cmath>

#include "common/assert.hpp"
#include "exp/driver.hpp"

namespace cuttlefish::exp {

void calibrate_program(sim::PhaseProgram& program,
                       const sim::MachineConfig& machine_cfg, double target_s,
                       double tolerance) {
  sim::RateTable rates(machine_cfg, program);
  calibrate_program(program, rates, target_s, tolerance);
}

void calibrate_program(sim::PhaseProgram& program, sim::RateTable& rates,
                       double target_s, double tolerance) {
  CF_ASSERT(target_s > 0.0, "target time must be positive");
  CF_ASSERT(!program.empty(), "cannot calibrate an empty program");
  CF_ASSERT(&rates.program() == &program,
            "rate table belongs to another program");
  RunOptions options;
  options.seed = 0;
  options.rates = &rates;
  for (int iteration = 0; iteration < 6; ++iteration) {
    const RunResult r = run_default(rates.config(), program, options);
    const double ratio = target_s / r.time_s;
    if (std::abs(ratio - 1.0) <= tolerance) return;
    program.scale_instructions(ratio);
  }
}

sim::PhaseProgram build_calibrated(const workloads::BenchmarkModel& model,
                                   const sim::MachineConfig& machine_cfg,
                                   uint64_t seed) {
  sim::PhaseProgram program = model.build_program(seed);
  calibrate_program(program, machine_cfg, model.default_time_s);
  return program;
}

CalibratedProgram::CalibratedProgram(const workloads::BenchmarkModel& model,
                                     const sim::MachineConfig& machine_cfg,
                                     uint64_t seed)
    : program(model.build_program(seed)), rates(machine_cfg, program) {
  calibrate_program(program, rates, model.default_time_s);
}

}  // namespace cuttlefish::exp
