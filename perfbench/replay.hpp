#pragma once

// Replays Fig. 10 sweep specs through the library's public classes
// (BenchmarkModel::build_program, calibrate_program, SimMachine,
// FirmwareUncoreGovernor, SimPlatform, core::make_controller) so that a
// span can sit at every layer boundary. The loops mirror exp::run_default
// and exp::run_policy step for step; the benchmark checks every replayed
// result byte for byte against exp::run_spec.

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/icontroller.hpp"
#include "exp/sweep.hpp"
#include "sim/sim_machine.hpp"
#include "sim/sim_platform.hpp"
#include "trace.hpp"

namespace perfbench {

/// Counters the replay accumulates beside the spans.
struct ReplayCounters {
  uint64_t program_ops = 0;       // distinct operating points, summed
  uint64_t program_segments = 0;  // segments, summed over programs
  uint64_t programs = 0;
  double virtual_s = 0.0;
  uint64_t freq_switches = 0;
  uint64_t hal_writes = 0;
  uint64_t hal_effective_writes = 0;
  cuttlefish::core::ControllerStats stats;  // summed over policy runs
};

void add_stats(cuttlefish::core::ControllerStats& into,
               const cuttlefish::core::ControllerStats& from);

/// Programs memoised per (model, seed), as run_sweep does.
class ProgramMemo {
 public:
  const cuttlefish::sim::PhaseProgram& get(
      const cuttlefish::exp::RunSpec& spec, Tracer* tracer,
      ReplayCounters* counters);

 private:
  std::map<std::pair<const cuttlefish::workloads::BenchmarkModel*, uint64_t>,
           cuttlefish::sim::PhaseProgram>
      programs_;
};

/// One policy spec's co-simulation, steppable so that several can advance
/// in lockstep. The call sequence is exp::run_policy's: start() runs the
/// §4.1 warm-up and begin(); then step() and tick() alternate, with one
/// last tick() after the step() that returns false.
class PolicyReplay {
 public:
  PolicyReplay(const cuttlefish::exp::RunSpec& spec,
               const cuttlefish::sim::PhaseProgram& program, Tracer* tracer);
  PolicyReplay(const PolicyReplay&) = delete;
  PolicyReplay& operator=(const PolicyReplay&) = delete;

  /// False when the workload ended during the warm-up (no ticks follow).
  bool start();
  /// Advances one Tinv quantum; false once the workload is done.
  bool step();
  void tick();
  cuttlefish::exp::RunResult finish(ReplayCounters* counters);

 private:
  Tracer* tracer_;
  cuttlefish::core::ControllerConfig cfg_;
  cuttlefish::sim::SimMachine machine_;
  cuttlefish::sim::SimPlatform base_;
  std::optional<TimedPlatform> timed_;
  std::unique_ptr<cuttlefish::core::IController> controller_;
};

/// Replays one spec. With a tracer, spans are recorded at every layer
/// boundary and a TimedPlatform sits between the controller and the
/// simulated backend; without one the platform stack is exactly the one
/// exp::run_spec builds.
cuttlefish::exp::RunResult replay_spec(
    const cuttlefish::exp::RunSpec& spec,
    const cuttlefish::sim::PhaseProgram& program, Tracer* tracer,
    ReplayCounters* counters);

}  // namespace perfbench
