#pragma once

#include <cstdint>
#include <vector>

#include "arbiter/arbiter.hpp"
#include "core/controller.hpp"
#include "sim/machine_config.hpp"
#include "sim/phase_workload.hpp"

namespace cuttlefish::hal {
class FaultSchedule;
}
namespace cuttlefish::sim {
class RateTable;
}

namespace cuttlefish::exp {

/// One Tinv-quantum sample of a run (drives Fig. 2 style timelines).
struct TimePoint {
  double t = 0.0;      // end of the quantum, seconds
  double tipi = 0.0;
  double jpi = 0.0;
  FreqMHz cf{0};
  FreqMHz uf{0};
};

/// Final state of one TIPI node after a policy run (Table 2 inputs).
struct NodeSummary {
  int64_t slab = 0;
  uint64_t ticks = 0;
  Level cf_opt = kNoLevel;  // kNoLevel if never resolved
  Level uf_opt = kNoLevel;
};

struct RunResult {
  double time_s = 0.0;
  double energy_j = 0.0;
  uint64_t instructions = 0;
  std::vector<TimePoint> timeline;   // filled when capture_timeline
  std::vector<NodeSummary> nodes;    // policy runs only
  core::ControllerStats stats;       // policy runs only

  double edp() const { return time_s * energy_j; }
  double avg_power_w() const { return energy_j / time_s; }
};

/// Node-local power arbitration for policy runs (docs/ARBITER.md).
/// Disabled by default; when enabled, the simulated session is wrapped in
/// hal::ArbitratedPlatform over an in-process LocalArbiter with
/// `tenants` registered slots, of which this run occupies `tenant_index`
/// and the others sit idle (zero demand) — i.e. a single-tenant cap
/// against a configured budget. Part of the spec digest: arbitration
/// changes result bytes.
struct ArbiterSpec {
  bool enabled = false;
  double budget_w = 0.0;  // <= 0: uncapped
  arbiter::SharePolicy policy = arbiter::SharePolicy::kEqualShare;
  int tenants = 1;        // registered slots
  int tenant_index = 0;   // which slot this run's session occupies

  bool operator==(const ArbiterSpec&) const = default;
};

struct RunOptions {
  uint64_t seed = 1;
  bool capture_timeline = false;
  /// Tinv / warm-up / optimization switches for policy runs; tinv_s also
  /// sets the sampling quantum of Default and fixed runs so timelines are
  /// comparable.
  core::ControllerConfig controller;
  /// Deterministic fault schedule injected between the controller and the
  /// simulated platform (policy runs only; borrowed, may be null). Runs
  /// with a schedule are never served from or written to the sweep result
  /// cache — fault behaviour is not part of a spec's identity.
  const hal::FaultSchedule* faults = nullptr;
  /// Node-local power-budget arbitration (policy runs only).
  ArbiterSpec arbiter;
  /// Rate table the run's SimMachine borrows (borrowed, may be null: the
  /// machine then evaluates into a private one). It must be the table of
  /// the run's program on the run's machine config. Cached rates are
  /// bit-exact, so a table never changes a result and is not part of a
  /// spec's identity.
  sim::RateTable* rates = nullptr;
};

/// The paper's Default baseline: performance governor (CF pinned at max)
/// with the firmware "Auto" uncore scaler active.
RunResult run_default(const sim::MachineConfig& machine_cfg,
                      const sim::PhaseProgram& program,
                      const RunOptions& options);

/// Static frequency pair for the whole run (Fig. 3 sweeps).
RunResult run_fixed(const sim::MachineConfig& machine_cfg,
                    const sim::PhaseProgram& program, FreqMHz cf, FreqMHz uf,
                    const RunOptions& options);

/// A Cuttlefish policy run: 2 s warm-up at max frequencies, then the
/// controller ticks every Tinv of virtual time until the workload ends.
RunResult run_policy(const sim::MachineConfig& machine_cfg,
                     const sim::PhaseProgram& program,
                     core::PolicyKind policy, const RunOptions& options);

}  // namespace cuttlefish::exp
