#include "exp/driver.hpp"

#include <memory>
#include <optional>

#include "arbiter/local_arbiter.hpp"
#include "common/assert.hpp"
#include "core/controller_factory.hpp"
#include "hal/arbitrated.hpp"
#include "hal/fault_injection.hpp"
#include "sim/firmware_governor.hpp"
#include "sim/sim_machine.hpp"
#include "sim/sim_platform.hpp"

namespace cuttlefish::exp {

namespace {

/// Shared per-quantum bookkeeping: advances the machine one quantum,
/// appends a timeline sample if requested, and reports progress.
class QuantumRunner {
 public:
  QuantumRunner(sim::SimMachine& machine, double tinv_s, bool capture,
                std::vector<TimePoint>* timeline)
      : machine_(&machine), tinv_(tinv_s), capture_(capture),
        timeline_(timeline) {}

  /// Returns false once the workload has completed.
  bool step() {
    // Non-timeline runs (the vast majority of sweep specs) advance with
    // zero per-quantum bookkeeping; the counter snapshots exist only to
    // difference into a TimePoint.
    if (!capture_) {
      machine_->advance(tinv_);
      return !machine_->workload_done();
    }
    const uint64_t i0 = machine_->instructions_retired();
    const uint64_t t0 = machine_->tor_inserts();
    const double e0 = machine_->energy_joules();
    machine_->advance(tinv_);
    {
      const auto di = machine_->instructions_retired() - i0;
      if (di > 0) {
        TimePoint pt;
        pt.t = machine_->now();
        pt.tipi = static_cast<double>(machine_->tor_inserts() - t0) /
                  static_cast<double>(di);
        pt.jpi = (machine_->energy_joules() - e0) / static_cast<double>(di);
        pt.cf = machine_->core_frequency();
        pt.uf = machine_->uncore_frequency();
        timeline_->push_back(pt);
      }
    }
    return !machine_->workload_done();
  }

 private:
  sim::SimMachine* machine_;
  double tinv_;
  bool capture_;
  std::vector<TimePoint>* timeline_;
};

/// The run's machine: on the borrowed rate table when the options carry
/// one, else on a private table.
sim::SimMachine make_machine(const sim::MachineConfig& machine_cfg,
                             const sim::PhaseProgram& program,
                             const RunOptions& options) {
  if (options.rates == nullptr) {
    return sim::SimMachine(machine_cfg, program, options.seed);
  }
  CF_ASSERT(options.rates->serves(machine_cfg, program),
            "rate table belongs to another program or machine");
  return sim::SimMachine(*options.rates, options.seed);
}

RunResult finish_result(const sim::SimMachine& machine, RunResult result) {
  result.time_s = machine.now();
  result.energy_j = machine.energy_joules();
  result.instructions = machine.instructions_retired();
  return result;
}

}  // namespace

RunResult run_default(const sim::MachineConfig& machine_cfg,
                      const sim::PhaseProgram& program,
                      const RunOptions& options) {
  sim::SimMachine machine = make_machine(machine_cfg, program, options);
  machine.set_core_frequency(machine_cfg.core_ladder.max());
  sim::FirmwareUncoreGovernor governor(machine);
  RunResult result;
  QuantumRunner runner(machine, options.controller.tinv_s,
                       options.capture_timeline, &result.timeline);
  // Let the governor see the first quantum's traffic before adapting.
  while (runner.step()) {
    governor.tick();
  }
  return finish_result(machine, std::move(result));
}

RunResult run_fixed(const sim::MachineConfig& machine_cfg,
                    const sim::PhaseProgram& program, FreqMHz cf, FreqMHz uf,
                    const RunOptions& options) {
  sim::SimMachine machine = make_machine(machine_cfg, program, options);
  machine.set_core_frequency(cf);
  machine.set_uncore_frequency(uf);
  RunResult result;
  QuantumRunner runner(machine, options.controller.tinv_s,
                       options.capture_timeline, &result.timeline);
  while (runner.step()) {
  }
  return finish_result(machine, std::move(result));
}

RunResult run_policy(const sim::MachineConfig& machine_cfg,
                     const sim::PhaseProgram& program,
                     core::PolicyKind policy, const RunOptions& options) {
  sim::SimMachine machine = make_machine(machine_cfg, program, options);
  sim::SimPlatform base(machine);
  // Fault injection wraps the platform, not the machine: the workload and
  // power model stay byte-identical, only the controller's I/O is faulted.
  std::optional<hal::FaultInjectionPlatform> faulty;
  hal::PlatformInterface* platform = &base;
  if (options.faults != nullptr) {
    faulty.emplace(base, *options.faults);
    platform = &*faulty;
  }
  // Arbitration wraps outermost (docs/ARBITER.md): the controller's
  // writes are clamped to the granted share before any fault injection or
  // the simulator see them. A LocalArbiter with `tenants` slots, the
  // others idle, reproduces a single session's view of a shared budget
  // deterministically.
  std::unique_ptr<arbiter::LocalArbiter> arb;
  std::optional<hal::ArbitratedPlatform> arbitrated;
  if (options.arbiter.enabled) {
    arbiter::ArbiterConfig acfg;
    acfg.budget_w = options.arbiter.budget_w;
    acfg.policy = options.arbiter.policy;
    const int tenants = options.arbiter.tenants < 1
                            ? 1
                            : options.arbiter.tenants;
    arb = std::make_unique<arbiter::LocalArbiter>(acfg, tenants);
    // Occupy the neighbours' slots first so this run's session lands on
    // slot `tenant_index` — idle peers hold a registered, zero-demand
    // lease, exactly what a co-tenant looks like between its ticks.
    int index = options.arbiter.tenant_index;
    if (index < 0 || index >= tenants) index = 0;
    for (int i = 0; i < index; ++i) (void)arb->attach();
    arbitrated.emplace(*platform, *arb, options.controller.tinv_s);
    for (int i = index + 1; i < tenants; ++i) (void)arb->attach();
    platform = &*arbitrated;
  }
  core::ControllerConfig ctl_cfg = options.controller;
  ctl_cfg.policy = policy;
  // The factory picks the registered strategy for the kind (Default's
  // ladder descent, MPC's plant-model jumps, ...).
  const std::unique_ptr<core::IController> controller =
      core::make_controller(*platform, ctl_cfg);

  RunResult result;
  QuantumRunner runner(machine, ctl_cfg.tinv_s, options.capture_timeline,
                       &result.timeline);

  // §4.1 warm-up: the machine runs at its construction-time maximum
  // frequencies while the daemon sleeps.
  bool alive = true;
  for (double t = 0.0; t + ctl_cfg.tinv_s <= ctl_cfg.warmup_s + 1e-12;
       t += ctl_cfg.tinv_s) {
    alive = runner.step();
    if (!alive) break;
  }
  if (alive) {
    controller->begin();
    while (runner.step()) {
      controller->tick();
    }
    // Account the final partial quantum's sensor data.
    controller->tick();
  }

  result.stats = controller->stats();
  for (const core::TipiNode* node = controller->list().head();
       node != nullptr;
       node = node->next) {
    result.nodes.push_back(NodeSummary{node->slab, node->ticks, node->cf.opt,
                                       node->uf.opt});
  }
  return finish_result(machine, std::move(result));
}

}  // namespace cuttlefish::exp
