#include "replay.hpp"

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>

#include "core/controller_factory.hpp"
#include "core/tipi_list.hpp"
#include "exp/calibrate.hpp"
#include "sim/firmware_governor.hpp"

namespace perfbench {

using namespace cuttlefish;

void add_stats(core::ControllerStats& into, const core::ControllerStats& from) {
  into.ticks += from.ticks;
  into.idle_ticks += from.idle_ticks;
  into.transitions += from.transitions;
  into.samples_recorded += from.samples_recorded;
  into.freq_writes += from.freq_writes;
  into.nodes_inserted += from.nodes_inserted;
  into.sensor_read_errors += from.sensor_read_errors;
  into.actuator_write_errors += from.actuator_write_errors;
  into.io_retries += from.io_retries;
  into.quarantines += from.quarantines;
  into.recoveries += from.recoveries;
}

const sim::PhaseProgram& ProgramMemo::get(const exp::RunSpec& spec,
                                          Tracer* tracer,
                                          ReplayCounters* counters) {
  const auto key = std::make_pair(spec.model, spec.seed);
  const auto it = programs_.find(key);
  if (it != programs_.end()) return it->second;
  // exp::build_calibrated, split at its layer boundary.
  sim::PhaseProgram program;
  {
    Scope span(tracer, SpanName::kBuild);
    program = spec.model->build_program(spec.seed);
  }
  {
    Scope span(tracer, SpanName::kCalibrate);
    exp::calibrate_program(program, *spec.machine,
                           spec.model->default_time_s);
  }
  if (counters != nullptr) {
    ++counters->programs;
    counters->program_ops += program.ops().size();
    counters->program_segments += program.segments().size();
  }
  return programs_.emplace(key, std::move(program)).first->second;
}

namespace {

/// One Tinv quantum, as exp's QuantumRunner steps a non-timeline run.
bool step(sim::SimMachine& machine, double tinv_s, Tracer* tracer) {
  Scope span(tracer, SpanName::kAdvance);
  machine.advance(tinv_s);
  return !machine.workload_done();
}

exp::RunResult finish(const sim::SimMachine& machine, exp::RunResult result,
                      ReplayCounters* counters) {
  result.time_s = machine.now();
  result.energy_j = machine.energy_joules();
  result.instructions = machine.instructions_retired();
  if (counters != nullptr) {
    counters->virtual_s += result.time_s;
    counters->freq_switches += machine.frequency_switches();
  }
  return result;
}

exp::RunResult replay_default(const exp::RunSpec& spec,
                              const sim::PhaseProgram& program,
                              Tracer* tracer, ReplayCounters* counters) {
  const sim::MachineConfig& cfg = *spec.machine;
  const double tinv = spec.options.controller.tinv_s;
  sim::SimMachine machine(cfg, program, spec.seed);
  machine.set_core_frequency(cfg.core_ladder.max());
  sim::FirmwareUncoreGovernor governor(machine);
  while (step(machine, tinv, tracer)) {
    Scope span(tracer, SpanName::kGovernor);
    governor.tick();
  }
  return finish(machine, exp::RunResult{}, counters);
}

}  // namespace

PolicyReplay::PolicyReplay(const exp::RunSpec& spec,
                           const sim::PhaseProgram& program, Tracer* tracer)
    : tracer_(tracer), cfg_(spec.options.controller),
      machine_(*spec.machine, program, spec.seed), base_(machine_) {
  hal::PlatformInterface* platform = &base_;
  if (tracer != nullptr) {
    timed_.emplace(base_, *tracer, SpanName::kHalSample, SpanName::kHalApply,
                   /*count_effective=*/true);
    platform = &*timed_;
  }
  cfg_.policy = spec.policy;
  controller_ = core::make_controller(*platform, cfg_);
}

bool PolicyReplay::start() {
  // §4.1 warm-up at the construction-time maximum frequencies.
  for (double t = 0.0; t + cfg_.tinv_s <= cfg_.warmup_s + 1e-12;
       t += cfg_.tinv_s) {
    if (!step()) return false;
  }
  Scope span(tracer_, SpanName::kBegin);
  controller_->begin();
  return true;
}

bool PolicyReplay::step() { return perfbench::step(machine_, cfg_.tinv_s, tracer_); }

void PolicyReplay::tick() {
  Scope span(tracer_, SpanName::kTick);
  controller_->tick();
}

exp::RunResult PolicyReplay::finish(ReplayCounters* counters) {
  exp::RunResult result;
  result.stats = controller_->stats();
  for (const core::TipiNode* node = controller_->list().head();
       node != nullptr; node = node->next) {
    result.nodes.push_back(
        exp::NodeSummary{node->slab, node->ticks, node->cf.opt, node->uf.opt});
  }
  if (counters != nullptr) {
    add_stats(counters->stats, result.stats);
    if (timed_) {
      counters->hal_writes += timed_->writes();
      counters->hal_effective_writes += timed_->effective_writes();
    }
  }
  return perfbench::finish(machine_, std::move(result), counters);
}

exp::RunResult replay_spec(const exp::RunSpec& spec,
                           const sim::PhaseProgram& program, Tracer* tracer,
                           ReplayCounters* counters) {
  // The Fig. 10 grid holds only fault-free, unarbitrated Default and
  // policy runs; anything else would need exp::run_policy's other stacks.
  if (spec.options.faults != nullptr || spec.options.arbiter.enabled ||
      spec.options.capture_timeline || spec.kind == exp::RunKind::kFixed) {
    std::fprintf(stderr, "perfbench: replay supports only the Fig. 10 grid\n");
    std::exit(2);
  }
  Scope span(tracer, SpanName::kRun);
  if (spec.kind == exp::RunKind::kDefault) {
    return replay_default(spec, program, tracer, counters);
  }
  PolicyReplay run(spec, program, tracer);
  if (run.start()) {
    while (run.step()) run.tick();
    run.tick();  // the final partial quantum's sensor data
  }
  return run.finish(counters);
}

}  // namespace perfbench
