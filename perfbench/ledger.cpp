#include "ledger.hpp"

namespace perfbench {

namespace {

double per_call(int64_t ns, uint64_t calls) {
  return calls == 0 ? 0.0 : static_cast<double>(ns) / static_cast<double>(calls);
}

}  // namespace

void EndToEnd::add_to(Outcome& out) const {
  out.add("setup_s", setup_s, "s");
  out.add("specs_per_s", specs_per_s, "1/s");
  out.add("energy_savings_pct", energy_savings_pct, "%");
  out.add("slowdown_pct", slowdown_pct, "%");
  out.add("tick_ns_p50", tick_ns_p50, "ns");
  out.add("tick_ns_p99", tick_ns_p99, "ns");
}

void Ledger::absorb(const Tracer& tracer, const ReplayCounters& counters) {
  const std::vector<SpanTotals> t = tracer.totals();
  double traced_wall_ns = 0.0;
  for (const Span& span : tracer.spans()) {
    if (span.parent < 0) {
      traced_wall_ns += static_cast<double>(span.end_ns - span.start_ns);
    }
  }
  const auto at = [&t](SpanName n) -> const SpanTotals& {
    return t[static_cast<size_t>(n)];
  };
  workloads_build_s = static_cast<double>(at(SpanName::kBuild).total_ns) * 1e-9;
  exp_calibrate_s = static_cast<double>(at(SpanName::kCalibrate).total_ns) * 1e-9;
  exp_calibrate_share_pct =
      traced_wall_ns > 0.0
          ? static_cast<double>(at(SpanName::kCalibrate).total_ns) /
                traced_wall_ns * 100.0
          : 0.0;
  exp_run_spec_s =
      per_call(at(SpanName::kRun).total_ns, at(SpanName::kRun).calls) * 1e-9;

  if (counters.programs > 0) {
    sim_ops_per_program = static_cast<double>(counters.program_ops) /
                          static_cast<double>(counters.programs);
  }
  if (counters.program_ops > 0) {
    sim_segments_per_op = static_cast<double>(counters.program_segments) /
                          static_cast<double>(counters.program_ops);
  }
  sim_advance_calls = static_cast<double>(at(SpanName::kAdvance).calls);
  sim_advance_ns_per_call =
      per_call(at(SpanName::kAdvance).total_ns, at(SpanName::kAdvance).calls);
  sim_virtual_s = counters.virtual_s;
  sim_freq_switches = static_cast<double>(counters.freq_switches);
  sim_governor_s = static_cast<double>(at(SpanName::kGovernor).total_ns) * 1e-9;

  hal_sample_calls = static_cast<double>(at(SpanName::kHalSample).calls);
  hal_sample_ns = per_call(at(SpanName::kHalSample).total_ns,
                           at(SpanName::kHalSample).calls);
  hal_apply_calls = static_cast<double>(at(SpanName::kHalApply).calls);
  hal_apply_ns = per_call(at(SpanName::kHalApply).total_ns,
                          at(SpanName::kHalApply).calls);
  hal_apply_effective_ratio =
      counters.hal_writes == 0
          ? 0.0
          : static_cast<double>(counters.hal_effective_writes) /
                static_cast<double>(counters.hal_writes);
  hal_fault_ns = per_call(
      at(SpanName::kFaultSample).self_ns + at(SpanName::kFaultApply).self_ns,
      at(SpanName::kFaultSample).calls + at(SpanName::kFaultApply).calls);
  hal_io_retries = static_cast<double>(counters.stats.io_retries);

  core_tick_calls = static_cast<double>(at(SpanName::kTick).calls);
  core_tick_self_ns =
      per_call(at(SpanName::kTick).self_ns, at(SpanName::kTick).calls);
  core_samples_recorded = static_cast<double>(counters.stats.samples_recorded);
  core_transitions = static_cast<double>(counters.stats.transitions);
  core_freq_writes = static_cast<double>(counters.stats.freq_writes);
  core_region_enter_us = per_call(at(SpanName::kRegionEnter).total_ns,
                                  at(SpanName::kRegionEnter).calls) * 1e-3;
  core_region_exit_us = per_call(at(SpanName::kRegionExit).total_ns,
                                 at(SpanName::kRegionExit).calls) * 1e-3;

  arbiter_self_ns = per_call(
      at(SpanName::kArbiterSample).self_ns + at(SpanName::kArbiterApply).self_ns,
      at(SpanName::kArbiterSample).calls + at(SpanName::kArbiterApply).calls);
}

void Ledger::add_to(Outcome& out) const {
  out.add("workloads.build_s", workloads_build_s, "s");
  out.add("exp.calibrate_s", exp_calibrate_s, "s");
  out.add("exp.calibrate.share_pct", exp_calibrate_share_pct, "%");
  out.add("exp.run_spec_s", exp_run_spec_s, "s");
  out.add("sim.ops_per_program", sim_ops_per_program, "count");
  out.add("sim.segments_per_op", sim_segments_per_op, "ratio");
  out.add("sim.advance.calls", sim_advance_calls, "count");
  out.add("sim.advance.ns_per_call", sim_advance_ns_per_call, "ns");
  out.add("sim.virtual_s", sim_virtual_s, "s_simulated");
  out.add("sim.freq_switches", sim_freq_switches, "count");
  out.add("sim.governor_s", sim_governor_s, "s");
  out.add("hal.sample.calls", hal_sample_calls, "count");
  out.add("hal.sample.ns", hal_sample_ns, "ns");
  out.add("hal.apply.calls", hal_apply_calls, "count");
  out.add("hal.apply.ns", hal_apply_ns, "ns");
  out.add("hal.apply.effective_ratio", hal_apply_effective_ratio, "ratio");
  out.add("hal.fault.ns", hal_fault_ns, "ns");
  out.add("hal.io_retries", hal_io_retries, "count");
  out.add("core.tick.calls", core_tick_calls, "count");
  out.add("core.tick.self_ns", core_tick_self_ns, "ns");
  out.add("core.samples_recorded", core_samples_recorded, "count");
  out.add("core.transitions", core_transitions, "count");
  out.add("core.freq_writes", core_freq_writes, "count");
  out.add("core.region.enter_us", core_region_enter_us, "us");
  out.add("core.region.exit_us", core_region_exit_us, "us");
  out.add("arbiter.self_ns", arbiter_self_ns, "ns");
  out.add("arbiter.grant_changes", arbiter_grant_changes, "count");
  out.add("arbiter.over_budget_pct", arbiter_over_budget_pct, "%");
  out.add("arbiter.node_edp_js", arbiter_node_edp_js, "J.s");
  out.add("exp.supervisor.wall_over_serial_x",
          exp_supervisor_wall_over_serial_x, "x");
  out.add("exp.supervisor.overhead_ms_per_spec",
          exp_supervisor_overhead_ms_per_spec, "ms");
  out.add("exp.supervisor.worker_launches", exp_supervisor_worker_launches,
          "count");
  out.add("exp.journal.bytes_per_spec", exp_journal_bytes_per_spec, "B");
  out.add("exp.resume_s", exp_resume_s, "s");
  out.add("exp.cache.warm_s", exp_cache_warm_s, "s");
  out.add("exp.cache.hits", exp_cache_hits, "count");
  out.add("exp.reread_specs_per_s", exp_reread_specs_per_s, "1/s");
  out.add("trace.overhead_pct", trace_overhead_pct, "%");
}

}  // namespace perfbench
