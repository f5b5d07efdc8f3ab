#pragma once

// The metric sets every run reports. Each workload fills what its path
// exercises; a layer a workload never enters reads 0, so every run prints
// the same names (see BENCHMARK.md for which workload moves which).

#include "replay.hpp"
#include "report.hpp"
#include "trace.hpp"

namespace perfbench {

/// End-to-end metrics, measured with tracing off.
struct EndToEnd {
  double setup_s = 0.0;
  double specs_per_s = 0.0;
  double energy_savings_pct = 0.0;
  double slowdown_pct = 0.0;
  double tick_ns_p50 = 0.0;
  double tick_ns_p99 = 0.0;

  void add_to(Outcome& out) const;
};

/// Per-layer metrics, from the traced run.
struct Ledger {
  // workloads + exp set-up path
  double workloads_build_s = 0.0;
  double exp_calibrate_s = 0.0;
  double exp_calibrate_share_pct = 0.0;
  double exp_run_spec_s = 0.0;
  // sim
  double sim_ops_per_program = 0.0;
  double sim_segments_per_op = 0.0;
  double sim_advance_calls = 0.0;
  double sim_advance_ns_per_call = 0.0;
  double sim_virtual_s = 0.0;
  double sim_freq_switches = 0.0;
  double sim_governor_s = 0.0;
  // hal
  double hal_sample_calls = 0.0;
  double hal_sample_ns = 0.0;
  double hal_apply_calls = 0.0;
  double hal_apply_ns = 0.0;
  double hal_apply_effective_ratio = 0.0;
  double hal_fault_ns = 0.0;
  double hal_io_retries = 0.0;
  // core
  double core_tick_calls = 0.0;
  double core_tick_self_ns = 0.0;
  double core_samples_recorded = 0.0;
  double core_transitions = 0.0;
  double core_freq_writes = 0.0;
  double core_region_enter_us = 0.0;
  double core_region_exit_us = 0.0;
  // arbiter
  double arbiter_self_ns = 0.0;
  double arbiter_grant_changes = 0.0;
  double arbiter_over_budget_pct = 0.0;
  double arbiter_node_edp_js = 0.0;
  // exp persistence and supervision
  double exp_supervisor_wall_over_serial_x = 0.0;
  double exp_supervisor_overhead_ms_per_spec = 0.0;
  double exp_supervisor_worker_launches = 0.0;
  double exp_journal_bytes_per_spec = 0.0;
  double exp_resume_s = 0.0;
  double exp_cache_warm_s = 0.0;
  double exp_cache_hits = 0.0;
  double exp_reread_specs_per_s = 0.0;
  // the traced run against the untraced one
  double trace_overhead_pct = 0.0;

  /// Fills the span- and counter-derived fields. Shares are of the time
  /// the root spans cover.
  void absorb(const Tracer& tracer, const ReplayCounters& counters);
  void add_to(Outcome& out) const;
};

}  // namespace perfbench
