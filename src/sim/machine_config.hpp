#pragma once

#include "common/frequency.hpp"

namespace cuttlefish::sim {

/// Analytic model of one multicore package with DVFS + UFS knobs.
///
/// The performance side is a two-roofline model: package instruction
/// throughput is the smooth minimum of
///   compute roofline  = cores * CF / CPI0           [instr/s]
///   memory  roofline  = supply_bw / (line * TIPI)   [instr/s]
/// where supply_bw = min(uncore_bw_per_ghz * UF, dram_bw). The knee where
/// the uncore stops being the bandwidth bottleneck (dram_bw /
/// uncore_bw_per_ghz ~ 2.19 GHz) is what makes ~2.2 GHz the optimal
/// uncore frequency for memory-bound codes, matching Table 2 of the paper.
///
/// The power side: static + per-core dynamic C*V(f)^2*f weighted by
/// utilisation (stalled cores still draw stall_power_frac of their active
/// power), a cubic uncore term, and a per-LLC-miss traffic energy.
/// Coefficients are calibrated so the Haswell preset reproduces the
/// paper's shape facts (see tests/sim_calibration_test.cpp).
struct MachineConfig {
  int cores = 20;

  FreqLadder core_ladder = haswell_core_ladder();
  FreqLadder uncore_ladder = haswell_uncore_ladder();

  // --- performance model ---
  double dram_bw_gbs = 68.0;          // DRAM roofline (both sockets)
  double uncore_bw_gbs_per_ghz = 31.0;  // LLC/ring bandwidth per uncore GHz
  double line_bytes = 64.0;
  double roofline_smoothing_p = 8.0;  // p-norm coupling of the rooflines

  // --- power model ---
  double static_power_w = 60.0;       // leakage + fixed agents
  double core_dyn_coeff = 1.445;      // W per (V^2 * GHz) per core
  double v_at_fmin = 0.65;            // core voltage at ladder min
  double v_at_fmax = 0.95;            // core voltage at ladder max
  double stall_power_frac = 0.45;     // stalled-core share of active power
  double uncore_coeff_w_per_ghz3 = 1.30;
  /// Traffic energy, split by where the miss is served. The testbed runs
  /// with numactl interleaved allocation on two sockets (paper §2), so
  /// about half of all misses cross QPI and cost more.
  double energy_per_local_miss_nj = 14.0;
  double energy_per_remote_miss_nj = 22.0;
  double remote_miss_fraction = 0.5;  // numactl --interleave, 2 sockets

  // --- sensor emulation ---
  int rapl_esu_bits = 14;             // energy unit = 1/2^14 J (~61 uJ)
  double power_noise_sigma = 0.003;   // multiplicative measurement jitter

  /// PLL relock dead time per frequency change: cores halt briefly while
  /// the clock domain re-locks. Microseconds on real Haswell — visible
  /// only to workloads whose controller flaps frequencies.
  double core_switch_latency_s = 20e-6;
  double uncore_switch_latency_s = 50e-6;

  /// Core voltage at frequency f (linear V/f curve with a floor; the
  /// floor is why package energy for compute-bound codes keeps improving
  /// all the way to fmax — the race-to-idle effect).
  double core_voltage(FreqMHz f) const;

  bool operator==(const MachineConfig&) const = default;
};

/// The paper's evaluation machine: 20-core Xeon E5-2650 v3, core
/// 1.2-2.3 GHz, uncore 1.2-3.0 GHz, 0.1 GHz steps.
MachineConfig haswell_2650v3();

/// A Broadwell-generation preset (2x14-core E5-2690 v4 flavour) with a
/// *different ladder geometry* — 21 core levels vs 19 uncore levels —
/// exercising Cuttlefish's generality across processors, as the paper
/// claims for "more recent Intel processors" (§2).
MachineConfig broadwell_2690v4();

/// The 7-level A..G "hypothetical processor" the paper uses to explain
/// Algorithms 2-3 (both domains share the same 7-step ladder).
MachineConfig hypothetical_machine();

}  // namespace cuttlefish::sim
