#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "hal/msr_device.hpp"
#include "sim/machine_config.hpp"
#include "sim/perf_model.hpp"
#include "sim/phase_workload.hpp"
#include "sim/power_model.hpp"

namespace cuttlefish::sim {

/// Virtual-time simulation of one multicore package running a
/// PhaseProgram. Exposes the counters and control knobs Cuttlefish needs
/// through the same MSR register map as real Haswell hardware
/// (hal::MsrDevice), so the controller above is backend-agnostic.
///
/// Time advances analytically: within a segment the machine executes at
/// PerfModel::instructions_per_second for the current (CF, UF) setting and
/// dissipates PowerModel::package_watts; RAPL, TOR and INST counters
/// integrate accordingly (RAPL with the real 32-bit wrap and the
/// 1/2^ESU-joule unit).
///
/// Hot path: {ips, utilization, watts} depend only on the segment's
/// operating point and the (CF, UF) pair, both drawn from small discrete
/// sets (PhaseProgram dedupes ops; frequencies live on ladders). Each
/// deduped op the machine touches gets a small row: a direct-mapped cache
/// of kRateSlots evaluated (CF, UF) points plus the per-ladder-level
/// p-norm terms of its two rooflines, so a revisited point is a lookup and
/// a cold one costs a single pow. Within a segment the current rates are
/// hoisted out of the advance loop, so steady-state quanta are
/// multiply-adds. A row costs about half a KiB on the Haswell ladders,
/// where a full (CF, UF) grid of rates would take over 5 KiB; that matters
/// because jittered suite models make almost every segment a distinct op,
/// and every run and calibration pass pays for each op it touches. Cached
/// entries hold the exact doubles direct evaluation produces and the
/// per-quantum accumulation order is unchanged, so every counter — and
/// therefore every decision trace and paper table above — is bit-identical
/// to the uncached path.
class SimMachine final : public hal::MsrDevice {
 public:
  SimMachine(const MachineConfig& cfg, const PhaseProgram& program,
             uint64_t noise_seed = 0x5eedULL);

  /// Advance virtual time by up to `dt` seconds; stops early if the
  /// workload completes. Returns the time actually elapsed.
  double advance(double dt);

  bool workload_done() const { return cursor_.done(); }
  double now() const { return now_s_; }
  /// True total energy in joules (not quantised to RAPL units); used by
  /// experiment metrics.
  double energy_joules() const { return energy_j_; }
  /// Counters integrate in double precision (a quantum retires ~1e9
  /// instructions; rounding each quantum would drift) and are rounded
  /// once at the register boundary.
  uint64_t instructions_retired() const {
    return static_cast<uint64_t>(instr_);
  }
  uint64_t tor_inserts() const { return static_cast<uint64_t>(tor_); }
  /// NUMA split (MISS_LOCAL / MISS_REMOTE umasks of the paper's §3.1).
  /// Only the remote share is truncated independently; the local share is
  /// the remainder, so local + remote always equals tor_inserts() —
  /// counter conservation under the round-once-at-the-register rule.
  uint64_t tor_inserts_local() const {
    return tor_inserts() - tor_inserts_remote();
  }
  uint64_t tor_inserts_remote() const {
    return static_cast<uint64_t>(tor_ * cfg_.remote_miss_fraction);
  }
  /// Energy as the RAPL register reports it: truncated to energy units,
  /// wrapped at 32 bits. One quantisation rule shared by the MSR read
  /// path and SimPlatform's batched sampling fast path.
  uint32_t rapl_energy_raw() const {
    const double unit = 1.0 / static_cast<double>(1ULL << cfg_.rapl_esu_bits);
    return static_cast<uint32_t>(static_cast<uint64_t>(energy_j_ / unit) &
                                 0xffffffffULL);
  }

  FreqMHz core_frequency() const { return core_f_; }
  FreqMHz uncore_frequency() const { return uncore_f_; }
  void set_core_frequency(FreqMHz f);
  void set_uncore_frequency(FreqMHz f);

  const MachineConfig& config() const { return cfg_; }
  const PerfModel& perf_model() const { return perf_; }
  const PowerModel& power_model() const { return power_; }

  /// Current bandwidth demand [bytes/s] at the present operating point;
  /// consumed by the firmware uncore governor of Default runs.
  double demand_bandwidth_now() const;

  /// Number of frequency changes applied (each incurs the configured PLL
  /// relock dead time).
  uint64_t frequency_switches() const { return freq_switches_; }

  // hal::MsrDevice — the register map mirrors hal/msr.hpp.
  bool read(uint32_t address, uint64_t& value) override;
  bool write(uint32_t address, uint64_t value) override;

 private:
  static constexpr uint32_t kNoKey = UINT32_MAX;
  static constexpr uint32_t kRateSlots = 8;

  /// One cached steady-state operating point evaluation, tagged with its
  /// (CF, UF) key cf_level * nuf + uf_level (kNoKey = empty slot).
  struct OpRate {
    uint32_t key = kNoKey;
    double ips = 0.0;
    double util = 0.0;
    double watts = 0.0;
  };
  /// Rates of one deduped operating point: kRateSlots OpRates direct-mapped
  /// on key % kRateSlots, plus the memoised p-norm terms of each roofline,
  /// so a cold (CF, UF) visit whose factors are already known costs one
  /// pow, not three. Rows are heap-allocated on an op's first touch:
  /// programs with many distinct ops only pay for the ops they run.
  ///
  /// rate_ points into a slot. That is safe because a slot is re-keyed
  /// only by rate_at() on the same op at another (CF, UF) key, which needs
  /// a frequency change first, and a frequency change already clears
  /// rate_.
  struct OpRates {
    std::array<OpRate, kRateSlots> slots;
    std::vector<double> terms;  // c_term per CF level, then m_term per UF
                                // level; NaN = unfilled
  };

  const OpRate& rate_at(uint32_t op_index) const;
  double stall_watts() const;

  MachineConfig cfg_;
  PerfModel perf_;
  PowerModel power_;
  WorkloadCursor cursor_;
  SplitMix64 noise_;

  double now_s_ = 0.0;
  double energy_j_ = 0.0;
  double instr_ = 0.0;
  double tor_ = 0.0;
  double stall_s_ = 0.0;  // pending PLL-relock dead time
  uint64_t freq_switches_ = 0;
  FreqMHz core_f_;
  FreqMHz uncore_f_;
  Level cf_level_;
  Level uf_level_;

  // Lazily-filled caches (mutable: filling is observationally pure —
  // demand_bandwidth_now() is logically const). rate_ hoists the current
  // segment's rates out of the advance loop: it stays valid until the
  // operating point or a frequency changes.
  mutable std::vector<std::unique_ptr<OpRates>> rates_;
  mutable std::vector<double> stall_watts_;  // per (CF, UF); NaN = unfilled
  mutable const OpRate* rate_ = nullptr;
  mutable uint32_t rate_op_ = 0;

  double power_noise_factor();
};

}  // namespace cuttlefish::sim
