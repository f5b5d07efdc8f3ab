#pragma once

#include <cstdint>
#include <memory>

#include "common/rng.hpp"
#include "hal/msr_device.hpp"
#include "sim/machine_config.hpp"
#include "sim/perf_model.hpp"
#include "sim/phase_workload.hpp"
#include "sim/power_model.hpp"
#include "sim/rate_table.hpp"

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
/// sets (PhaseProgram dedupes ops; frequencies live on ladders). The
/// machine looks them up in a RateTable — its own, or one it borrows from
/// the caller so every run of a program shares one set of evaluations —
/// and hoists the current segment's rates out of the advance loop by
/// value, so steady-state quanta are multiply-adds. Cached rates are the
/// exact doubles direct evaluation produces and the per-quantum
/// accumulation order is unchanged, so every counter — and therefore every
/// decision trace and paper table above — is bit-identical to the
/// uncached path, whichever table the machine uses.
class SimMachine final : public hal::MsrDevice {
 public:
  /// A machine with a private RateTable.
  SimMachine(const MachineConfig& cfg, const PhaseProgram& program,
             uint64_t noise_seed = 0x5eedULL);
  /// A machine running rates.program() on rates.config() that borrows
  /// `rates`, which must outlive it.
  explicit SimMachine(RateTable& rates, uint64_t noise_seed = 0x5eedULL);

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
  const PerfModel& perf_model() const { return rates_->perf_model(); }
  const PowerModel& power_model() const { return rates_->power_model(); }

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
  static constexpr uint32_t kNoOp = UINT32_MAX;

  SimMachine(std::unique_ptr<RateTable> own_rates, uint64_t noise_seed);

  /// Rates of the current segment at the current frequencies, refreshed
  /// from the table when the operating point or a frequency changed.
  const OpRate& current_rate() const {
    const uint32_t oi = cursor_.op_index();
    if (oi != rate_op_) {
      rate_ = rates_->at(oi, cf_level_, uf_level_);
      rate_op_ = oi;
    }
    return rate_;
  }

  MachineConfig cfg_;  // a copy of rates_->config(), read every quantum
  std::unique_ptr<RateTable> own_rates_;  // set by the owning constructor
  RateTable* rates_;
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

  // The current segment's rates, copied out of the table (mutable:
  // refreshing is observationally pure — demand_bandwidth_now() is
  // logically const). Valid while rate_op_ is the cursor's op; kNoOp
  // after a frequency change.
  mutable OpRate rate_;
  mutable uint32_t rate_op_ = kNoOp;

  double power_noise_factor();
};

}  // namespace cuttlefish::sim
