#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/machine_config.hpp"
#include "sim/perf_model.hpp"
#include "sim/phase_workload.hpp"
#include "sim/power_model.hpp"

namespace cuttlefish::sim {

/// Steady-state rates of one operating point at one (CF, UF) pair.
struct OpRate {
  double ips = 0.0;    // PerfModel::instructions_per_second
  double util = 0.0;   // PerfModel::utilization
  double watts = 0.0;  // PowerModel::package_watts at that ips
};

/// The evaluated operating points of one program's deduped ops on one
/// MachineConfig: {ips, utilization, watts} per (op, CF, UF), plus the
/// stall power per (CF, UF). Every SimMachine that runs the program on the
/// config can borrow the same table — calibration's Default runs and
/// every spec of the program — so each point is evaluated once per
/// program, not once per run.
///
/// Each op the runs touch gets a small row on first use: a direct-mapped
/// cache of kRateSlots evaluated (CF, UF) points, plus the per-ladder-level
/// p-norm terms of its two rooflines, so a revisited point is a lookup and
/// a cold one costs a single pow. A row costs about half a KiB on the
/// Haswell ladders, where a full (CF, UF) grid would take over 5 KiB;
/// jittered suite models make almost every segment a distinct op. Cached
/// entries hold the exact doubles direct evaluation produces, so a run's
/// counters are bit-identical whichever table it borrows and whatever
/// other runs filled it.
///
/// The table keys rates by op index and never reads segment lengths, so
/// PhaseProgram::scale_instructions leaves it valid. It is not
/// thread-safe: machines on different threads need different tables.
/// Machines sharing one table copy each rate out (SimMachine hoists it by
/// value), so one machine re-keying a slot never changes what another
/// machine is running at.
class RateTable {
 public:
  /// A table for `program`'s ops on `cfg` (copied). `program` is borrowed
  /// and must outlive the table and stay at its address.
  RateTable(const MachineConfig& cfg, const PhaseProgram& program);
  RateTable(const RateTable&) = delete;
  RateTable& operator=(const RateTable&) = delete;

  /// Rates of op `op_index` at ladder levels (cf, uf).
  OpRate at(uint32_t op_index, Level cf, Level uf);
  /// Package watts while the cores are halted for a PLL relock at (cf, uf).
  double stall_watts(Level cf, Level uf);

  /// True iff this is the table of `program` on a config equal to `cfg`.
  bool serves(const MachineConfig& cfg, const PhaseProgram& program) const;

  const MachineConfig& config() const { return cfg_; }
  const PhaseProgram& program() const { return *program_; }
  const PerfModel& perf_model() const { return perf_; }
  const PowerModel& power_model() const { return power_; }

 private:
  static constexpr uint32_t kNoKey = UINT32_MAX;
  static constexpr uint32_t kRateSlots = 8;

  /// One cached evaluation, tagged with its (CF, UF) key
  /// cf_level * nuf + uf_level (kNoKey = empty slot).
  struct Slot {
    uint32_t key = kNoKey;
    OpRate rate;
  };
  /// Rates of one deduped op: kRateSlots slots direct-mapped on
  /// key % kRateSlots, plus the memoised p-norm terms of each roofline.
  struct Row {
    std::array<Slot, kRateSlots> slots;
    std::vector<double> terms;  // c_term per CF level, then m_term per UF
                                // level; NaN = unfilled
  };

  /// at()'s miss path: evaluates (op, cf, uf) into its slot.
  OpRate fill(uint32_t op_index, Level cf, Level uf);

  MachineConfig cfg_;
  PerfModel perf_;
  PowerModel power_;
  const PhaseProgram* program_;
  uint32_t nuf_;
  std::vector<std::unique_ptr<Row>> rows_;  // per op; null until touched
  std::vector<double> stall_watts_;         // per (CF, UF); NaN = unfilled
};

inline OpRate RateTable::at(uint32_t op_index, Level cf, Level uf) {
  const uint32_t key =
      static_cast<uint32_t>(cf) * nuf_ + static_cast<uint32_t>(uf);
  if (const Row* row = rows_[op_index].get(); row != nullptr) {
    const Slot& slot = row->slots[key % kRateSlots];
    if (slot.key == key) return slot.rate;
  }
  return fill(op_index, cf, uf);
}

}  // namespace cuttlefish::sim
