#include "sim/sim_machine.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"
#include "hal/msr.hpp"

namespace cuttlefish::sim {

namespace {
/// Floor on the multiplicative power-noise factor: however large the
/// configured sigma, a quantum can never dissipate negative energy. The
/// paper-calibrated sigmas (<= a few percent) sit far above the floor, so
/// their noise streams are untouched bit-for-bit.
constexpr double kNoiseFloorFactor = 1e-3;
}  // namespace

SimMachine::SimMachine(const MachineConfig& cfg, const PhaseProgram& program,
                       uint64_t noise_seed)
    : SimMachine(std::make_unique<RateTable>(cfg, program), noise_seed) {}

SimMachine::SimMachine(std::unique_ptr<RateTable> own_rates,
                       uint64_t noise_seed)
    : SimMachine(*own_rates, noise_seed) {
  own_rates_ = std::move(own_rates);
}

SimMachine::SimMachine(RateTable& rates, uint64_t noise_seed)
    : cfg_(rates.config()),
      rates_(&rates),
      cursor_(&rates.program()),
      noise_(noise_seed),
      core_f_(cfg_.core_ladder.max()),
      uncore_f_(cfg_.uncore_ladder.max()),
      cf_level_(cfg_.core_ladder.max_level()),
      uf_level_(cfg_.uncore_ladder.max_level()) {}

void SimMachine::set_core_frequency(FreqMHz f) {
  CF_ASSERT(cfg_.core_ladder.contains(f), "core frequency off ladder");
  if (f != core_f_) {
    stall_s_ += cfg_.core_switch_latency_s;
    freq_switches_ += 1;
    cf_level_ = cfg_.core_ladder.level_of(f);
    rate_op_ = kNoOp;
  }
  core_f_ = f;
}

void SimMachine::set_uncore_frequency(FreqMHz f) {
  CF_ASSERT(cfg_.uncore_ladder.contains(f), "uncore frequency off ladder");
  if (f != uncore_f_) {
    stall_s_ += cfg_.uncore_switch_latency_s;
    freq_switches_ += 1;
    uf_level_ = cfg_.uncore_ladder.level_of(f);
    rate_op_ = kNoOp;
  }
  uncore_f_ = f;
}

double SimMachine::power_noise_factor() {
  if (cfg_.power_noise_sigma <= 0.0) return 1.0;
  // Cheap approximately-normal jitter: sum of three uniforms.
  const double u =
      noise_.next_double() + noise_.next_double() + noise_.next_double();
  const double z = (u - 1.5) * 2.0;  // ~N(0,1)
  return std::max(kNoiseFloorFactor, 1.0 + cfg_.power_noise_sigma * z);
}

double SimMachine::demand_bandwidth_now() const {
  if (cursor_.done()) return 0.0;
  return rates_->perf_model().demand_bandwidth(current_rate().ips,
                                               cursor_.op());
}

double SimMachine::advance(double dt) {
  CF_ASSERT(dt >= 0.0, "negative time step");
  double left = dt;
  while (left > 1e-12 && !cursor_.done()) {
    if (stall_s_ > 1e-12) {
      const double step = std::min(left, stall_s_);
      energy_j_ += rates_->stall_watts(cf_level_, uf_level_) * step *
                   power_noise_factor();
      now_s_ += step;
      stall_s_ -= step;
      left -= step;
      continue;
    }
    // Rates are segment-invariant: the lookup is skipped entirely until
    // the operating point (segment boundary) or a frequency changes.
    const OpRate& rate = current_rate();
    const double ips = rate.ips;
    CF_ASSERT(ips > 0.0, "non-positive throughput");
    const double seg_time = cursor_.remaining_in_segment() / ips;
    const double step = std::min(left, seg_time);
    const double instr = ips * step;

    energy_j_ += rate.watts * step * power_noise_factor();
    instr_ += instr;
    tor_ += instr * cursor_.op().tipi;
    cursor_.consume(instr);
    now_s_ += step;
    left -= step;
  }
  return dt - left;
}

bool SimMachine::read(uint32_t address, uint64_t& value) {
  using namespace hal;
  switch (address) {
    case msr::kIa32PerfStatus:
    case msr::kIa32PerfCtl:
      value = encode_perf_status(core_f_);
      return true;
    case msr::kRaplPowerUnit:
      value = encode_rapl_power_unit(cfg_.rapl_esu_bits);
      return true;
    case msr::kPkgEnergyStatus:
      value = rapl_energy_raw();
      return true;
    case msr::kUncoreRatioLimit:
      value = encode_uncore_ratio_limit(uncore_f_, uncore_f_);
      return true;
    case msr::kTorInsertsAggregate:
      value = tor_inserts();
      return true;
    case msr::kTorInsertsMissLocal:
      value = tor_inserts_local();
      return true;
    case msr::kTorInsertsMissRemote:
      value = tor_inserts_remote();
      return true;
    case msr::kInstRetiredAggregate:
      value = static_cast<uint64_t>(instr_);
      return true;
    default:
      return false;
  }
}

bool SimMachine::write(uint32_t address, uint64_t value) {
  using namespace hal;
  switch (address) {
    case msr::kIa32PerfCtl: {
      const FreqMHz f = decode_perf_ctl(value);
      if (!cfg_.core_ladder.contains(f)) return false;
      set_core_frequency(f);
      return true;
    }
    case msr::kUncoreRatioLimit: {
      const FreqMHz hi = decode_uncore_max(value);
      if (!cfg_.uncore_ladder.contains(hi)) return false;
      // Real firmware honours the max ratio as the pin target when
      // min == max (Cuttlefish always writes them equal).
      set_uncore_frequency(hi);
      return true;
    }
    default:
      return false;
  }
}

}  // namespace cuttlefish::sim
