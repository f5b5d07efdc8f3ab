#include "sim/sim_machine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/assert.hpp"
#include "hal/msr.hpp"

namespace cuttlefish::sim {

namespace {
/// Floor on the multiplicative power-noise factor: however large the
/// configured sigma, a quantum can never dissipate negative energy. The
/// paper-calibrated sigmas (<= a few percent) sit far above the floor, so
/// their noise streams are untouched bit-for-bit.
constexpr double kNoiseFloorFactor = 1e-3;
constexpr double kUnfilled = std::numeric_limits<double>::quiet_NaN();
}  // namespace

SimMachine::SimMachine(const MachineConfig& cfg, const PhaseProgram& program,
                       uint64_t noise_seed)
    : cfg_(cfg),
      perf_(cfg_),
      power_(cfg_),
      cursor_(&program),
      noise_(noise_seed),
      core_f_(cfg_.core_ladder.max()),
      uncore_f_(cfg_.uncore_ladder.max()),
      cf_level_(cfg_.core_ladder.max_level()),
      uf_level_(cfg_.uncore_ladder.max_level()),
      rates_(program.ops().size()),
      stall_watts_(static_cast<size_t>(cfg_.core_ladder.levels()) *
                       static_cast<size_t>(cfg_.uncore_ladder.levels()),
                   kUnfilled) {}

void SimMachine::set_core_frequency(FreqMHz f) {
  CF_ASSERT(cfg_.core_ladder.contains(f), "core frequency off ladder");
  if (f != core_f_) {
    stall_s_ += cfg_.core_switch_latency_s;
    freq_switches_ += 1;
    cf_level_ = cfg_.core_ladder.level_of(f);
    rate_ = nullptr;
  }
  core_f_ = f;
}

void SimMachine::set_uncore_frequency(FreqMHz f) {
  CF_ASSERT(cfg_.uncore_ladder.contains(f), "uncore frequency off ladder");
  if (f != uncore_f_) {
    stall_s_ += cfg_.uncore_switch_latency_s;
    freq_switches_ += 1;
    uf_level_ = cfg_.uncore_ladder.level_of(f);
    rate_ = nullptr;
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

const SimMachine::OpRate& SimMachine::rate_at(uint32_t op_index) const {
  const auto ncf = static_cast<size_t>(cfg_.core_ladder.levels());
  const auto nuf = static_cast<uint32_t>(cfg_.uncore_ladder.levels());
  auto& row_ptr = rates_[op_index];
  if (row_ptr == nullptr) {
    row_ptr = std::make_unique<OpRates>();
    row_ptr->terms.assign(ncf + nuf, kUnfilled);
  }
  OpRates& row = *row_ptr;
  const uint32_t key = static_cast<uint32_t>(cf_level_) * nuf +
                       static_cast<uint32_t>(uf_level_);
  OpRate& e = row.slots[key % kRateSlots];
  if (e.key != key) {
    // Exactly PerfModel::instructions_per_second, with the two p-norm
    // terms memoised per ladder level: the smooth-min factors over an
    // op's (CF, UF) grid are separable, so exploring a ladder re-pays
    // only the combining pow.
    const OperatingPoint& op = cursor_.program()->ops()[op_index];
    const double c = perf_.compute_roofline(core_f_, op);
    const double m = perf_.memory_roofline(uncore_f_, op);
    double ips;
    if (!std::isfinite(m)) {
      ips = c;
    } else {
      double& ct = row.terms[static_cast<size_t>(cf_level_)];
      if (std::isnan(ct)) ct = perf_.roofline_term(c);
      double& mt = row.terms[ncf + static_cast<size_t>(uf_level_)];
      if (std::isnan(mt)) mt = perf_.roofline_term(m);
      ips = perf_.combine_rooflines(ct, mt);
    }
    e.key = key;
    e.ips = ips;
    e.util = ips / c;  // PerfModel::utilization_given_ips, c already known
    e.watts = power_.package_watts(core_f_, uncore_f_, e.util, ips * op.tipi);
  }
  return e;
}

double SimMachine::stall_watts() const {
  double& w = stall_watts_[static_cast<size_t>(cf_level_) *
                               static_cast<size_t>(cfg_.uncore_ladder.levels()) +
                           static_cast<size_t>(uf_level_)];
  if (std::isnan(w)) {
    // PLL relock: cores halted, no instructions retire; the package still
    // burns static + gated-core + uncore power.
    w = power_.package_watts(core_f_, uncore_f_, 0.0, 0.0);
  }
  return w;
}

double SimMachine::demand_bandwidth_now() const {
  if (cursor_.done()) return 0.0;
  return perf_.demand_bandwidth(rate_at(cursor_.op_index()).ips,
                                cursor_.op());
}

double SimMachine::advance(double dt) {
  CF_ASSERT(dt >= 0.0, "negative time step");
  double left = dt;
  while (left > 1e-12 && !cursor_.done()) {
    if (stall_s_ > 1e-12) {
      const double step = std::min(left, stall_s_);
      energy_j_ += stall_watts() * step * power_noise_factor();
      now_s_ += step;
      stall_s_ -= step;
      left -= step;
      continue;
    }
    // Rates are segment-invariant: the lookup is skipped entirely until
    // the operating point (segment boundary) or a frequency changes.
    const uint32_t oi = cursor_.op_index();
    if (rate_ == nullptr || oi != rate_op_) {
      rate_ = &rate_at(oi);
      rate_op_ = oi;
    }
    const double ips = rate_->ips;
    CF_ASSERT(ips > 0.0, "non-positive throughput");
    const double seg_time = cursor_.remaining_in_segment() / ips;
    const double step = std::min(left, seg_time);
    const double instr = ips * step;

    energy_j_ += rate_->watts * step * power_noise_factor();
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
