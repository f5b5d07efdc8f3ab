#include "sim/rate_table.hpp"

#include <cmath>
#include <limits>

namespace cuttlefish::sim {

namespace {
constexpr double kUnfilled = std::numeric_limits<double>::quiet_NaN();
}  // namespace

RateTable::RateTable(const MachineConfig& cfg, const PhaseProgram& program)
    : cfg_(cfg),
      perf_(cfg_),
      power_(cfg_),
      program_(&program),
      nuf_(static_cast<uint32_t>(cfg_.uncore_ladder.levels())),
      rows_(program.ops().size()),
      stall_watts_(static_cast<size_t>(cfg_.core_ladder.levels()) * nuf_,
                   kUnfilled) {}

bool RateTable::serves(const MachineConfig& cfg,
                       const PhaseProgram& program) const {
  return &program == program_ && cfg == cfg_;
}

OpRate RateTable::fill(uint32_t op_index, Level cf, Level uf) {
  const auto ncf = static_cast<size_t>(cfg_.core_ladder.levels());
  auto& row_ptr = rows_[op_index];
  if (row_ptr == nullptr) {
    row_ptr = std::make_unique<Row>();
    row_ptr->terms.assign(ncf + nuf_, kUnfilled);
  }
  Row& row = *row_ptr;
  const uint32_t key =
      static_cast<uint32_t>(cf) * nuf_ + static_cast<uint32_t>(uf);
  Slot& slot = row.slots[key % kRateSlots];
  // Exactly PerfModel::instructions_per_second, with the two p-norm terms
  // memoised per ladder level: the smooth-min factors over an op's
  // (CF, UF) grid are separable, so exploring a ladder re-pays only the
  // combining pow.
  const OperatingPoint& op = program_->ops()[op_index];
  const FreqMHz core_f = cfg_.core_ladder.at(cf);
  const FreqMHz uncore_f = cfg_.uncore_ladder.at(uf);
  const double c = perf_.compute_roofline(core_f, op);
  const double m = perf_.memory_roofline(uncore_f, op);
  double ips;
  if (!std::isfinite(m)) {
    ips = c;
  } else {
    double& ct = row.terms[static_cast<size_t>(cf)];
    if (std::isnan(ct)) ct = perf_.roofline_term(c);
    double& mt = row.terms[ncf + static_cast<size_t>(uf)];
    if (std::isnan(mt)) mt = perf_.roofline_term(m);
    ips = perf_.combine_rooflines(ct, mt);
  }
  slot.key = key;
  slot.rate.ips = ips;
  slot.rate.util = ips / c;  // PerfModel::utilization_given_ips, c known
  slot.rate.watts =
      power_.package_watts(core_f, uncore_f, slot.rate.util, ips * op.tipi);
  return slot.rate;
}

double RateTable::stall_watts(Level cf, Level uf) {
  double& w = stall_watts_[static_cast<size_t>(cf) * nuf_ +
                           static_cast<size_t>(uf)];
  if (std::isnan(w)) {
    // PLL relock: cores halted, no instructions retire; the package still
    // burns static + gated-core + uncore power.
    w = power_.package_watts(cfg_.core_ladder.at(cf),
                             cfg_.uncore_ladder.at(uf), 0.0, 0.0);
  }
  return w;
}

}  // namespace cuttlefish::sim
