#pragma once

#include <vector>

#include "core/controller.hpp"

namespace cuttlefish::core {

/// Model-predictive controller (PolicyKind::kMpc): instead of descending
/// the ladder in steps of two like Algorithm 2, fit a per-phase plant
/// model jpi(level) = a + b·level + c·level² from a handful of measured
/// design points spread across the ladder, jump to the model's argmin
/// over the whole ladder, and confirm it with one bounded verification
/// probe (docs/CONTROLLERS.md).
///
/// Per TIPI node and domain, in order (CF with the uncore at max, then UF
/// at the settled CF optimum — the same phase order as Default):
///  1. measure `mpc_design_points` ladder levels (endpoints included,
///     probed from the top down) to the usual jpi_samples quota;
///  2. least-squares fit the quadratic and evaluate it at every ladder
///     level; the argmin is the prediction;
///  3. probe the predicted level to the same quota (skipped when it is a
///     design point — the probe budget is at most one extra level);
///  4. accept the prediction when its measured average is within
///     (1 + mpc_verify_margin) of the best design point, otherwise fall
///     back to the best measured level. Either way the optimum is a
///     *measured* level, never a raw model output.
///
/// All strategy state lives in the per-node JpiTable cells, so the
/// generic snapshot/restore machinery — region warm-starts, quarantine
/// recovery snapshots, cross-policy profile hand-over — works unchanged:
/// decide() re-derives the phase from the cell counts every tick, and
/// lazily arms domains that a foreign snapshot left unarmed.
class ControllerMpc final : public Controller {
 public:
  ControllerMpc(hal::PlatformInterface& platform, ControllerConfig cfg = {});

 protected:
  void on_node_inserted(TipiNode& node) override;
  void decide(TipiNode& node, double jpi, bool record,
              PerDomain<Level>& next) override;

 private:
  void arm(TipiNode& node, Domain domain);
  Level advance(TipiNode& node, Domain domain, double jpi, bool record);
  std::vector<Level> design_levels(const FreqLadder& ladder) const;
  Level predict(const DomainState& st, const FreqLadder& ladder) const;
  Level best_design(const DomainState& st, const FreqLadder& ladder) const;
};

}  // namespace cuttlefish::core
