#include "core/controller_mpc.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"

namespace cuttlefish::core {

ControllerMpc::ControllerMpc(hal::PlatformInterface& platform,
                             ControllerConfig cfg)
    : Controller(platform, cfg) {
  CF_ASSERT(cfg.mpc_design_points >= 2, "mpc_design_points must be >= 2");
  CF_ASSERT(cfg.mpc_verify_margin >= 0.0,
            "mpc_verify_margin must be non-negative");
}

void ControllerMpc::arm(TipiNode& node, Domain domain) {
  // MPC scores the whole ladder, so the window is always the full span;
  // lb/rb only narrate the search space in traces and snapshots.
  const FreqLadder& lad = ladder(domain);
  DomainState& st = domain_state(node, domain);
  st.lb = lad.min_level();
  st.rb = lad.max_level();
  st.opt = kNoLevel;
  st.window_set = true;
  st.jpi = std::make_unique<JpiTable>(lad.levels(), config().jpi_samples);
  trace_window_init(node, domain);
}

void ControllerMpc::on_node_inserted(TipiNode& node) {
  for (const Domain d : kDomains) {
    if (can_set(d)) arm(node, d);
  }
}

std::vector<Level> ControllerMpc::design_levels(
    const FreqLadder& ladder) const {
  const Level lo = ladder.min_level();
  const Level hi = ladder.max_level();
  const int span = hi - lo;
  const int want = std::clamp(config().mpc_design_points, 2, span + 1);
  // Endpoints included, evenly spread, probed from the top down so the
  // early (cold) measurement ticks run at high frequency like Default's
  // right-bound descent.
  std::vector<Level> levels;
  levels.reserve(static_cast<size_t>(want));
  for (int i = want - 1; i >= 0; --i) {
    const Level level = lo + static_cast<Level>(std::lround(
                                 static_cast<double>(i) * span / (want - 1)));
    if (levels.empty() || levels.back() != level) levels.push_back(level);
  }
  return levels;
}

Level ControllerMpc::best_design(const DomainState& st,
                                 const FreqLadder& ladder) const {
  Level best = kNoLevel;
  for (const Level level : design_levels(ladder)) {
    if (!st.jpi->complete(level)) continue;
    if (best == kNoLevel || st.jpi->average(level) < st.jpi->average(best)) {
      best = level;
    }
  }
  return best;
}

/// Least-squares fit of jpi(x) = a + b·x + c·x² over the completed design
/// cells, then argmin of the fitted curve over every integer ladder
/// level. With fewer than three distinct points (or a degenerate normal
/// matrix) the quadratic is unidentifiable; fall back to the best
/// measured design point.
Level ControllerMpc::predict(const DomainState& st,
                             const FreqLadder& ladder) const {
  double s0 = 0, s1 = 0, s2 = 0, s3 = 0, s4 = 0;
  double t0 = 0, t1 = 0, t2 = 0;
  int n = 0;
  for (const Level level : design_levels(ladder)) {
    if (!st.jpi->complete(level)) continue;
    const double x = static_cast<double>(level);
    const double y = st.jpi->average(level);
    const double x2 = x * x;
    s0 += 1.0;
    s1 += x;
    s2 += x2;
    s3 += x2 * x;
    s4 += x2 * x2;
    t0 += y;
    t1 += x * y;
    t2 += x2 * y;
    n += 1;
  }
  if (n < 3) return best_design(st, ladder);
  // Cramer's rule on the 3x3 normal equations.
  const double det = s0 * (s2 * s4 - s3 * s3) - s1 * (s1 * s4 - s2 * s3) +
                     s2 * (s1 * s3 - s2 * s2);
  if (std::abs(det) < 1e-12) return best_design(st, ladder);
  const double a = (t0 * (s2 * s4 - s3 * s3) - s1 * (t1 * s4 - t2 * s3) +
                    s2 * (t1 * s3 - t2 * s2)) /
                   det;
  const double b = (s0 * (t1 * s4 - t2 * s3) - t0 * (s1 * s4 - s2 * s3) +
                    s2 * (s1 * t2 - s2 * t1)) /
                   det;
  const double c = (s0 * (s2 * t2 - s3 * t1) - s1 * (s1 * t2 - s2 * t1) +
                    t0 * (s1 * s3 - s2 * s2)) /
                   det;
  Level best = ladder.max_level();
  double best_y = a + b * best + c * static_cast<double>(best) * best;
  for (Level level = ladder.max_level() - 1; level >= ladder.min_level();
       --level) {
    const double y =
        a + b * level + c * static_cast<double>(level) * level;
    // Strict comparison scanning downward: ties go to the higher
    // frequency (protect performance, like Fig. 5's upper-half rule).
    if (y < best_y) {
      best = level;
      best_y = y;
    }
  }
  return best;
}

Level ControllerMpc::advance(TipiNode& node, Domain domain, double jpi,
                             bool record) {
  DomainState& st = domain_state(node, domain);
  const FreqLadder& lad = ladder(domain);
  if (!st.window_set || st.jpi == nullptr) {
    // A snapshot captured by another policy (or a pre-seam profile) can
    // hand over nodes whose domain was never armed; arm it lazily so the
    // hand-over degrades to a cold start for this domain only.
    arm(node, domain);
  }
  const Level level_prev = prev_level(domain);
  if (record && level_prev != kNoLevel) {
    st.jpi->add(level_prev, jpi);
    count_sample();
  }
  for (const Level level : design_levels(lad)) {
    if (!st.jpi->complete(level)) return level;
  }
  const Level predicted = predict(st, lad);
  if (!st.jpi->complete(predicted)) {
    // Bounded verification probe: at most one non-design level is ever
    // measured, and only to the standard jpi_samples quota.
    return predicted;
  }
  const Level fallback = best_design(st, lad);
  const double accept =
      (1.0 + config().mpc_verify_margin) * st.jpi->average(fallback);
  st.opt = st.jpi->average(predicted) <= accept ? predicted : fallback;
  trace_opt_found(node, domain);
  return st.opt;
}

void ControllerMpc::decide(TipiNode& node, double jpi, bool record,
                           PerDomain<Level>& next) {
  // CF first with the uncore pinned at max, then UF at the settled CF
  // optimum — Default's phase order, so CF and UF tables are measured
  // under the same conditions as Algorithm 1 measures them. Domains
  // without an actuator stay pinned.
  for (const Domain d : kDomains) {
    if (!can_set(d)) continue;
    const DomainState& st = domain_state(node, d);
    if (!st.complete()) {
      next[d] = advance(node, d, jpi, record);
      return;
    }
    next[d] = st.opt;
  }
}

}  // namespace cuttlefish::core
