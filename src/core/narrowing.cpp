#include "core/narrowing.hpp"

#include <algorithm>
#include <memory>

#include "common/assert.hpp"
#include "common/log.hpp"
#include "core/uncore_range.hpp"

namespace cuttlefish::core {

namespace {

/// Bound contributed by the nearest *informative* neighbour in the given
/// direction: its discovered optimum if known, otherwise the matching
/// edge of its live exploration window (Fig. 6(b): TIPI-2 inherits
/// TIPI-1's CF_RB while TIPI-1's CFopt is unresolved).
///
/// The walk skips nodes whose domain window has not been armed yet (a UF
/// window only exists once that node's CFopt is found): such nodes carry
/// no constraint, but a resolved node beyond them still does — without
/// the skip, constraints would leak through unarmed middles and the
/// monotone ordering of optima along the list could be violated.
std::optional<Level> neighbor_upper(const TipiNode* n, Domain d,
                                    bool towards_next) {
  for (; n != nullptr; n = towards_next ? n->next : n->prev) {
    const DomainState& st = domain_state(*n, d);
    if (st.complete()) return st.opt;
    if (st.window_set) return st.rb;
  }
  return std::nullopt;
}

std::optional<Level> neighbor_lower(const TipiNode* n, Domain d,
                                    bool towards_next) {
  for (; n != nullptr; n = towards_next ? n->next : n->prev) {
    const DomainState& st = domain_state(*n, d);
    if (st.complete()) return st.opt;
    if (st.window_set) return st.lb;
  }
  return std::nullopt;
}

void finalize_window(DomainState& st, const FreqLadder& ladder,
                     int jpi_samples) {
  if (st.lb > st.rb) {
    // Neighbour information can conflict when measurement noise produced
    // non-monotone optima; collapse onto the upper-bound side.
    CF_LOG_DEBUG("window inverted (lb=%d rb=%d); collapsing", st.lb, st.rb);
    st.lb = st.rb;
  }
  st.window_set = true;
  st.jpi = std::make_unique<JpiTable>(ladder.levels(), jpi_samples);
  if (st.lb == st.rb) st.opt = st.lb;
}

}  // namespace

void init_cf_window(TipiNode& node, const FreqLadder& cf_ladder,
                    int jpi_samples, bool narrow_from_neighbors) {
  CF_ASSERT(!node.cf.window_set, "CF window initialised twice");
  node.cf.lb = cf_ladder.min_level();
  node.cf.rb = cf_ladder.max_level();
  if (narrow_from_neighbors) {
    // Right neighbour is more memory-bound: its optimal CF lower-bounds
    // ours. Left neighbour is more compute-bound: upper-bounds ours.
    if (auto lo = neighbor_lower(node.next, Domain::kCore, true)) {
      node.cf.lb = std::max(node.cf.lb, *lo);
    }
    if (auto hi = neighbor_upper(node.prev, Domain::kCore, false)) {
      node.cf.rb = std::min(node.cf.rb, *hi);
    }
  }
  finalize_window(node.cf, cf_ladder, jpi_samples);
}

void init_uf_window(TipiNode& node, const FreqLadder& cf_ladder,
                    const FreqLadder& uf_ladder, int jpi_samples,
                    std::optional<Level> cf_opt,
                    bool narrow_from_neighbors) {
  CF_ASSERT(!node.uf.window_set, "UF window initialised twice");
  if (cf_opt.has_value()) {
    const UfWindow w = estimate_uf_window(cf_ladder, uf_ladder, *cf_opt);
    node.uf.lb = w.lb;
    node.uf.rb = w.rb;
  } else {
    node.uf.lb = uf_ladder.min_level();
    node.uf.rb = uf_ladder.max_level();
  }
  if (narrow_from_neighbors) {
    // Directions invert relative to CF: optimal UF grows left -> right.
    if (auto lo = neighbor_lower(node.prev, Domain::kUncore, false)) {
      node.uf.lb = std::max(node.uf.lb, *lo);
    }
    if (auto hi = neighbor_upper(node.next, Domain::kUncore, true)) {
      node.uf.rb = std::min(node.uf.rb, *hi);
    }
  }
  finalize_window(node.uf, uf_ladder, jpi_samples);
}

void BoundPropagator::apply(TipiNode& node, const ExploreResult& result) {
  if (!enabled_) return;
  const DomainState& st = domain_state(node, domain_);
  if (result.opt_found) {
    on_opt_found(node, st.opt);
    return;
  }
  // For CF, lowered upper bounds constrain the more memory-bound nodes to
  // the right and raised lower bounds the compute-bound nodes to the
  // left; for UF both directions flip.
  const bool rb_towards_next = domain_ == Domain::kCore;
  if (result.rb_lowered) propagate_rb(&node, rb_towards_next, st.rb);
  if (result.lb_raised) propagate_lb(&node, !rb_towards_next, st.lb);
}

void BoundPropagator::on_opt_found(TipiNode& node, Level opt) {
  if (!enabled_) return;
  const bool rb_towards_next = domain_ == Domain::kCore;
  propagate_rb(&node, rb_towards_next, opt);
  propagate_lb(&node, !rb_towards_next, opt);
}

void BoundPropagator::propagate_rb(TipiNode* start, bool towards_next,
                                   Level x) {
  for (TipiNode* n = towards_next ? start->next : start->prev; n != nullptr;
       n = towards_next ? n->next : n->prev) {
    tighten_rb(*n, x);
  }
}

void BoundPropagator::propagate_lb(TipiNode* start, bool towards_next,
                                   Level x) {
  for (TipiNode* n = towards_next ? start->next : start->prev; n != nullptr;
       n = towards_next ? n->next : n->prev) {
    tighten_lb(*n, x);
  }
}

void BoundPropagator::tighten_rb(TipiNode& n, Level x) {
  DomainState& st = domain_state(n, domain_);
  if (!st.window_set || st.complete()) return;
  if (x >= st.rb) return;
  st.rb = std::max(x, st.lb);
  if (st.lb == st.rb) collapse(n);
}

void BoundPropagator::tighten_lb(TipiNode& n, Level x) {
  DomainState& st = domain_state(n, domain_);
  if (!st.window_set || st.complete()) return;
  if (x <= st.lb) return;
  st.lb = std::min(x, st.rb);
  if (st.lb == st.rb) collapse(n);
}

void BoundPropagator::collapse(TipiNode& n) {
  DomainState& st = domain_state(n, domain_);
  CF_ASSERT(st.lb == st.rb, "collapse on non-degenerate window");
  st.opt = st.lb;
  CF_LOG_DEBUG("slab %lld %s window collapsed to level %d by propagation",
               static_cast<long long>(n.slab), to_string(domain_), st.opt);
  // Fig. 9(b): a collapse discovered through propagation itself
  // propagates.
  on_opt_found(n, st.opt);
}

}  // namespace cuttlefish::core
