#pragma once

#include <optional>

#include "common/frequency.hpp"
#include "core/explorer.hpp"
#include "core/tipi_list.hpp"

namespace cuttlefish::core {

/// Select the per-domain state of a node (inline: the controller's
/// per-tick explore step goes through it).
inline DomainState& domain_state(TipiNode& node, Domain d) {
  return d == Domain::kCore ? node.cf : node.uf;
}
inline const DomainState& domain_state(const TipiNode& node, Domain d) {
  return d == Domain::kCore ? node.cf : node.uf;
}

/// §4.4 (Fig. 6) — initialise the CF exploration window of a freshly
/// inserted node. The first node gets the full ladder; later nodes narrow
/// using their list neighbours: the right (more memory-bound) neighbour's
/// CFopt — or current CF_LB while unresolved — becomes the new node's
/// CF_LB, and the left neighbour's CFopt/CF_RB becomes its CF_RB.
void init_cf_window(TipiNode& node, const FreqLadder& cf_ladder,
                    int jpi_samples, bool narrow_from_neighbors);

/// Algorithm 3 + §4.4 (Fig. 7) — initialise the UF exploration window.
/// With a discovered CFopt (Full policy) the base window comes from
/// Algorithm 3; without one (Cuttlefish-Uncore) it is the full ladder.
/// Neighbour narrowing is inverted relative to CF: the left
/// (compute-bound) neighbour's UFopt/UF_LB bounds from below, the right
/// neighbour's UFopt/UF_RB from above. The result is the intersection of
/// the base window and the neighbour constraints; if that intersection
/// collapses to one level the node's UFopt is set immediately.
void init_uf_window(TipiNode& node, const FreqLadder& cf_ladder,
                    const FreqLadder& uf_ladder, int jpi_samples,
                    std::optional<Level> cf_opt,
                    bool narrow_from_neighbors);

/// §4.5 (Figs. 8-9) — revalidation: whenever a node's exploration moves a
/// bound (or finds an optimum), the movement is propagated along the
/// sorted list to every node whose own optimum is implied-bounded by it.
///
/// For CF (optimal frequency decreases left -> right):
///   RB lowered to X  -> every node to the RIGHT tightens rb = min(rb, X)
///   LB raised  to X  -> every node to the LEFT  tightens lb = max(lb, X)
///   opt found  at X  -> both of the above
/// For UF (optimal frequency increases left -> right) the directions are
/// mirrored. Nodes whose window collapses to a single level through
/// propagation get their opt set and propagate recursively (Fig. 9(b)).
class BoundPropagator {
 public:
  BoundPropagator(Domain domain, bool enabled)
      : domain_(domain), enabled_(enabled) {}

  /// Dispatch the bound movements of one ExploreResult originating at
  /// `node`.
  void apply(TipiNode& node, const ExploreResult& result);
  /// Propagate a freshly set optimum (used for collapses that happen
  /// outside the explorer, e.g. during window initialisation).
  void on_opt_found(TipiNode& node, Level opt);

 private:
  void propagate_rb(TipiNode* start, bool towards_next, Level x);
  void propagate_lb(TipiNode* start, bool towards_next, Level x);
  void tighten_rb(TipiNode& n, Level x);
  void tighten_lb(TipiNode& n, Level x);
  void collapse(TipiNode& n);

  Domain domain_;
  bool enabled_;
};

}  // namespace cuttlefish::core
