#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

/// Node-local multi-session power arbitration (docs/ARBITER.md). Every
/// Cuttlefish process today acts as if it owns the whole socket; on a
/// production host N co-located sessions share one RAPL domain and one
/// uncore. The arbiter is the coordination plane that divides a per-node
/// power budget across them: each session registers a slot, publishes its
/// measured per-interval demand (watts, plus the JPI/TIPI signals behind
/// it), and receives a granted share it must actuate within.
///
/// Arbitration is decentralized: there is no daemon. Every tenant runs the
/// same pure `allocate()` function over a consistent snapshot of the slot
/// table, so all tenants — and any observer (`cuttlefishctl arbiter
/// status`) — compute identical grants from identical state. Two
/// implementations share the interface: `LocalArbiter` (in-process,
/// deterministic, what single-process tests and virtual-time co-simulation
/// drive) and `ShmArbiter` (a file-backed shared-memory slot table with
/// seqlock'd per-slot state and PID-stamped leases, for real co-located
/// processes).
namespace cuttlefish::arbiter {

/// How an over-subscribed budget is divided.
enum class SharePolicy : uint8_t {
  /// Max-min fairness (water-filling): sessions demanding less than the
  /// fair share keep their full demand; the surplus is split evenly among
  /// the rest. A light tenant is never taxed for a heavy neighbour.
  kEqualShare,
  /// Grants proportional to demand: budget * demand_i / sum(demand).
  /// Heavier phases get more headroom; every capped tenant is scaled by
  /// the same factor.
  kDemandWeighted,
};

const char* to_string(SharePolicy policy);
std::optional<SharePolicy> share_policy_from_string(const std::string& text);

/// One session's published requirement for the next interval. `watts` is
/// what the grant divides; JPI/TIPI ride along so operators (and future
/// phase-aware policies) can see *why* a tenant wants power.
struct Demand {
  double watts = 0.0;  // package power wanted (0 = not yet measured)
  double jpi = 0.0;    // joules/instruction this interval
  double tipi = 0.0;   // TOR-inserts/instruction this interval
};

/// The arbiter's answer. `capped` is true when the grant came in below
/// the demand (the tenant must clamp its actuation); an uncapped grant
/// echoes the demand.
struct Grant {
  double watts = 0.0;
  bool capped = false;
};

struct ArbiterConfig {
  /// Node power budget in watts; <= 0 disables capping (every grant is
  /// uncapped — the plane still tracks demand for observability).
  double budget_w = 0.0;
  SharePolicy policy = SharePolicy::kEqualShare;
};

/// Observer view of one slot (`cuttlefishctl arbiter status`, tests).
struct SlotView {
  int slot = -1;
  uint32_t pid = 0;  // 0 = free
  uint64_t tick = 0;
  Demand demand;
  Grant grant;
};

/// The coordination-plane contract. Tick-indexed and wall-clock-free so
/// virtual-time drives (Options::manual_tick, the sweep engine) and real
/// daemons behave identically.
class IArbiter {
 public:
  virtual ~IArbiter() = default;

  /// Claim a slot; returns the slot id, or -1 when the table is full.
  virtual int attach() = 0;
  /// Release a slot (publishes zero demand so peers rebalance at their
  /// next tick). Idempotent; out-of-range slots are ignored.
  virtual void detach(int slot) = 0;

  /// Publish this interval's demand and receive the granted share. The
  /// grant reflects every live tenant's latest published demand under the
  /// plane's budget and policy.
  virtual Grant publish(int slot, const Demand& demand, uint64_t tick) = 0;

  virtual ArbiterConfig config() const = 0;
  /// Slots currently holding a live lease.
  virtual size_t active_tenants() const = 0;
  /// Consistent snapshot of every occupied slot, grants included —
  /// recomputed from the same allocate() every tenant runs.
  virtual std::vector<SlotView> view() const = 0;
};

/// The pure allocation function at the heart of the plane: divide
/// `budget_w` across `demands_w` under `policy`. Returns one grant per
/// demand, in order. Properties (pinned by tests/arbiter_policy_test.cpp):
///  * sum(demands) <= budget (or budget <= 0): grants == demands.
///  * over-subscribed: sum(grants) == budget (to rounding), no grant
///    exceeds its demand, zero demands get zero.
///  * deterministic and order-equivariant: permuting the demands permutes
///    the grants identically — every tenant computes the same division.
std::vector<double> allocate(SharePolicy policy, double budget_w,
                             const std::vector<double>& demands_w);

/// In-place form of allocate(), the one arithmetic both share: writes the
/// grants into `*grants_w` (resized to the demand count) and uses `*open`
/// as the water-filling work list. Both buffers are caller-owned, so a
/// caller that keeps them across calls allocates nothing once they have
/// grown to its tenant count (LocalArbiter's per-publish path).
void allocate(SharePolicy policy, double budget_w,
              std::span<const double> demands_w,
              std::vector<double>* grants_w, std::vector<size_t>* open);

}  // namespace cuttlefish::arbiter
