#pragma once

#include <vector>

#include "arbiter/arbiter.hpp"

namespace cuttlefish::arbiter {

/// Deterministic in-process arbiter: the same slot-table semantics as the
/// shared-memory plane without any shm, locking, or PIDs. This is what
/// single-process tests, `Options::manual_tick` virtual-time drives, and
/// the exp co-tenant scenario attach to — N ArbitratedPlatforms in one
/// process sharing one LocalArbiter behave exactly like N processes
/// sharing a ShmArbiter plane, minus the crash-reclamation machinery
/// (in-process tenants cannot crash independently).
///
/// Not thread-safe by design: every consumer drives it from one thread
/// (the co-simulation loop, a manual-tick host). Cross-thread and
/// cross-process coordination is ShmArbiter's job.
class LocalArbiter final : public IArbiter {
 public:
  explicit LocalArbiter(ArbiterConfig config, int slots = 16);

  int attach() override;
  void detach(int slot) override;
  Grant publish(int slot, const Demand& demand, uint64_t tick) override;
  ArbiterConfig config() const override { return config_; }
  size_t active_tenants() const override;
  std::vector<SlotView> view() const override;

 private:
  struct Slot {
    bool used = false;
    uint64_t tick = 0;
    Demand demand;
  };

  /// Run allocate() over the occupied slots; returns the grant for
  /// `for_slot`. Allocation-free: it works in the scratch buffers below.
  Grant grant_for(int for_slot) const;

  ArbiterConfig config_;
  std::vector<Slot> slots_;
  // grant_for's working set, sized to the slot table at construction.
  // Mutable scratch is sound because the arbiter is single-threaded.
  mutable std::vector<double> demands_;
  mutable std::vector<double> grants_;
  mutable std::vector<size_t> open_;
};

}  // namespace cuttlefish::arbiter
