#include "arbiter/local_arbiter.hpp"

namespace cuttlefish::arbiter {

LocalArbiter::LocalArbiter(ArbiterConfig config, int slots)
    : config_(config), slots_(static_cast<size_t>(slots > 0 ? slots : 1)) {
  demands_.reserve(slots_.size());
  grants_.reserve(slots_.size());
  open_.reserve(slots_.size());
}

int LocalArbiter::attach() {
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (!slots_[i].used) {
      slots_[i] = Slot{};
      slots_[i].used = true;
      return static_cast<int>(i);
    }
  }
  return -1;
}

void LocalArbiter::detach(int slot) {
  if (slot < 0 || static_cast<size_t>(slot) >= slots_.size()) return;
  slots_[static_cast<size_t>(slot)] = Slot{};
}

Grant LocalArbiter::publish(int slot, const Demand& demand, uint64_t tick) {
  if (slot < 0 || static_cast<size_t>(slot) >= slots_.size()) return Grant{};
  Slot& s = slots_[static_cast<size_t>(slot)];
  s.used = true;
  s.tick = tick;
  s.demand = demand;
  return grant_for(slot);
}

size_t LocalArbiter::active_tenants() const {
  size_t n = 0;
  for (const Slot& s : slots_) n += s.used ? 1 : 0;
  return n;
}

Grant LocalArbiter::grant_for(int for_slot) const {
  demands_.clear();
  size_t mine = slots_.size();
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (!slots_[i].used) continue;
    if (static_cast<int>(i) == for_slot) mine = demands_.size();
    demands_.push_back(slots_[i].demand.watts);
  }
  if (mine == slots_.size()) return Grant{};
  allocate(config_.policy, config_.budget_w, demands_, &grants_, &open_);
  return Grant{grants_[mine], grants_[mine] < demands_[mine] - 1e-12};
}

std::vector<SlotView> LocalArbiter::view() const {
  std::vector<SlotView> out;
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (!slots_[i].used) continue;
    SlotView v;
    v.slot = static_cast<int>(i);
    v.pid = 0;
    v.tick = slots_[i].tick;
    v.demand = slots_[i].demand;
    v.grant = grant_for(static_cast<int>(i));
    out.push_back(v);
  }
  return out;
}

}  // namespace cuttlefish::arbiter
