#pragma once

#include <cstdint>
#include <vector>

#include "arbiter/arbiter.hpp"
#include "hal/platform.hpp"

namespace cuttlefish::hal {

/// Decorator (composition like CapabilityFilter) that brokers actuator
/// writes through a node-local power arbiter instead of issuing them raw
/// (docs/ARBITER.md). Between the controller and the backend it:
///
///  * measures demand: each batched sensor sample differences the energy
///    counter into this interval's package watts (scaled up by the cubic
///    core-power law when the platform is already clamped — demand is
///    what the session *wants*, not what the cap lets it draw) and
///    publishes it, with the JPI/TIPI behind it, to the arbiter;
///  * enforces the grant: core-frequency writes are clamped so the
///    session's expected draw fits its granted share
///    (f_cap = f_req * cbrt(grant / demand), snapped down the ladder),
///    and a shrinking grant re-clamps the backend immediately — a
///    steady-state controller that is not rewriting frequencies must not
///    keep the old, hotter setting;
///  * surfaces changes: grant movements are queued as GrantChange records
///    the controller drains into its decision trace
///    (budget-granted / budget-revoked events).
///
/// capabilities() adds Capability::kArbitrated over the inner set; the
/// bit is advisory (the controller's policy narrowing ignores it). With
/// no published demand yet, or an uncapped grant, every write passes
/// through untouched — a session wrapped by an arbiter with headroom
/// behaves byte-identically to an unwrapped one.
///
/// `inner` and `arb` are borrowed and must outlive the wrapper. The
/// wrapper attach()es a slot at construction and detaches in the
/// destructor.
class ArbitratedPlatform final : public PlatformInterface {
 public:
  /// One observed grant movement. `watts` is the new grant;
  /// `revoked` is true when the share shrank (else it grew).
  struct GrantChange {
    uint64_t tick = 0;
    double watts = 0.0;
    bool revoked = false;
  };

  ArbitratedPlatform(PlatformInterface& inner, arbiter::IArbiter& arb,
                     double tinv_s);
  ~ArbitratedPlatform() override;

  CapabilitySet capabilities() const override;

  const FreqLadder& core_ladder() const override;
  const FreqLadder& uncore_ladder() const override;
  FreqMHz core_frequency() const override;
  FreqMHz uncore_frequency() const override;
  /// Every sensor read, whatever its form, comes through here: demand is
  /// published only for a successful read.
  SampleOutcome sample_sensors() override;
  IoOutcome apply_core_frequency(FreqMHz f) override;
  IoOutcome apply_uncore_frequency(FreqMHz f) override;

  /// Pop the oldest undrained grant movement; false when none pending.
  /// The controller drains this queue into its decision trace each tick.
  bool poll_grant_change(GrantChange* out);

  arbiter::Grant grant() const { return grant_; }
  int slot() const { return slot_; }
  /// The frequency the controller last requested (the backend may be
  /// clamped below it).
  FreqMHz requested_core_frequency() const { return requested_cf_; }

 private:
  /// Grant-aware clamp of a requested core frequency. O(1): the level is
  /// computed on the inner core ladder, not scanned.
  FreqMHz clamp_core(FreqMHz f) const;
  /// Publish this interval's sample-derived demand; apply grant movement.
  void publish_demand(const SensorSample& sample);

  PlatformInterface* inner_;
  arbiter::IArbiter* arb_;
  double tinv_s_;
  int slot_ = -1;
  uint64_t tick_ = 0;

  bool have_baseline_ = false;
  SensorSample baseline_{};

  bool have_demand_ = false;
  arbiter::Demand demand_{};
  arbiter::Grant grant_{};

  bool have_requested_cf_ = false;
  FreqMHz requested_cf_{0};

  // Undrained grant movements are changes_[next_change_..]; drained
  // entries are dropped in bulk so the buffer's capacity is reused.
  std::vector<GrantChange> changes_;
  size_t next_change_ = 0;
};

}  // namespace cuttlefish::hal
