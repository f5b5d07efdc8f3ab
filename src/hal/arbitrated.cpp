#include "hal/arbitrated.hpp"

#include <cmath>

#include "common/log.hpp"

namespace cuttlefish::hal {

namespace {
/// Grant movements smaller than this are demand-tracking jitter, not
/// budget decisions worth a trace record.
constexpr double kGrantEventEpsilonW = 0.5;
}  // namespace

ArbitratedPlatform::ArbitratedPlatform(PlatformInterface& inner,
                                       arbiter::IArbiter& arb,
                                       double tinv_s)
    : inner_(&inner), arb_(&arb), tinv_s_(tinv_s) {
  slot_ = arb_->attach();
  if (slot_ < 0) {
    // A full slot table degrades to unarbitrated passthrough: a session
    // must never fail to start because its neighbours got there first.
    CF_LOG_WARN("arbiter slot table full — session runs unarbitrated");
  }
}

ArbitratedPlatform::~ArbitratedPlatform() {
  if (slot_ >= 0) arb_->detach(slot_);
}

CapabilitySet ArbitratedPlatform::capabilities() const {
  return inner_->capabilities().with(Capability::kArbitrated);
}

const FreqLadder& ArbitratedPlatform::core_ladder() const {
  return inner_->core_ladder();
}

const FreqLadder& ArbitratedPlatform::uncore_ladder() const {
  return inner_->uncore_ladder();
}

FreqMHz ArbitratedPlatform::clamp_core(FreqMHz f) const {
  if (slot_ < 0 || !grant_.capped || !have_demand_ ||
      demand_.watts <= 0.0) {
    return f;
  }
  const double ratio = grant_.watts / demand_.watts;
  if (ratio >= 1.0) return f;
  // Core power scales roughly cubically with frequency (V scales with f
  // in the DVFS range), so a power share maps to a frequency cap by the
  // cube root. Snap *down* the ladder — never exceed the share.
  const double f_cap = static_cast<double>(f.value) * std::cbrt(ratio);
  const FreqLadder& ladder = inner_->core_ladder();
  const FreqMHz capped = ladder.at(ladder.floor_level(f_cap + 1e-9));
  return capped < f ? capped : f;
}

IoOutcome ArbitratedPlatform::apply_core_frequency(FreqMHz f) {
  requested_cf_ = f;
  have_requested_cf_ = true;
  return inner_->apply_core_frequency(clamp_core(f));
}

IoOutcome ArbitratedPlatform::apply_uncore_frequency(FreqMHz f) {
  // The uncore is not power-gated by the grant: its draw is a fraction of
  // the core domains' and the paper's UF ladder descent already minimizes
  // it. The demand measurement covers it implicitly (package energy).
  return inner_->apply_uncore_frequency(f);
}

FreqMHz ArbitratedPlatform::core_frequency() const {
  // The controller compares against its own writes: report the requested
  // frequency, not the clamped one the backend runs at, so its ladder
  // bookkeeping stays self-consistent under a moving cap.
  return have_requested_cf_ ? requested_cf_ : inner_->core_frequency();
}

FreqMHz ArbitratedPlatform::uncore_frequency() const {
  return inner_->uncore_frequency();
}

SampleOutcome ArbitratedPlatform::sample_sensors() {
  SampleOutcome out = inner_->sample_sensors();
  // A failed read yields no trustworthy energy delta; keep the previous
  // demand standing rather than publish garbage.
  if (out.io.ok()) publish_demand(out.sample);
  return out;
}

void ArbitratedPlatform::publish_demand(const SensorSample& sample) {
  if (slot_ < 0) return;
  ++tick_;
  if (!have_baseline_) {
    // First sample (the controller's begin() baseline): register
    // presence with zero demand — peers see the tenant, the budget
    // divides nothing yet.
    baseline_ = sample;
    have_baseline_ = true;
    grant_ = arb_->publish(slot_, arbiter::Demand{}, tick_);
    return;
  }
  const double d_energy = sample.energy_joules - baseline_.energy_joules;
  const double d_instr = static_cast<double>(sample.instructions) -
                         static_cast<double>(baseline_.instructions);
  const double d_tor = static_cast<double>(sample.tor_inserts()) -
                       static_cast<double>(baseline_.tor_inserts());
  baseline_ = sample;
  if (d_energy <= 0.0 || tinv_s_ <= 0.0) return;

  arbiter::Demand demand;
  demand.watts = d_energy / tinv_s_;
  if (d_instr > 0.0) {
    demand.jpi = d_energy / d_instr;
    demand.tipi = d_tor / d_instr;
  }
  // Under a cap the measured draw is the *granted* power, not the wanted
  // one. Scale by the cubic core-power law back up to the frequency the
  // controller actually requested, so demand keeps expressing intent and
  // the arbiter can re-expand the share when neighbours go idle.
  if (have_requested_cf_) {
    const FreqMHz applied = clamp_core(requested_cf_);
    if (applied < requested_cf_ && applied.value > 0) {
      const double up = static_cast<double>(requested_cf_.value) /
                        static_cast<double>(applied.value);
      demand.watts *= up * up * up;
    }
  }
  demand_ = demand;
  have_demand_ = true;

  const arbiter::Grant before = grant_;
  grant_ = arb_->publish(slot_, demand, tick_);

  // Queue grant movements for the controller's decision trace. Uncapped
  // grants merely echo demand — only capped shares (and the edges in and
  // out of capping) are budget decisions.
  const bool was_binding = before.capped;
  const bool is_binding = grant_.capped;
  if (is_binding != was_binding ||
      (is_binding &&
       std::abs(grant_.watts - before.watts) > kGrantEventEpsilonW)) {
    GrantChange change;
    change.tick = tick_;
    change.watts = grant_.watts;
    change.revoked =
        is_binding && (!was_binding || grant_.watts < before.watts);
    changes_.push_back(change);
  }

  // A moved grant re-clamps the backend immediately: a steady-state
  // controller skips unchanged writes, so waiting for its next write
  // would leave a shrunken share violated (or a grown share wasted).
  if (have_requested_cf_) {
    const FreqMHz want = clamp_core(requested_cf_);
    if (want != inner_->core_frequency()) {
      (void)inner_->apply_core_frequency(want);
    }
  }
}

bool ArbitratedPlatform::poll_grant_change(GrantChange* out) {
  if (next_change_ == changes_.size()) return false;
  *out = changes_[next_change_++];
  if (next_change_ == changes_.size()) {
    changes_.clear();
    next_change_ = 0;
  }
  return true;
}

}  // namespace cuttlefish::hal
