#include "hal/fault_injection.hpp"

#include <cerrno>
#include <chrono>
#include <thread>

#include "common/rng.hpp"

namespace cuttlefish::hal {

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kSensorError: return "sensor-error";
    case FaultKind::kSensorStuck: return "sensor-stuck";
    case FaultKind::kSensorOutlier: return "sensor-outlier";
    case FaultKind::kSensorWrap: return "sensor-wrap";
    case FaultKind::kCoreWriteError: return "core-write-error";
    case FaultKind::kUncoreWriteError: return "uncore-write-error";
    case FaultKind::kLatencySpike: return "latency-spike";
  }
  return "?";
}

FaultSchedule FaultSchedule::persistent_sensor_failure() {
  FaultSchedule schedule;
  schedule.add({FaultKind::kSensorError, 0, 0, 0});
  return schedule;
}

FaultSchedule FaultSchedule::transient_only(uint64_t seed, int bursts,
                                            uint64_t horizon_ops,
                                            int retry_budget) {
  FaultSchedule schedule;
  SplitMix64 rng(seed);
  if (bursts <= 0 || horizon_ops == 0) return schedule;
  const uint64_t budget =
      static_cast<uint64_t>(retry_budget > 0 ? retry_budget : 1);
  // One burst per disjoint stratum of the op horizon, each ending at
  // least budget + 1 ops before its stratum does. Two same-target bursts
  // can therefore never abut in op space, so no failure streak — even one
  // straddling a retry sequence — exceeds the in-call retry budget.
  const uint64_t min_stratum = 2 * budget + 2;
  while (bursts > 1 &&
         horizon_ops / static_cast<uint64_t>(bursts) < min_stratum) {
    --bursts;
  }
  const uint64_t stratum = horizon_ops / static_cast<uint64_t>(bursts);
  if (stratum < min_stratum) return schedule;
  for (int i = 0; i < bursts; ++i) {
    FaultWindow w;
    // Sensor bursts and actuator bursts both heal within the in-call
    // retry budget, so neither perturbs a single controller decision.
    const uint64_t pick = rng.next_below(3);
    w.kind = pick == 0   ? FaultKind::kCoreWriteError
             : pick == 1 ? FaultKind::kUncoreWriteError
                         : FaultKind::kSensorError;
    w.duration_ops = 1 + rng.next_below(budget);
    const uint64_t span = stratum - w.duration_ops - (budget + 1);
    w.start_op = stratum * static_cast<uint64_t>(i) + rng.next_below(span);
    schedule.add(w);
  }
  return schedule;
}

FaultSchedule FaultSchedule::chaos(uint64_t seed, uint64_t horizon_ops) {
  FaultSchedule schedule;
  SplitMix64 rng(seed);
  if (horizon_ops == 0) return schedule;
  // A healing sensor outage long enough to force quarantine (the
  // controller's in-call retries consume ~3 ops per failed tick).
  {
    FaultWindow outage;
    outage.kind = FaultKind::kSensorError;
    outage.start_op = horizon_ops / 8 + rng.next_below(horizon_ops / 8);
    outage.duration_ops = 24 + rng.next_below(48);
    schedule.add(outage);
  }
  // Scattered short error bursts on every target.
  constexpr FaultKind kErrorKinds[] = {FaultKind::kSensorError,
                                       FaultKind::kCoreWriteError,
                                       FaultKind::kUncoreWriteError};
  for (int i = 0; i < 12; ++i) {
    FaultWindow w;
    w.kind = kErrorKinds[rng.next_below(3)];
    w.start_op = rng.next_below(horizon_ops);
    w.duration_ops = 1 + rng.next_below(8);
    schedule.add(w);
  }
  // Silent data corruption: stuck reads, outliers, a wrap regression.
  for (int i = 0; i < 4; ++i) {
    FaultWindow w;
    const uint64_t pick = rng.next_below(3);
    w.kind = pick == 0   ? FaultKind::kSensorStuck
             : pick == 1 ? FaultKind::kSensorOutlier
                         : FaultKind::kSensorWrap;
    w.start_op = rng.next_below(horizon_ops);
    w.duration_ops = 1 + rng.next_below(4);
    w.magnitude = static_cast<uint32_t>(2 + rng.next_below(100));
    schedule.add(w);
  }
  return schedule;
}

FaultInjectionPlatform::FaultInjectionPlatform(PlatformInterface& inner,
                                               FaultSchedule schedule)
    : inner_(&inner), schedule_(std::move(schedule)) {
  for (uint8_t t = 0; t < kTargets; ++t) {
    horizon_[t] = next_active(static_cast<Target>(t), 0);
  }
}

const FaultWindow* FaultInjectionPlatform::match(FaultKind kind,
                                                 uint64_t op) const {
  for (const FaultWindow& w : schedule_.windows()) {
    if (w.kind == kind && w.active(op)) return &w;
  }
  return nullptr;
}

FaultInjectionPlatform::Target FaultInjectionPlatform::target_of(
    FaultKind kind) {
  switch (kind) {
    case FaultKind::kCoreWriteError: return kCore;
    case FaultKind::kUncoreWriteError: return kUncore;
    case FaultKind::kSensorError:
    case FaultKind::kSensorStuck:
    case FaultKind::kSensorOutlier:
    case FaultKind::kSensorWrap:
    case FaultKind::kLatencySpike: return kSensor;
  }
  return kSensor;
}

uint64_t FaultInjectionPlatform::next_active(Target target,
                                             uint64_t op) const {
  uint64_t next = UINT64_MAX;
  for (const FaultWindow& w : schedule_.windows()) {
    if (target_of(w.kind) != target) continue;
    if (w.active(op)) return op;
    if (w.start_op > op && w.start_op < next) next = w.start_op;
  }
  return next;
}

bool FaultInjectionPlatform::in_window(Target target, uint64_t op) {
  // Ops advance one at a time and the horizon is always an active op, so
  // the first op that is not below it is exactly the horizon.
  if (op < horizon_[target]) return false;
  horizon_[target] = next_active(target, op + 1);
  return true;
}

IoOutcome FaultInjectionPlatform::apply_core_frequency(FreqMHz f) {
  const uint64_t op = core_op_++;
  if (in_window(kCore, op) &&
      match(FaultKind::kCoreWriteError, op) != nullptr) {
    stats_.actuator_errors += 1;
    return IoOutcome::failure(EIO);
  }
  return inner_->apply_core_frequency(f);
}

IoOutcome FaultInjectionPlatform::apply_uncore_frequency(FreqMHz f) {
  const uint64_t op = uncore_op_++;
  if (in_window(kUncore, op) &&
      match(FaultKind::kUncoreWriteError, op) != nullptr) {
    stats_.actuator_errors += 1;
    return IoOutcome::failure(EIO);
  }
  return inner_->apply_uncore_frequency(f);
}

SampleOutcome FaultInjectionPlatform::sample_sensors() {
  const uint64_t op = sensor_op_++;
  // No sensor window lies ahead (always so for an empty schedule):
  // last_good_ can never be read again, so this is a pure pass-through.
  if (horizon_[kSensor] == UINT64_MAX) return inner_->sample_sensors();
  // Quiet fast path: no window is active at this op, so forward without
  // a schedule scan, remembering the reading a later fault may repeat.
  if (!in_window(kSensor, op)) {
    SampleOutcome out = inner_->sample_sensors();
    if (out.io.ok()) last_good_ = out.sample;
    return out;
  }
  if (const FaultWindow* w = match(FaultKind::kLatencySpike, op)) {
    stats_.latency_spikes += 1;
    std::this_thread::sleep_for(std::chrono::milliseconds(w->magnitude));
  }
  if (match(FaultKind::kSensorError, op) != nullptr) {
    stats_.sensor_errors += 1;
    return SampleOutcome{last_good_, IoOutcome::failure(EIO)};
  }
  if (match(FaultKind::kSensorStuck, op) != nullptr) {
    // Claims success while repeating the previous reading — the
    // controller sees a zero-delta (idle) interval.
    stats_.sensor_value_faults += 1;
    return SampleOutcome{last_good_, IoOutcome::success()};
  }
  SampleOutcome out = inner_->sample_sensors();
  if (out.io.failed()) return out;  // real failure underneath
  if (const FaultWindow* w = match(FaultKind::kSensorOutlier, op)) {
    stats_.sensor_value_faults += 1;
    const uint64_t scale = w->magnitude != 0 ? w->magnitude : 2;
    out.sample.tor_local *= scale;
    out.sample.tor_remote *= scale;
  }
  if (const FaultWindow* w = match(FaultKind::kSensorWrap, op)) {
    // The monotonic joule accumulator regresses, modelling a missed
    // 32-bit RAPL wrap; the controller sees a negative energy delta.
    stats_.sensor_value_faults += 1;
    out.sample.energy_joules -= static_cast<double>(
        w->magnitude != 0 ? w->magnitude : 1);
  }
  last_good_ = out.sample;
  return out;
}

}  // namespace cuttlefish::hal
