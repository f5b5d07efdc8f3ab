// The fault-injection layer itself: schedules are deterministic given
// their seed, windows trigger on operation counts (not time), each
// FaultKind produces its documented behaviour through the decorator, and
// the DeviceHealth state machine walks
// healthy -> degraded -> quarantined -> healed with exponential probe
// backoff. The decorator's quiet-horizon index is fuzzed against a
// linear-scan reference decorator.

#include <gtest/gtest.h>

#include <cerrno>
#include <cstring>
#include <string>
#include <vector>

#include "hal/fault_injection.hpp"
#include "common/rng.hpp"
#include "hal/health.hpp"
#include "sim/machine_config.hpp"
#include "sim/phase_workload.hpp"
#include "sim/sim_machine.hpp"
#include "sim/sim_platform.hpp"

namespace cuttlefish {
namespace {

using hal::DeviceHealth;
using hal::FaultKind;
using hal::FaultSchedule;
using hal::FaultWindow;
using hal::IoOutcome;
using hal::RetryPolicy;
using hal::SampleOutcome;
using hal::SensorSample;

sim::PhaseProgram short_program() {
  sim::PhaseProgram p;
  for (int i = 0; i < 10; ++i) {
    p.add(6e9, 1.0, 0.02);
    p.add(6e9, 1.3, 0.30);
  }
  return p;
}

struct SimRig {
  // The machine's workload cursor points into the program, so the rig
  // must own it for the machine's lifetime.
  sim::PhaseProgram program;
  sim::SimMachine machine;
  sim::SimPlatform platform;
  explicit SimRig(uint64_t seed = 7)
      : program(short_program()),
        machine(sim::haswell_2650v3(), program, seed),
        platform(machine) {}
};

TEST(FaultSchedule, SameSeedSameSchedule) {
  const FaultSchedule a = FaultSchedule::transient_only(42);
  const FaultSchedule b = FaultSchedule::transient_only(42);
  ASSERT_EQ(a.windows().size(), b.windows().size());
  for (size_t i = 0; i < a.windows().size(); ++i) {
    EXPECT_EQ(a.windows()[i].kind, b.windows()[i].kind);
    EXPECT_EQ(a.windows()[i].start_op, b.windows()[i].start_op);
    EXPECT_EQ(a.windows()[i].duration_ops, b.windows()[i].duration_ops);
  }
  const FaultSchedule c = FaultSchedule::transient_only(43);
  bool differs = c.windows().size() != a.windows().size();
  for (size_t i = 0; !differs && i < a.windows().size(); ++i) {
    differs = c.windows()[i].start_op != a.windows()[i].start_op ||
              c.windows()[i].kind != a.windows()[i].kind;
  }
  EXPECT_TRUE(differs);
}

TEST(FaultSchedule, WindowActivityIsOpIndexed) {
  const FaultWindow transient{FaultKind::kSensorError, 10, 3, 0};
  EXPECT_FALSE(transient.active(9));
  EXPECT_TRUE(transient.active(10));
  EXPECT_TRUE(transient.active(12));
  EXPECT_FALSE(transient.active(13));
  // duration 0 = persistent from start_op.
  const FaultWindow persistent{FaultKind::kSensorError, 5, 0, 0};
  EXPECT_FALSE(persistent.active(4));
  EXPECT_TRUE(persistent.active(5));
  EXPECT_TRUE(persistent.active(1'000'000));
}

TEST(FaultSchedule, TransientBurstsFitTheRetryBudget) {
  const FaultSchedule s = FaultSchedule::transient_only(
      123, /*bursts=*/24, /*horizon_ops=*/4096, /*retry_budget=*/2);
  RetryPolicy policy;
  for (const FaultWindow& w : s.windows()) {
    EXPECT_GE(w.duration_ops, 1u);
    EXPECT_LE(w.duration_ops, static_cast<uint64_t>(policy.max_retries));
  }
}

TEST(FaultInjection, SensorErrorReturnsFailureAndLastGoodSample) {
  SimRig rig;
  FaultSchedule schedule;
  schedule.add({FaultKind::kSensorError, 1, 2, 0});  // ops 1 and 2 fail
  hal::FaultInjectionPlatform faulty(rig.platform, schedule);

  const hal::SampleOutcome good = faulty.sample_sensors();  // op 0
  EXPECT_TRUE(good.io.ok());
  rig.machine.advance(0.1);
  const hal::SampleOutcome failed = faulty.sample_sensors();  // op 1
  EXPECT_TRUE(failed.io.failed());
  EXPECT_EQ(failed.io.error, EIO);
  // The failing read repeats the last good sample, not garbage.
  EXPECT_EQ(failed.sample.instructions, good.sample.instructions);
  const hal::SampleOutcome failed2 = faulty.sample_sensors();  // op 2
  EXPECT_TRUE(failed2.io.failed());
  const hal::SampleOutcome healed = faulty.sample_sensors();  // op 3
  EXPECT_TRUE(healed.io.ok());
  EXPECT_GT(healed.sample.instructions, good.sample.instructions);
  EXPECT_EQ(faulty.fault_stats().sensor_errors, 2u);
}

TEST(FaultInjection, StuckSensorClaimsSuccessWithStaleData) {
  SimRig rig;
  FaultSchedule schedule;
  schedule.add({FaultKind::kSensorStuck, 1, 1, 0});
  hal::FaultInjectionPlatform faulty(rig.platform, schedule);

  const hal::SampleOutcome good = faulty.sample_sensors();
  rig.machine.advance(0.1);
  const hal::SampleOutcome stuck = faulty.sample_sensors();
  // Silent data fault: success claimed, previous reading repeated.
  EXPECT_TRUE(stuck.io.ok());
  EXPECT_EQ(stuck.sample.instructions, good.sample.instructions);
  EXPECT_EQ(stuck.sample.energy_joules, good.sample.energy_joules);
  EXPECT_EQ(faulty.fault_stats().sensor_value_faults, 1u);
}

TEST(FaultInjection, OutlierScalesTorAndWrapRegressesEnergy) {
  SimRig rig;
  rig.machine.advance(0.1);
  FaultSchedule schedule;
  schedule.add({FaultKind::kSensorOutlier, 0, 1, 10});
  schedule.add({FaultKind::kSensorWrap, 1, 1, 50});
  hal::FaultInjectionPlatform faulty(rig.platform, schedule);

  const hal::SensorSample clean = rig.platform.read_sample();
  const hal::SampleOutcome outlier = faulty.sample_sensors();  // op 0
  EXPECT_TRUE(outlier.io.ok());
  EXPECT_EQ(outlier.sample.tor_local, clean.tor_local * 10);
  const hal::SampleOutcome wrapped = faulty.sample_sensors();  // op 1
  EXPECT_TRUE(wrapped.io.ok());
  EXPECT_DOUBLE_EQ(wrapped.sample.energy_joules,
                   clean.energy_joules - 50.0);
  EXPECT_EQ(faulty.fault_stats().sensor_value_faults, 2u);
}

TEST(FaultInjection, ActuatorWindowsFailTheMatchingDomainOnly) {
  SimRig rig;
  FaultSchedule schedule;
  schedule.add({FaultKind::kCoreWriteError, 0, 1, 0});
  hal::FaultInjectionPlatform faulty(rig.platform, schedule);

  const FreqMHz cf = rig.platform.core_ladder().min();
  const FreqMHz uf = rig.platform.uncore_ladder().min();
  EXPECT_TRUE(faulty.apply_core_frequency(cf).failed());  // core op 0
  // The failed write never reached the machine.
  EXPECT_NE(rig.machine.core_frequency(), cf);
  EXPECT_TRUE(faulty.apply_uncore_frequency(uf).ok());  // uncore op 0
  EXPECT_EQ(rig.machine.uncore_frequency(), uf);
  EXPECT_TRUE(faulty.apply_core_frequency(cf).ok());  // core op 1
  EXPECT_EQ(rig.machine.core_frequency(), cf);
  EXPECT_EQ(faulty.fault_stats().actuator_errors, 1u);
}

TEST(DeviceHealthMachine, QuarantinesAfterConsecutiveFailures) {
  RetryPolicy policy;
  policy.quarantine_after = 3;
  DeviceHealth health(policy);
  EXPECT_EQ(health.state(), DeviceHealth::State::kHealthy);
  EXPECT_FALSE(health.record_failure(1));
  EXPECT_EQ(health.state(), DeviceHealth::State::kDegraded);
  EXPECT_FALSE(health.record_failure(2));
  // Third consecutive failure is the quarantine edge — exactly once true.
  EXPECT_TRUE(health.record_failure(3));
  EXPECT_TRUE(health.quarantined());
  EXPECT_FALSE(health.record_failure(100));  // already quarantined
  EXPECT_EQ(health.quarantines(), 1u);
}

TEST(DeviceHealthMachine, SuccessResetsTheFailureStreak) {
  RetryPolicy policy;
  policy.quarantine_after = 3;
  DeviceHealth health(policy);
  EXPECT_FALSE(health.record_failure(1));
  EXPECT_FALSE(health.record_failure(2));
  EXPECT_FALSE(health.record_success(3));  // streak broken
  EXPECT_EQ(health.state(), DeviceHealth::State::kHealthy);
  EXPECT_FALSE(health.record_failure(4));
  EXPECT_FALSE(health.record_failure(5));
  EXPECT_TRUE(health.record_failure(6));
}

TEST(DeviceHealthMachine, ProbeBackoffIsExponentialAndBounded) {
  RetryPolicy policy;
  policy.quarantine_after = 1;
  policy.backoff_start_ticks = 8;
  policy.backoff_max_ticks = 16;
  DeviceHealth health(policy);
  EXPECT_TRUE(health.record_failure(100));
  // First probe due backoff_start_ticks after quarantine.
  EXPECT_FALSE(health.should_probe(107));
  EXPECT_TRUE(health.should_probe(108));
  // A failed probe doubles the interval...
  health.record_failure(108);
  EXPECT_FALSE(health.should_probe(123));
  EXPECT_TRUE(health.should_probe(124));
  // ...and the doubling saturates at backoff_max_ticks.
  health.record_failure(124);
  EXPECT_FALSE(health.should_probe(139));
  EXPECT_TRUE(health.should_probe(140));
}

TEST(DeviceHealthMachine, HealsAfterConsecutiveProbeSuccesses) {
  RetryPolicy policy;
  policy.quarantine_after = 1;
  policy.heal_successes = 2;
  DeviceHealth health(policy);
  EXPECT_TRUE(health.record_failure(10));
  EXPECT_FALSE(health.record_success(18));  // 1 of 2
  EXPECT_TRUE(health.quarantined());
  // A prompt re-probe is scheduled rather than a full backoff wait.
  EXPECT_TRUE(health.should_probe(19));
  EXPECT_TRUE(health.record_success(19));  // heal edge
  EXPECT_EQ(health.state(), DeviceHealth::State::kHealthy);
  EXPECT_EQ(health.heals(), 1u);
  // A failed probe between successes restarts the heal streak.
  EXPECT_TRUE(health.record_failure(30));
  EXPECT_FALSE(health.record_success(38));
  health.record_failure(39);
  EXPECT_FALSE(health.record_success(60));
  EXPECT_TRUE(health.record_success(61));
}

TEST(FaultInjection, CapabilitiesAndLaddersPassThrough) {
  SimRig rig;
  hal::FaultInjectionPlatform faulty(rig.platform, FaultSchedule{});
  EXPECT_EQ(faulty.capabilities().bits(),
            rig.platform.capabilities().bits());
  EXPECT_EQ(&faulty.core_ladder(), &rig.platform.core_ladder());
  EXPECT_EQ(&faulty.uncore_ladder(), &rig.platform.uncore_ladder());
  // Empty schedule: a pure pass-through.
  EXPECT_TRUE(faulty.sample_sensors().io.ok());
  EXPECT_TRUE(
      faulty.apply_core_frequency(rig.platform.core_ladder().max()).ok());
  EXPECT_EQ(faulty.fault_stats().total(), 0u);
}

// ---- fault-index equivalence ----------------------------------------------

/// Deterministic inner platform: sample k reads counters derived from k,
/// and every 13th sample and every 11th write fail underneath, so the
/// decorator's "real failure underneath" paths are exercised too.
class ScriptedPlatform final : public hal::PlatformInterface {
 public:
  const FreqLadder& core_ladder() const override { return core_; }
  const FreqLadder& uncore_ladder() const override { return uncore_; }
  FreqMHz core_frequency() const override { return cf_; }
  FreqMHz uncore_frequency() const override { return uf_; }
  SampleOutcome sample_sensors() override {
    const uint64_t k = ++samples_;
    SampleOutcome out;
    out.sample.instructions = 1000 * k + (k * k) % 97;
    out.sample.tor_local = 10 * k + k % 7;
    out.sample.tor_remote = 3 * k;
    out.sample.energy_joules = 0.25 * static_cast<double>(k * k % 1009) + k;
    if (k % 13 == 0) out.io = IoOutcome::failure(EBUSY);
    return out;
  }
  IoOutcome apply_core_frequency(FreqMHz f) override {
    if (++writes_ % 11 == 0) return IoOutcome::failure(EAGAIN);
    cf_ = f;
    return IoOutcome::success();
  }
  IoOutcome apply_uncore_frequency(FreqMHz f) override {
    if (++writes_ % 11 == 0) return IoOutcome::failure(EAGAIN);
    uf_ = f;
    return IoOutcome::success();
  }

 private:
  FreqLadder core_ = haswell_core_ladder();
  FreqLadder uncore_ = haswell_uncore_ladder();
  FreqMHz cf_{2300};
  FreqMHz uf_{3000};
  uint64_t samples_ = 0;
  uint64_t writes_ = 0;
};

/// The decorator as it was before the horizon index: every call scans
/// the whole schedule for every kind it could manifest. The reference
/// the indexed decorator must match call for call.
class LinearScanFaults final : public hal::PlatformInterface {
 public:
  LinearScanFaults(hal::PlatformInterface& inner, FaultSchedule schedule)
      : inner_(&inner), schedule_(std::move(schedule)) {}

  const FreqLadder& core_ladder() const override {
    return inner_->core_ladder();
  }
  const FreqLadder& uncore_ladder() const override {
    return inner_->uncore_ladder();
  }
  FreqMHz core_frequency() const override { return inner_->core_frequency(); }
  FreqMHz uncore_frequency() const override {
    return inner_->uncore_frequency();
  }
  IoOutcome apply_core_frequency(FreqMHz f) override {
    if (match(FaultKind::kCoreWriteError, core_op_++) != nullptr) {
      stats_.actuator_errors += 1;
      return IoOutcome::failure(EIO);
    }
    return inner_->apply_core_frequency(f);
  }
  IoOutcome apply_uncore_frequency(FreqMHz f) override {
    if (match(FaultKind::kUncoreWriteError, uncore_op_++) != nullptr) {
      stats_.actuator_errors += 1;
      return IoOutcome::failure(EIO);
    }
    return inner_->apply_uncore_frequency(f);
  }
  SampleOutcome sample_sensors() override {
    const uint64_t op = sensor_op_++;
    if (match(FaultKind::kLatencySpike, op) != nullptr) {
      stats_.latency_spikes += 1;  // magnitudes are 0 ms in this fuzz
    }
    if (match(FaultKind::kSensorError, op) != nullptr) {
      stats_.sensor_errors += 1;
      return SampleOutcome{last_good_, IoOutcome::failure(EIO)};
    }
    if (match(FaultKind::kSensorStuck, op) != nullptr) {
      stats_.sensor_value_faults += 1;
      return SampleOutcome{last_good_, IoOutcome::success()};
    }
    SampleOutcome out = inner_->sample_sensors();
    if (out.io.failed()) return out;
    if (const FaultWindow* w = match(FaultKind::kSensorOutlier, op)) {
      stats_.sensor_value_faults += 1;
      const uint64_t scale = w->magnitude != 0 ? w->magnitude : 2;
      out.sample.tor_local *= scale;
      out.sample.tor_remote *= scale;
    }
    if (const FaultWindow* w = match(FaultKind::kSensorWrap, op)) {
      stats_.sensor_value_faults += 1;
      out.sample.energy_joules -=
          static_cast<double>(w->magnitude != 0 ? w->magnitude : 1);
    }
    last_good_ = out.sample;
    return out;
  }

  hal::FaultStats stats_;
  uint64_t sensor_op_ = 0;
  uint64_t core_op_ = 0;
  uint64_t uncore_op_ = 0;

 private:
  const FaultWindow* match(FaultKind kind, uint64_t op) const {
    for (const FaultWindow& w : schedule_.windows()) {
      if (w.kind == kind && w.active(op)) return &w;
    }
    return nullptr;
  }

  hal::PlatformInterface* inner_;
  FaultSchedule schedule_;
  SensorSample last_good_{};
};

bool same_outcome(const IoOutcome& a, const IoOutcome& b) {
  return a.status == b.status && a.error == b.error;
}

bool same_sample(const SampleOutcome& a, const SampleOutcome& b) {
  return same_outcome(a.io, b.io) &&
         a.sample.instructions == b.sample.instructions &&
         a.sample.tor_local == b.sample.tor_local &&
         a.sample.tor_remote == b.sample.tor_remote &&
         std::memcmp(&a.sample.energy_joules, &b.sample.energy_joules,
                     sizeof(double)) == 0;
}

/// Hand-built schedules for the index's edge cases: windows that overlap
/// (same kind and different kinds), persistent windows, windows at op 0,
/// windows that abut, and every kind on one target at once.
std::vector<std::pair<std::string, FaultSchedule>> edge_schedules() {
  std::vector<std::pair<std::string, FaultSchedule>> out;
  FaultSchedule overlap;
  overlap.add({FaultKind::kSensorStuck, 3, 20, 0})
      .add({FaultKind::kSensorError, 5, 5, 0})
      .add({FaultKind::kSensorOutlier, 8, 30, 3})
      .add({FaultKind::kSensorOutlier, 9, 4, 7})  // later duplicate kind
      .add({FaultKind::kSensorWrap, 30, 6, 9})
      .add({FaultKind::kLatencySpike, 4, 40, 0})
      .add({FaultKind::kCoreWriteError, 2, 3, 0})
      .add({FaultKind::kCoreWriteError, 4, 6, 0})
      .add({FaultKind::kUncoreWriteError, 7, 1, 0})
      .add({FaultKind::kUncoreWriteError, 8, 1, 0});  // abuts the last
  out.emplace_back("overlapping", overlap);
  FaultSchedule persistent;
  persistent.add({FaultKind::kCoreWriteError, 50, 0, 0})
      .add({FaultKind::kSensorOutlier, 120, 0, 5})
      .add({FaultKind::kSensorError, 60, 10, 0})
      .add({FaultKind::kUncoreWriteError, 900, 0, 0});
  out.emplace_back("persistent", persistent);
  FaultSchedule op0;
  op0.add({FaultKind::kSensorError, 0, 1, 0})
      .add({FaultKind::kCoreWriteError, 0, 2, 0})
      .add({FaultKind::kUncoreWriteError, 0, 1, 0})
      .add({FaultKind::kSensorWrap, 1, 1, 0})
      .add({FaultKind::kSensorStuck, 0, 0, 0})  // persistent from op 0
      .add({FaultKind::kSensorError, 300, 2, 0});
  out.emplace_back("op0", op0);
  out.emplace_back("empty", FaultSchedule{});
  return out;
}

TEST(FaultIndex, MatchesLinearScanUnderRandomInterleavings) {
  std::vector<std::pair<std::string, FaultSchedule>> schedules =
      edge_schedules();
  schedules.emplace_back("persistent_sensor_failure",
                         FaultSchedule::persistent_sensor_failure());
  for (uint64_t seed : {1, 11, 42}) {
    schedules.emplace_back("transient_only:" + std::to_string(seed),
                           FaultSchedule::transient_only(seed));
    schedules.emplace_back("chaos:" + std::to_string(seed),
                           FaultSchedule::chaos(seed));
    // A short horizon packs the windows densely, so they overlap.
    schedules.emplace_back("chaos-dense:" + std::to_string(seed),
                           FaultSchedule::chaos(seed, 64));
  }
  const FreqLadder ladder = haswell_core_ladder();
  for (const auto& [name, schedule] : schedules) {
    for (uint64_t seed : {7, 8}) {
      SCOPED_TRACE(name + " interleaving seed " + std::to_string(seed));
      ScriptedPlatform indexed_inner;
      ScriptedPlatform reference_inner;
      hal::FaultInjectionPlatform indexed(indexed_inner, schedule);
      LinearScanFaults reference(reference_inner, schedule);
      SplitMix64 rng(seed);
      // ~5000 ops per target: past every generated window's horizon.
      for (int i = 0; i < 15000; ++i) {
        const uint64_t pick = rng.next_below(4);
        if (pick <= 1) {
          ASSERT_TRUE(same_sample(indexed.sample_sensors(),
                                  reference.sample_sensors()))
              << "sample at sensor op " << reference.sensor_op_ - 1;
        } else {
          const FreqMHz f =
              ladder.at(static_cast<Level>(rng.next_below(
                  static_cast<uint64_t>(ladder.levels()))));
          const bool core = pick == 2;
          const IoOutcome a = core ? indexed.apply_core_frequency(f)
                                   : indexed.apply_uncore_frequency(f);
          const IoOutcome b = core ? reference.apply_core_frequency(f)
                                   : reference.apply_uncore_frequency(f);
          ASSERT_TRUE(same_outcome(a, b))
              << (core ? "core" : "uncore") << " write at op "
              << (core ? reference.core_op_ : reference.uncore_op_) - 1;
        }
      }
      const hal::FaultStats& got = indexed.fault_stats();
      const hal::FaultStats& want = reference.stats_;
      EXPECT_EQ(got.sensor_errors, want.sensor_errors);
      EXPECT_EQ(got.sensor_value_faults, want.sensor_value_faults);
      EXPECT_EQ(got.actuator_errors, want.actuator_errors);
      EXPECT_EQ(got.latency_spikes, want.latency_spikes);
      EXPECT_EQ(indexed.sensor_ops(), reference.sensor_op_);
      EXPECT_EQ(indexed.core_ops(), reference.core_op_);
      EXPECT_EQ(indexed.uncore_ops(), reference.uncore_op_);
      EXPECT_EQ(indexed_inner.core_frequency(),
                reference_inner.core_frequency());
      EXPECT_EQ(indexed_inner.uncore_frequency(),
                reference_inner.uncore_frequency());
    }
  }
}

}  // namespace
}  // namespace cuttlefish
