// The batched-sampling contract: sample_sensors() — the one sensor
// virtual a backend implements — must report exactly what the
// simulator's MSR-register reference path read_sensors() reports, on
// full stacks and on every CapabilityFilter-degraded subset, and the
// convenience forms (read_sample, read_sensors, set_*_frequency) must
// derive from the outcome forms on a backend that implements nothing
// else.

#include <gtest/gtest.h>

#include "hal/backend.hpp"
#include "hal/linux_msr.hpp"
#include "hal/msr.hpp"
#include "hal/platform.hpp"
#include "hal/powercap.hpp"
#include "sim/machine_config.hpp"
#include "sim/phase_workload.hpp"
#include "sim/sim_machine.hpp"
#include "sim/sim_platform.hpp"

namespace cuttlefish::hal {
namespace {

sim::PhaseProgram long_program() {
  sim::PhaseProgram p;
  p.add(1e13, 1.0, 0.05);
  p.add(1e13, 1.2, 0.20);
  return p;
}

/// A backend implementing only the pure virtuals: a scripted sample and
/// a log of the writes that reached apply_*.
class MinimalPlatform final : public PlatformInterface {
 public:
  const FreqLadder& core_ladder() const override { return core_; }
  const FreqLadder& uncore_ladder() const override { return uncore_; }
  FreqMHz core_frequency() const override { return cf_; }
  FreqMHz uncore_frequency() const override { return uf_; }
  SampleOutcome sample_sensors() override {
    ++samples;
    return SampleOutcome{next, IoOutcome::success()};
  }
  IoOutcome apply_core_frequency(FreqMHz f) override {
    cf_ = f;
    ++core_writes;
    return IoOutcome::success();
  }
  IoOutcome apply_uncore_frequency(FreqMHz f) override {
    uf_ = f;
    ++uncore_writes;
    return IoOutcome::success();
  }

  SensorSample next{};
  int samples = 0;
  int core_writes = 0;
  int uncore_writes = 0;

 private:
  FreqLadder core_ = haswell_core_ladder();
  FreqLadder uncore_ = haswell_uncore_ladder();
  FreqMHz cf_{2300};
  FreqMHz uf_{3000};
};

void expect_equal_totals(const SensorSample& sample,
                         const SensorTotals& totals) {
  EXPECT_EQ(sample.instructions, totals.instructions);
  EXPECT_EQ(sample.tor_inserts(), totals.tor_inserts);
  EXPECT_EQ(sample.energy_joules, totals.energy_joules);
}

TEST(SensorSampleHal, SimBatchedSampleMatchesRegisterPathExactly) {
  const sim::MachineConfig cfg = sim::haswell_2650v3();
  const sim::PhaseProgram program = long_program();
  sim::SimMachine machine(cfg, program);
  sim::SimPlatform platform(machine);

  for (int i = 0; i < 50; ++i) {
    machine.advance(0.02);
    // Back-to-back batched and register-path reads see the same raw
    // counter, so the shared unwrap state must make them bit-equal.
    const SampleOutcome out = platform.sample_sensors();
    EXPECT_TRUE(out.io.ok());
    const SensorTotals totals = platform.read_sensors();
    expect_equal_totals(out.sample, totals);
    // The sim splits TOR by NUMA umask; the split must conserve the sum.
    EXPECT_EQ(out.sample.tor_local + out.sample.tor_remote,
              totals.tor_inserts);
  }
}

TEST(SensorSampleHal, ConvenienceFormsDeriveFromOutcomeForms) {
  MinimalPlatform platform;
  platform.next = SensorSample{1000, 70, 30, 2.5};

  const SensorSample sample = platform.read_sample();
  EXPECT_EQ(platform.samples, 1);
  EXPECT_EQ(sample.instructions, 1000u);
  EXPECT_EQ(sample.tor_local, 70u);
  EXPECT_EQ(sample.tor_remote, 30u);
  EXPECT_EQ(sample.energy_joules, 2.5);

  const SensorTotals totals = platform.read_sensors();
  EXPECT_EQ(platform.samples, 2);
  expect_equal_totals(platform.sample_sensors().sample, totals);

  platform.set_core_frequency(FreqMHz{1800});
  EXPECT_EQ(platform.core_writes, 1);
  EXPECT_EQ(platform.core_frequency(), FreqMHz{1800});
  platform.set_uncore_frequency(FreqMHz{2000});
  EXPECT_EQ(platform.uncore_writes, 1);
  EXPECT_EQ(platform.uncore_frequency(), FreqMHz{2000});
  EXPECT_EQ(platform.core_writes, 1);
}

TEST(SensorSampleHal, CapabilityFilterMasksSampleAndTotalsAlike) {
  const sim::MachineConfig cfg = sim::haswell_2650v3();
  const CapabilitySet subsets[] = {
      CapabilitySet::all(),
      CapabilitySet::all().without(Capability::kEnergySensor),
      CapabilitySet::all().without(Capability::kInstructionSensor),
      CapabilitySet::all().without(Capability::kTorSensor),
      CapabilitySet{}.with(Capability::kEnergySensor),
      CapabilitySet::none(),
  };
  for (const CapabilitySet& allowed : subsets) {
    const sim::PhaseProgram pa = long_program();
    const sim::PhaseProgram pb = long_program();
    sim::SimMachine ma(cfg, pa, 7);
    sim::SimMachine mb(cfg, pb, 7);
    sim::SimPlatform platform_a(ma);
    sim::SimPlatform platform_b(mb);
    CapabilityFilter batched(platform_a, allowed);
    CapabilityFilter totals_path(platform_b, allowed);

    for (int i = 0; i < 20; ++i) {
      ma.advance(0.02);
      mb.advance(0.02);
      const SensorSample a = batched.sample_sensors().sample;
      expect_equal_totals(a, totals_path.read_sensors());
      if (!allowed.has(Capability::kEnergySensor)) {
        EXPECT_EQ(a.energy_joules, 0.0);
      }
      if (!allowed.has(Capability::kInstructionSensor)) {
        EXPECT_EQ(a.instructions, 0u);
      }
      if (!allowed.has(Capability::kTorSensor)) {
        EXPECT_EQ(a.tor_local, 0u);
        EXPECT_EQ(a.tor_remote, 0u);
      }
    }
  }
}

/// MsrDevice decorator counting reads, over the sim machine's register
/// map — the in-container stand-in for /dev/cpu/*/msr.
class CountingMsrDevice final : public MsrDevice {
 public:
  explicit CountingMsrDevice(MsrDevice& inner) : inner_(&inner) {}
  bool read(uint32_t address, uint64_t& value) override {
    ++reads;
    return inner_->read(address, value);
  }
  bool write(uint32_t address, uint64_t value) override {
    return inner_->write(address, value);
  }
  int reads = 0;

 private:
  MsrDevice* inner_;
};

TEST(SensorSampleHal, MsrStackSamplesInOnePassOfThreeReads) {
  const sim::MachineConfig cfg = sim::haswell_2650v3();
  const sim::PhaseProgram program = long_program();
  sim::SimMachine machine(cfg, program);
  CountingMsrDevice device(machine);
  MsrSensorStack stack(device);
  ASSERT_TRUE(stack.capabilities().has(Capability::kEnergySensor));
  ASSERT_TRUE(stack.capabilities().has(Capability::kInstructionSensor));
  ASSERT_TRUE(stack.capabilities().has(Capability::kTorSensor));

  machine.advance(0.5);
  device.reads = 0;
  const SampleOutcome out = stack.sample();
  EXPECT_TRUE(out.io.ok());
  EXPECT_EQ(device.reads, 3);  // energy + instructions + TOR, one pass
  EXPECT_GT(out.sample.instructions, 0u);
  EXPECT_GT(out.sample.tor_inserts(), 0u);
  EXPECT_GT(out.sample.energy_joules, 0.0);
}

TEST(SensorSampleHal, UnavailablePowercapSamplesZeros) {
  PowercapSensorStack stack("/nonexistent/cuttlefish/powercap");
  EXPECT_FALSE(stack.available());
  const SampleOutcome out = stack.sample();
  EXPECT_TRUE(out.io.ok());
  EXPECT_EQ(out.sample.instructions, 0u);
  EXPECT_EQ(out.sample.tor_inserts(), 0u);
  EXPECT_EQ(out.sample.energy_joules, 0.0);
}

}  // namespace
}  // namespace cuttlefish::hal
