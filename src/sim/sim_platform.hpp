#pragma once

#include "hal/platform.hpp"
#include "sim/sim_machine.hpp"

namespace cuttlefish::sim {

/// hal::PlatformInterface over a SimMachine. The actuator and
/// read_sensors() paths deliberately go through the MSR register map and
/// the shared hal codecs (rather than poking the machine object directly)
/// so the exact code paths of the real-hardware backend — including RAPL
/// unit decoding and 32-bit wrap handling — stay exercised; read_sensors()
/// is kept as the reference the batched path is tested against.
/// sample_sensors() is the per-tick path: one pass over the machine's
/// counters with no MsrDevice round trips, but the same RAPL quantisation
/// (SimMachine::rapl_energy_raw is shared with the register map), so both
/// paths report bit-identical values.
class SimPlatform final : public hal::PlatformInterface {
 public:
  explicit SimPlatform(SimMachine& machine);

  /// The emulated Haswell exposes the full register map, so the simulator
  /// is the one backend that always advertises every capability. Partial
  /// hardware is modelled by wrapping this in a hal::CapabilityFilter.
  hal::CapabilitySet capabilities() const override {
    return hal::CapabilitySet::all();
  }

  const FreqLadder& core_ladder() const override;
  const FreqLadder& uncore_ladder() const override;

  FreqMHz core_frequency() const override;
  FreqMHz uncore_frequency() const override;

  /// Always succeed: a rejected register write is a simulator bug and
  /// asserts instead.
  hal::SampleOutcome sample_sensors() override;
  hal::IoOutcome apply_core_frequency(FreqMHz f) override;
  hal::IoOutcome apply_uncore_frequency(FreqMHz f) override;

  hal::SensorTotals read_sensors() override;

 private:
  /// Shared by both read paths: unwrap the 32-bit RAPL counter into the
  /// monotonic joule accumulator.
  double unwrap_energy(uint32_t now_raw);

  SimMachine* machine_;
  double energy_unit_j_;
  uint32_t last_energy_raw_;
  double energy_acc_j_ = 0.0;
};

}  // namespace cuttlefish::sim
