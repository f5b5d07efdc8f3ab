// Capability-aware controller degradation: a backend advertising less
// than the full contract must narrow the policy (core-only, single-slab,
// monitor) instead of refusing to run, record the loss in the decision
// trace, and — for the uncore-actuator case — make decisions identical to
// a Cuttlefish-Core run with the uncore pinned at its maximum.

#include <gtest/gtest.h>

#include <iterator>
#include <string>

#include "common/log.hpp"
#include "core/controller.hpp"
#include "core/trace.hpp"
#include "hal/backend.hpp"
#include "hal/fault_injection.hpp"
#include "sim/machine_config.hpp"
#include "sim/phase_workload.hpp"
#include "sim/sim_machine.hpp"
#include "sim/sim_platform.hpp"

namespace cuttlefish {
namespace {

using hal::Capability;
using hal::CapabilitySet;

sim::PhaseProgram two_slab_program() {
  sim::PhaseProgram p;
  for (int i = 0; i < 30; ++i) {
    p.add(6e9, 1.0, 0.02);  // compute-bound slab
    p.add(6e9, 1.3, 0.30);  // memory-bound slab
  }
  return p;
}

struct RunCapture {
  std::vector<core::TickTelemetry> telemetry;
  std::vector<core::TraceRecord> trace;
  core::ControllerStats stats;
  core::PolicyKind effective = core::PolicyKind::kFull;
  bool degraded = false;
  size_t nodes = 0;
  std::vector<std::pair<int64_t, Level>> cf_opts;  // (slab, opt) per node
  FreqMHz final_uncore{0};
};

/// Drives one co-simulated run (warm-up + tick loop) of `policy` against
/// a sim platform filtered down to `allowed`.
RunCapture run_filtered(core::PolicyKind policy, CapabilitySet allowed) {
  const sim::MachineConfig machine_cfg = sim::haswell_2650v3();
  const sim::PhaseProgram program = two_slab_program();
  sim::SimMachine machine(machine_cfg, program, /*seed=*/7);
  sim::SimPlatform inner(machine);
  hal::CapabilityFilter platform(inner, allowed);

  core::ControllerConfig cfg;
  cfg.policy = policy;
  core::Controller controller(platform, cfg);
  core::DecisionTrace trace(65536);
  controller.set_trace(&trace);
  RunCapture capture;
  controller.set_telemetry(&capture.telemetry);

  for (double t = 0.0; t + cfg.tinv_s <= cfg.warmup_s + 1e-12;
       t += cfg.tinv_s) {
    machine.advance(cfg.tinv_s);
  }
  controller.begin();
  while (!machine.workload_done()) {
    machine.advance(cfg.tinv_s);
    controller.tick();
  }

  capture.trace = trace.snapshot();
  capture.stats = controller.stats();
  capture.effective = controller.effective_policy();
  capture.degraded = controller.degraded();
  capture.nodes = controller.list().size();
  for (const core::TipiNode* node = controller.list().head(); node != nullptr;
       node = node->next) {
    capture.cf_opts.emplace_back(node->slab, node->cf.opt);
  }
  capture.final_uncore = machine.uncore_frequency();
  return capture;
}

int degradation_events(const RunCapture& capture, uint32_t expected_bits) {
  int count = 0;
  for (const core::TraceRecord& rec : capture.trace) {
    if (rec.event != core::TraceEvent::kCapabilityDegraded) continue;
    if (rec.aux == expected_bits) ++count;
  }
  return count;
}

TEST(CapabilityDegradation, FullWithoutUncoreActuatorRunsCoreOnly) {
  const RunCapture degraded = run_filtered(
      core::PolicyKind::kFull,
      CapabilitySet::all().without(Capability::kUncoreUfs));
  const RunCapture reference =
      run_filtered(core::PolicyKind::kCoreOnly, CapabilitySet::all());

  EXPECT_EQ(degraded.effective, core::PolicyKind::kCoreOnly);
  EXPECT_TRUE(degraded.degraded);
  EXPECT_FALSE(reference.degraded);
  EXPECT_EQ(degradation_events(
                degraded, CapabilitySet{}.with(Capability::kUncoreUfs).bits()),
            1);

  // Decision-for-decision match with a core-only run whose uncore is
  // pinned at max: same tick count, same per-tick core frequency choices,
  // same discovered optima.
  ASSERT_EQ(degraded.telemetry.size(), reference.telemetry.size());
  for (size_t i = 0; i < degraded.telemetry.size(); ++i) {
    EXPECT_EQ(degraded.telemetry[i].cf_set, reference.telemetry[i].cf_set)
        << "tick " << i;
    EXPECT_EQ(degraded.telemetry[i].slab, reference.telemetry[i].slab)
        << "tick " << i;
  }
  EXPECT_EQ(degraded.cf_opts, reference.cf_opts);
  // Both machines ended with the uncore untouched at its maximum.
  const FreqMHz uncore_max = sim::haswell_2650v3().uncore_ladder.max();
  EXPECT_EQ(degraded.final_uncore, uncore_max);
  EXPECT_EQ(reference.final_uncore, uncore_max);
}

TEST(CapabilityDegradation, MissingTorCollapsesToSingleSlab) {
  const RunCapture capture = run_filtered(
      core::PolicyKind::kFull,
      CapabilitySet::all().without(Capability::kTorSensor));
  // TIPI reads zero every interval: one slab, still explored and actuated.
  EXPECT_EQ(capture.nodes, 1u);
  EXPECT_EQ(capture.effective, core::PolicyKind::kFull);
  EXPECT_TRUE(capture.degraded);
  EXPECT_EQ(degradation_events(
                capture, CapabilitySet{}.with(Capability::kTorSensor).bits()),
            1);
  EXPECT_GT(capture.stats.freq_writes, 0u);
}

TEST(CapabilityDegradation, SensorOnlyBackendRunsMonitor) {
  const RunCapture capture =
      run_filtered(core::PolicyKind::kFull, CapabilitySet::all_sensors());
  EXPECT_EQ(capture.effective, core::PolicyKind::kMonitor);
  EXPECT_TRUE(capture.degraded);
  // Profiling continues (TIPI list fills) but nothing is ever actuated.
  EXPECT_GE(capture.nodes, 2u);
  EXPECT_EQ(capture.stats.freq_writes, 0u);
  for (const auto& [slab, cf_opt] : capture.cf_opts) {
    EXPECT_EQ(cf_opt, kNoLevel);
  }
}

TEST(CapabilityDegradation, MissingJpiSensorsMeansMonitor) {
  const RunCapture capture = run_filtered(
      core::PolicyKind::kFull,
      CapabilitySet::all().without(Capability::kEnergySensor));
  EXPECT_EQ(capture.effective, core::PolicyKind::kMonitor);
  // Actuators are present, so begin() still pins both domains to max —
  // but monitor mode never explores beyond those two writes.
  EXPECT_EQ(capture.stats.freq_writes, 2u);
  EXPECT_EQ(capture.stats.samples_recorded, 0u);
  EXPECT_EQ(degradation_events(
                capture,
                CapabilitySet{}.with(Capability::kEnergySensor).bits()),
            1);
}

TEST(CapabilityDegradation, ExplicitCoreOnlyNeverSwitchesToUncore) {
  const RunCapture capture = run_filtered(
      core::PolicyKind::kCoreOnly,
      CapabilitySet::all().without(Capability::kCoreDvfs));
  // The uncore actuator is present, but the user asked for -Core: the
  // controller must drop to monitor, not start exploring the uncore.
  EXPECT_EQ(capture.effective, core::PolicyKind::kMonitor);
  EXPECT_TRUE(capture.degraded);
  EXPECT_EQ(capture.stats.samples_recorded, 0u);
  // Only begin()'s pin-to-max write on the remaining actuator.
  EXPECT_EQ(capture.stats.freq_writes, 1u);
  EXPECT_EQ(capture.final_uncore, sim::haswell_2650v3().uncore_ladder.max());
}

TEST(CapabilityDegradation, FullWithOnlyUncoreActuatorRunsUncoreOnly) {
  const RunCapture capture = run_filtered(
      core::PolicyKind::kFull,
      CapabilitySet::all().without(Capability::kCoreDvfs));
  EXPECT_EQ(capture.effective, core::PolicyKind::kUncoreOnly);
  EXPECT_TRUE(capture.degraded);
  EXPECT_GT(capture.stats.samples_recorded, 0u);
  EXPECT_EQ(degradation_events(
                capture, CapabilitySet{}.with(Capability::kCoreDvfs).bits()),
            1);
}

TEST(CapabilityDegradation, FullCapabilityRunIsNotDegraded) {
  const RunCapture capture =
      run_filtered(core::PolicyKind::kFull, CapabilitySet::all());
  EXPECT_EQ(capture.effective, core::PolicyKind::kFull);
  EXPECT_FALSE(capture.degraded);
  EXPECT_EQ(degradation_events(capture, 0), 0);
  for (const core::TraceRecord& rec : capture.trace) {
    EXPECT_NE(rec.event, core::TraceEvent::kCapabilityDegraded);
  }
}

TEST(CapabilityDegradation, ExplicitMonitorPolicyProfilesWithoutExploring) {
  const RunCapture capture =
      run_filtered(core::PolicyKind::kMonitor, CapabilitySet::all());
  EXPECT_EQ(capture.effective, core::PolicyKind::kMonitor);
  // Requested, not degraded-into: no capability events.
  EXPECT_FALSE(capture.degraded);
  EXPECT_GE(capture.nodes, 2u);
  // begin() pins both domains to max; after that no exploration writes.
  EXPECT_LE(capture.stats.freq_writes, 2u);
  EXPECT_EQ(capture.stats.samples_recorded, 0u);
}

}  // namespace
}  // namespace cuttlefish

namespace cuttlefish {
namespace {

constexpr core::PolicyKind kAllPolicies[] = {
    core::PolicyKind::kFull, core::PolicyKind::kCoreOnly,
    core::PolicyKind::kUncoreOnly, core::PolicyKind::kMonitor,
    core::PolicyKind::kMpc};

/// "<effective> <event>@<domain>:<aux>..." for a controller constructed
/// for `policy` over a backend advertising exactly `caps`: the effective
/// policy's letter (F/C/U/M/P), then every construction-time trace record
/// begin() replays, in order (frequency writes excluded).
std::string describe_narrowing(core::PolicyKind policy, CapabilitySet caps) {
  static constexpr const char* kLetter = "FCUMP";
  const sim::MachineConfig machine_cfg = sim::haswell_2650v3();
  const sim::PhaseProgram program = two_slab_program();
  sim::SimMachine machine(machine_cfg, program, /*seed=*/7);
  sim::SimPlatform inner(machine);
  hal::CapabilityFilter platform(inner, caps);
  core::ControllerConfig cfg;
  cfg.policy = policy;
  core::Controller controller(platform, cfg);
  core::DecisionTrace trace(64);
  controller.set_trace(&trace);
  controller.begin();
  std::string out(1, kLetter[static_cast<int>(controller.effective_policy())]);
  for (const core::TraceRecord& rec : trace.snapshot()) {
    if (rec.event == core::TraceEvent::kFrequencySet) continue;
    out += " " + std::to_string(static_cast<int>(rec.event)) + "@" +
           (rec.domain == Domain::kCore ? "c" : "u") + ":" +
           std::to_string(rec.aux);
  }
  return out;
}

// Every PolicyKind x every subset of the five hardware capability bits
// (index = CapabilitySet bits), recorded from the controller before the
// narrowing rule was folded into one function.
const char* const kNarrowingTable[5][32] = {
    // kFull
    {
      "M 6@c:3 6@c:4", "M 6@c:2 6@c:4", "M 6@c:1 6@c:4",
      "M 6@u:16 6@c:8 6@c:4", "M 6@c:3", "M 6@c:2", "M 6@c:1",
      "M 6@u:16 6@c:8", "M 6@c:3 6@c:4", "M 6@c:2 6@c:4", "M 6@c:1 6@c:4",
      "C 6@u:16 6@c:4", "M 6@c:3", "M 6@c:2", "M 6@c:1", "C 6@u:16",
      "M 6@c:3 6@c:4", "M 6@c:2 6@c:4", "M 6@c:1 6@c:4", "U 6@c:8 6@c:4",
      "M 6@c:3", "M 6@c:2", "M 6@c:1", "U 6@c:8", "M 6@c:3 6@c:4",
      "M 6@c:2 6@c:4", "M 6@c:1 6@c:4", "F 6@c:4", "M 6@c:3", "M 6@c:2",
      "M 6@c:1", "F",
    },
    // kCoreOnly
    {
      "M 6@c:3 6@c:4", "M 6@c:2 6@c:4", "M 6@c:1 6@c:4", "M 6@c:8 6@c:4",
      "M 6@c:3", "M 6@c:2", "M 6@c:1", "M 6@c:8", "M 6@c:3 6@c:4",
      "M 6@c:2 6@c:4", "M 6@c:1 6@c:4", "C 6@c:4", "M 6@c:3", "M 6@c:2",
      "M 6@c:1", "C", "M 6@c:3 6@c:4", "M 6@c:2 6@c:4", "M 6@c:1 6@c:4",
      "M 6@c:8 6@c:4", "M 6@c:3", "M 6@c:2", "M 6@c:1", "M 6@c:8",
      "M 6@c:3 6@c:4", "M 6@c:2 6@c:4", "M 6@c:1 6@c:4", "C 6@c:4", "M 6@c:3",
      "M 6@c:2", "M 6@c:1", "C",
    },
    // kUncoreOnly
    {
      "M 6@c:3 6@c:4", "M 6@c:2 6@c:4", "M 6@c:1 6@c:4", "M 6@u:16 6@c:4",
      "M 6@c:3", "M 6@c:2", "M 6@c:1", "M 6@u:16", "M 6@c:3 6@c:4",
      "M 6@c:2 6@c:4", "M 6@c:1 6@c:4", "M 6@u:16 6@c:4", "M 6@c:3",
      "M 6@c:2", "M 6@c:1", "M 6@u:16", "M 6@c:3 6@c:4", "M 6@c:2 6@c:4",
      "M 6@c:1 6@c:4", "U 6@c:4", "M 6@c:3", "M 6@c:2", "M 6@c:1", "U",
      "M 6@c:3 6@c:4", "M 6@c:2 6@c:4", "M 6@c:1 6@c:4", "U 6@c:4", "M 6@c:3",
      "M 6@c:2", "M 6@c:1", "U",
    },
    // kMonitor
    {
      "M 6@c:4", "M 6@c:4", "M 6@c:4", "M 6@c:4", "M", "M", "M", "M",
      "M 6@c:4", "M 6@c:4", "M 6@c:4", "M 6@c:4", "M", "M", "M", "M",
      "M 6@c:4", "M 6@c:4", "M 6@c:4", "M 6@c:4", "M", "M", "M", "M",
      "M 6@c:4", "M 6@c:4", "M 6@c:4", "M 6@c:4", "M", "M", "M", "M",
    },
    // kMpc
    {
      "M 6@c:3 6@c:4", "M 6@c:2 6@c:4", "M 6@c:1 6@c:4",
      "M 6@u:16 6@c:8 6@c:4", "M 6@c:3", "M 6@c:2", "M 6@c:1",
      "M 6@u:16 6@c:8", "M 6@c:3 6@c:4", "M 6@c:2 6@c:4", "M 6@c:1 6@c:4",
      "P 6@u:16 6@c:4", "M 6@c:3", "M 6@c:2", "M 6@c:1", "P 6@u:16",
      "M 6@c:3 6@c:4", "M 6@c:2 6@c:4", "M 6@c:1 6@c:4", "P 6@c:8 6@c:4",
      "M 6@c:3", "M 6@c:2", "M 6@c:1", "P 6@c:8", "M 6@c:3 6@c:4",
      "M 6@c:2 6@c:4", "M 6@c:1 6@c:4", "P 6@c:4", "M 6@c:3", "M 6@c:2",
      "M 6@c:1", "P",
    },
};

TEST(CapabilityNarrowing, EveryPolicyTimesEveryCapabilitySubsetIsPinned) {
  set_log_level(LogLevel::kError);
  for (size_t p = 0; p < std::size(kAllPolicies); ++p) {
    for (uint32_t bits = 0; bits < 32; ++bits) {
      EXPECT_EQ(describe_narrowing(kAllPolicies[p], CapabilitySet{bits}),
                kNarrowingTable[p][bits])
          << core::to_string(kAllPolicies[p]) << " over "
          << CapabilitySet{bits}.to_string();
    }
  }
  set_log_level(LogLevel::kInfo);
}

/// Effective policy once the device `fault` targets fails on every
/// operation and is quarantined.
core::PolicyKind policy_after_quarantine(core::PolicyKind policy,
                                         hal::FaultKind fault) {
  const sim::MachineConfig machine_cfg = sim::haswell_2650v3();
  const sim::PhaseProgram program = two_slab_program();
  sim::SimMachine machine(machine_cfg, program, /*seed=*/7);
  sim::SimPlatform inner(machine);
  hal::FaultSchedule schedule;
  schedule.add({fault, 0, 0, 0});
  hal::FaultInjectionPlatform platform(inner, schedule);
  core::ControllerConfig cfg;
  cfg.policy = policy;
  core::Controller controller(platform, cfg);
  controller.begin();
  for (int i = 0; i < 200 && !controller.any_quarantine(); ++i) {
    machine.advance(cfg.tinv_s);
    controller.tick();
  }
  EXPECT_TRUE(controller.any_quarantine()) << hal::to_string(fault);
  return controller.effective_policy();
}

core::PolicyKind policy_at_construction(core::PolicyKind policy,
                                        CapabilitySet caps) {
  const sim::MachineConfig machine_cfg = sim::haswell_2650v3();
  const sim::PhaseProgram program = two_slab_program();
  sim::SimMachine machine(machine_cfg, program, /*seed=*/7);
  sim::SimPlatform inner(machine);
  hal::CapabilityFilter platform(inner, caps);
  core::ControllerConfig cfg;
  cfg.policy = policy;
  return core::Controller(platform, cfg).effective_policy();
}

TEST(CapabilityNarrowing, RuntimeQuarantineMatchesConstructionWithoutDevice) {
  set_log_level(LogLevel::kError);
  const std::pair<hal::FaultKind, CapabilitySet> cases[] = {
      {hal::FaultKind::kCoreWriteError,
       CapabilitySet::all().without(Capability::kCoreDvfs)},
      {hal::FaultKind::kUncoreWriteError,
       CapabilitySet::all().without(Capability::kUncoreUfs)},
      {hal::FaultKind::kSensorError,
       CapabilitySet::all().without(Capability::kEnergySensor)},
  };
  for (const core::PolicyKind policy : kAllPolicies) {
    for (const auto& [fault, caps] : cases) {
      EXPECT_EQ(policy_after_quarantine(policy, fault),
                policy_at_construction(policy, caps))
          << core::to_string(policy) << " losing " << caps.to_string();
    }
  }
  set_log_level(LogLevel::kInfo);
}

}  // namespace
}  // namespace cuttlefish
