// google-benchmark microbenchmarks for the runtime-overhead claims: the
// Cuttlefish daemon must be lightweight (one tick every 20 ms), and the
// substrate runtimes must have low per-task overheads.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <utility>

#include "core/controller.hpp"
#include "core/explorer.hpp"
#include "core/tipi_list.hpp"
#include "hal/fault_injection.hpp"
#include "hal/health.hpp"
#include "hal/platform.hpp"
#include "runtime/deque.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/scheduler.hpp"
#include "sim/machine_config.hpp"
#include "sim/sim_machine.hpp"
#include "sim/sim_platform.hpp"

namespace {

using namespace cuttlefish;

// --- controller tick ------------------------------------------------------

void BM_ControllerTickSteadyState(benchmark::State& state) {
  const sim::MachineConfig cfg = sim::haswell_2650v3();
  sim::PhaseProgram program;
  program.add(1e18, 0.8, 0.066);
  sim::SimMachine machine(cfg, program);
  sim::SimPlatform platform(machine);
  core::Controller controller(platform, core::ControllerConfig{});
  controller.begin();
  // Drive to steady state first.
  for (int i = 0; i < 1000; ++i) {
    machine.advance(0.02);
    controller.tick();
  }
  for (auto _ : state) {
    machine.advance(0.02);
    controller.tick();
  }
  state.SetLabel("one Tinv tick incl. simulated sensor read");
}
BENCHMARK(BM_ControllerTickSteadyState);

void BM_ControllerTickExploring(benchmark::State& state) {
  const sim::MachineConfig cfg = sim::haswell_2650v3();
  sim::PhaseProgram program;
  program.add(1e18, 0.8, 0.066);
  sim::SimMachine machine(cfg, program);
  sim::SimPlatform platform(machine);
  core::Controller controller(platform, core::ControllerConfig{});
  controller.begin();
  for (auto _ : state) {
    machine.advance(0.02);
    controller.tick();
  }
}
BENCHMARK(BM_ControllerTickExploring);

// --- TIPI list -------------------------------------------------------------

void BM_TipiListInsert(benchmark::State& state) {
  for (auto _ : state) {
    core::SortedTipiList list;
    for (int64_t s = 0; s < state.range(0); ++s) {
      benchmark::DoNotOptimize(list.insert((s * 37) % 997));
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TipiListInsert)->Arg(60);

void BM_TipiListFind(benchmark::State& state) {
  core::SortedTipiList list;
  for (int64_t s = 0; s < 60; ++s) list.insert(s);
  int64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(list.find(i++ % 60));
  }
  state.SetLabel("cycling keys: every lookup misses the MRU cache");
}
BENCHMARK(BM_TipiListFind);

void BM_TipiListFindRepeated(benchmark::State& state) {
  // The controller's actual access pattern: consecutive Tinv intervals
  // overwhelmingly look up the same slab (Table 1's frequent ranges), so
  // the MRU last-hit cache answers with one compare.
  core::SortedTipiList list;
  for (int64_t s = 0; s < 60; ++s) list.insert(s);
  for (auto _ : state) {
    benchmark::DoNotOptimize(list.find(42));
  }
  state.SetLabel("repeated key: MRU last-hit cache path");
}
BENCHMARK(BM_TipiListFindRepeated);

// --- explorer --------------------------------------------------------------

void BM_ExplorerStep(benchmark::State& state) {
  const FreqLadder ladder = haswell_uncore_ladder();
  core::FrequencyExplorer ex(ladder, 2);
  core::DomainState st;
  st.lb = 0;
  st.rb = ladder.max_level();
  st.window_set = true;
  st.jpi = std::make_unique<core::JpiTable>(ladder.levels(), 1000000000);
  Level current = st.rb;
  for (auto _ : state) {
    const auto res = ex.step(st, 1.0, current, true);
    current = res.next;
    benchmark::DoNotOptimize(current);
  }
}
BENCHMARK(BM_ExplorerStep);

// --- work-stealing deque -----------------------------------------------------

void BM_DequePushPop(benchmark::State& state) {
  runtime::ChaseLevDeque<int*> deque;
  int item = 0;
  int* out = nullptr;
  for (auto _ : state) {
    deque.push(&item);
    benchmark::DoNotOptimize(deque.pop(out));
  }
}
BENCHMARK(BM_DequePushPop);

// --- schedulers --------------------------------------------------------------

void BM_SchedulerAsyncFinish(benchmark::State& state) {
  runtime::TaskScheduler rt(4);
  const int tasks = static_cast<int>(state.range(0));
  for (auto _ : state) {
    rt.finish([&] {
      for (int i = 0; i < tasks; ++i) rt.async([] {});
    });
  }
  state.SetItemsProcessed(state.iterations() * tasks);
}
BENCHMARK(BM_SchedulerAsyncFinish)->Arg(1000);

void BM_ParallelForStatic(benchmark::State& state) {
  runtime::ThreadPool pool(4);
  std::vector<double> data(65536, 1.0);
  for (auto _ : state) {
    runtime::parallel_for_blocked(
        pool, 0, static_cast<int64_t>(data.size()),
        [&](int64_t lo, int64_t hi) {
          for (int64_t i = lo; i < hi; ++i) {
            data[static_cast<size_t>(i)] *= 1.0000001;
          }
        });
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(data.size()));
}
BENCHMARK(BM_ParallelForStatic);

// --- simulator ---------------------------------------------------------------

void BM_SimMachineAdvanceQuantum(benchmark::State& state) {
  const sim::MachineConfig cfg = sim::haswell_2650v3();
  sim::PhaseProgram program;
  program.add(1e18, 0.8, 0.066);
  sim::SimMachine machine(cfg, program);
  for (auto _ : state) {
    benchmark::DoNotOptimize(machine.advance(0.02));
  }
}
BENCHMARK(BM_SimMachineAdvanceQuantum);

// --- fault machinery ---------------------------------------------------------

void BM_DeviceHealthRecordSuccess(benchmark::State& state) {
  // The per-tick bookkeeping the health tracker adds on the sensor path
  // of a healthy device — the common case that must stay free.
  hal::DeviceHealth health{hal::RetryPolicy{}};
  uint64_t tick = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(health.record_success(++tick));
  }
}
BENCHMARK(BM_DeviceHealthRecordSuccess);

void BM_ControllerTickFaultWrapped(benchmark::State& state) {
  // Steady-state tick through a FaultInjectionPlatform with an empty
  // schedule: the full outcome plumbing + decorator, zero faults firing.
  // Compare against BM_ControllerTickSteadyState for the added cost.
  const sim::MachineConfig cfg = sim::haswell_2650v3();
  sim::PhaseProgram program;
  program.add(1e18, 0.8, 0.066);
  sim::SimMachine machine(cfg, program);
  sim::SimPlatform platform(machine);
  hal::FaultInjectionPlatform faulty(platform, hal::FaultSchedule{});
  core::Controller controller(faulty, core::ControllerConfig{});
  controller.begin();
  for (int i = 0; i < 1000; ++i) {
    machine.advance(0.02);
    controller.tick();
  }
  for (auto _ : state) {
    machine.advance(0.02);
    controller.tick();
  }
  state.SetLabel("empty fault schedule: outcome plumbing only");
}
BENCHMARK(BM_ControllerTickFaultWrapped);

// --- CF_BENCH_GATE: fault machinery stays in the noise floor ----------------

/// Steady-state ticks/s of a controller over `platform`, measured after a
/// 1000-tick warm-up.
double measure_ticks_per_s(hal::PlatformInterface& platform,
                           sim::SimMachine& machine) {
  core::Controller controller(platform, core::ControllerConfig{});
  controller.begin();
  for (int i = 0; i < 1000; ++i) {
    machine.advance(0.02);
    controller.tick();
  }
  constexpr int kTicks = 50000;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kTicks; ++i) {
    machine.advance(0.02);
    controller.tick();
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return kTicks / wall;
}

/// Plain vs transient-schedule steady-state ticks/s, each the best of
/// five fresh-machine runs taken alternately, so host noise (one run is
/// ~5 ms) hits both sides alike.
std::pair<double, double> measure_transient_overhead(
    const sim::MachineConfig& cfg, const sim::PhaseProgram& program) {
  double plain_best = 0.0;
  double transient_best = 0.0;
  for (int round = 0; round < 5; ++round) {
    sim::SimMachine plain_machine(cfg, program);
    sim::SimPlatform plain(plain_machine);
    plain_best =
        std::max(plain_best, measure_ticks_per_s(plain, plain_machine));
    sim::SimMachine machine(cfg, program);
    sim::SimPlatform base(machine);
    hal::FaultInjectionPlatform transient(
        base, hal::FaultSchedule::transient_only(11));
    transient_best =
        std::max(transient_best, measure_ticks_per_s(transient, machine));
  }
  return {plain_best, transient_best};
}

/// The paper's "for free" claim, made fatal: the error-aware HAL contract
/// plus health tracking may not slow the steady-state tick by more than
/// 50% even through the fault-injection decorator (in practice the two
/// are within noise of each other; 1.5x absorbs shared-CI jitter). Gated
/// twice: with an empty schedule (outcome plumbing only) and with the
/// seeded transient schedule, whose windows the decorator must step over
/// at O(1) per op, not by scanning the schedule.
int run_overhead_gate() {
  const sim::MachineConfig cfg = sim::haswell_2650v3();
  sim::PhaseProgram program;
  program.add(1e18, 0.8, 0.066);

  sim::SimMachine plain_machine(cfg, program);
  sim::SimPlatform plain(plain_machine);
  const double plain_tps = measure_ticks_per_s(plain, plain_machine);

  sim::SimMachine wrapped_machine(cfg, program);
  sim::SimPlatform wrapped_base(wrapped_machine);
  hal::FaultInjectionPlatform wrapped(wrapped_base, hal::FaultSchedule{});
  const double wrapped_tps = measure_ticks_per_s(wrapped, wrapped_machine);

  const double ratio = plain_tps / wrapped_tps;
  std::printf("fault-machinery overhead: plain %.0f ticks/s, "
              "fault-wrapped %.0f ticks/s -> %.3fx slowdown\n",
              plain_tps, wrapped_tps, ratio);
  const auto [best_plain_tps, transient_tps] =
      measure_transient_overhead(cfg, program);
  const double transient_ratio = best_plain_tps / transient_tps;
  std::printf("transient-schedule overhead: plain %.0f ticks/s, "
              "transient_only(11) %.0f ticks/s -> %.3fx slowdown "
              "(best of 5 each)\n",
              best_plain_tps, transient_tps, transient_ratio);
  if (std::getenv("CF_BENCH_GATE") == nullptr) return 0;
  int rc = 0;
  if (ratio > 1.5) {
    std::fprintf(stderr,
                 "FAIL: fault machinery costs %.3fx (> 1.5x gate) on the "
                 "steady-state tick\n",
                 ratio);
    rc = 1;
  }
  if (transient_ratio > 1.5) {
    std::fprintf(stderr,
                 "FAIL: a transient fault schedule costs %.3fx (> 1.5x "
                 "gate) on the steady-state tick\n",
                 transient_ratio);
    rc = 1;
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return run_overhead_gate();
}
