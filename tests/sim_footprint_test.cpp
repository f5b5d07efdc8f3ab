// SimMachine's memory footprint per operating point. Jittered suite
// models make almost every segment a distinct op, so whatever the machine
// allocates per op it allocates for nearly every segment, on every
// calibration iteration and every run. The rate rows must therefore stay
// small and independent of the ladder grid: under 1 KiB per op on the
// Haswell ladders, where a full (CF, UF) grid of rates would take several
// KiB. Measured by replacing the global operator new with a byte-counting
// version, like runtime_churn_test does.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "sim/machine_config.hpp"
#include "sim/phase_workload.hpp"
#include "sim/sim_machine.hpp"

namespace {

std::atomic<uint64_t> g_bytes{0};

}  // namespace

// Counting replacements for the global allocation functions. Sized/aligned
// variants all funnel through these four.
void* operator new(size_t size) {
  g_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(size_t size, std::align_val_t align) {
  g_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<size_t>(align), size)) {
    return p;
  }
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace cuttlefish::sim {
namespace {

TEST(SimFootprint, UnderOneKibPerDistinctOp) {
  constexpr int kOps = 1000;
  const MachineConfig cfg = haswell_2650v3();
  PhaseProgram program;
  for (int i = 0; i < kOps; ++i) program.add(2e7, 1.0, 0.001 + 1e-4 * i);
  ASSERT_EQ(program.ops().size(), static_cast<size_t>(kOps));

  const uint64_t before = g_bytes.load();
  {
    SimMachine machine(cfg, program, 1);
    // Walk the ladders as the run goes, so rows see many (CF, UF) points.
    int step = 0;
    while (!machine.workload_done()) {
      const int cf = step % cfg.core_ladder.levels();
      const int uf = (step / 3) % cfg.uncore_ladder.levels();
      machine.set_core_frequency(cfg.core_ladder.at(cf));
      machine.set_uncore_frequency(cfg.uncore_ladder.at(uf));
      machine.advance(1e-4);
      ++step;
    }
    // Each segment is non-empty, so finishing the run touched every op.
    EXPECT_GT(machine.instructions_retired(), 0u);
  }
  const double per_op =
      static_cast<double>(g_bytes.load() - before) / kOps;
  RecordProperty("bytes_per_op", static_cast<int>(per_op));
  EXPECT_LT(per_op, 1024.0) << "SimMachine allocated " << per_op
                            << " bytes per distinct op";
}

}  // namespace
}  // namespace cuttlefish::sim
