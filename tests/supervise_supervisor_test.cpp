// The supervisor's process-level fault machinery, end to end against
// real forked workers: clean-run byte identity with run_sweep, every
// deterministic crash mode (abort / kill / hang / exit), bounded-retry
// recovery, whole-run budgets, lease semantics (a crash mid-lease charges
// only the spec in flight, the per-spec deadline restarts at every
// streamed record, one clean worker is one launch), and the
// acceptance-criterion resume — a supervisor SIGKILLed mid-campaign, whose
// workers die with it and whose successor reproduces the uninterrupted
// table bit for bit.

#include "exp/supervisor.hpp"

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <thread>

#include "exp/result_cache.hpp"
#include "sim/machine_config.hpp"
#include "workloads/suite.hpp"

namespace cuttlefish::exp {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    root_ = fs::temp_directory_path() /
            ("cuttlefish_supervisor_test_" + tag + "_" +
             std::to_string(::getpid()));
    fs::remove_all(root_);
  }
  ~TempDir() { fs::remove_all(root_); }
  std::string path() const { return root_.string(); }
  fs::path journal() const { return root_ / kJournalFileName; }

 private:
  fs::path root_;
};

SweepGrid make_grid(const sim::MachineConfig& machine, int reps) {
  SweepGrid grid(machine);
  const auto& model = workloads::find_benchmark("Heat-irt");
  const int base =
      grid.add_default("Heat-irt/Default", model, RunOptions{}, reps, 700);
  grid.add_policy("Heat-irt/Cuttlefish", model, core::PolicyKind::kFull,
                  RunOptions{}, reps, 700, base);
  return grid;
}

::testing::AssertionResult tables_identical(
    const std::vector<RunResult>& a, const std::vector<RunResult>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure() << "size mismatch";
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (encode_result(a[i]) != encode_result(b[i])) {
      return ::testing::AssertionFailure() << "bytes differ at spec " << i;
    }
  }
  return ::testing::AssertionSuccess();
}

/// Fast-retry defaults so the failure tests spend their time in the
/// co-simulations, not in backoff sleeps.
SupervisorOptions fast_options() {
  SupervisorOptions opt;
  opt.max_workers = 2;
  opt.backoff_base_s = 0.01;
  opt.backoff_max_s = 0.05;
  return opt;
}

TEST(Supervisor, CleanRunIsByteIdenticalToRunSweep) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  // Two worker slots. A lease holds whole program groups (one per seed
  // here, shared by Default and Cuttlefish), so one seed is one launch
  // and two seeds are two.
  for (const int reps : {1, 2}) {
    SCOPED_TRACE(reps);
    const SweepGrid grid = make_grid(machine, reps);
    const std::vector<RunResult> oracle = run_sweep(grid);
    TempDir dir("clean" + std::to_string(reps));
    SupervisorReport report;
    const std::vector<RunResult> supervised =
        SweepSupervisor(grid, dir.path(), fast_options()).run(&report);
    EXPECT_TRUE(report.completed);
    EXPECT_TRUE(report.error.empty());
    EXPECT_EQ(report.resumed, 0u);
    EXPECT_EQ(report.executed, grid.size());
    EXPECT_EQ(report.retries, 0u);
    EXPECT_EQ(report.launches, static_cast<size_t>(reps));
    EXPECT_TRUE(report.quarantined.empty());
    EXPECT_TRUE(tables_identical(supervised, oracle));
  }
}

// One worker leases the whole grid and aborts at a middle spec on every
// attempt. The specs before it stay journaled at attempt 0, only the
// hooked spec is charged (and quarantined), and the specs after it run in
// a later lease without a charge: one launch for the sweep plus one per
// crash.
TEST(Supervisor, CrashMidLeaseIsChargedToTheSpecInFlightOnly) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  const SweepGrid grid = make_grid(machine, 3);
  const std::vector<RunResult> oracle = run_sweep(grid);
  TempDir dir("midlease");
  SupervisorOptions opt = fast_options();
  opt.max_workers = 1;
  opt.max_attempts = 3;
  opt.crash.spec_index = 2;
  opt.crash.mode = CrashMode::kAbort;
  SupervisorReport report;
  const std::vector<RunResult> supervised =
      SweepSupervisor(grid, dir.path(), opt).run(&report);

  EXPECT_TRUE(report.completed);
  ASSERT_EQ(report.quarantined.size(), 1u);
  EXPECT_EQ(report.quarantined[0].spec_index, 2u);
  EXPECT_EQ(report.quarantined[0].attempts, 3u);
  EXPECT_EQ(report.quarantined[0].term_signal, SIGABRT);
  EXPECT_EQ(report.retries, 2u);
  EXPECT_EQ(report.executed, grid.size() - 1);
  EXPECT_EQ(report.launches, 1u + 3u);

  const JournalStatus status = read_journal_status(dir.path());
  ASSERT_TRUE(status.valid) << status.error;
  EXPECT_EQ(status.done, grid.size() - 1);
  EXPECT_EQ(status.retried, 0u);  // every journaled spec ran at attempt 0

  ASSERT_EQ(supervised.size(), oracle.size());
  for (size_t i = 0; i < oracle.size(); ++i) {
    if (i == 2) continue;
    EXPECT_EQ(encode_result(supervised[i]), encode_result(oracle[i]))
        << "spec " << i;
  }
  EXPECT_EQ(encode_result(supervised[2]), encode_result(RunResult{}));
}

// A lease that runs longer than spec_timeout_s, made of specs that each
// finish well inside it, completes with no timeout: the budget restarts
// at every record the worker streams. One clean worker is one launch.
TEST(Supervisor, SpecDeadlineRestartsAtEveryRecord) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  const auto seconds_since = [](std::chrono::steady_clock::time_point t) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t)
        .count();
  };
  // A 1 s budget outlasts any plausible scheduler stall of one spec (also
  // under sanitizers and a loaded `ctest -j`). Size the grid from a probe
  // so that it takes about 2.5 budgets in-process on this build and host.
  // The probe is only a first guess — host load can make the lease
  // faster than it said — so a lease that ends inside one budget proves
  // nothing and the grid grows and reruns, up to kMaxRuns runs.
  SupervisorOptions opt = fast_options();
  opt.max_workers = 1;
  opt.spec_timeout_s = 1.0;
  constexpr int kProbeReps = 50;
  constexpr int kMaxReps = 20000;
  constexpr int kMaxRuns = 4;
  const auto t0 = std::chrono::steady_clock::now();
  run_sweep(make_grid(machine, kProbeReps));
  const double rep_s = seconds_since(t0) / kProbeReps;
  int reps = static_cast<int>(std::min<double>(
      kMaxReps,
      std::ceil(2.5 * opt.spec_timeout_s / std::max(rep_s, 1e-6))));
  double lease_s = 0.0;
  for (int run = 0; run < kMaxRuns; ++run) {
    SCOPED_TRACE(::testing::Message()
                 << "run " << run << ": rep_s " << rep_s << ", reps "
                 << reps);
    const SweepGrid grid = make_grid(machine, reps);
    const std::vector<RunResult> oracle = run_sweep(grid);
    TempDir dir("deadline" + std::to_string(run));
    SupervisorReport report;
    const auto t1 = std::chrono::steady_clock::now();
    const std::vector<RunResult> supervised =
        SweepSupervisor(grid, dir.path(), opt).run(&report);
    lease_s = seconds_since(t1);
    EXPECT_TRUE(report.completed) << "lease_s " << lease_s;
    EXPECT_TRUE(report.quarantined.empty()) << "lease_s " << lease_s;
    EXPECT_EQ(report.retries, 0u)
        << "a spec timed out or crashed; lease_s " << lease_s;
    EXPECT_EQ(report.launches, 1u) << "lease_s " << lease_s;
    EXPECT_TRUE(tables_identical(supervised, oracle)) << "lease_s "
                                                      << lease_s;
    if (lease_s > opt.spec_timeout_s || reps >= kMaxReps) break;
    // Aim the next grid at 2.5 budgets by this lease's own pace.
    reps = static_cast<int>(std::min<double>(
        kMaxReps, std::ceil(reps * std::max(2.0, 2.5 * opt.spec_timeout_s /
                                                     std::max(lease_s, 1e-6)))));
  }
  ASSERT_GT(lease_s, opt.spec_timeout_s)
      << "the lease must outlive one spec budget for the test to mean "
         "anything: rep_s "
      << rep_s << ", reps " << reps << ", lease_s " << lease_s;
}

TEST(Supervisor, PoisonSpecIsQuarantinedAfterKAttempts) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  const SweepGrid grid = make_grid(machine, 2);
  const std::vector<RunResult> oracle = run_sweep(grid);
  TempDir dir("poison");
  SupervisorOptions opt = fast_options();
  opt.max_attempts = 3;
  opt.crash.spec_index = 2;
  opt.crash.mode = CrashMode::kAbort;  // every attempt: true poison
  SupervisorReport report;
  const std::vector<RunResult> supervised =
      SweepSupervisor(grid, dir.path(), opt).run(&report);

  // The sweep completed *around* the poison spec.
  EXPECT_TRUE(report.completed);
  ASSERT_EQ(report.quarantined.size(), 1u);
  EXPECT_EQ(report.quarantined[0].spec_index, 2u);
  EXPECT_EQ(report.quarantined[0].attempts, 3u);
  EXPECT_EQ(report.quarantined[0].term_signal, SIGABRT);
  EXPECT_FALSE(report.quarantined[0].timed_out);
  EXPECT_EQ(report.executed, grid.size() - 1);

  // Every healthy cell matches the oracle; the poison cell is empty.
  ASSERT_EQ(supervised.size(), oracle.size());
  for (size_t i = 0; i < oracle.size(); ++i) {
    if (i == 2) continue;
    EXPECT_EQ(encode_result(supervised[i]), encode_result(oracle[i]))
        << "spec " << i;
  }
  EXPECT_EQ(encode_result(supervised[2]), encode_result(RunResult{}));
}

TEST(Supervisor, ExitModeRecordsTheWorkersExitStatus) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  const SweepGrid grid = make_grid(machine, 1);
  TempDir dir("exitmode");
  SupervisorOptions opt = fast_options();
  opt.max_attempts = 2;
  opt.crash.spec_index = 1;
  opt.crash.mode = CrashMode::kExit;
  SupervisorReport report;
  SweepSupervisor(grid, dir.path(), opt).run(&report);
  EXPECT_TRUE(report.completed);
  ASSERT_EQ(report.quarantined.size(), 1u);
  EXPECT_EQ(report.quarantined[0].exit_status, 41);
  EXPECT_EQ(report.quarantined[0].term_signal, 0);
  EXPECT_FALSE(report.quarantined[0].timed_out);
}

TEST(Supervisor, HangingWorkerDiesToThePerSpecDeadline) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  const SweepGrid grid = make_grid(machine, 1);
  TempDir dir("hang");
  SupervisorOptions opt = fast_options();
  opt.max_attempts = 2;
  opt.spec_timeout_s = 0.3;
  opt.crash.spec_index = 0;
  opt.crash.mode = CrashMode::kHang;
  SupervisorReport report;
  SweepSupervisor(grid, dir.path(), opt).run(&report);
  EXPECT_TRUE(report.completed);
  ASSERT_EQ(report.quarantined.size(), 1u);
  EXPECT_EQ(report.quarantined[0].spec_index, 0u);
  EXPECT_TRUE(report.quarantined[0].timed_out);
  EXPECT_EQ(report.quarantined[0].term_signal, SIGKILL);
}

TEST(Supervisor, TransientCrashIsRetriedToFullIdentity) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  const SweepGrid grid = make_grid(machine, 2);
  const std::vector<RunResult> oracle = run_sweep(grid);
  TempDir dir("transient");
  SupervisorOptions opt = fast_options();
  opt.max_attempts = 3;
  opt.crash.spec_index = 1;
  opt.crash.mode = CrashMode::kKill;
  opt.crash.times = 1;  // only the first attempt crashes: a flake
  SupervisorReport report;
  const std::vector<RunResult> supervised =
      SweepSupervisor(grid, dir.path(), opt).run(&report);
  EXPECT_TRUE(report.completed);
  EXPECT_TRUE(report.quarantined.empty());
  EXPECT_GE(report.retries, 1u);
  EXPECT_TRUE(tables_identical(supervised, oracle));
}

TEST(Supervisor, WholeRunBudgetLeavesAResumableJournal) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  const SweepGrid grid = make_grid(machine, 2);
  const std::vector<RunResult> oracle = run_sweep(grid);
  TempDir dir("budget");
  {
    SupervisorOptions opt = fast_options();
    opt.max_workers = 1;
    opt.total_timeout_s = 0.4;
    opt.crash.spec_index = 0;
    opt.crash.mode = CrashMode::kHang;  // wedge the first worker
    SupervisorReport report;
    const std::vector<RunResult> partial =
        SweepSupervisor(grid, dir.path(), opt).run(&report);
    EXPECT_FALSE(report.completed);
    EXPECT_TRUE(report.error.empty());  // budget overrun is not an error
    EXPECT_FALSE(report.unfinished.empty());
    EXPECT_EQ(partial.size(), grid.size());
  }
  // The hang has "healed": a plain resume finishes the campaign.
  SupervisorReport report;
  const std::vector<RunResult> resumed =
      SweepSupervisor(grid, dir.path(), fast_options()).run(&report);
  EXPECT_TRUE(report.completed);
  EXPECT_TRUE(tables_identical(resumed, oracle));
}

// The acceptance criterion: SIGKILL the *supervisor itself* mid-run,
// then resume in a fresh process and require the merged table to be
// byte-identical to an uninterrupted run. The doomed supervisor runs in
// a fork whose last spec hangs, so the kill always lands with every other
// spec journaled and its worker alive; that worker must die with it.
TEST(Supervisor, ResumeAfterSupervisorSigkillIsByteIdentical) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  const SweepGrid grid = make_grid(machine, 3);
  const std::vector<RunResult> oracle = run_sweep(grid);
  TempDir dir("sigkill");

  // The doomed supervisor's orphans are re-parented to this process, so
  // the test can reap them and see how they died.
  ASSERT_EQ(::prctl(PR_SET_CHILD_SUBREAPER, 1), 0);
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    SupervisorOptions opt;
    opt.max_workers = 1;
    opt.spec_timeout_s = 600;  // the hang outlasts the test
    opt.crash.spec_index = static_cast<int64_t>(grid.size()) - 1;
    opt.crash.mode = CrashMode::kHang;
    SweepSupervisor(grid, dir.path(), opt).run(nullptr);
    ::_exit(0);
  }

  // Wait for every spec but the hung one to be journaled, then SIGKILL
  // the supervisor.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  bool journaled = false;
  while (!journaled && std::chrono::steady_clock::now() < deadline) {
    journaled = read_journal_status(dir.path()).done == grid.size() - 1;
    if (!journaled) std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ::kill(child, SIGKILL);
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(journaled) << "doomed supervisor never reached its last spec";

  // Its hung worker dies with it (SIGKILL), leaving no descendant behind.
  size_t orphans = 0;
  bool all_gone = false;
  const auto reap_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < reap_deadline) {
    const pid_t r = ::waitpid(-1, &status, WNOHANG);
    if (r > 0) {
      ++orphans;
      EXPECT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);
      continue;
    }
    if (r < 0 && errno == ECHILD) {
      all_gone = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ::prctl(PR_SET_CHILD_SUBREAPER, 0);
  ASSERT_TRUE(all_gone) << "a worker outlived its SIGKILLed supervisor";
  EXPECT_EQ(orphans, 1u);

  SupervisorReport report;
  const std::vector<RunResult> resumed =
      SweepSupervisor(grid, dir.path(), fast_options()).run(&report);
  EXPECT_TRUE(report.completed);
  EXPECT_TRUE(report.error.empty());
  EXPECT_EQ(report.resumed, grid.size() - 1);
  EXPECT_EQ(report.executed, 1u);
  EXPECT_EQ(report.resumed + report.executed, grid.size());
  EXPECT_TRUE(report.quarantined.empty());
  EXPECT_TRUE(tables_identical(resumed, oracle));
}

}  // namespace
}  // namespace cuttlefish::exp
