// The supervisor's on-disk surfaces: crash-directive parsing, grid
// identity, the append-only run journal, the quarantine manifest and the
// fleet protocol over journals (shard legs + merge) — exercised through
// the public API (run / read_journal_status / append_shard_journal /
// merge_journals) plus direct byte-level corruption of the files, the
// way a torn disk or a stray writer would produce them.

#include "exp/supervisor.hpp"

#include <gtest/gtest.h>
#include <signal.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>

#include "exp/blob.hpp"
#include "exp/record_log.hpp"
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
            ("cuttlefish_supervise_test_" + tag + "_" +
             std::to_string(::getpid()));
    fs::remove_all(root_);
  }
  ~TempDir() { fs::remove_all(root_); }
  std::string path() const { return root_.string(); }
  std::string journal() const {
    return (root_ / kJournalFileName).string();
  }
  std::string manifest() const {
    return (root_ / kQuarantineFileName).string();
  }

 private:
  fs::path root_;
};

/// Tiny but real grid: one baseline point and one paired policy point,
/// `reps` seeds each — co-simulation milliseconds, not minutes.
SweepGrid make_grid(const sim::MachineConfig& machine, int reps,
                    uint64_t seed0 = 900) {
  SweepGrid grid(machine);
  const auto& model = workloads::find_benchmark("SOR-irt");
  const int base =
      grid.add_default("SOR-irt/Default", model, RunOptions{}, reps, seed0);
  grid.add_policy("SOR-irt/Cuttlefish", model, core::PolicyKind::kFull,
                  RunOptions{}, reps, seed0, base);
  return grid;
}

bool tables_identical(const std::vector<RunResult>& a,
                      const std::vector<RunResult>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (encode_result(a[i]) != encode_result(b[i])) return false;
  }
  return true;
}

/// Flip one byte at `offset` (negative: from the end) — the bit-rot /
/// torn-write shape the checksums must catch.
void corrupt_byte(const std::string& path, int64_t offset) {
  std::string data;
  {
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.is_open());
    data.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  const size_t pos = static_cast<size_t>(
      offset >= 0 ? offset : static_cast<int64_t>(data.size()) + offset);
  ASSERT_LT(pos, data.size());
  data[pos] = static_cast<char>(data[pos] ^ 0x5a);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
}

TEST(CrashSpecParse, AcceptsEveryModeAndOptionalTimes) {
  std::string error;
  auto spec = parse_crash_spec("7:abort", &error);
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->spec_index, 7);
  EXPECT_EQ(spec->mode, CrashMode::kAbort);
  EXPECT_EQ(spec->times, -1);
  EXPECT_TRUE(spec->enabled());

  spec = parse_crash_spec("0:kill", &error);
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->spec_index, 0);
  EXPECT_EQ(spec->mode, CrashMode::kKill);

  spec = parse_crash_spec("3:hang", &error);
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->mode, CrashMode::kHang);

  spec = parse_crash_spec("12:exit:2", &error);
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->spec_index, 12);
  EXPECT_EQ(spec->mode, CrashMode::kExit);
  EXPECT_EQ(spec->times, 2);
}

TEST(CrashSpecParse, RejectsEveryMalformedField) {
  for (const char* bad :
       {"", "abort", ":abort", "x:abort", "7:", "7:boom", "7:abort:0",
        "7:abort:-1", "7:abort:x", "1.5:abort"}) {
    std::string error;
    EXPECT_FALSE(parse_crash_spec(bad, &error).has_value()) << bad;
    EXPECT_NE(error.find("expects"), std::string::npos) << bad;
  }
}

TEST(GridDigest, TracksEverySpecByte) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  const SweepGrid a = make_grid(machine, 2);
  const SweepGrid b = make_grid(machine, 2);
  EXPECT_EQ(grid_digest(a), grid_digest(b));
  // A different replicate count or seed base is a different campaign.
  EXPECT_NE(grid_digest(a), grid_digest(make_grid(machine, 3)));
  EXPECT_NE(grid_digest(a), grid_digest(make_grid(machine, 2, 901)));
}

TEST(Journal, StatusReflectsACompletedRun) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  const SweepGrid grid = make_grid(machine, 2);
  TempDir dir("status");
  SweepSupervisor supervisor(grid, dir.path());
  SupervisorReport report;
  supervisor.run(&report);
  ASSERT_TRUE(report.completed);

  const JournalStatus status = read_journal_status(dir.path());
  EXPECT_TRUE(status.journal_present);
  EXPECT_TRUE(status.valid);
  EXPECT_EQ(status.grid, grid_digest(grid));
  EXPECT_EQ(status.grid_size, grid.size());
  EXPECT_EQ(status.done, grid.size());
  EXPECT_EQ(status.retried, 0u);
  EXPECT_EQ(status.dropped_bytes, 0u);
  EXPECT_TRUE(status.quarantined.empty());
}

TEST(Journal, TornTailIsDroppedAndResumeRepairsIt) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  const SweepGrid grid = make_grid(machine, 2);
  const std::vector<RunResult> oracle = run_sweep(grid);
  TempDir dir("torn");
  {
    SupervisorReport report;
    SweepSupervisor(grid, dir.path()).run(&report);
    ASSERT_TRUE(report.completed);
  }

  // A torn append: the file gains garbage that never completed a record.
  {
    std::ofstream f(dir.journal(),
                    std::ios::binary | std::ios::app);
    f.write("torn-partial-record", 19);
  }
  JournalStatus status = read_journal_status(dir.path());
  EXPECT_TRUE(status.valid);
  EXPECT_EQ(status.done, grid.size());  // records before the tear survive
  EXPECT_EQ(status.dropped_bytes, 19u);

  // Resume truncates the tear and serves everything from the journal —
  // byte-identical to a serial run, nothing re-simulated.
  SupervisorReport report;
  const std::vector<RunResult> resumed =
      SweepSupervisor(grid, dir.path()).run(&report);
  EXPECT_TRUE(report.completed);
  EXPECT_EQ(report.resumed, grid.size());
  EXPECT_EQ(report.executed, 0u);
  EXPECT_TRUE(tables_identical(resumed, oracle));
  EXPECT_EQ(read_journal_status(dir.path()).dropped_bytes, 0u);
}

TEST(Journal, TruncatedRecordCostsOnlyItsSpec) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  const SweepGrid grid = make_grid(machine, 2);
  const std::vector<RunResult> oracle = run_sweep(grid);
  TempDir dir("midrec");
  {
    SupervisorReport report;
    SweepSupervisor(grid, dir.path()).run(&report);
    ASSERT_TRUE(report.completed);
  }
  // Cut into the last record's trailing checksum: that record must be
  // rejected, every earlier one kept.
  fs::resize_file(dir.journal(), fs::file_size(dir.journal()) - 5);
  const JournalStatus status = read_journal_status(dir.path());
  EXPECT_TRUE(status.valid);
  EXPECT_EQ(status.done, grid.size() - 1);
  EXPECT_GT(status.dropped_bytes, 0u);

  SupervisorReport report;
  const std::vector<RunResult> resumed =
      SweepSupervisor(grid, dir.path()).run(&report);
  EXPECT_TRUE(report.completed);
  EXPECT_EQ(report.resumed, grid.size() - 1);
  EXPECT_EQ(report.executed, 1u);
  EXPECT_TRUE(tables_identical(resumed, oracle));
}

TEST(Journal, RefusesAJournalFromADifferentGrid) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  TempDir dir("wronggrid");
  {
    SupervisorReport report;
    SweepSupervisor(make_grid(machine, 2), dir.path()).run(&report);
    ASSERT_TRUE(report.completed);
  }
  const SweepGrid other = make_grid(machine, 3);
  SupervisorReport report;
  const std::vector<RunResult> results =
      SweepSupervisor(other, dir.path()).run(&report);
  EXPECT_TRUE(results.empty());
  EXPECT_NE(report.error.find("different grid"), std::string::npos)
      << report.error;
  // Both digests are named so the operator can tell which flag drifted.
  EXPECT_NE(report.error.find(grid_digest(other).hex()), std::string::npos);
  EXPECT_NE(report.error.find(grid_digest(make_grid(machine, 2)).hex()),
            std::string::npos);
}

TEST(Journal, CorruptHeaderIsRefusedNotTrusted) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  const SweepGrid grid = make_grid(machine, 1);
  TempDir dir("hdr");
  {
    SupervisorReport report;
    SweepSupervisor(grid, dir.path()).run(&report);
    ASSERT_TRUE(report.completed);
  }
  corrupt_byte(dir.journal(), 12);  // inside the grid-digest field
  const JournalStatus status = read_journal_status(dir.path());
  EXPECT_TRUE(status.journal_present);
  EXPECT_FALSE(status.valid);
  EXPECT_NE(status.error.find("checksum"), std::string::npos)
      << status.error;

  SupervisorReport report;
  EXPECT_TRUE(SweepSupervisor(grid, dir.path()).run(&report).empty());
  EXPECT_FALSE(report.error.empty());
}

TEST(Journal, UndecodablePayloadCountsNowhere) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  const SweepGrid grid = make_grid(machine, 2);
  const std::vector<RunResult> oracle = run_sweep(grid);
  TempDir dir("undecodable");
  {
    SupervisorReport report;
    SweepSupervisor(grid, dir.path()).run(&report);
    ASSERT_TRUE(report.completed);
  }
  // Replace the last spec's record with one whose checksum holds but
  // whose result payload does not decode.
  const LogScan scan = scan_log(dir.journal(), LogKind::kJournal, 32);
  ASSERT_TRUE(scan.valid);
  ASSERT_EQ(scan.records.size(), grid.size());
  BlobWriter payload;
  payload.u64(grid.size() - 1);
  payload.u32(0);
  payload.bytes("not a result", 12);
  ASSERT_TRUE(LogAppender(dir.journal(), scan.records.back().offset - 4)
                  .append(payload.data()));

  // Status and resume replay the journal the same way: the record counts
  // as done in neither, and the spec re-runs.
  const JournalStatus status = read_journal_status(dir.path());
  EXPECT_EQ(status.dropped_bytes, 0u);
  EXPECT_EQ(status.done, grid.size() - 1);
  SupervisorReport report;
  const std::vector<RunResult> resumed =
      SweepSupervisor(grid, dir.path()).run(&report);
  EXPECT_EQ(status.done, report.resumed);
  EXPECT_EQ(report.executed, 1u);
  EXPECT_TRUE(tables_identical(resumed, oracle));
}

TEST(Journal, OldVersionIsRejectedByVersionNeverDecoded) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  const SweepGrid grid = make_grid(machine, 1);
  TempDir dir("oldversion");
  fs::create_directories(dir.path());
  {
    // A version-1 journal began with the same tag, then version 1.
    BlobWriter old;
    old.u32(static_cast<uint32_t>(LogKind::kJournal));
    old.u32(1);
    old.bytes(std::string(64, '\x11').data(), 64);
    std::ofstream out(dir.journal(), std::ios::binary);
    out.write(old.data().data(), static_cast<std::streamsize>(old.size()));
  }
  const JournalStatus status = read_journal_status(dir.path());
  EXPECT_TRUE(status.journal_present);
  EXPECT_FALSE(status.valid);
  EXPECT_NE(status.error.find("version 1"), std::string::npos)
      << status.error;
  SupervisorReport report;
  EXPECT_TRUE(SweepSupervisor(grid, dir.path()).run(&report).empty());
  EXPECT_NE(report.error.find("version 1"), std::string::npos)
      << report.error;
}

TEST(Manifest, RecordsPoisonAndSurvivesStatusReads) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  const SweepGrid grid = make_grid(machine, 2);
  TempDir dir("manifest");
  SupervisorOptions opt;
  opt.max_attempts = 2;
  opt.backoff_base_s = 0.01;
  opt.crash.spec_index = 1;
  opt.crash.mode = CrashMode::kAbort;
  SupervisorReport report;
  SweepSupervisor(grid, dir.path(), opt).run(&report);
  ASSERT_TRUE(report.completed);
  ASSERT_EQ(report.quarantined.size(), 1u);
  EXPECT_EQ(report.quarantined[0].spec_index, 1u);
  EXPECT_EQ(report.quarantined[0].attempts, 2u);
  EXPECT_EQ(report.quarantined[0].term_signal, SIGABRT);

  const JournalStatus status = read_journal_status(dir.path());
  ASSERT_EQ(status.quarantined.size(), 1u);
  EXPECT_EQ(status.quarantined[0].spec_index, 1u);
  EXPECT_EQ(status.quarantined[0].term_signal, SIGABRT);
}

TEST(Manifest, CorruptManifestDegradesToReattempt) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  const SweepGrid grid = make_grid(machine, 2);
  const std::vector<RunResult> oracle = run_sweep(grid);
  TempDir dir("manifest-corrupt");
  {
    SupervisorOptions opt;
    opt.max_attempts = 2;
    opt.backoff_base_s = 0.01;
    opt.crash.spec_index = 1;
    opt.crash.mode = CrashMode::kAbort;
    SupervisorReport report;
    SweepSupervisor(grid, dir.path(), opt).run(&report);
    ASSERT_TRUE(report.completed);
    ASSERT_EQ(report.quarantined.size(), 1u);
  }
  corrupt_byte(dir.manifest(), -3);
  // A torn manifest is ignored (with a warning), not trusted: the status
  // report shows no quarantine, and a resume — here with the crash hook
  // off, the flake having "healed" — re-attempts the spec and completes
  // the full table.
  EXPECT_TRUE(read_journal_status(dir.path()).quarantined.empty());
  SupervisorReport report;
  const std::vector<RunResult> resumed =
      SweepSupervisor(grid, dir.path()).run(&report);
  EXPECT_TRUE(report.completed);
  EXPECT_TRUE(report.quarantined.empty());
  EXPECT_EQ(report.executed, 1u);
  EXPECT_TRUE(tables_identical(resumed, oracle));
}

// ---- fleet legs ----------------------------------------------------------

/// Journals leg i/N of `grid` into <dir>/<name>; returns that directory.
std::string run_leg(const SweepGrid& grid, const TempDir& dir,
                    const std::string& name, int i, int n) {
  const std::string leg = dir.path() + "/" + name;
  std::string error;
  EXPECT_TRUE(append_shard_journal(grid, leg, i, n,
                                   run_sweep_shard(grid, i, n), &error))
      << error;
  return leg;
}

TEST(Fleet, MergeIsByteIdenticalForSeveralPartitions) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  const SweepGrid grid = make_grid(machine, 3);
  const std::vector<RunResult> oracle = run_sweep(grid);
  for (const int n : {1, 2, 3, 5}) {
    TempDir dir("fleet" + std::to_string(n));
    std::vector<std::string> legs;
    uint64_t done = 0;
    for (int i = 0; i < n; ++i) {
      legs.push_back(run_leg(grid, dir, "s" + std::to_string(i), i, n));
      done += read_journal_status(legs.back()).done;
    }
    EXPECT_EQ(done, grid.size()) << "N=" << n;
    // A journal file names its leg as well as its directory does.
    legs.front() += std::string("/") + kJournalFileName;
    std::string error;
    const auto merged = merge_journals(grid, legs, &error);
    ASSERT_TRUE(merged.has_value()) << "N=" << n << ": " << error;
    EXPECT_TRUE(tables_identical(*merged, oracle)) << "N=" << n;
  }
}

TEST(Fleet, ASupervisorJournalIsTheWholeGridLeg) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  const SweepGrid grid = make_grid(machine, 2);
  TempDir dir("fleet-supervisor");
  SupervisorReport report;
  const std::vector<RunResult> supervised =
      SweepSupervisor(grid, dir.path()).run(&report);
  ASSERT_TRUE(report.completed);
  std::string error;
  const auto merged = merge_journals(grid, {dir.path()}, &error);
  ASSERT_TRUE(merged.has_value()) << error;
  EXPECT_TRUE(tables_identical(*merged, supervised));
}

TEST(Fleet, ALegAppendsEachRowOnceAndKeepsItsPin) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  const SweepGrid grid = make_grid(machine, 2);
  TempDir dir("fleet-pin");
  const std::string leg = run_leg(grid, dir, "s0", 0, 2);
  const std::string journal = leg + "/" + kJournalFileName;
  const auto bytes = fs::file_size(journal);
  run_leg(grid, dir, "s0", 0, 2);  // a re-run leg adds nothing
  EXPECT_EQ(fs::file_size(journal), bytes);

  std::string error;
  EXPECT_FALSE(append_shard_journal(grid, leg, 1, 2, {}, &error));
  EXPECT_NE(error.find("holds shard 0/2"), std::string::npos) << error;
  EXPECT_FALSE(
      append_shard_journal(grid, leg, 0, 2, run_sweep_shard(grid, 1, 2),
                           &error));
  EXPECT_NE(error.find("does not belong"), std::string::npos) << error;
  SupervisorReport report;
  EXPECT_TRUE(SweepSupervisor(grid, leg).run(&report).empty());
  EXPECT_NE(report.error.find("holds shard 0/2"), std::string::npos)
      << report.error;
}

TEST(Fleet, MergeRejectsBadSetsNamingTheFiles) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  const SweepGrid grid = make_grid(machine, 2);
  TempDir dir("fleet-bad");
  const std::string a = run_leg(grid, dir, "node-a", 0, 2);
  const std::string b = run_leg(grid, dir, "node-b", 0, 2);
  const std::string c = run_leg(grid, dir, "node-c", 1, 2);
  const std::string third = run_leg(grid, dir, "node-d", 1, 3);
  std::string error;

  // Duplicated shard: both files claiming it are named.
  EXPECT_FALSE(merge_journals(grid, {a, b, c}, &error).has_value());
  EXPECT_NE(error.find("node-a"), std::string::npos) << error;
  EXPECT_NE(error.find("node-b"), std::string::npos) << error;

  // Missing shard: the absent i/N and the files that were merged.
  EXPECT_FALSE(merge_journals(grid, {a}, &error).has_value());
  EXPECT_NE(error.find("missing shard journals: 1/2"), std::string::npos)
      << error;
  EXPECT_NE(error.find("node-a"), std::string::npos) << error;

  // Disagreeing partitions.
  EXPECT_FALSE(merge_journals(grid, {a, third}, &error).has_value());
  EXPECT_NE(error.find("disagrees on the partition"), std::string::npos)
      << error;
  EXPECT_NE(error.find("node-d"), std::string::npos) << error;

  // A row outside its journal's partition: leg 0/2's header over leg
  // 1/2's records (records carry no position, so the splice is valid).
  {
    const std::string head_path = a + "/" + kJournalFileName;
    const std::string rows_path = c + "/" + kJournalFileName;
    const size_t header =
        log_header(LogKind::kJournal, std::string(32, '\0')).size();
    std::string head, rows;
    ASSERT_TRUE(read_file(head_path, &head));
    ASSERT_TRUE(read_file(rows_path, &rows));
    const std::string foreign = dir.path() + "/foreign.bin";
    ASSERT_TRUE(write_file_atomic(
        foreign, head.substr(0, header) + rows.substr(header)));
    EXPECT_FALSE(merge_journals(grid, {foreign, c}, &error).has_value());
    EXPECT_NE(error.find("does not belong"), std::string::npos) << error;
    EXPECT_NE(error.find("foreign.bin"), std::string::npos) << error;
  }

  // Journals of different grids: both digests are named.
  const SweepGrid other = make_grid(machine, 2, 901);
  const std::string foreign_grid = run_leg(other, dir, "other", 1, 2);
  EXPECT_FALSE(merge_journals(grid, {a, foreign_grid}, &error).has_value());
  EXPECT_NE(error.find(grid_digest(grid).hex()), std::string::npos) << error;
  EXPECT_NE(error.find(grid_digest(other).hex()), std::string::npos)
      << error;
  // ...and a consistent set of another grid is refused against this one.
  EXPECT_FALSE(merge_journals(grid, {foreign_grid}, &error).has_value());
  EXPECT_NE(error.find("different grid"), std::string::npos) << error;
}

TEST(Fleet, DamagedLegsAreRefusedOrReportedIncomplete) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  const SweepGrid grid = make_grid(machine, 2);
  TempDir dir("fleet-damaged");
  const std::string a = run_leg(grid, dir, "s0", 0, 2);
  const std::string b = run_leg(grid, dir, "s1", 1, 2);
  const std::string journal_b = b + "/" + kJournalFileName;
  std::string error;

  // A truncated tail costs its rows: the leg is named as incomplete.
  fs::resize_file(journal_b, fs::file_size(journal_b) - 5);
  EXPECT_FALSE(merge_journals(grid, {a, b}, &error).has_value());
  EXPECT_NE(error.find("1/2 (incomplete: " + journal_b), std::string::npos)
      << error;

  // A corrupt header refuses the leg outright.
  corrupt_byte(journal_b, 12);
  EXPECT_FALSE(merge_journals(grid, {a, b}, &error).has_value());
  EXPECT_NE(error.find("checksum"), std::string::npos) << error;

  EXPECT_FALSE(
      merge_journals(grid, {a, dir.path() + "/absent"}, &error).has_value());
  EXPECT_NE(error.find("cannot read"), std::string::npos) << error;
  EXPECT_FALSE(merge_journals(grid, {}, &error).has_value());
}

}  // namespace
}  // namespace cuttlefish::exp
