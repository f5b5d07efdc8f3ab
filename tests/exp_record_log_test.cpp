// The record log (exp/record_log.hpp), the one framing under every
// on-disk sweep artifact, and the decoders layered on it:
//  * framing round trips, torn tails, whole-file rules and version
//    rejection;
//  * failure atomicity under a lowered RLIMIT_FSIZE: a failed append is
//    rolled back so the appends after it stay reachable, and a failed
//    whole-file write leaves neither a temp file nor a changed
//    destination;
//  * a deterministic mutation fuzzer (fixed seeds; bit-flip, truncate,
//    splice and duplicate-record mutations) over the log scan, the
//    journal, manifest and cache-record payload decoders, and
//    decode_result. Whatever a mutated file yields must be byte-equal to
//    something that was written, and a whole-file kind must reject every
//    mutated file.

#include "exp/record_log.hpp"

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <filesystem>
#include <iterator>
#include <map>
#include <random>
#include <set>

#include "exp/result_cache.hpp"
#include "exp/supervisor.hpp"
#include "sim/machine_config.hpp"
#include "workloads/suite.hpp"

namespace cuttlefish::exp {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    root_ = fs::temp_directory_path() /
            ("cuttlefish_record_log_test_" + tag + "_" +
             std::to_string(::getpid()));
    fs::remove_all(root_);
    fs::create_directories(root_);
  }
  ~TempDir() { fs::remove_all(root_); }
  std::string path() const { return root_.string(); }
  std::string file(const std::string& name) const {
    return (root_ / name).string();
  }
  size_t entries() const {
    return static_cast<size_t>(std::distance(fs::directory_iterator(root_),
                                             fs::directory_iterator{}));
  }

 private:
  fs::path root_;
};

/// Lowers RLIMIT_FSIZE for one scope, with SIGXFSZ ignored so a write past
/// the limit fails with EFBIG instead of killing the test.
class FileSizeLimit {
 public:
  explicit FileSizeLimit(rlim_t bytes) {
    ::getrlimit(RLIMIT_FSIZE, &saved_);
    old_handler_ = ::signal(SIGXFSZ, SIG_IGN);
    rlimit lowered = saved_;
    lowered.rlim_cur = bytes;
    ::setrlimit(RLIMIT_FSIZE, &lowered);
  }
  ~FileSizeLimit() {
    ::setrlimit(RLIMIT_FSIZE, &saved_);
    ::signal(SIGXFSZ, old_handler_);
  }

 private:
  rlimit saved_{};
  sighandler_t old_handler_ = SIG_DFL;
};

SweepGrid make_grid(const sim::MachineConfig& machine) {
  SweepGrid grid(machine);
  const auto& model = workloads::find_benchmark("SOR-irt");
  const int base =
      grid.add_default("SOR-irt/Default", model, RunOptions{}, 2, 900);
  grid.add_policy("SOR-irt/Cuttlefish", model, core::PolicyKind::kFull,
                  RunOptions{}, 2, 900, base);
  return grid;
}

// ---- framing -------------------------------------------------------------

TEST(RecordLog, RoundTripsAndStopsAtTheFirstBadRecord) {
  const std::vector<std::string> payloads = {"", "one",
                                             std::string(300, 'z')};
  std::string log = log_header(LogKind::kCacheShard, {});
  std::vector<uint64_t> offsets;
  for (const std::string& p : payloads) {
    offsets.push_back(append_record(&log, p));
  }
  LogScan scan = parse_log(log, LogKind::kCacheShard, 0, "mem");
  ASSERT_TRUE(scan.valid) << scan.error;
  ASSERT_EQ(scan.records.size(), payloads.size());
  for (size_t i = 0; i < payloads.size(); ++i) {
    EXPECT_EQ(scan.records[i].offset, offsets[i]);
    EXPECT_EQ(scan.payload(scan.records[i]), payloads[i]);
  }
  EXPECT_EQ(scan.good_bytes, log.size());
  EXPECT_EQ(scan.dropped_bytes, 0u);

  // A torn tail is dropped; the records before it stand.
  scan = parse_log(log + "torn", LogKind::kCacheShard, 0, "mem");
  ASSERT_TRUE(scan.valid);
  EXPECT_EQ(scan.records.size(), payloads.size());
  EXPECT_EQ(scan.dropped_bytes, 4u);

  // A damaged record costs itself and everything after it.
  std::string damaged = log;
  damaged[offsets[1]] ^= 0x01;
  scan = parse_log(damaged, LogKind::kCacheShard, 0, "mem");
  ASSERT_TRUE(scan.valid);
  EXPECT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.good_bytes, offsets[1] - 4);
}

TEST(RecordLog, WholeFileKindsAreExactlyOneIntactRecord) {
  const std::string pin(16, 'p');
  const std::string header = log_header(LogKind::kManifest, pin);
  std::string one = header;
  append_record(&one, "rows");
  const LogScan scan = parse_log(one, LogKind::kManifest, 16, "m");
  ASSERT_TRUE(scan.valid) << scan.error;
  EXPECT_EQ(scan.pin, pin);
  EXPECT_EQ(scan.payload(scan.records.front()), "rows");

  std::string two = one;
  append_record(&two, "rows");
  for (const std::string& bad : {header, two, one + "x",
                                 one.substr(0, one.size() - 1)}) {
    const LogScan rejected = parse_log(bad, LogKind::kManifest, 16, "m");
    EXPECT_FALSE(rejected.valid);
    EXPECT_NE(rejected.error.find("torn or corrupt"), std::string::npos)
        << rejected.error;
  }
}

TEST(RecordLog, HeaderFailuresNameTheFileAndTheCause) {
  std::string log = log_header(LogKind::kJournal, std::string(32, 'j'));
  append_record(&log, "row");
  const auto error_of = [](const std::string& data) {
    return parse_log(data, LogKind::kJournal, 32, "j.bin").error;
  };
  EXPECT_EQ(error_of(log), "");
  EXPECT_NE(error_of(log.substr(0, 20)).find("j.bin is truncated"),
            std::string::npos);
  std::string wrong_kind = log;
  wrong_kind[0] ^= 0x01;
  EXPECT_NE(error_of(wrong_kind).find("bad magic"), std::string::npos);
  std::string old_version = log;
  old_version[4] = 1;
  EXPECT_NE(error_of(old_version).find("version 1; this build reads version"),
            std::string::npos)
      << error_of(old_version);
  std::string torn_pin = log;
  torn_pin[12] ^= 0x01;
  EXPECT_NE(error_of(torn_pin).find("header checksum"), std::string::npos);
  EXPECT_FALSE(scan_log("/nonexistent/j.bin", LogKind::kJournal, 32).present);
}

// ---- failure atomicity -----------------------------------------------------

TEST(RecordLog, FailedAppendIsRolledBackAndLaterAppendsSurvive) {
  TempDir dir("append");
  const std::string path = dir.file("log.bin");
  const std::string header = log_header(LogKind::kJournal, "pin");
  ASSERT_TRUE(write_file_atomic(path, header + "torn"));
  // The appender starts at the committed length, cutting the torn tail.
  LogAppender log(path, header.size());
  ASSERT_TRUE(log.ok());
  const std::string before(100, 'a'), big(4000, 'b'), after(100, 'c');
  ASSERT_TRUE(log.append(before));
  const uintmax_t committed = fs::file_size(path);
  {
    // Room for part of the big record: the write tears mid-record.
    FileSizeLimit limit(committed + 1000);
    EXPECT_FALSE(log.append(big));
    EXPECT_EQ(errno, EFBIG);
  }
  EXPECT_EQ(fs::file_size(path), committed);
  ASSERT_TRUE(log.ok());
  ASSERT_TRUE(log.append(after));

  const LogScan scan = scan_log(path, LogKind::kJournal, 3);
  ASSERT_TRUE(scan.valid) << scan.error;
  EXPECT_EQ(scan.dropped_bytes, 0u);
  ASSERT_EQ(scan.records.size(), 2u);
  EXPECT_EQ(scan.payload(scan.records[0]), before);
  EXPECT_EQ(scan.payload(scan.records[1]), after);
}

TEST(RecordLog, FailedAtomicWriteLeavesNoTempAndNoChange) {
  TempDir dir("atomic");
  const std::string path = dir.file("whole.bin");
  ASSERT_TRUE(write_file_atomic(path, "old content"));
  {
    FileSizeLimit limit(1000);
    EXPECT_FALSE(write_file_atomic(path, std::string(5000, 'x')));
  }
  std::string data;
  ASSERT_TRUE(read_file(path, &data));
  EXPECT_EQ(data, "old content");
  EXPECT_EQ(dir.entries(), 1u);  // no *.tmp-<pid> left behind

  // The rename step failing (the destination is a non-empty directory)
  // also cleans up.
  fs::create_directories(dir.file("busy/child"));
  EXPECT_FALSE(write_file_atomic(dir.file("busy"), "body"));
  EXPECT_EQ(dir.entries(), 2u);
  EXPECT_TRUE(fs::is_directory(dir.file("busy")));
}

// ---- mutation fuzzer -------------------------------------------------------

/// Fixed-seed mutations of a written file. `records` are the framed spans
/// (start, length) of its intact records, for the duplicate mutation.
class Mutator {
 public:
  Mutator(uint64_t seed, std::vector<std::pair<size_t, size_t>> records)
      : rng_(seed), records_(std::move(records)) {}

  /// One to three stacked mutations; never returns `data` unchanged.
  std::string mutate(const std::string& data) {
    for (;;) {
      std::string out = data;
      const int steps = 1 + static_cast<int>(pick(3));
      for (int s = 0; s < steps; ++s) mutate_once(&out);
      if (out != data) return out;
    }
  }

 private:
  size_t pick(size_t n) {
    return n == 0 ? 0 : static_cast<size_t>(rng_() % n);
  }

  void mutate_once(std::string* out) {
    switch (pick(4)) {
      case 0:  // bit flip
        if (!out->empty()) {
          (*out)[pick(out->size())] ^= static_cast<char>(1u << pick(8));
        }
        break;
      case 1:  // truncate
        out->resize(pick(out->size()));
        break;
      case 2: {  // splice: a copy of one range inserted elsewhere
        const size_t from = pick(out->size());
        const std::string piece = out->substr(from, 1 + pick(64));
        out->insert(pick(out->size() + 1), piece);
        break;
      }
      default: {  // duplicate a whole record at a record boundary
        if (records_.empty()) break;
        const auto [start, length] = records_[pick(records_.size())];
        if (start + length > out->size()) break;
        const std::string record = out->substr(start, length);
        const size_t at = records_[pick(records_.size())].first;
        out->insert(std::min(at, out->size()), record);
        break;
      }
    }
  }

  std::mt19937_64 rng_;
  std::vector<std::pair<size_t, size_t>> records_;
};

std::vector<std::pair<size_t, size_t>> framed_spans(const LogScan& scan) {
  std::vector<std::pair<size_t, size_t>> spans;
  for (const LogRecord& r : scan.records) {
    spans.emplace_back(r.offset - 4, size_t{4} + r.size + 8);
  }
  return spans;
}

constexpr uint64_t kSeeds[] = {1, 2, 3};
constexpr int kMutationsPerSeed = 150;

TEST(RecordLogFuzz, ScanAcceptsOnlyWrittenRecords) {
  for (const LogKind kind : {LogKind::kCacheShard, LogKind::kManifest}) {
    const bool whole = kind == LogKind::kManifest;
    std::set<std::string> written;
    std::string log = log_header(kind, std::string(8, 'p'));
    for (int i = 0; i < (whole ? 1 : 6); ++i) {
      const std::string payload(static_cast<size_t>(i * 7), 'a' + i);
      written.insert(payload);
      append_record(&log, payload);
    }
    const auto spans = framed_spans(parse_log(log, kind, 8, "fuzz"));
    for (const uint64_t seed : kSeeds) {
      Mutator mutator(seed, spans);
      for (int i = 0; i < kMutationsPerSeed; ++i) {
        const LogScan scan =
            parse_log(mutator.mutate(log), kind, 8, "fuzz");
        if (whole) {
          EXPECT_FALSE(scan.valid) << "seed " << seed << " step " << i;
        }
        for (const LogRecord& r : scan.records) {
          EXPECT_EQ(written.count(std::string(scan.payload(r))), 1u)
              << "seed " << seed << " step " << i;
        }
      }
    }
  }
}

TEST(RecordLogFuzz, DecodeResultRoundTripsWhateverItAccepts) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  const SweepGrid grid = make_grid(machine);
  const std::string bytes = encode_result(run_spec(grid.specs()[1]));
  for (const uint64_t seed : kSeeds) {
    Mutator mutator(seed, {});
    for (int i = 0; i < kMutationsPerSeed * 4; ++i) {
      const std::string mutated = mutator.mutate(bytes);
      RunResult decoded;
      if (decode_result(mutated.data(), mutated.size(), &decoded)) {
        // The codec is canonical: anything it accepts re-encodes to the
        // same bytes.
        EXPECT_EQ(encode_result(decoded), mutated)
            << "seed " << seed << " step " << i;
      }
    }
  }
}

TEST(RecordLogFuzz, JournalReplayYieldsOnlyWrittenResults) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  const SweepGrid grid = make_grid(machine);
  const std::vector<RunResult> oracle = run_sweep(grid);
  TempDir dir("fuzz-journal");
  std::string error;
  ASSERT_TRUE(append_shard_journal(grid, dir.file("leg"), 0, 1,
                                   run_sweep_shard(grid, 0, 1), &error))
      << error;
  std::string journal;
  ASSERT_TRUE(read_file(dir.file("leg/journal.bin"), &journal));
  const auto spans =
      framed_spans(parse_log(journal, LogKind::kJournal, 32, "j"));
  ASSERT_EQ(spans.size(), grid.size());

  const std::string target = dir.file("mutated");
  fs::create_directories(target);
  const std::string target_journal = target + "/" + kJournalFileName;
  for (const uint64_t seed : kSeeds) {
    Mutator mutator(seed, spans);
    for (int i = 0; i < kMutationsPerSeed; ++i) {
      ASSERT_TRUE(write_file_atomic(target_journal, mutator.mutate(journal)));
      const JournalStatus status = read_journal_status(target);
      EXPECT_LE(status.done, grid.size());
      const auto merged = merge_journals(grid, {target}, &error);
      if (!merged) continue;
      // Status and merge replay alike: a full union means a full status.
      EXPECT_EQ(status.done, grid.size()) << "seed " << seed << " step " << i;
      for (size_t k = 0; k < grid.size(); ++k) {
        EXPECT_EQ(encode_result((*merged)[k]), encode_result(oracle[k]))
            << "seed " << seed << " step " << i << " spec " << k;
      }
    }
  }
}

TEST(RecordLogFuzz, EveryMutatedManifestIsRejected) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  const SweepGrid grid = make_grid(machine);
  TempDir dir("fuzz-manifest");
  SupervisorOptions opt;
  opt.max_attempts = 1;
  opt.crash.spec_index = 1;
  opt.crash.mode = CrashMode::kExit;
  SupervisorReport report;
  SweepSupervisor(grid, dir.path(), opt).run(&report);
  ASSERT_EQ(report.quarantined.size(), 1u);
  const std::string path = dir.file(kQuarantineFileName);
  std::string manifest;
  ASSERT_TRUE(read_file(path, &manifest));
  ASSERT_EQ(read_journal_status(dir.path()).quarantined.size(), 1u);

  const auto spans =
      framed_spans(parse_log(manifest, LogKind::kManifest, 16, "m"));
  for (const uint64_t seed : kSeeds) {
    Mutator mutator(seed, spans);
    for (int i = 0; i < kMutationsPerSeed; ++i) {
      ASSERT_TRUE(write_file_atomic(path, mutator.mutate(manifest)));
      EXPECT_TRUE(read_journal_status(dir.path()).quarantined.empty())
          << "seed " << seed << " step " << i;
    }
  }
}

TEST(RecordLogFuzz, CacheServesOnlyWrittenEntries) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  const SweepGrid grid = make_grid(machine);
  TempDir dir("fuzz-cache");
  {
    ResultCache cache(dir.file("store"));
    run_sweep(grid, nullptr, &cache, nullptr);
  }
  // What was written: digest -> (spec bytes, result bytes).
  std::map<SpecDigest, std::pair<std::string, std::string>> written;
  std::string shard;
  {
    ResultCache cache(dir.file("store"));
    ASSERT_EQ(cache.size(), grid.size());
    for (size_t i = 0; i < cache.size(); ++i) {
      ResultCache::EntryView view;
      ASSERT_TRUE(cache.entry(i, &view));
      written[view.digest] = {view.spec_blob, encode_result(view.result)};
    }
    for (const auto& e : fs::directory_iterator(dir.file("store"))) {
      if (e.path().filename().string().rfind("shard-", 0) == 0) {
        ASSERT_TRUE(read_file(e.path().string(), &shard));
      }
    }
  }
  const auto spans =
      framed_spans(parse_log(shard, LogKind::kCacheShard, 0, "s"));
  ASSERT_EQ(spans.size(), grid.size());

  const std::string target = dir.file("mutated");
  fs::create_directories(target);
  for (const uint64_t seed : kSeeds) {
    Mutator mutator(seed, spans);
    for (int i = 0; i < kMutationsPerSeed; ++i) {
      ASSERT_TRUE(write_file_atomic(target + "/shard-0.bin",
                                    mutator.mutate(shard)));
      ResultCache cache(target);
      for (size_t k = 0; k < cache.size(); ++k) {
        ResultCache::EntryView view;
        if (!cache.entry(k, &view)) continue;
        const auto it = written.find(view.digest);
        ASSERT_NE(it, written.end()) << "seed " << seed << " step " << i;
        EXPECT_EQ(view.spec_blob, it->second.first);
        EXPECT_EQ(encode_result(view.result), it->second.second);
      }
    }
  }
}

}  // namespace
}  // namespace cuttlefish::exp
