#include "exp/supervisor.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <set>
#include <tuple>
#include <unordered_set>

#include "common/log.hpp"
#include "exp/blob.hpp"
#include "exp/calibrate.hpp"
#include "exp/record_log.hpp"
#include "exp/result_cache.hpp"

namespace fs = std::filesystem;

namespace cuttlefish::exp {

namespace {

/// Journal pin: grid digest, grid size, owned partition i/N.
constexpr size_t kJournalPinBytes = 16 + 8 + 4 + 4;
/// Journal record payload: u64 spec | u32 attempt | encode_result bytes.
constexpr size_t kJournalRowPrefix = 8 + 4;
/// Manifest pin: grid digest. Its one record: a fixed-size row per
/// quarantined spec.
constexpr size_t kManifestPinBytes = 16;
constexpr size_t kManifestRowBytes = 8 + 4 + 1 + 4 + 4;

/// Exit code of a worker whose co-simulation succeeded but whose result
/// could not be written (distinguishable from the crash-hook's 41).
constexpr int kWorkerWriteFailure = 42;
/// Worker stream record payload: u64 spec | encode_result bytes.
constexpr size_t kStreamRowPrefix = 8;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---- journal -----------------------------------------------------------

struct JournalPin {
  SpecDigest grid = {0, 0};
  uint64_t grid_size = 0;
  uint32_t shard_index = 0;
  uint32_t shard_count = 1;
};

std::string encode_pin(const JournalPin& pin) {
  BlobWriter w;
  w.u64(pin.grid.hi);
  w.u64(pin.grid.lo);
  w.u64(pin.grid_size);
  w.u32(pin.shard_index);
  w.u32(pin.shard_count);
  return w.take();
}

std::string partition(const JournalPin& pin) {
  return std::to_string(pin.shard_index) + "/" +
         std::to_string(pin.shard_count);
}

std::string encode_journal_row(uint64_t spec, uint32_t attempt,
                               std::string_view result_bytes) {
  BlobWriter w;
  w.u64(spec);
  w.u32(attempt);
  w.bytes(result_bytes.data(), result_bytes.size());
  return w.take();
}

struct JournalRow {
  uint64_t spec = 0;
  uint32_t attempt = 0;
  RunResult result;
};

struct JournalReplay {
  LogScan scan;
  JournalPin pin;
  std::vector<JournalRow> rows;
};

/// The one journal replay behind resume, status and merge: the first
/// decodable record of every spec in the pinned grid, in journal order. A
/// record whose checksum holds but whose payload does not decode counts
/// nowhere, so its spec re-runs.
JournalReplay replay_journal(const std::string& path) {
  JournalReplay replay;
  replay.scan = scan_log(path, LogKind::kJournal, kJournalPinBytes);
  if (!replay.scan.valid) return replay;
  BlobReader p(replay.scan.pin.data(), replay.scan.pin.size());
  replay.pin.grid.hi = p.u64();
  replay.pin.grid.lo = p.u64();
  replay.pin.grid_size = p.u64();
  replay.pin.shard_index = p.u32();
  replay.pin.shard_count = p.u32();
  if (replay.pin.shard_index >= replay.pin.shard_count) {
    replay.scan.valid = false;
    replay.scan.error = path + " pins an impossible partition " +
                        partition(replay.pin);
    return replay;
  }
  std::unordered_set<uint64_t> seen;
  for (const LogRecord& record : replay.scan.records) {
    const std::string_view payload = replay.scan.payload(record);
    BlobReader r(payload.data(), payload.size());
    JournalRow row;
    row.spec = r.u64();
    row.attempt = r.u32();
    if (!r.ok() || row.spec >= replay.pin.grid_size ||
        seen.count(row.spec) != 0 ||
        !decode_result(payload.data() + kJournalRowPrefix,
                       payload.size() - kJournalRowPrefix, &row.result)) {
      continue;
    }
    seen.insert(row.spec);
    replay.rows.push_back(std::move(row));
  }
  return replay;
}

/// Replays the journal in `dir` for appending under `pin`, creating both
/// when absent; the appender then starts at replay->scan.good_bytes. Empty
/// on success, else why the journal cannot be used.
std::string open_journal(const std::string& dir, const JournalPin& pin,
                         JournalReplay* replay) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) return "cannot create journal dir " + dir + ": " + ec.message();
  const std::string path = dir + "/" + kJournalFileName;
  *replay = replay_journal(path);
  if (!replay->scan.present) {
    if (fs::exists(path, ec)) return "cannot read " + path;
    const std::string header = log_header(LogKind::kJournal, encode_pin(pin));
    replay->scan.good_bytes = header.size();
    return write_file_atomic(path, header) ? "" : "cannot create " + path;
  }
  if (!replay->scan.valid) return replay->scan.error;
  const JournalPin& have = replay->pin;
  if (have.grid != pin.grid || have.grid_size != pin.grid_size) {
    return path + " was written by a different grid (" +
           std::to_string(have.grid_size) + " specs, digest " +
           have.grid.hex() + "; this grid: " + std::to_string(pin.grid_size) +
           " specs, digest " + pin.grid.hex() +
           ") — resume with the original flags or pick a fresh journal dir";
  }
  if (have.shard_index != pin.shard_index ||
      have.shard_count != pin.shard_count) {
    return path + " holds shard " + partition(have) + " of this grid, not " +
           partition(pin) + " — pick a fresh journal dir";
  }
  if (replay->scan.dropped_bytes > 0) {
    CF_LOG_WARN("supervisor: dropping %llu torn byte(s) from the tail "
                "of %s (the affected specs re-run)",
                static_cast<unsigned long long>(replay->scan.dropped_bytes),
                path.c_str());
  }
  return "";
}

// ---- quarantine manifest -----------------------------------------------

std::string encode_manifest(const SpecDigest& grid,
                            const std::vector<QuarantineRow>& rows) {
  BlobWriter pin;
  pin.u64(grid.hi);
  pin.u64(grid.lo);
  BlobWriter payload;
  for (const QuarantineRow& row : rows) {
    payload.u64(row.spec_index);
    payload.u32(row.attempts);
    payload.u8(row.timed_out ? 1 : 0);
    payload.i32(row.exit_status);
    payload.i32(row.term_signal);
  }
  std::string file = log_header(LogKind::kManifest, pin.data());
  append_record(&file, payload.data());
  return file;
}

/// False when the manifest is absent (*error empty) or unusable (*error
/// says why): a torn, corrupt or (with `grid`) other-grid manifest is
/// never trusted.
bool read_manifest(const std::string& path, const SpecDigest* grid,
                   std::vector<QuarantineRow>* rows, std::string* error) {
  const LogScan scan = scan_log(path, LogKind::kManifest, kManifestPinBytes);
  if (!scan.present) return false;
  if (!scan.valid) {
    *error = scan.error;
    return false;
  }
  const std::string_view payload = scan.payload(scan.records.front());
  if (payload.size() % kManifestRowBytes != 0) {
    *error = path + " has a malformed row table";
    return false;
  }
  BlobReader p(scan.pin.data(), scan.pin.size());
  if (grid != nullptr && (p.u64() != grid->hi || p.u64() != grid->lo)) {
    *error = path + " was written by a different grid";
    return false;
  }
  BlobReader r(payload.data(), payload.size());
  rows->clear();
  while (r.remaining() > 0) {
    QuarantineRow row;
    row.spec_index = r.u64();
    row.attempts = r.u32();
    row.timed_out = r.u8() != 0;
    row.exit_status = r.i32();
    row.term_signal = r.i32();
    rows->push_back(row);
  }
  return true;
}

// ---- worker ------------------------------------------------------------

[[noreturn]] void crash_now(CrashMode mode) {
  switch (mode) {
    case CrashMode::kAbort:
      std::abort();
    case CrashMode::kKill:
      ::kill(::getpid(), SIGKILL);
      break;
    case CrashMode::kHang:
    case CrashMode::kNone:
      break;
    case CrashMode::kExit:
      ::_exit(41);
  }
  // kHang (and the instant between kill() and SIGKILL delivery): sleep
  // until the supervisor's deadline SIGKILLs us.
  for (;;) ::pause();
}

/// The specs that share one calibrated program (run_sweep's memo key).
using ProgramKey = std::tuple<const workloads::BenchmarkModel*,
                              const sim::MachineConfig*, uint64_t>;

ProgramKey program_key(const RunSpec& spec) {
  return {spec.model, spec.machine, spec.seed};
}

/// The forked worker of one lease: runs `specs` in order and streams each
/// result down `fd` as one record of a worker-stream log (payload: u64
/// spec | encode_result bytes), then _exits. Programs are memoised per
/// ProgramKey as run_sweep does, so the bits are the same. Never returns
/// to the supervisor's code; _exit skips atexit/stdio so the parent's
/// buffered output is not replayed.
[[noreturn]] void worker_main(const SweepGrid& grid,
                              const std::vector<uint64_t>& specs,
                              const std::vector<uint32_t>& attempts,
                              const CrashSpec& crash, int fd) {
  std::map<ProgramKey, sim::PhaseProgram> programs;
  std::string stream = log_header(LogKind::kWorkerResult, {});
  for (const uint64_t i : specs) {
    if (crash.enabled() && crash.spec_index == static_cast<int64_t>(i) &&
        (crash.times < 0 || static_cast<int>(attempts[i]) < crash.times)) {
      crash_now(crash.mode);
    }
    const RunSpec& spec = grid.specs()[i];
    const auto [program, fresh] = programs.try_emplace(program_key(spec));
    if (fresh) {
      program->second =
          build_calibrated(*spec.model, *spec.machine, spec.seed);
    }
    BlobWriter row;
    row.u64(i);
    const std::string result = encode_result(run_spec(spec, program->second));
    row.bytes(result.data(), result.size());
    append_record(&stream, row.data());
    if (!write_all(fd, stream)) ::_exit(kWorkerWriteFailure);
    stream.clear();
  }
  ::_exit(0);
}

std::string describe_failure(const QuarantineRow& row) {
  char buf[96];
  if (row.timed_out) {
    std::snprintf(buf, sizeof(buf), "timed out (SIGKILLed by deadline)");
  } else if (row.term_signal != 0) {
    std::snprintf(buf, sizeof(buf), "killed by signal %d", row.term_signal);
  } else if (row.exit_status >= 0) {
    std::snprintf(buf, sizeof(buf), "exited with status %d",
                  row.exit_status);
  } else {
    std::snprintf(buf, sizeof(buf), "produced an unreadable result");
  }
  return buf;
}

}  // namespace

// ---- crash-spec parsing ------------------------------------------------

std::optional<CrashSpec> parse_crash_spec(const std::string& text,
                                          std::string* error) {
  const auto fail = [&](const std::string& why) -> std::optional<CrashSpec> {
    if (error != nullptr) {
      *error = "expects <spec-index>:<abort|kill|hang|exit>[:times], " + why;
    }
    return std::nullopt;
  };
  const auto colon = text.find(':');
  if (colon == std::string::npos || colon == 0) {
    return fail("got '" + text + "'");
  }
  char* end = nullptr;
  const unsigned long long index =
      std::strtoull(text.c_str(), &end, 10);
  if (end != text.c_str() + colon) {
    return fail("spec index '" + text.substr(0, colon) +
                "' is not an integer");
  }
  std::string mode_text = text.substr(colon + 1);
  int times = -1;
  if (const auto second = mode_text.find(':');
      second != std::string::npos) {
    const std::string times_text = mode_text.substr(second + 1);
    mode_text.resize(second);
    const long t = std::strtol(times_text.c_str(), &end, 10);
    if (end == times_text.c_str() || *end != '\0' || t <= 0) {
      return fail("times '" + times_text + "' is not a positive integer");
    }
    times = static_cast<int>(t);
  }
  CrashSpec crash;
  crash.spec_index = static_cast<int64_t>(index);
  crash.times = times;
  if (mode_text == "abort") {
    crash.mode = CrashMode::kAbort;
  } else if (mode_text == "kill") {
    crash.mode = CrashMode::kKill;
  } else if (mode_text == "hang") {
    crash.mode = CrashMode::kHang;
  } else if (mode_text == "exit") {
    crash.mode = CrashMode::kExit;
  } else {
    return fail("unknown mode '" + mode_text + "'");
  }
  return crash;
}

// ---- grid identity -----------------------------------------------------

SpecDigest grid_digest(const SweepGrid& grid) {
  BlobWriter w;
  w.u64(grid.size());
  for (const RunSpec& spec : grid.specs()) {
    const std::string blob = encode_spec(spec);
    w.u32(static_cast<uint32_t>(blob.size()));
    w.bytes(blob.data(), blob.size());
  }
  return digest_bytes(w.data().data(), w.size());
}

// ---- supervisor --------------------------------------------------------

SweepSupervisor::SweepSupervisor(const SweepGrid& grid,
                                 std::string journal_dir,
                                 SupervisorOptions options)
    : grid_(&grid), dir_(std::move(journal_dir)), options_(options) {}

std::vector<RunResult> SweepSupervisor::run(SupervisorReport* report_out) {
  SupervisorReport report;
  const uint64_t n = grid_->size();
  std::vector<RunResult> results(n);
  const auto finish = [&](bool ok) {
    report.completed = ok;
    if (report_out != nullptr) *report_out = report;
    return results;
  };
  const auto fail = [&](const std::string& why) {
    CF_LOG_ERROR("supervisor: %s", why.c_str());
    report.error = why;
    results.clear();
    if (report_out != nullptr) *report_out = report;
    return results;
  };

  const SpecDigest digest = grid_digest(*grid_);
  const std::string journal_path = dir_ + "/" + kJournalFileName;
  const std::string manifest_path = dir_ + "/" + kQuarantineFileName;

  // The deterministic self-kill hook: explicit options win, otherwise
  // CUTTLEFISH_CRASH_AT (the env form is what `micro_sweep --supervised`
  // under CI exports to its own workers).
  CrashSpec crash = options_.crash;
  if (!crash.enabled()) {
    if (const char* env = std::getenv("CUTTLEFISH_CRASH_AT")) {
      std::string parse_error;
      const auto parsed = parse_crash_spec(env, &parse_error);
      if (!parsed) return fail("CUTTLEFISH_CRASH_AT " + parse_error);
      crash = *parsed;
    }
  }

  enum class SpecState : uint8_t { kPending, kRunning, kDone, kQuarantined };
  std::vector<SpecState> state(n, SpecState::kPending);
  std::vector<uint32_t> attempts(n, 0);

  // ---- resume: replay the journal, adopt the manifest ------------------
  JournalReplay replay;
  if (const std::string why =
          open_journal(dir_, JournalPin{digest, n, 0, 1}, &replay);
      !why.empty()) {
    return fail(why);
  }
  for (JournalRow& row : replay.rows) {
    results[row.spec] = std::move(row.result);
    state[row.spec] = SpecState::kDone;
    attempts[row.spec] = row.attempt + 1;
    ++report.resumed;
  }
  LogAppender journal(journal_path, replay.scan.good_bytes);
  if (!journal.ok()) {
    return fail("cannot append to " + journal_path + ": " +
                std::strerror(errno));
  }
  replay = JournalReplay{};

  std::vector<QuarantineRow> quarantine_rows;
  std::vector<QuarantineRow> adopted;
  std::string manifest_error;
  if (read_manifest(manifest_path, &digest, &adopted, &manifest_error)) {
    for (const QuarantineRow& row : adopted) {
      if (row.spec_index >= n ||
          state[row.spec_index] != SpecState::kPending) {
        continue;
      }
      state[row.spec_index] = SpecState::kQuarantined;
      quarantine_rows.push_back(row);
    }
  } else if (!manifest_error.empty()) {
    CF_LOG_WARN("supervisor: ignoring %s; quarantined specs will be "
                "re-attempted", manifest_error.c_str());
  }

  const auto quarantine = [&](const QuarantineRow& row) {
    state[row.spec_index] = SpecState::kQuarantined;
    quarantine_rows.push_back(row);
    if (!write_file_atomic(manifest_path,
                           encode_manifest(digest, quarantine_rows))) {
      CF_LOG_ERROR("supervisor: cannot write %s", manifest_path.c_str());
    }
  };

  // ---- the lease / stream / reap loop ----------------------------------
  // A lease is one worker for a list of specs. Its spec in flight is the
  // first without an accepted record; a failed lease is charged to that
  // spec alone, and the specs after it go back to pending.
  struct Lease {
    pid_t pid = -1;
    int fd = -1;
    std::vector<uint64_t> specs;  // in run order
    size_t next = 0;              // specs[next] is the spec in flight
    double deadline = 0.0;  // the spec in flight's; 0 = none to enforce
    bool timed_out = false;
    bool garbled = false;   // a record failed its checksum or decode
    std::string stream;     // every byte the worker has sent
    LogReader reader{LogKind::kWorkerResult, 0, "worker stream"};
  };
  std::vector<Lease> leases;
  std::vector<double> ready_at(n, 0.0);
  const double t0 = now_s();
  const double total_deadline =
      options_.total_timeout_s > 0 ? t0 + options_.total_timeout_s : 0.0;
  const size_t max_workers =
      static_cast<size_t>(std::max(1, options_.max_workers));
  const int max_attempts = std::max(1, options_.max_attempts);
  const auto deadline_after = [&](double now) {
    return options_.spec_timeout_s > 0 ? now + options_.spec_timeout_s : 0.0;
  };
  const pid_t supervisor_pid = ::getpid();
  std::set<uint64_t> pending;
  for (uint64_t i = 0; i < n; ++i) {
    if (state[i] == SpecState::kPending) pending.insert(i);
  }

  // Forks one worker for `specs`; when none can be started, they are
  // backed off instead.
  const auto start_lease = [&](std::vector<uint64_t> specs) {
    int fds[2] = {-1, -1};
    const pid_t pid = ::pipe2(fds, O_CLOEXEC) == 0 ? ::fork() : -1;
    if (pid == 0) {
      ::close(fds[0]);
      // Die with the supervisor: an orphan would run on (or hang forever)
      // under init, racing a resume for the same specs.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != supervisor_pid) ::raise(SIGKILL);
      worker_main(*grid_, specs, attempts, crash, fds[1]);
    }
    const double now = now_s();
    if (pid < 0) {
      CF_LOG_ERROR("supervisor: cannot start a worker: %s",
                   std::strerror(errno));
      for (const int fd : fds) {
        if (fd >= 0) ::close(fd);
      }
      for (const uint64_t i : specs) ready_at[i] = now + 0.1;
      return;
    }
    ::close(fds[1]);
    for (const uint64_t i : specs) {
      state[i] = SpecState::kRunning;
      pending.erase(i);
    }
    ++report.launches;
    Lease& lease = leases.emplace_back();
    lease.pid = pid;
    lease.fd = fds[0];
    lease.specs = std::move(specs);
    lease.deadline = deadline_after(now);
  };

  // Accepts the records a worker has streamed so far, journaling each; a
  // garbled one (or one out of order) stops the lease.
  const auto accept = [&](Lease& lease) {
    for (const LogRecord& record : lease.reader.read(lease.stream)) {
      const std::string_view payload =
          std::string_view(lease.stream).substr(record.offset, record.size);
      BlobReader r(payload.data(), payload.size());
      RunResult result;
      if (lease.next >= lease.specs.size() ||
          r.u64() != lease.specs[lease.next] || !r.ok() ||
          !decode_result(payload.data() + kStreamRowPrefix,
                         payload.size() - kStreamRowPrefix, &result)) {
        lease.garbled = true;
        break;
      }
      const uint64_t spec = lease.specs[lease.next++];
      results[spec] = std::move(result);
      state[spec] = SpecState::kDone;
      ++report.executed;
      lease.deadline =
          lease.next < lease.specs.size() ? deadline_after(now_s()) : 0.0;
      if (!journal.append(encode_journal_row(
              spec, attempts[spec], payload.substr(kStreamRowPrefix)))) {
        // The result is still in memory; only resumability degrades.
        CF_LOG_ERROR("supervisor: journal append failed: %s",
                     std::strerror(errno));
      }
    }
    if (!lease.reader.ok()) lease.garbled = true;
    if (lease.garbled) {
      lease.deadline = 0.0;
      ::kill(lease.pid, SIGKILL);
    }
  };

  // Books a lease whose worker has closed its stream (exited or died).
  const auto reap = [&](Lease& lease) {
    int status = 0;
    const pid_t r = ::waitpid(lease.pid, &status, 0);
    ::close(lease.fd);
    if (lease.next >= lease.specs.size()) return;  // every spec accepted
    const uint64_t spec = lease.specs[lease.next];
    QuarantineRow row;
    row.spec_index = spec;
    row.attempts = attempts[spec] + 1;
    row.timed_out = lease.timed_out;
    const bool died = r == lease.pid && !lease.garbled;
    row.exit_status = died && WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    row.term_signal = died && WIFSIGNALED(status) ? WTERMSIG(status) : 0;
    attempts[spec] = row.attempts;
    // The specs after the one in flight never ran: back to pending, with
    // no attempt charged.
    for (size_t k = lease.next + 1; k < lease.specs.size(); ++k) {
      state[lease.specs[k]] = SpecState::kPending;
      pending.insert(lease.specs[k]);
    }
    const std::string why = describe_failure(row);
    if (static_cast<int>(row.attempts) >= max_attempts) {
      CF_LOG_WARN("supervisor: spec %llu %s on attempt %u/%d — "
                  "quarantined as poison; the sweep continues "
                  "without it",
                  static_cast<unsigned long long>(spec), why.c_str(),
                  row.attempts, max_attempts);
      quarantine(row);
      return;
    }
    const uint32_t shift = std::min(row.attempts - 1, 20u);
    const double backoff =
        std::min(options_.backoff_max_s,
                 options_.backoff_base_s *
                     static_cast<double>(uint64_t{1} << shift));
    CF_LOG_WARN("supervisor: spec %llu %s on attempt %u/%d; "
                "retrying in %.2fs",
                static_cast<unsigned long long>(spec), why.c_str(),
                row.attempts, max_attempts, backoff);
    ready_at[spec] = now_s() + backoff;
    state[spec] = SpecState::kPending;
    pending.insert(spec);
    ++report.retries;
  };

  while (!pending.empty() || !leases.empty()) {
    double now = now_s();

    // Whole-run (per-shard) budget: kill everything, keep the journal,
    // report what is left — a resume continues from here.
    if (total_deadline > 0 && now >= total_deadline) {
      for (const Lease& lease : leases) ::kill(lease.pid, SIGKILL);
      for (const Lease& lease : leases) {
        int status = 0;
        ::waitpid(lease.pid, &status, 0);
        ::close(lease.fd);
      }
      leases.clear();
      for (uint64_t i = 0; i < n; ++i) {
        if (state[i] == SpecState::kPending ||
            state[i] == SpecState::kRunning) {
          report.unfinished.push_back(i);
        }
      }
      CF_LOG_WARN("supervisor: whole-run budget of %.1fs exhausted with "
                  "%zu spec(s) unfinished (journal kept; resume to "
                  "continue)",
                  options_.total_timeout_s, report.unfinished.size());
      report.quarantined = quarantine_rows;
      return finish(false);
    }

    // Lease the pending specs that are past their backoff to the free
    // worker slots. Whole program groups (the specs of one ProgramKey) are
    // dealt round-robin, in order of first appearance: no program is
    // calibrated twice, and a grid that clusters its expensive points
    // still splits evenly, as shard_owns strides shards.
    if (leases.size() < max_workers) {
      std::vector<std::vector<uint64_t>> deal(max_workers - leases.size());
      std::map<ProgramKey, size_t> group;
      for (const uint64_t i : pending) {
        if (ready_at[i] > now) continue;
        const size_t g =
            group.try_emplace(program_key(grid_->specs()[i]), group.size())
                .first->second;
        deal[g % deal.size()].push_back(i);
      }
      for (std::vector<uint64_t>& specs : deal) {
        if (!specs.empty()) start_lease(std::move(specs));
      }
    }

    // Block until a worker streams bytes or closes its stream, or until
    // the nearest deadline: a spec's, a backoff's, or the whole run's.
    double wake = total_deadline;
    const auto sooner = [&](double t) {
      if (t > 0 && (wake <= 0 || t < wake)) wake = t;
    };
    for (const Lease& lease : leases) sooner(lease.deadline);
    if (leases.size() < max_workers) {
      for (const uint64_t i : pending) sooner(ready_at[i]);
    }
    std::vector<pollfd> fds;
    for (const Lease& lease : leases) fds.push_back({lease.fd, POLLIN, 0});
    int timeout_ms = -1;
    if (wake > 0) {
      timeout_ms = static_cast<int>(std::clamp(
          std::ceil((wake - now_s()) * 1e3), 0.0, 86400e3));
    }
    if (::poll(fds.data(), fds.size(), timeout_ms) < 0 && errno != EINTR) {
      CF_LOG_ERROR("supervisor: poll failed: %s", std::strerror(errno));
    }

    // Take what each worker sent; a closed stream means it exited or died.
    for (size_t k = leases.size(); k-- > 0;) {
      if (fds[k].revents == 0) continue;
      Lease& lease = leases[k];
      char buf[1 << 16];
      const ssize_t got = ::read(lease.fd, buf, sizeof(buf));
      if (got > 0) {
        lease.stream.append(buf, static_cast<size_t>(got));
        // A killed worker's late records are not accepted: its spec in
        // flight is charged.
        if (!lease.garbled && !lease.timed_out) accept(lease);
      } else if (got == 0 || errno != EINTR) {
        reap(lease);
        leases.erase(leases.begin() + static_cast<long>(k));
      }
    }

    // SIGKILL workers whose spec in flight overran its deadline; the reap
    // on their stream's end books the attempt as a timeout.
    now = now_s();
    for (Lease& lease : leases) {
      if (lease.deadline > 0 && now >= lease.deadline) {
        lease.timed_out = true;
        lease.deadline = 0.0;
        CF_LOG_WARN("supervisor: spec %llu overran its %.1fs budget "
                    "(attempt %u); SIGKILLing worker %d",
                    static_cast<unsigned long long>(lease.specs[lease.next]),
                    options_.spec_timeout_s,
                    attempts[lease.specs[lease.next]] + 1,
                    static_cast<int>(lease.pid));
        ::kill(lease.pid, SIGKILL);
      }
    }
  }

  report.quarantined = quarantine_rows;
  return finish(true);
}

// ---- offline status ----------------------------------------------------

JournalStatus read_journal_status(const std::string& dir) {
  JournalStatus status;
  const JournalReplay replay = replay_journal(dir + "/" + kJournalFileName);
  status.journal_present = replay.scan.present;
  status.valid = replay.scan.valid;
  status.error = replay.scan.error;
  status.grid = replay.pin.grid;
  status.grid_size = replay.pin.grid_size;
  status.dropped_bytes = replay.scan.dropped_bytes;
  status.done = replay.rows.size();
  for (const JournalRow& row : replay.rows) {
    if (row.attempt > 0) ++status.retried;
  }
  std::string manifest_error;
  read_manifest(dir + "/" + kQuarantineFileName,
                status.valid ? &status.grid : nullptr, &status.quarantined,
                &manifest_error);
  return status;
}

// ---- fleet legs ----------------------------------------------------------

bool append_shard_journal(
    const SweepGrid& grid, const std::string& dir, int shard_index,
    int shard_count,
    const std::vector<std::pair<uint64_t, RunResult>>& rows,
    std::string* error) {
  const std::string path = dir + "/" + kJournalFileName;
  const JournalPin pin{grid_digest(grid), grid.size(),
                       static_cast<uint32_t>(shard_index),
                       static_cast<uint32_t>(shard_count)};
  JournalReplay replay;
  if (std::string why = open_journal(dir, pin, &replay); !why.empty()) {
    *error = std::move(why);
    return false;
  }
  std::unordered_set<uint64_t> done;
  for (const JournalRow& row : replay.rows) done.insert(row.spec);
  LogAppender journal(path, replay.scan.good_bytes);
  for (const auto& [spec, result] : rows) {
    if (spec >= grid.size() || !shard_owns(spec, shard_index, shard_count)) {
      *error = "row " + std::to_string(spec) + " does not belong to shard " +
               partition(pin);
      return false;
    }
    if (!done.insert(spec).second) continue;
    if (!journal.append(encode_journal_row(spec, 0, encode_result(result)))) {
      *error = "cannot append to " + path + ": " + std::strerror(errno);
      return false;
    }
  }
  return true;
}

std::optional<std::vector<RunResult>> merge_journals(
    const SweepGrid& grid, const std::vector<std::string>& paths,
    std::string* error) {
  const SpecDigest digest = grid_digest(grid);
  std::vector<RunResult> results(grid.size());
  std::vector<uint8_t> covered(grid.size(), 0);
  std::vector<std::string> owner;  // per shard index: the file claiming it
  std::string first, merged;
  JournalPin pin;
  const auto fail = [&](const std::string& why) {
    *error = why;
    return std::nullopt;
  };
  for (const std::string& arg : paths) {
    std::error_code ec;
    const std::string path =
        fs::is_directory(arg, ec) ? arg + "/" + kJournalFileName : arg;
    JournalReplay replay = replay_journal(path);
    if (!replay.scan.valid) return fail(replay.scan.error);
    const JournalPin& p = replay.pin;
    if (first.empty()) {
      first = path;
      pin = p;
      owner.assign(p.shard_count, "");
    }
    const std::string label = "shard " + partition(p) + " (" + path + ")";
    if (p.grid != pin.grid) {
      return fail("journals of different grids: " + first + " has digest " +
                  pin.grid.hex() + ", " + path + " has digest " +
                  p.grid.hex());
    }
    if (p.shard_count != pin.shard_count) {
      return fail(label + " disagrees on the partition with shard " +
                  partition(pin) + " (" + first + ")");
    }
    if (!owner[p.shard_index].empty()) {
      return fail("duplicated shard journals: shard " + partition(p) +
                  " (from " + owner[p.shard_index] + ", " + path +
                  ") — each shard may appear once in the merge list");
    }
    if (p.grid != digest || p.grid_size != grid.size()) {
      return fail(path + " was written by a different grid (" +
                  std::to_string(p.grid_size) + " specs, digest " +
                  p.grid.hex() + "; this grid: " +
                  std::to_string(grid.size()) + " specs, digest " +
                  digest.hex() + ") — merge with the flags the legs used");
    }
    owner[p.shard_index] = path;
    merged += (merged.empty() ? "" : ", ") + path;
    for (JournalRow& row : replay.rows) {
      if (!shard_owns(row.spec, static_cast<int>(p.shard_index),
                      static_cast<int>(p.shard_count))) {
        return fail("row " + std::to_string(row.spec) +
                    " does not belong to " + label);
      }
      covered[row.spec] = 1;
      results[row.spec] = std::move(row.result);
    }
  }
  if (first.empty()) return fail("no journals to merge");

  // An imperfect union is named precisely: every uncovered row maps back
  // to its owning shard, which is either missing from the list or
  // incomplete in its journal, and the merged files are listed.
  std::vector<uint8_t> short_shard(pin.shard_count, 0);
  uint64_t missing_rows = 0;
  for (uint64_t i = 0; i < grid.size(); ++i) {
    if (covered[i]) continue;
    ++missing_rows;
    short_shard[i % pin.shard_count] = 1;
  }
  if (missing_rows == 0) return results;
  std::string missing;
  for (uint32_t s = 0; s < pin.shard_count; ++s) {
    if (!short_shard[s]) continue;
    missing += (missing.empty() ? "" : ", ") + std::to_string(s) + "/" +
               std::to_string(pin.shard_count) +
               (owner[s].empty() ? "" : " (incomplete: " + owner[s] + ")");
  }
  *error = std::to_string(missing_rows) + " of " +
           std::to_string(grid.size()) + " rows uncovered; missing shard "
           "journals: " + missing + " (merged files: " + merged + ")";
  return std::nullopt;
}

}  // namespace cuttlefish::exp
