#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "exp/spec_digest.hpp"
#include "exp/sweep.hpp"

/// Process-level sweep supervision (docs/SUPERVISOR.md). PR-7's fault
/// model covers devices that misbehave *inside* a live process; this
/// layer covers the process itself dying — a crashed, hung or OOM-killed
/// worker must cost one cell's worth of retries, never the campaign.
///
/// The supervisor leases the pending specs to forked workers, dealing
/// whole program groups (specs that share one calibrated program)
/// round-robin over the free worker slots.
/// A worker streams one checksummed record per finished spec down a
/// pipe, and the supervisor journals each as it arrives. A worker that
/// crashes, overruns its per-spec deadline (SIGKILL; the deadline
/// restarts at every record) or streams garbage is charged to the one
/// spec in flight; the specs after it go back to pending unchanged. Failed
/// specs are retried with exponential backoff, and a poison spec that
/// kills its worker `max_attempts` times is skipped, recorded in a
/// checksummed quarantine manifest with its exit status/signal, and the
/// sweep completes without it. Workers die with the supervisor. The
/// journal, the manifest and the worker stream are all record logs
/// (exp/record_log.hpp), so a supervisor that is itself SIGKILLed mid-run
/// resumes by re-running only the unfinished specs — and, because
/// journaled results are the workers' own encode_result bytes, the
/// finished table is bit-identical to an uninterrupted single-process
/// run.
///
/// The same journal is the fleet protocol: its header pins the grid
/// digest and the partition i/N it owns (0/1 for a supervisor), a
/// `--shard i/N` leg appends its rows to one (append_shard_journal), and
/// merge_journals unions N of them back into the full table.
///
/// Failure testing is deterministic: CUTTLEFISH_CRASH_AT=<spec>:<mode>
/// (modes abort | kill | hang | exit, optional :N = first N attempts
/// only) makes the worker kill itself when it reaches that spec index,
/// mirroring the op-indexed FaultSchedule of the in-process fault layer.
namespace cuttlefish::exp {

/// Journal / manifest filenames inside the journal directory.
inline constexpr const char* kJournalFileName = "journal.bin";
inline constexpr const char* kQuarantineFileName = "quarantine.manifest";

/// How a worker kills itself under the CUTTLEFISH_CRASH_AT hook.
enum class CrashMode : uint8_t {
  kNone = 0,
  kAbort,  // SIGABRT via abort()
  kKill,   // SIGKILL via kill(getpid(), SIGKILL)
  kHang,   // sleep forever; dies to the supervisor's per-spec timeout
  kExit,   // _exit(41)
};

/// Parsed CUTTLEFISH_CRASH_AT=<spec-index>:<mode>[:times] directive.
struct CrashSpec {
  int64_t spec_index = -1;  // -1 = hook disabled
  CrashMode mode = CrashMode::kNone;
  /// Crash only on the first `times` attempts (-1 = every attempt). A
  /// finite count exercises the retry path; the default exercises
  /// quarantine.
  int times = -1;

  bool enabled() const { return spec_index >= 0 && mode != CrashMode::kNone; }
};

/// Strict parse of the <spec-index>:<mode>[:times] form. nullopt (with
/// *error set) on any malformed field — a typo'd crash directive must
/// fail the run loudly, not silently test nothing.
std::optional<CrashSpec> parse_crash_spec(const std::string& text,
                                          std::string* error);

struct SupervisorOptions {
  /// Concurrently forked workers (each runs one lease of specs in order).
  int max_workers = 1;
  /// Attempts before a spec is quarantined as poison (K in the docs).
  int max_attempts = 3;
  /// Per-spec wall-clock budget, counted from the lease's start or its
  /// last accepted record; an overrunning worker is SIGKILLed and the
  /// attempt of its spec in flight counts as a timeout failure. <= 0
  /// disables.
  double spec_timeout_s = 300.0;
  /// Whole-run (per-shard) wall-clock budget: on overrun every active
  /// worker is SIGKILLed and the run returns incomplete — the journal
  /// keeps what finished, so a later resume picks up the rest. <= 0
  /// disables.
  double total_timeout_s = 0.0;
  /// Exponential retry backoff: attempt k waits base * 2^(k-1), capped.
  double backoff_base_s = 0.05;
  double backoff_max_s = 2.0;
  /// Deterministic worker self-kill hook. When disabled here, the
  /// CUTTLEFISH_CRASH_AT environment variable is consulted instead.
  CrashSpec crash;
};

/// One quarantined (or failed) spec, as recorded in the manifest.
struct QuarantineRow {
  uint64_t spec_index = 0;
  uint32_t attempts = 0;   // failed attempts charged to this spec
  bool timed_out = false;  // last failure was a per-spec deadline SIGKILL
  int exit_status = -1;    // WEXITSTATUS when the worker exited; else -1
  int term_signal = 0;     // WTERMSIG when the worker was signaled; else 0
};

struct SupervisorReport {
  /// Every non-quarantined spec finished (quarantine does not clear it:
  /// a sweep that completed *around* poison is still complete).
  bool completed = false;
  std::string error;   // non-empty when the run could not start at all
  size_t resumed = 0;  // specs served from the journal of a prior run
  size_t executed = 0; // specs a worker finished this invocation
  size_t retries = 0;  // failed attempts that were retried
  size_t launches = 0; // workers forked (one per lease)
  std::vector<QuarantineRow> quarantined;
  /// Specs abandoned pending (total_timeout_s overrun); resumable.
  std::vector<uint64_t> unfinished;

  /// 1 for each quarantined spec of a `grid_size`-spec grid: the
  /// missing-cell mask summarize() takes.
  std::vector<uint8_t> quarantine_mask(size_t grid_size) const {
    std::vector<uint8_t> mask(grid_size, 0);
    for (const QuarantineRow& row : quarantined) {
      if (row.spec_index < grid_size) mask[row.spec_index] = 1;
    }
    return mask;
  }
};

/// Identity of a grid for journal/resume matching: digest over every
/// spec's canonical encode_spec bytes (spec_digest.hpp), so a journal is
/// only ever replayed into the exact grid that wrote it.
SpecDigest grid_digest(const SweepGrid& grid);

class SweepSupervisor {
 public:
  /// The grid must outlive the supervisor. `journal_dir` is created if
  /// missing; an existing journal for the same grid is resumed, one for a
  /// different grid is refused.
  SweepSupervisor(const SweepGrid& grid, std::string journal_dir,
                  SupervisorOptions options = {});

  /// Run (or resume) the sweep. Results are indexed like grid.specs();
  /// quarantined / unfinished cells are default-constructed. On a
  /// journal-identity error the vector is empty and report->error says
  /// why.
  std::vector<RunResult> run(SupervisorReport* report = nullptr);

  const std::string& journal_dir() const { return dir_; }

 private:
  const SweepGrid* grid_;
  std::string dir_;
  SupervisorOptions options_;
};

/// Offline journal inspection for `cuttlefishctl sweep status`: header
/// identity, completed-spec count and the quarantine manifest, without
/// needing the grid.
struct JournalStatus {
  bool journal_present = false;
  bool valid = false;  // header parsed and checksummed records scanned
  std::string error;
  SpecDigest grid = {0, 0};
  uint64_t grid_size = 0;
  uint64_t done = 0;           // distinct specs with a journaled result
  uint64_t retried = 0;        // of those, finished on attempt > 0
  uint64_t dropped_bytes = 0;  // torn tail rejected by the scan
  std::vector<QuarantineRow> quarantined;
};

JournalStatus read_journal_status(const std::string& dir);

/// A `--shard i/N` fleet leg's output: appends `rows` (spec index,
/// result) of partition i/N of `grid` to the journal in `dir`, creating it
/// pinned to (grid, i/N) when absent. An existing journal must carry the
/// same pin; rows it already holds are skipped, so a re-run leg adds
/// nothing twice. False + *error on a pin mismatch, a row outside the
/// partition, or I/O failure.
bool append_shard_journal(
    const SweepGrid& grid, const std::string& dir, int shard_index,
    int shard_count,
    const std::vector<std::pair<uint64_t, RunResult>>& rows,
    std::string* error);

/// Exactly-once union of fleet journals into `grid`'s result table, byte
/// identical to a single-process run. Each path is a journal file or a
/// directory holding one. nullopt + *error — naming the offending files —
/// unless every journal was written by `grid`, they agree on N, each i/N
/// appears once, every row lies in its journal's partition, and together
/// they cover every spec.
std::optional<std::vector<RunResult>> merge_journals(
    const SweepGrid& grid, const std::vector<std::string>& paths,
    std::string* error);

}  // namespace cuttlefish::exp
