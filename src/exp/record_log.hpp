#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

/// The one on-disk framing of the sweep layer: cache shards, the
/// supervisor journal, the quarantine manifest and the worker result file
/// are all record logs, and only this code frames, checksums, scans or
/// writes their bytes. Format and crash contract: docs/SWEEP_CACHE.md.
///
///   header  u32 kind | u32 version | pin (fixed size per kind) | u64 sum
///   record  u32 length | payload | u64 sum
///
/// Each checksum covers the bytes before it in its header or record; the
/// kind tag doubles as the magic. An append-only kind keeps every record
/// before the first bad one; a whole-file kind must be exactly one intact
/// record. A killed process cannot corrupt or lose committed records;
/// nothing is fsynced, so power loss is not covered.
namespace cuttlefish::exp {

/// The four-byte tags of the record-log kinds.
enum class LogKind : uint32_t {
  kCacheShard = 0x43465348u,    // "CFSH", append-only
  kJournal = 0x43464a4eu,       // "CFJN", append-only
  kManifest = 0x4346514du,      // "CFQM", whole file
  kWorkerResult = 0x43465752u,  // "CFWR", whole file
};

/// Container version of every kind. Version-1 files (the hand-framed
/// formats that began with the same tags) are rejected by this number.
inline constexpr uint32_t kLogVersion = 2;

uint64_t checksum64(const void* data, size_t size);
bool read_file(const std::string& path, std::string* out);
/// Retries short writes; false on the first failing write().
bool write_all(int fd, std::string_view bytes);
/// Temp + rename: `path` either keeps its old content or gains all of
/// `body`. Every failure logs, removes the temp file and returns false.
bool write_file_atomic(const std::string& path, std::string_view body);

std::string log_header(LogKind kind, std::string_view pin);
/// Frames `payload` onto the end of `*log`; returns the payload's offset.
uint64_t append_record(std::string* log, std::string_view payload);

struct LogRecord {
  uint64_t offset = 0;  // of the payload within the file
  uint32_t size = 0;
};

struct LogScan {
  bool present = false;  // the file could be read
  bool valid = false;    // the header (and a whole file's record) checked out
  std::string error;     // why !valid, naming the file
  std::string data;      // the file's bytes; records point into it
  std::string pin;
  std::vector<LogRecord> records;
  uint64_t good_bytes = 0;  // end of the last good record
  uint64_t dropped_bytes = 0;

  std::string_view payload(const LogRecord& record) const {
    return std::string_view(data).substr(record.offset, record.size);
  }
};

/// Scans `data` as a log of `kind` whose pin is `pin_size` bytes; `name`
/// labels the errors.
LogScan parse_log(std::string data, LogKind kind, size_t pin_size,
                  const std::string& name);
/// parse_log over a file's bytes; present == false (and an error saying
/// so) when it cannot be read.
LogScan scan_log(const std::string& path, LogKind kind, size_t pin_size);

/// O_APPEND writer of one existing log. An append that fails part-way is
/// truncated back to the last committed length, so the records appended
/// after it stay reachable by the scan.
class LogAppender {
 public:
  /// Appends after the first `committed` bytes of `path` (a scan's
  /// good_bytes), truncating the torn tail past them first.
  LogAppender(const std::string& path, uint64_t committed);
  ~LogAppender();
  LogAppender(const LogAppender&) = delete;
  LogAppender& operator=(const LogAppender&) = delete;

  bool ok() const { return fd_ >= 0; }
  /// False when the record was not committed (errno says why).
  bool append(std::string_view payload);

 private:
  int fd_ = -1;
  uint64_t committed_ = 0;
};

}  // namespace cuttlefish::exp
