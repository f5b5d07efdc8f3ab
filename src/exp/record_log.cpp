#include "exp/record_log.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/log.hpp"
#include "exp/blob.hpp"
#include "exp/spec_digest.hpp"

namespace cuttlefish::exp {

uint64_t checksum64(const void* data, size_t size) {
  return digest_bytes(data, size).lo;
}

bool read_file(const std::string& path, std::string* out) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return false;
  struct stat st {};
  bool ok = ::fstat(fd, &st) == 0 && S_ISREG(st.st_mode);
  std::string data(ok ? static_cast<size_t>(st.st_size) : 0, '\0');
  size_t got = 0;
  while (ok && got < data.size()) {
    const ssize_t n = ::read(fd, data.data() + got, data.size() - got);
    ok = n >= 0;
    if (n <= 0) break;
    got += static_cast<size_t>(n);
  }
  ::close(fd);
  data.resize(got);  // a file that shrank since fstat keeps what was read
  if (ok) *out = std::move(data);
  return ok;
}

bool write_all(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::write(fd, bytes.data(), bytes.size());
    if (n <= 0) return false;
    bytes.remove_prefix(static_cast<size_t>(n));
  }
  return true;
}

bool write_file_atomic(const std::string& path, std::string_view body) {
  const std::string tmp =
      path + ".tmp-" + std::to_string(static_cast<long>(::getpid()));
  const int fd =
      ::open(tmp.c_str(), O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC, 0644);
  const bool written = fd >= 0 && write_all(fd, body);
  const bool ok = written && ::close(fd) == 0 &&
                  ::rename(tmp.c_str(), path.c_str()) == 0;
  if (!ok) {
    const int err = errno;
    if (fd >= 0 && !written) ::close(fd);
    ::unlink(tmp.c_str());
    CF_LOG_ERROR("record log: cannot write %s: %s", path.c_str(),
                 std::strerror(err));
  }
  return ok;
}

std::string log_header(LogKind kind, std::string_view pin) {
  BlobWriter w;
  w.u32(static_cast<uint32_t>(kind));
  w.u32(kLogVersion);
  w.bytes(pin.data(), pin.size());
  w.u64(checksum64(w.data().data(), w.size()));
  return w.take();
}

uint64_t append_record(std::string* log, std::string_view payload) {
  const size_t start = log->size();
  const auto size = static_cast<uint32_t>(payload.size());
  log->append(reinterpret_cast<const char*>(&size), sizeof(size));
  log->append(payload);
  const uint64_t sum = checksum64(log->data() + start, log->size() - start);
  log->append(reinterpret_cast<const char*>(&sum), sizeof(sum));
  return start + sizeof(size);
}

LogScan parse_log(std::string data, LogKind kind, size_t pin_size,
                  const std::string& name) {
  LogScan scan;
  scan.present = true;
  scan.data = std::move(data);
  const std::string& d = scan.data;
  BlobReader h(d.data(), d.size());
  const uint32_t tag = h.u32();
  const uint32_t version = h.u32();
  const char* pin = h.span(pin_size);
  const uint64_t sum = h.u64();
  // Kind and version are checked first: an old or foreign file is named
  // as such and never parsed further.
  const bool tagged = d.size() >= 2 * sizeof(uint32_t);
  if (tagged && tag != static_cast<uint32_t>(kind)) {
    scan.error = name + " is not a record log of this kind (bad magic)";
    return scan;
  }
  if (tagged && version != kLogVersion) {
    scan.error = name + " has format version " + std::to_string(version) +
                 "; this build reads version " + std::to_string(kLogVersion);
    return scan;
  }
  if (!h.ok()) {
    scan.error = name + " is truncated (no complete header)";
    return scan;
  }
  const size_t header_size = d.size() - h.remaining();
  if (sum != checksum64(d.data(), header_size - sizeof(sum))) {
    scan.error = name + " failed its header checksum (torn or corrupt)";
    return scan;
  }
  scan.pin.assign(pin, pin_size);

  size_t off = header_size;
  while (off < d.size()) {
    BlobReader r(d.data() + off, d.size() - off);
    const uint32_t size = r.u32();
    r.span(size);
    const uint64_t stored = r.u64();
    if (!r.ok() || checksum64(d.data() + off, sizeof(size) + size) != stored) {
      break;
    }
    scan.records.push_back(LogRecord{off + sizeof(size), size});
    off = d.size() - r.remaining();
  }
  scan.good_bytes = off;
  scan.dropped_bytes = d.size() - off;
  const bool whole =
      kind == LogKind::kManifest || kind == LogKind::kWorkerResult;
  if (whole && (scan.records.size() != 1 || scan.dropped_bytes != 0)) {
    scan.error = name + " failed its record checksum (torn or corrupt)";
    return scan;
  }
  scan.valid = true;
  return scan;
}

LogScan scan_log(const std::string& path, LogKind kind, size_t pin_size) {
  std::string data;
  if (read_file(path, &data)) {
    return parse_log(std::move(data), kind, pin_size, path);
  }
  LogScan scan;
  scan.error = "cannot read " + path;
  return scan;
}

LogAppender::LogAppender(const std::string& path, uint64_t committed)
    : fd_(::open(path.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC)),
      committed_(committed) {
  if (fd_ >= 0 && ::ftruncate(fd_, static_cast<off_t>(committed_)) != 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

LogAppender::~LogAppender() {
  if (fd_ >= 0) ::close(fd_);
}

bool LogAppender::append(std::string_view payload) {
  if (fd_ < 0) {
    errno = EBADF;
    return false;
  }
  std::string record;
  append_record(&record, payload);
  if (write_all(fd_, record)) {
    committed_ += record.size();
    return true;
  }
  const int err = errno;
  if (::ftruncate(fd_, static_cast<off_t>(committed_)) != 0) {
    // The tear stays, and the scan stops at it: anything appended after
    // it would be lost, so this appender takes no more records.
    ::close(fd_);
    fd_ = -1;
  }
  errno = err;
  return false;
}

}  // namespace cuttlefish::exp
