#include "exp/result_cache.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/assert.hpp"
#include "common/log.hpp"
#include "exp/blob.hpp"
#include "exp/record_log.hpp"

namespace fs = std::filesystem;

namespace cuttlefish::exp {

namespace {

constexpr uint32_t kResultMagic = 0x43465252u;  // "CFRR"
constexpr uint32_t kResultFormatVersion = 1;
/// Cache record payload: digest (16) | u32 spec length | spec | result.
constexpr size_t kRecordPrefix = 16 + 4;

}  // namespace

// ---- RunResult codec ---------------------------------------------------

std::string encode_result(const RunResult& result) {
  BlobWriter w;
  w.u32(kResultMagic);
  w.u32(kResultFormatVersion);
  w.f64(result.time_s);
  w.f64(result.energy_j);
  w.u64(result.instructions);
  w.u32(static_cast<uint32_t>(result.timeline.size()));
  for (const TimePoint& p : result.timeline) {
    w.f64(p.t);
    w.f64(p.tipi);
    w.f64(p.jpi);
    w.i32(p.cf.value);
    w.i32(p.uf.value);
  }
  w.u32(static_cast<uint32_t>(result.nodes.size()));
  for (const NodeSummary& n : result.nodes) {
    w.i64(n.slab);
    w.u64(n.ticks);
    w.i32(n.cf_opt);
    w.i32(n.uf_opt);
  }
  const core::ControllerStats& s = result.stats;
  w.u64(s.ticks);
  w.u64(s.idle_ticks);
  w.u64(s.transitions);
  w.u64(s.samples_recorded);
  w.u64(s.freq_writes);
  w.u64(s.nodes_inserted);
  return w.take();
}

bool decode_result(const void* data, size_t size, RunResult* out) {
  BlobReader r(data, size);
  if (r.u32() != kResultMagic) return false;
  if (r.u32() != kResultFormatVersion) return false;
  RunResult res;
  res.time_s = r.f64();
  res.energy_j = r.f64();
  res.instructions = r.u64();
  const uint32_t timeline_count = r.u32();
  // Element sizes bound the counts: a corrupt count cannot force an
  // allocation larger than the blob it claims to describe.
  if (!r.ok() || timeline_count > r.remaining() / 32) return false;
  res.timeline.reserve(timeline_count);
  for (uint32_t i = 0; i < timeline_count; ++i) {
    TimePoint p;
    p.t = r.f64();
    p.tipi = r.f64();
    p.jpi = r.f64();
    p.cf = FreqMHz{r.i32()};
    p.uf = FreqMHz{r.i32()};
    res.timeline.push_back(p);
  }
  const uint32_t node_count = r.u32();
  if (!r.ok() || node_count > r.remaining() / 24) return false;
  res.nodes.reserve(node_count);
  for (uint32_t i = 0; i < node_count; ++i) {
    NodeSummary n;
    n.slab = r.i64();
    n.ticks = r.u64();
    n.cf_opt = r.i32();
    n.uf_opt = r.i32();
    res.nodes.push_back(n);
  }
  core::ControllerStats& s = res.stats;
  s.ticks = r.u64();
  s.idle_ticks = r.u64();
  s.transitions = r.u64();
  s.samples_recorded = r.u64();
  s.freq_writes = r.u64();
  s.nodes_inserted = r.u64();
  if (!r.ok() || r.remaining() != 0) return false;
  *out = std::move(res);
  return true;
}

// ---- shard store -------------------------------------------------------

ResultCache::ResultCache(std::string dir) : dir_(std::move(dir)) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) {
    CF_LOG_ERROR("result cache: cannot create %s: %s", dir_.c_str(),
                 ec.message().c_str());
  }
  scan_all();
}

void ResultCache::scan_all() {
  shard_paths_.clear();
  entries_.clear();
  index_.clear();
  skipped_records_ = 0;
  std::error_code ec;
  std::vector<std::string> paths;
  for (const auto& e : fs::directory_iterator(dir_, ec)) {
    const std::string name = e.path().filename().string();
    if (name.rfind("shard-", 0) == 0 &&
        name.size() > 4 && name.substr(name.size() - 4) == ".bin") {
      paths.push_back(e.path().string());
    }
  }
  // Directory iteration order is filesystem-dependent; sort so duplicate
  // digests resolve to the same shard on every open.
  std::sort(paths.begin(), paths.end());
  for (const std::string& path : paths) scan_shard(path);
}

void ResultCache::scan_shard(const std::string& path) {
  const LogScan scan = scan_log(path, LogKind::kCacheShard, 0);
  if (!scan.valid) {
    CF_LOG_WARN("result cache: %s; ignoring the shard", scan.error.c_str());
    ++skipped_records_;
    return;
  }
  const size_t shard_index = shard_paths_.size();
  shard_paths_.push_back(path);
  for (const LogRecord& record : scan.records) {
    const std::string_view payload = scan.payload(record);
    BlobReader r(payload.data(), payload.size());
    Entry entry;
    entry.digest.hi = r.u64();
    entry.digest.lo = r.u64();
    entry.spec_len = r.u32();
    if (!r.ok() || entry.spec_len > r.remaining()) {
      ++skipped_records_;
      continue;
    }
    entry.shard = shard_index;
    entry.spec_offset = record.offset + kRecordPrefix;
    entry.result_offset = entry.spec_offset + entry.spec_len;
    entry.result_len =
        static_cast<uint32_t>(r.remaining() - entry.spec_len);
    // First occurrence wins; later duplicates (merged stores share
    // content) are valid but redundant.
    if (index_.emplace(entry.digest, entries_.size()).second) {
      entries_.push_back(entry);
    }
  }
  if (scan.dropped_bytes > 0) {
    // A torn append or bit rot: the records from the first bad one on
    // re-simulate.
    CF_LOG_WARN(
        "result cache: %s: bad record at offset %llu; ignoring the rest of "
        "the shard (%llu trailing bytes)",
        path.c_str(), static_cast<unsigned long long>(scan.good_bytes),
        static_cast<unsigned long long>(scan.dropped_bytes));
    ++skipped_records_;
  }
}

bool ResultCache::read_span(size_t shard, uint64_t offset, uint32_t len,
                           std::string* out) const {
  std::ifstream in(shard_paths_[shard], std::ios::binary);
  if (!in) return false;
  in.seekg(static_cast<std::streamoff>(offset));
  std::string buf(len, '\0');
  in.read(buf.data(), static_cast<std::streamsize>(len));
  if (in.gcount() != static_cast<std::streamsize>(len)) return false;
  *out = std::move(buf);
  return true;
}

bool ResultCache::lookup(const SpecDigest& digest, RunResult* out) {
  const auto it = index_.find(digest);
  if (it == index_.end()) return false;
  const Entry& entry = entries_[it->second];
  std::string bytes;
  if (!read_span(entry.shard, entry.result_offset, entry.result_len,
                 &bytes) ||
      !decode_result(bytes.data(), bytes.size(), out)) {
    CF_LOG_WARN("result cache: entry %s unreadable; treating as a miss",
                digest.hex().c_str());
    return false;
  }
  return true;
}

void ResultCache::insert_batch(const std::vector<Insert>& batch) {
  std::string content = log_header(LogKind::kCacheShard, {});
  std::vector<Entry> pending;
  std::unordered_map<SpecDigest, bool, SpecDigestHash> in_batch;
  for (const Insert& ins : batch) {
    CF_ASSERT(ins.result != nullptr, "insert without a result");
    // Skip entries the store (or this very batch — grids may contain
    // duplicate points) already holds.
    if (index_.count(ins.digest) != 0) continue;
    if (!in_batch.emplace(ins.digest, true).second) continue;
    const std::string result_bytes = encode_result(*ins.result);
    BlobWriter payload;
    payload.u64(ins.digest.hi);
    payload.u64(ins.digest.lo);
    payload.u32(static_cast<uint32_t>(ins.spec_blob.size()));
    payload.bytes(ins.spec_blob.data(), ins.spec_blob.size());
    payload.bytes(result_bytes.data(), result_bytes.size());
    Entry entry;
    entry.digest = ins.digest;
    entry.spec_len = static_cast<uint32_t>(ins.spec_blob.size());
    entry.result_len = static_cast<uint32_t>(result_bytes.size());
    entry.spec_offset = append_record(&content, payload.data()) +
                        kRecordPrefix;
    entry.result_offset = entry.spec_offset + entry.spec_len;
    pending.push_back(entry);
  }
  if (pending.empty()) return;

  // Content-hash naming makes shard writes idempotent and store merges
  // collision-free: copying shards between stores can only ever add files.
  const std::string name =
      "shard-" + digest_bytes(content.data(), content.size()).hex().substr(
                     0, 16) +
      ".bin";
  const std::string path = dir_ + "/" + name;
  std::error_code ec;
  if (!fs::exists(path, ec)) {
    if (!write_file_atomic(path, content)) return;
  }
  const size_t shard_index = shard_paths_.size();
  shard_paths_.push_back(path);
  for (Entry& entry : pending) {
    entry.shard = shard_index;
    if (index_.emplace(entry.digest, entries_.size()).second) {
      entries_.push_back(entry);
    }
  }
}

ResultCache::Stats ResultCache::stats() const {
  Stats s;
  s.entries = entries_.size();
  s.shards = shard_paths_.size();
  s.skipped_records = skipped_records_;
  std::error_code ec;
  for (const std::string& path : shard_paths_) {
    const auto size = fs::file_size(path, ec);
    if (!ec) s.bytes += size;
  }
  return s;
}

void ResultCache::note_run(uint64_t hits, uint64_t misses) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%llu %llu\n",
                static_cast<unsigned long long>(hits),
                static_cast<unsigned long long>(misses));
  write_file_atomic(dir_ + "/last_run.stats", buf);
}

ResultCache::LastRun ResultCache::last_run() const {
  std::string text;
  LastRun run;
  if (!read_file(dir_ + "/last_run.stats", &text)) return run;
  unsigned long long hits = 0, misses = 0;
  if (std::sscanf(text.c_str(), "%llu %llu", &hits, &misses) != 2) return run;
  run.present = true;
  run.hits = hits;
  run.misses = misses;
  return run;
}

uint64_t ResultCache::gc(uint64_t max_bytes) {
  struct ShardFile {
    std::string path;
    uint64_t bytes = 0;
    fs::file_time_type mtime;
  };
  std::vector<ShardFile> files;
  uint64_t total = 0;
  std::error_code ec;
  for (const std::string& path : shard_paths_) {
    ShardFile f;
    f.path = path;
    f.bytes = fs::file_size(path, ec);
    if (ec) continue;
    f.mtime = fs::last_write_time(path, ec);
    if (ec) continue;
    total += f.bytes;
    files.push_back(std::move(f));
  }
  // Oldest first (name as the tiebreak so the order is deterministic).
  std::sort(files.begin(), files.end(),
            [](const ShardFile& a, const ShardFile& b) {
              if (a.mtime != b.mtime) return a.mtime < b.mtime;
              return a.path < b.path;
            });
  uint64_t removed = 0;
  for (const ShardFile& f : files) {
    if (total <= max_bytes) break;
    fs::remove(f.path, ec);
    if (ec) {
      CF_LOG_WARN("result cache: gc cannot remove %s: %s", f.path.c_str(),
                  ec.message().c_str());
      continue;
    }
    total -= f.bytes;
    removed += f.bytes;
  }
  if (removed > 0) scan_all();
  return removed;
}

bool ResultCache::entry(size_t i, EntryView* out) {
  if (i >= entries_.size()) return false;
  const Entry& entry = entries_[i];
  std::string result_bytes;
  if (!read_span(entry.shard, entry.spec_offset, entry.spec_len,
                 &out->spec_blob) ||
      !read_span(entry.shard, entry.result_offset, entry.result_len,
                 &result_bytes) ||
      !decode_result(result_bytes.data(), result_bytes.size(),
                     &out->result)) {
    return false;
  }
  out->digest = entry.digest;
  return true;
}

}  // namespace cuttlefish::exp
