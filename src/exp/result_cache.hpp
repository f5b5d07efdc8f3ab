#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "exp/driver.hpp"
#include "exp/spec_digest.hpp"

/// On-disk content-addressed store for sweep results, and the byte-exact
/// RunResult codec every persisted result goes through, so a cached or
/// journaled result is indistinguishable — bit for bit — from a fresh
/// co-simulation.
///
/// Store layout (`<dir>/`):
///   shard-<hex16>.bin   cache-shard record logs (exp/record_log.hpp),
///                       named by their own content hash (so merging two
///                       stores is literally copying files; identical
///                       shards collide to one)
///   last_run.stats      hit/miss counters of the most recent cached sweep
///
/// Crash safety: shards are written temp + rename, so a torn write never
/// corrupts an existing shard; within a file the open-time scan stops at
/// the first bad record (a truncated tail costs its records, never wrong
/// results). The cache is a single-writer, single-reader object: the sweep
/// engine drives it from the coordinating thread only — workers touch it
/// never (lookups happen before the fan-out, inserts after the join).
namespace cuttlefish::exp {

/// Byte-exact RunResult codec (versioned; scalars + timeline + TIPI node
/// summaries + controller stats, doubles as raw bits).
std::string encode_result(const RunResult& result);
bool decode_result(const void* data, size_t size, RunResult* out);

class ResultCache {
 public:
  /// Creates `dir` if missing and scans every shard into the in-memory
  /// index (digest -> file/offset; payloads stay on disk).
  explicit ResultCache(std::string dir);

  size_t size() const { return entries_.size(); }
  bool contains(const SpecDigest& digest) const {
    return index_.count(digest) != 0;
  }
  /// Serves a cached result, decoded from its shard file. False on a miss
  /// (including entries whose shard vanished or re-corrupted since the
  /// open-time scan — a failed read is demoted to a miss, never trusted).
  bool lookup(const SpecDigest& digest, RunResult* out);

  struct Insert {
    SpecDigest digest;
    std::string spec_blob;  // canonical spec bytes (enables `verify`)
    const RunResult* result = nullptr;
  };
  /// Persists a batch as ONE new shard (temp + rename; no-op for an empty
  /// or fully duplicate batch). Entries already present are skipped.
  void insert_batch(const std::vector<Insert>& batch);

  struct Stats {
    size_t entries = 0;
    size_t shards = 0;
    uint64_t bytes = 0;            // on-disk shard bytes
    uint64_t skipped_records = 0;  // rejected by the open-time scan
  };
  Stats stats() const;

  struct LastRun {
    bool present = false;
    uint64_t hits = 0;
    uint64_t misses = 0;
  };
  /// Written (temp + rename) by the sweep engine after every cached run.
  void note_run(uint64_t hits, uint64_t misses);
  LastRun last_run() const;

  /// Deletes oldest-first whole shards until the store is <= max_bytes;
  /// returns the bytes removed. The index is rebuilt from the survivors.
  uint64_t gc(uint64_t max_bytes);

  /// Indexed access for `cuttlefishctl cache verify`: the i-th entry's
  /// digest, canonical spec bytes and decoded result. False on read
  /// failure.
  struct EntryView {
    SpecDigest digest;
    std::string spec_blob;
    RunResult result;
  };
  bool entry(size_t i, EntryView* out);

  const std::string& dir() const { return dir_; }

 private:
  struct Entry {
    SpecDigest digest;
    size_t shard = 0;  // index into shard_paths_
    uint64_t spec_offset = 0;
    uint32_t spec_len = 0;
    uint64_t result_offset = 0;
    uint32_t result_len = 0;
  };

  void scan_all();
  void scan_shard(const std::string& path);
  bool read_span(size_t shard, uint64_t offset, uint32_t len,
                 std::string* out) const;

  std::string dir_;
  std::vector<std::string> shard_paths_;
  std::vector<Entry> entries_;
  std::unordered_map<SpecDigest, size_t, SpecDigestHash> index_;
  uint64_t skipped_records_ = 0;
};

}  // namespace cuttlefish::exp
