#include "exp/result_cache.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>

#include "exp/spec_digest.hpp"
#include "exp/sweep.hpp"
#include "sim/machine_config.hpp"
#include "workloads/suite.hpp"

namespace cuttlefish::exp {
namespace {

namespace fs = std::filesystem;

/// Fresh store directory per test, removed on teardown.
class TempStore {
 public:
  explicit TempStore(const std::string& tag) {
    root_ = fs::temp_directory_path() /
            ("cuttlefish_cache_test_" + tag + "_" +
             std::to_string(::getpid()));
    fs::remove_all(root_);
  }
  ~TempStore() { fs::remove_all(root_); }

  std::string path() const { return root_.string(); }
  fs::path dir() const { return root_; }

  /// The store's shard files, sorted for determinism.
  std::vector<fs::path> shards() const {
    std::vector<fs::path> out;
    if (!fs::exists(root_)) return out;
    for (const auto& e : fs::directory_iterator(root_)) {
      if (e.path().filename().string().rfind("shard-", 0) == 0) {
        out.push_back(e.path());
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  fs::path root_;
};

bool same_result_bytes(const RunResult& a, const RunResult& b) {
  return encode_result(a) == encode_result(b);
}

bool tables_identical(const std::vector<RunResult>& a,
                      const std::vector<RunResult>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!same_result_bytes(a[i], b[i])) return false;
  }
  return true;
}

/// The grid used by most tests: two models, Default + paired policy.
SweepGrid make_grid(const sim::MachineConfig& machine, int reps,
                    uint64_t seed0 = 900) {
  SweepGrid grid(machine);
  RunOptions opt;
  for (const char* name : {"SOR-irt", "Heat-irt"}) {
    const auto& model = workloads::find_benchmark(name);
    const int base = grid.add_default(std::string(name) + "/Default", model,
                                      opt, reps, seed0);
    grid.add_policy(std::string(name) + "/Cuttlefish", model,
                    core::PolicyKind::kFull, opt, reps, seed0, base);
  }
  return grid;
}

RunSpec canonical_spec(const sim::MachineConfig& machine) {
  RunSpec spec;
  spec.machine = &machine;
  spec.model = &workloads::find_benchmark("SOR-irt");
  spec.kind = RunKind::kPolicy;
  spec.policy = core::PolicyKind::kFull;
  spec.seed = 42;
  return spec;
}

// ---- digest ------------------------------------------------------------

// Golden pin: the canonical encoding (and therefore every cached digest)
// must not change silently. If this fails you changed the spec layout or
// the hash — bump kSpecFormatVersion so existing stores are orphaned
// cleanly, then re-pin.
TEST(exp_cache, GoldenSpecDigestIsPinned) {
  ASSERT_EQ(kSpecFormatVersion, 3u);
  const sim::MachineConfig machine = sim::haswell_2650v3();
  const RunSpec spec = canonical_spec(machine);
  // v3 re-pin: the ArbiterSpec fields joined the canonical encoding
  // (PR 9); v2 stores are orphaned by the version bump, not collided.
  EXPECT_EQ(digest_spec(spec).hex(), "ea5dd56e9d8da285885eb95c0d7fb065");
}

TEST(exp_cache, GoldenBytesDigestIsPinned) {
  // Pins the Murmur3 construction itself, independent of spec layout.
  const char data[] = "cuttlefish";
  EXPECT_EQ(digest_bytes(data, sizeof(data) - 1).hex(),
            "5075fc5b56881fe8c910f0f15c64fe10");
}

TEST(exp_cache, DigestIsSensitiveToEveryInputClass) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  const RunSpec base = canonical_spec(machine);
  const SpecDigest d0 = digest_spec(base);

  RunSpec seed = base;
  seed.seed = 43;
  EXPECT_NE(digest_spec(seed), d0);

  RunSpec policy = base;
  policy.policy = core::PolicyKind::kCoreOnly;
  EXPECT_NE(digest_spec(policy), d0);

  RunSpec fixed = base;
  fixed.kind = RunKind::kFixed;
  fixed.cf = FreqMHz{2300};
  fixed.uf = FreqMHz{2700};
  EXPECT_NE(digest_spec(fixed), d0);

  RunSpec knob = base;
  knob.options.controller.tinv_s = 0.025;
  EXPECT_NE(digest_spec(knob), d0);

  // The v2 blob carries the MPC plant knobs for every policy so an MPC
  // sweep can never alias a Default sweep that shares the other knobs.
  RunSpec mpc_points = base;
  mpc_points.options.controller.mpc_design_points = 5;
  EXPECT_NE(digest_spec(mpc_points), d0);

  RunSpec mpc_margin = base;
  mpc_margin.options.controller.mpc_verify_margin = 0.05;
  EXPECT_NE(digest_spec(mpc_margin), d0);

  // v3: arbitration changes result bytes, so every ArbiterSpec field the
  // run honours is part of the digest.
  RunSpec arb = base;
  arb.options.arbiter.enabled = true;
  EXPECT_NE(digest_spec(arb), d0);
  RunSpec arb_budget = arb;
  arb_budget.options.arbiter.budget_w = 80.0;
  EXPECT_NE(digest_spec(arb_budget), digest_spec(arb));
  RunSpec arb_policy = arb;
  arb_policy.options.arbiter.policy = arbiter::SharePolicy::kDemandWeighted;
  EXPECT_NE(digest_spec(arb_policy), digest_spec(arb));
  RunSpec arb_tenants = arb;
  arb_tenants.options.arbiter.tenants = 4;
  arb_tenants.options.arbiter.tenant_index = 1;
  EXPECT_NE(digest_spec(arb_tenants), digest_spec(arb));

  RunSpec model = base;
  model.model = &workloads::find_benchmark("Heat-irt");
  EXPECT_NE(digest_spec(model), d0);

  sim::MachineConfig other = machine;
  other.dram_bw_gbs += 1.0;
  RunSpec machine_spec = base;
  machine_spec.machine = &other;
  EXPECT_NE(digest_spec(machine_spec), d0);

  // Grid bookkeeping (point/rep/baseline indices) is NOT part of the
  // result function: the same cell in a reshaped grid must still hit.
  RunSpec bookkeeping = base;
  bookkeeping.point = 17;
  bookkeeping.rep = 3;
  bookkeeping.baseline_point = 4;
  EXPECT_EQ(digest_spec(bookkeeping), d0);
  // ...and so is options.seed, which run_spec overwrites with spec.seed.
  RunSpec opt_seed = base;
  opt_seed.options.seed = 999;
  EXPECT_EQ(digest_spec(opt_seed), d0);
}

TEST(exp_cache, SpecBlobRoundTripsAndReRunsIdentically) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  for (const RunKind kind :
       {RunKind::kDefault, RunKind::kFixed, RunKind::kPolicy}) {
    RunSpec spec = canonical_spec(machine);
    spec.kind = kind;
    if (kind == RunKind::kFixed) {
      spec.cf = FreqMHz{1900};
      spec.uf = FreqMHz{2400};
    }
    const std::string blob = encode_spec(spec);
    const auto decoded = decode_spec(blob.data(), blob.size());
    ASSERT_NE(decoded, nullptr);
    // Re-encoding the decoded spec reproduces the canonical bytes...
    EXPECT_EQ(encode_spec(decoded->spec), blob);
    // ...and running it reproduces the original result byte-for-byte
    // (the property `cuttlefishctl cache verify` relies on).
    EXPECT_TRUE(same_result_bytes(run_spec(spec), run_spec(decoded->spec)));
  }
}

TEST(exp_cache, DecodeRejectsMalformedBlobs) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  std::string blob = encode_spec(canonical_spec(machine));
  EXPECT_EQ(decode_spec(blob.data(), blob.size() - 1), nullptr);
  EXPECT_EQ(decode_spec(blob.data(), 0), nullptr);
  std::string wrong_magic = blob;
  wrong_magic[0] ^= 0xff;
  EXPECT_EQ(decode_spec(wrong_magic.data(), wrong_magic.size()), nullptr);
  // A future format version must be refused, not misparsed.
  std::string wrong_version = blob;
  wrong_version[4] = char(0x7f);
  EXPECT_EQ(decode_spec(wrong_version.data(), wrong_version.size()),
            nullptr);
}

TEST(exp_cache, ResultCodecRoundTripsByteExactly) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  RunSpec spec = canonical_spec(machine);
  spec.options.capture_timeline = true;
  const RunResult original = run_spec(spec);
  ASSERT_FALSE(original.timeline.empty());
  ASSERT_FALSE(original.nodes.empty());

  const std::string bytes = encode_result(original);
  RunResult decoded;
  ASSERT_TRUE(decode_result(bytes.data(), bytes.size(), &decoded));
  EXPECT_EQ(encode_result(decoded), bytes);
  EXPECT_EQ(decoded.timeline.size(), original.timeline.size());
  EXPECT_EQ(decoded.nodes.size(), original.nodes.size());
  EXPECT_EQ(decoded.stats.ticks, original.stats.ticks);

  // Truncations and garbage must fail cleanly, never misdecode.
  for (const size_t cut : {size_t{0}, size_t{4}, bytes.size() - 1}) {
    RunResult out;
    EXPECT_FALSE(decode_result(bytes.data(), cut, &out)) << cut;
  }
}

// ---- cache hit path ----------------------------------------------------

TEST(exp_cache, WarmRunIsAllHitsAndByteIdentical) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  const SweepGrid grid = make_grid(machine, 2);
  const auto uncached = run_sweep(grid, nullptr);

  TempStore store("warm");
  SweepRunStats cold_stats;
  {
    ResultCache cache(store.path());
    const auto cold = run_sweep(grid, nullptr, &cache, &cold_stats);
    EXPECT_TRUE(tables_identical(uncached, cold));
  }
  EXPECT_EQ(cold_stats.cache_hits, 0u);
  EXPECT_EQ(cold_stats.cache_misses, grid.size());

  // Reopen from disk: everything must be served from the store.
  ResultCache cache(store.path());
  EXPECT_EQ(cache.size(), grid.size());
  SweepRunStats warm_stats;
  const auto warm = run_sweep(grid, nullptr, &cache, &warm_stats);
  EXPECT_EQ(warm_stats.cache_hits, grid.size());
  EXPECT_EQ(warm_stats.cache_misses, 0u);
  EXPECT_TRUE(tables_identical(uncached, warm));

  const auto last = cache.last_run();
  EXPECT_TRUE(last.present);
  EXPECT_EQ(last.hits, grid.size());
  EXPECT_EQ(last.misses, 0u);
}

TEST(exp_cache, PartialOverlapHitsExactlyTheSharedCells) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  TempStore store("overlap");
  ResultCache cache(store.path());

  // Seed the store with a 2-rep grid...
  const SweepGrid small = make_grid(machine, 2);
  SweepRunStats first;
  run_sweep(small, nullptr, &cache, &first);
  EXPECT_EQ(first.cache_misses, small.size());

  // ...then run the 3-rep superset: reps 0-1 of every point hit, rep 2
  // misses, and the result table still matches an uncached run exactly.
  const SweepGrid big = make_grid(machine, 3);
  SweepRunStats second;
  const auto cached = run_sweep(big, nullptr, &cache, &second);
  EXPECT_EQ(second.cache_hits, small.size());
  EXPECT_EQ(second.cache_misses, big.size() - small.size());
  EXPECT_TRUE(tables_identical(run_sweep(big, nullptr), cached));
}

TEST(exp_cache, FuzzRandomGridsAgainstOneStore) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  TempStore store("fuzz");
  ResultCache cache(store.path());
  std::mt19937 rng(20260807);

  const std::vector<std::string> models{"SOR-irt", "Heat-irt", "AMG"};
  const std::vector<core::PolicyKind> policies{
      core::PolicyKind::kFull, core::PolicyKind::kCoreOnly,
      core::PolicyKind::kUncoreOnly};
  for (int round = 0; round < 6; ++round) {
    SweepGrid grid(machine);
    RunOptions opt;
    const int n_points = 1 + static_cast<int>(rng() % 3);
    for (int p = 0; p < n_points; ++p) {
      const auto& model = workloads::find_benchmark(
          models[rng() % models.size()]);
      const int reps = 1 + static_cast<int>(rng() % 3);
      // Deliberately overlapping seed bases so rounds share cells.
      const uint64_t seed0 = 900 + rng() % 3;
      if (rng() % 2 == 0) {
        grid.add_default("p" + std::to_string(p), model, opt, reps, seed0);
      } else {
        grid.add_policy("p" + std::to_string(p), model,
                        policies[rng() % policies.size()], opt, reps, seed0);
      }
    }
    SweepRunStats stats;
    const auto cached = run_sweep(grid, nullptr, &cache, &stats);
    EXPECT_TRUE(tables_identical(run_sweep(grid, nullptr), cached))
        << "round " << round;
    EXPECT_EQ(stats.cache_hits + stats.cache_misses, grid.size());
  }
}

// ---- corruption --------------------------------------------------------

TEST(exp_cache, CorruptShardIsDetectedAndReSimulated) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  const SweepGrid grid = make_grid(machine, 2);
  const auto uncached = run_sweep(grid, nullptr);

  TempStore store("corrupt");
  {
    ResultCache cache(store.path());
    run_sweep(grid, nullptr, &cache, nullptr);
  }
  const auto shards = store.shards();
  ASSERT_EQ(shards.size(), 1u);

  // Flip one byte in the middle of the shard: the scan must reject the
  // damaged record (and, append-only, everything after it) rather than
  // serve wrong bytes.
  {
    std::fstream f(shards[0],
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(0, std::ios::end);
    const auto size = f.tellg();
    f.seekp(static_cast<std::streamoff>(size) / 2);
    char byte = 0;
    f.seekg(f.tellp());
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0xff);
    f.seekp(static_cast<std::streamoff>(size) / 2);
    f.write(&byte, 1);
  }
  ResultCache cache(store.path());
  EXPECT_LT(cache.size(), grid.size());
  EXPECT_GT(cache.stats().skipped_records, 0u);
  SweepRunStats stats;
  const auto healed = run_sweep(grid, nullptr, &cache, &stats);
  EXPECT_GT(stats.cache_misses, 0u);
  EXPECT_TRUE(tables_identical(uncached, healed));
}

TEST(exp_cache, TruncatedShardLosesTailNotCorrectness) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  const SweepGrid grid = make_grid(machine, 2);
  const auto uncached = run_sweep(grid, nullptr);

  TempStore store("trunc");
  {
    ResultCache cache(store.path());
    run_sweep(grid, nullptr, &cache, nullptr);
  }
  const auto shards = store.shards();
  ASSERT_EQ(shards.size(), 1u);
  fs::resize_file(shards[0], fs::file_size(shards[0]) / 2);

  ResultCache cache(store.path());
  const size_t survivors = cache.size();
  EXPECT_LT(survivors, grid.size());
  SweepRunStats stats;
  const auto healed = run_sweep(grid, nullptr, &cache, &stats);
  EXPECT_EQ(stats.cache_hits, survivors);
  EXPECT_TRUE(tables_identical(uncached, healed));
}

TEST(exp_cache, OldVersionShardIsIgnoredNotDecoded) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  const SweepGrid grid = make_grid(machine, 1);
  const auto uncached = run_sweep(grid, nullptr);
  TempStore store("oldversion");
  fs::create_directories(store.dir());
  {
    // A version-1 shard began with the same tag, then version 1.
    const uint32_t header[2] = {0x43465348u, 1};
    std::ofstream out(store.dir() / "shard-0000000000000000.bin",
                      std::ios::binary);
    out.write(reinterpret_cast<const char*>(header), sizeof(header));
    out << std::string(64, '\x22');
  }
  ResultCache cache(store.path());
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().shards, 0u);
  EXPECT_EQ(cache.stats().skipped_records, 1u);
  SweepRunStats stats;
  EXPECT_TRUE(tables_identical(uncached,
                               run_sweep(grid, nullptr, &cache, &stats)));
  EXPECT_EQ(stats.cache_misses, grid.size());
}

// ---- stats / gc --------------------------------------------------------

TEST(exp_cache, StatsAndGcDropOldestShardsFirst) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  TempStore store("gc");
  ResultCache cache(store.path());

  // Two batches -> two shards, inserted in a known order. Both land
  // within the filesystem's mtime granularity, which would leave the
  // "oldest" ordering to the digest-named path tiebreak — age the first
  // shard explicitly so the test pins the mtime ordering, not the names.
  const SweepGrid first = make_grid(machine, 1, 900);
  run_sweep(first, nullptr, &cache, nullptr);
  {
    const auto first_shards = store.shards();
    ASSERT_EQ(first_shards.size(), 1u);
    fs::last_write_time(first_shards[0], fs::last_write_time(first_shards[0]) -
                                             std::chrono::seconds(10));
  }
  const SweepGrid second = make_grid(machine, 1, 7777);
  run_sweep(second, nullptr, &cache, nullptr);

  auto stats = cache.stats();
  EXPECT_EQ(stats.entries, first.size() + second.size());
  EXPECT_EQ(stats.shards, 2u);
  EXPECT_GT(stats.bytes, 0u);

  // gc to half the store: the oldest shard (the first batch) goes.
  const uint64_t removed = cache.gc(stats.bytes / 2);
  EXPECT_GT(removed, 0u);
  stats = cache.stats();
  EXPECT_EQ(stats.shards, 1u);
  EXPECT_LE(stats.bytes, removed);  // halved store is <= what was removed
  EXPECT_FALSE(cache.contains(digest_spec(first.specs()[0])));
  EXPECT_TRUE(cache.contains(digest_spec(second.specs()[0])));

  // gc to zero empties the store.
  cache.gc(0);
  EXPECT_EQ(cache.stats().shards, 0u);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(exp_cache, EntryViewExposesSpecAndResult) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  const SweepGrid grid = make_grid(machine, 1);
  TempStore store("entry");
  ResultCache cache(store.path());
  run_sweep(grid, nullptr, &cache, nullptr);

  ASSERT_EQ(cache.size(), grid.size());
  for (size_t i = 0; i < cache.size(); ++i) {
    ResultCache::EntryView view;
    ASSERT_TRUE(cache.entry(i, &view));
    const auto decoded =
        decode_spec(view.spec_blob.data(), view.spec_blob.size());
    ASSERT_NE(decoded, nullptr);
    EXPECT_EQ(digest_spec(decoded->spec), view.digest);
  }
  ResultCache::EntryView out_of_range;
  EXPECT_FALSE(cache.entry(cache.size(), &out_of_range));
}

TEST(exp_cache, CacheDirVanishingMidRunDegradesToSimulation) {
  const sim::MachineConfig machine = sim::haswell_2650v3();
  const SweepGrid grid = make_grid(machine, 2);
  const auto serial = run_sweep(grid, nullptr);
  TempStore store("vanish");
  {
    ResultCache warm(store.path());
    run_sweep_shard(grid, 0, 2, nullptr, &warm, nullptr);
  }
  ResultCache cache(store.path());  // indexes the warm shard
  ASSERT_GT(cache.size(), 0u);

  // Mid-run sabotage: the directory disappears and its path is suddenly
  // a regular file (ENOTDIR on every shard read and temp-file write) —
  // this bites even under root, which chmod does not.
  const fs::path moved = store.dir().string() + ".moved";
  fs::rename(store.dir(), moved);
  { std::ofstream block(store.path(), std::ios::binary); block << "x"; }

  // Inserts fail (with a logged error), lookups demote to misses — and
  // every row is still byte-identical to the serial sweep.
  SweepRunStats stats;
  const auto rows1 = run_sweep_shard(grid, 1, 2, nullptr, &cache, &stats);
  for (const auto& [idx, r] : rows1) {
    EXPECT_TRUE(same_result_bytes(r, serial[idx])) << "spec " << idx;
  }
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache_misses, rows1.size());

  // Even the previously cached shard-0 entries — indexed in memory but
  // no longer readable — re-simulate to the right bytes.
  SweepRunStats stats0;
  const auto rows0 = run_sweep_shard(grid, 0, 2, nullptr, &cache, &stats0);
  for (const auto& [idx, r] : rows0) {
    EXPECT_TRUE(same_result_bytes(r, serial[idx])) << "spec " << idx;
  }
  EXPECT_EQ(stats0.cache_hits, 0u);
  fs::remove_all(moved);
}

TEST(exp_cache, ReadOnlyCacheDirMidRunKeepsHitsAndSimulatesMisses) {
  if (::geteuid() == 0) {
    GTEST_SKIP() << "chmod is advisory for root; the vanishing-dir test "
                    "covers this path";
  }
  const sim::MachineConfig machine = sim::haswell_2650v3();
  const SweepGrid grid = make_grid(machine, 2);
  const auto serial = run_sweep(grid, nullptr);
  TempStore store("readonly");
  {
    ResultCache warm(store.path());
    run_sweep_shard(grid, 0, 2, nullptr, &warm, nullptr);
  }
  ResultCache cache(store.path());
  const size_t warm_entries = cache.size();
  ASSERT_GT(warm_entries, 0u);

  // The filesystem goes read-only under a live cache: reads still work,
  // every write fails.
  fs::permissions(store.dir(), fs::perms::owner_read | fs::perms::owner_exec |
                                   fs::perms::group_read |
                                   fs::perms::group_exec);

  // Shard 0 re-run: served from the still-readable shard file.
  SweepRunStats stats0;
  const auto rows0 = run_sweep_shard(grid, 0, 2, nullptr, &cache, &stats0);
  for (const auto& [idx, r] : rows0) {
    EXPECT_TRUE(same_result_bytes(r, serial[idx])) << "spec " << idx;
  }
  EXPECT_EQ(stats0.cache_hits, rows0.size());

  // Shard 1: misses simulate, the insert fails with a logged error, and
  // the results are still byte-exact.
  SweepRunStats stats1;
  const auto rows1 = run_sweep_shard(grid, 1, 2, nullptr, &cache, &stats1);
  for (const auto& [idx, r] : rows1) {
    EXPECT_TRUE(same_result_bytes(r, serial[idx])) << "spec " << idx;
  }
  EXPECT_EQ(stats1.cache_hits, 0u);
  EXPECT_EQ(cache.size(), warm_entries);  // nothing was persisted

  fs::permissions(store.dir(), fs::perms::owner_all | fs::perms::group_all);
}

TEST(exp_cache, ShardOwnsPartitionsExactlyOnce) {
  for (const int n : {1, 2, 3, 7}) {
    for (uint64_t idx = 0; idx < 50; ++idx) {
      int owners = 0;
      for (int i = 0; i < n; ++i) owners += shard_owns(idx, i, n) ? 1 : 0;
      EXPECT_EQ(owners, 1) << "index " << idx << " N=" << n;
    }
  }
}

}  // namespace
}  // namespace cuttlefish::exp
