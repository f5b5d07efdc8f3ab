#include "exp/sweep.hpp"

#include <algorithm>
#include <map>
#include <tuple>
#include <utility>

#include "common/assert.hpp"
#include "exp/calibrate.hpp"
#include "exp/result_cache.hpp"
#include "exp/spec_digest.hpp"
#include "runtime/parallel_for.hpp"

namespace cuttlefish::exp {

int SweepGrid::add_point(std::string label,
                         const workloads::BenchmarkModel& model, RunKind kind,
                         core::PolicyKind policy, FreqMHz cf, FreqMHz uf,
                         const RunOptions& options, int reps, uint64_t seed0,
                         int baseline_point) {
  CF_ASSERT(reps > 0, "a sweep point needs at least one replicate");
  const int point = static_cast<int>(points_.size());
  CF_ASSERT(baseline_point < point, "baseline must be an earlier point");
  if (baseline_point >= 0) {
    CF_ASSERT(points_[static_cast<size_t>(baseline_point)].reps == reps,
              "baseline point must have the same replicate count");
  }
  SweepPoint p;
  p.label = std::move(label);
  p.first_spec = static_cast<int>(specs_.size());
  p.reps = reps;
  p.baseline_point = baseline_point;
  points_.push_back(std::move(p));

  for (int rep = 0; rep < reps; ++rep) {
    RunSpec spec;
    spec.model = &model;
    spec.machine = machine_;
    spec.kind = kind;
    spec.policy = policy;
    spec.cf = cf;
    spec.uf = uf;
    // Seeds are a pure function of the point's seed base and the
    // replicate index — never of execution order.
    spec.seed = seed0 + static_cast<uint64_t>(rep);
    spec.options = options;
    spec.point = point;
    spec.rep = rep;
    spec.baseline_point = baseline_point;
    specs_.push_back(std::move(spec));
  }
  return point;
}

int SweepGrid::add_default(std::string label,
                           const workloads::BenchmarkModel& model,
                           const RunOptions& options, int reps,
                           uint64_t seed0) {
  return add_point(std::move(label), model, RunKind::kDefault,
                   core::PolicyKind::kFull, FreqMHz{0}, FreqMHz{0}, options,
                   reps, seed0, -1);
}

int SweepGrid::add_fixed(std::string label,
                         const workloads::BenchmarkModel& model, FreqMHz cf,
                         FreqMHz uf, const RunOptions& options, int reps,
                         uint64_t seed0) {
  return add_point(std::move(label), model, RunKind::kFixed,
                   core::PolicyKind::kFull, cf, uf, options, reps, seed0, -1);
}

int SweepGrid::add_policy(std::string label,
                          const workloads::BenchmarkModel& model,
                          core::PolicyKind policy, const RunOptions& options,
                          int reps, uint64_t seed0, int baseline_point) {
  return add_point(std::move(label), model, RunKind::kPolicy, policy,
                   FreqMHz{0}, FreqMHz{0}, options, reps, seed0,
                   baseline_point);
}

int SweepGrid::spec_index(int point, int rep) const {
  const SweepPoint& p = points_[static_cast<size_t>(point)];
  CF_ASSERT(rep >= 0 && rep < p.reps, "replicate out of range");
  return p.first_spec + rep;
}

RunResult run_spec(const RunSpec& spec, const sim::PhaseProgram& program,
                   sim::RateTable* rates) {
  CF_ASSERT(spec.model != nullptr && spec.machine != nullptr,
            "spec missing model or machine");
  RunOptions options = spec.options;
  options.seed = spec.seed;
  if (rates != nullptr) options.rates = rates;
  switch (spec.kind) {
    case RunKind::kDefault:
      return run_default(*spec.machine, program, options);
    case RunKind::kFixed:
      return run_fixed(*spec.machine, program, spec.cf, spec.uf, options);
    case RunKind::kPolicy:
      return run_policy(*spec.machine, program, spec.policy, options);
  }
  CF_ASSERT(false, "unreachable run kind");
  return RunResult{};
}

RunResult run_spec(const RunSpec& spec) {
  CF_ASSERT(spec.model != nullptr && spec.machine != nullptr,
            "spec missing model or machine");
  // A standalone run owns its program: the calibration is deterministic
  // in (model, machine, seed), so rebuilding here produces the same bits
  // run_sweep's per-group copy would.
  CalibratedProgram calibrated(*spec.model, *spec.machine, spec.seed);
  return run_spec(spec, calibrated.program, &calibrated.rates);
}

std::vector<std::vector<uint64_t>> program_groups(
    const SweepGrid& grid, const std::vector<uint64_t>& indices) {
  std::map<std::tuple<const workloads::BenchmarkModel*,
                      const sim::MachineConfig*, uint64_t>,
           size_t>
      group_of;
  std::vector<std::vector<uint64_t>> groups;
  for (const uint64_t idx : indices) {
    const RunSpec& spec = grid.specs()[idx];
    const auto [it, inserted] = group_of.emplace(
        std::make_tuple(spec.model, spec.machine, spec.seed), groups.size());
    if (inserted) groups.emplace_back();
    groups[it->second].push_back(idx);
  }
  return groups;
}

void sweep_ordered(int64_t n, const std::function<void(int64_t)>& fn,
                   runtime::TaskScheduler* scheduler) {
  if (n <= 0) return;
  if (scheduler == nullptr || scheduler->size() <= 1 || n == 1) {
    for (int64_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // Grain 1: each index is a whole co-simulation (or comparable unit),
  // far heavier than a task spawn.
  runtime::parallel_for(*scheduler, 0, n, fn, /*grain=*/1);
}

namespace {

/// Simulate the specs at `indices`, writing each result at its spec index
/// in the full-size `results` vector.
///
/// Calibrated programs are a pure function of (model, machine, seed) — the
/// program group key — and a grid reuses each one across its variant
/// points (Default + three policies share the same seeds, Fig. 3 sweeps
/// share one model across a frequency grid). So the work fans out as one
/// task per program group: build and calibrate the group's program, then
/// run its specs in index order, every run borrowing the rate table the
/// calibration filled. Each operating point is evaluated once per
/// program, and each table stays on the one thread that fills it. Sharing
/// changes no bits: run_spec(spec) would rebuild the identical program,
/// and cached rates are exact. Groups span only `indices`: when the cache
/// or a shard partition shrinks the work list, no program is calibrated
/// for a spec that will not run.
void run_subset(const SweepGrid& grid, const std::vector<uint64_t>& indices,
                runtime::TaskScheduler* scheduler,
                std::vector<RunResult>* results) {
  const std::vector<RunSpec>& specs = grid.specs();
  const std::vector<std::vector<uint64_t>> groups =
      program_groups(grid, indices);
  sweep_ordered(
      static_cast<int64_t>(groups.size()),
      [&](int64_t g) {
        const std::vector<uint64_t>& group = groups[static_cast<size_t>(g)];
        const RunSpec& first = specs[group.front()];
        CalibratedProgram calibrated(*first.model, *first.machine,
                                     first.seed);
        for (const uint64_t idx : group) {
          (*results)[idx] =
              run_spec(specs[idx], calibrated.program, &calibrated.rates);
        }
      },
      scheduler);
}

/// Shared core of the cached, uncached and sharded entry points: serve
/// what the cache holds, simulate the rest, persist the news. The cache is
/// touched only from this (the calling) thread.
void run_indices(const SweepGrid& grid, const std::vector<uint64_t>& indices,
                 runtime::TaskScheduler* scheduler, ResultCache* cache,
                 SweepRunStats* stats, std::vector<RunResult>* results) {
  if (cache == nullptr) {
    run_subset(grid, indices, scheduler, results);
    if (stats != nullptr) {
      stats->cache_hits = 0;
      stats->cache_misses = indices.size();
    }
    return;
  }
  const std::vector<RunSpec>& specs = grid.specs();
  std::vector<uint64_t> misses;
  std::vector<uint64_t> persistable;  // misses minus fault-injected specs
  std::vector<SpecDigest> miss_digests;
  std::vector<std::string> miss_blobs;
  size_t hits = 0;
  for (const uint64_t idx : indices) {
    if (specs[idx].options.faults != nullptr) {
      // Fault-injected specs bypass the cache entirely: the schedule is
      // not part of the digest identity, so serving a clean cached result
      // (or persisting a faulted one under the clean key) would be wrong.
      misses.push_back(idx);
      continue;
    }
    std::string blob = encode_spec(specs[idx]);
    const SpecDigest digest = digest_bytes(blob.data(), blob.size());
    if (cache->lookup(digest, &(*results)[idx])) {
      ++hits;
    } else {
      misses.push_back(idx);
      persistable.push_back(idx);
      miss_digests.push_back(digest);
      miss_blobs.push_back(std::move(blob));
    }
  }
  run_subset(grid, misses, scheduler, results);
  if (!persistable.empty()) {
    std::vector<ResultCache::Insert> batch;
    batch.reserve(persistable.size());
    for (size_t i = 0; i < persistable.size(); ++i) {
      batch.push_back(ResultCache::Insert{miss_digests[i],
                                          std::move(miss_blobs[i]),
                                          &(*results)[persistable[i]]});
    }
    cache->insert_batch(batch);
  }
  cache->note_run(hits, misses.size());
  if (stats != nullptr) {
    stats->cache_hits = hits;
    stats->cache_misses = misses.size();
  }
}

std::vector<uint64_t> all_indices(size_t n) {
  std::vector<uint64_t> indices(n);
  for (size_t i = 0; i < n; ++i) indices[i] = i;
  return indices;
}

}  // namespace

std::vector<RunResult> run_sweep(const SweepGrid& grid,
                                 runtime::TaskScheduler* scheduler) {
  std::vector<RunResult> results(grid.size());
  run_subset(grid, all_indices(grid.size()), scheduler, &results);
  return results;
}

std::vector<RunResult> run_sweep(const SweepGrid& grid, int workers) {
  if (workers <= 1) return run_sweep(grid, nullptr);
  runtime::TaskScheduler scheduler(workers);
  return run_sweep(grid, &scheduler);
}

std::vector<RunResult> run_sweep(const SweepGrid& grid,
                                 runtime::TaskScheduler* scheduler,
                                 ResultCache* cache, SweepRunStats* stats) {
  std::vector<RunResult> results(grid.size());
  run_indices(grid, all_indices(grid.size()), scheduler, cache, stats,
              &results);
  return results;
}

std::vector<std::pair<uint64_t, RunResult>> run_sweep_shard(
    const SweepGrid& grid, int shard_index, int shard_count,
    runtime::TaskScheduler* scheduler, ResultCache* cache,
    SweepRunStats* stats) {
  CF_ASSERT(shard_count > 0, "shard count must be positive");
  CF_ASSERT(shard_index >= 0 && shard_index < shard_count,
            "shard index out of range");
  std::vector<uint64_t> owned;
  for (uint64_t i = 0; i < grid.size(); ++i) {
    if (shard_owns(i, shard_index, shard_count)) owned.push_back(i);
  }
  // The full-size scratch table keeps run_indices index-stable; only the
  // owned cells are ever written.
  std::vector<RunResult> results(grid.size());
  run_indices(grid, owned, scheduler, cache, stats, &results);
  std::vector<std::pair<uint64_t, RunResult>> rows;
  rows.reserve(owned.size());
  for (const uint64_t idx : owned) {
    rows.emplace_back(idx, std::move(results[idx]));
  }
  return rows;
}

ValueAggregate aggregate_values(const std::vector<double>& values) {
  ValueAggregate out;
  if (values.empty()) return out;
  const Aggregate a = aggregate(values);
  out.n = static_cast<int>(values.size());
  out.mean = a.mean;
  out.ci95 = a.ci95;
  const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
  out.min = *lo;
  out.max = *hi;
  return out;
}

std::vector<PointSummary> summarize(const SweepGrid& grid,
                                    const std::vector<RunResult>& results,
                                    const std::vector<uint8_t>& missing) {
  CF_ASSERT(results.size() == grid.size(), "results do not match the grid");
  CF_ASSERT(missing.empty() || missing.size() == grid.size(),
            "missing-cell mask does not match the grid");
  const auto is_missing = [&missing](int spec) {
    return !missing.empty() && missing[static_cast<size_t>(spec)] != 0;
  };
  std::vector<PointSummary> summaries;
  summaries.reserve(grid.points().size());
  for (const SweepPoint& point : grid.points()) {
    PointSummary s;
    std::vector<double> time_s, energy_j, edp;
    std::vector<double> savings, slowdown, edp_savings;
    for (int rep = 0; rep < point.reps; ++rep) {
      if (is_missing(point.first_spec + rep)) continue;
      const RunResult& r =
          results[static_cast<size_t>(point.first_spec + rep)];
      time_s.push_back(r.time_s);
      energy_j.push_back(r.energy_j);
      edp.push_back(r.edp());
      if (point.baseline_point >= 0) {
        const int base_spec = grid.spec_index(point.baseline_point, rep);
        if (is_missing(base_spec)) continue;
        const RunResult& base = results[static_cast<size_t>(base_spec)];
        const Comparison c = compare(r, base);
        savings.push_back(c.energy_savings_pct);
        slowdown.push_back(c.slowdown_pct);
        edp_savings.push_back(c.edp_savings_pct);
      }
    }
    s.time_s = aggregate_values(time_s);
    s.energy_j = aggregate_values(energy_j);
    s.edp = aggregate_values(edp);
    if (point.baseline_point >= 0) {
      s.has_baseline = true;
      s.energy_savings_pct = aggregate_values(savings);
      s.slowdown_pct = aggregate_values(slowdown);
      s.edp_savings_pct = aggregate_values(edp_savings);
    }
    summaries.push_back(std::move(s));
  }
  return summaries;
}

}  // namespace cuttlefish::exp
