// fig10_serial and fig10_supervised: the paper's Fig. 10 grid (10 OpenMP
// models x Default + Cuttlefish/-Core/-Uncore, seed-paired) through
// exp::run_sweep serially with no cache, and through exp::SweepSupervisor
// at the same worker count followed by a journal resume and a warm
// ResultCache re-run.

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <system_error>
#include <vector>

#include <malloc.h>

#include "bench.hpp"
#include "exp/metrics.hpp"
#include "exp/result_cache.hpp"
#include "exp/supervisor.hpp"
#include "ledger.hpp"
#include "replay.hpp"
#include "sim/machine_config.hpp"
#include "workloads/suite.hpp"

namespace perfbench {

using namespace cuttlefish;
namespace fs = std::filesystem;

namespace {

/// Replicates per grid point: 10 models x 4 variants x 10 = 400 specs.
constexpr int kReplicates = 10;
/// The project's pinned serial sweep digest is for this seed base.
constexpr uint64_t kPinSeed = 1000;
constexpr uint64_t kPinDigest = 0xd2bd3252a66d7fd8ULL;

exp::SweepGrid build_grid(const sim::MachineConfig& machine, int reps,
                          uint64_t seed0) {
  exp::SweepGrid grid(machine);
  const exp::RunOptions opt;
  for (const auto& model : workloads::openmp_suite()) {
    const int base =
        grid.add_default(model.name + "/Default", model, opt, reps, seed0);
    for (const auto policy :
         {core::PolicyKind::kFull, core::PolicyKind::kCoreOnly,
          core::PolicyKind::kUncoreOnly}) {
      grid.add_policy(model.name + "/" + core::to_string(policy), model,
                      policy, opt, reps, seed0, base);
    }
  }
  return grid;
}

/// FNV-1a over every run's scalar results and every aggregated summary
/// value: the serial sweep digest the project pins.
uint64_t table_digest(const exp::SweepGrid& grid,
                      const std::vector<exp::RunResult>& results) {
  uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](const void* p, size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) {
      h ^= bytes[i];
      h *= 1099511628211ULL;
    }
  };
  const auto mix_d = [&mix](double v) { mix(&v, sizeof(v)); };
  for (const auto& r : results) {
    mix_d(r.time_s);
    mix_d(r.energy_j);
    mix(&r.instructions, sizeof(r.instructions));
  }
  for (const auto& s : exp::summarize(grid, results)) {
    for (const exp::ValueAggregate* a :
         {&s.time_s, &s.energy_j, &s.edp, &s.energy_savings_pct,
          &s.slowdown_pct, &s.edp_savings_pct}) {
      mix_d(a->mean);
      mix_d(a->ci95);
      mix_d(a->min);
      mix_d(a->max);
    }
  }
  return h;
}

std::string hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

std::vector<std::string> encode_all(const std::vector<exp::RunResult>& rs) {
  std::vector<std::string> out;
  out.reserve(rs.size());
  for (const auto& r : rs) out.push_back(exp::encode_result(r));
  return out;
}

/// Cells whose bytes differ from the oracle, skipping `skip` (quarantined
/// cells, already counted as failed).
size_t mismatches(const std::vector<exp::RunResult>& got,
                  const std::vector<std::string>& oracle,
                  const std::vector<uint8_t>* skip = nullptr) {
  if (got.size() != oracle.size()) return oracle.size();
  size_t bad = 0;
  for (size_t i = 0; i < got.size(); ++i) {
    if (skip != nullptr && (*skip)[i] != 0) continue;
    if (exp::encode_result(got[i]) != oracle[i]) ++bad;
  }
  return bad;
}

bool sane(const std::vector<exp::RunResult>& results) {
  for (const auto& r : results) {
    if (!(r.time_s > 0.0) || !(r.energy_j > 0.0) || !std::isfinite(r.time_s) ||
        !std::isfinite(r.energy_j)) {
      return false;
    }
  }
  return !results.empty();
}

/// The paper's headline: geomean over models of Cuttlefish's mean energy
/// savings and slowdown against the seed-paired Default runs.
void headline(const exp::SweepGrid& grid,
              const std::vector<exp::RunResult>& results, EndToEnd& e2e) {
  const std::vector<exp::PointSummary> summary =
      exp::summarize(grid, results);
  std::vector<double> savings, slowdown;
  for (size_t p = 0; p < grid.points().size(); ++p) {
    const exp::RunSpec& first =
        grid.specs()[static_cast<size_t>(grid.points()[p].first_spec)];
    if (first.kind != exp::RunKind::kPolicy ||
        first.policy != core::PolicyKind::kFull) {
      continue;
    }
    savings.push_back(summary[p].energy_savings_pct.mean);
    slowdown.push_back(summary[p].slowdown_pct.mean);
  }
  e2e.energy_savings_pct = exp::geomean_savings_pct(savings);
  e2e.slowdown_pct = exp::geomean_slowdown_pct(slowdown);
}

/// Controller tick cost on the Fig. 10 programs: for replicate 0 of each
/// model, its three Cuttlefish variants are replayed untraced in virtual
/// lockstep, as cotenant_sessions drives its tenants; each interval's
/// ticks run back to back under one clock pair, giving one ns-per-tick
/// sample per interval. The runs share nothing, so lockstep changes no
/// result, and every replayed cell must equal the sweep's. The probe runs
/// after every timed pass; the run reports the median of its percentiles.
std::vector<double> tick_probe(const exp::SweepGrid& grid,
                               const std::vector<std::string>& oracle,
                               Outcome& out) {
  std::vector<double> ticks;
  for (const exp::SweepPoint& base : grid.points()) {
    if (base.baseline_point >= 0) continue;  // one group per Default point
    ProgramMemo memo;
    std::vector<size_t> index;
    std::vector<std::unique_ptr<PolicyReplay>> runs;
    for (size_t i = 0; i < grid.size(); ++i) {
      const exp::RunSpec& spec = grid.specs()[i];
      if (spec.rep != 0 || spec.baseline_point < 0 ||
          grid.points()[static_cast<size_t>(spec.baseline_point)].first_spec !=
              base.first_spec) {
        continue;
      }
      index.push_back(i);
      runs.push_back(std::make_unique<PolicyReplay>(
          spec, memo.get(spec, nullptr, nullptr), nullptr));
    }
    std::vector<uint8_t> live(runs.size()), more(runs.size());
    for (size_t r = 0; r < runs.size(); ++r) live[r] = runs[r]->start();
    for (;;) {
      for (size_t r = 0; r < runs.size(); ++r) {
        if (live[r]) more[r] = runs[r]->step();
      }
      const int64_t t0 = now_ns();
      int ticked = 0;
      for (size_t r = 0; r < runs.size(); ++r) {
        if (!live[r]) continue;
        runs[r]->tick();
        ++ticked;
      }
      if (ticked == 0) break;
      ticks.push_back(static_cast<double>(now_ns() - t0) / ticked);
      for (size_t r = 0; r < runs.size(); ++r) live[r] = live[r] && more[r];
    }
    for (size_t r = 0; r < runs.size(); ++r) {
      if (exp::encode_result(runs[r]->finish(nullptr)) != oracle[index[r]]) {
        out.fail("tick-probe replay of spec " + std::to_string(index[r]) +
                 " differs from run_sweep");
      }
    }
  }
  return ticks;
}

/// Per-probe tick percentiles, collected across a run.
struct TickStats {
  std::vector<double> p50, p99;
  size_t intervals = 0;

  void probe(const exp::SweepGrid& grid,
             const std::vector<std::string>& oracle, Outcome& out) {
    const std::vector<double> ticks = tick_probe(grid, oracle, out);
    p50.push_back(quantile(ticks, 0.50));
    p99.push_back(quantile(ticks, 0.99));
    intervals = ticks.size();
  }
  void report(Outcome& out, EndToEnd& e2e) const {
    e2e.tick_ns_p50 = median(p50);
    e2e.tick_ns_p99 = median(p99);
    out.reference("tick_intervals_per_probe", static_cast<double>(intervals),
                  "count");
  }
};

/// The seed-1000 grid must reproduce the pinned digest; runs at other
/// seeds check it once, untimed.
void check_pinned(uint64_t digest_at_pin, Outcome& out) {
  if (digest_at_pin != kPinDigest) {
    out.fail("serial digest at seed base 1000 is " + hex(digest_at_pin) +
             ", pinned " + hex(kPinDigest));
  }
}

uint64_t pin_grid_digest(const sim::MachineConfig& machine) {
  const exp::SweepGrid grid = build_grid(machine, kReplicates, kPinSeed);
  return table_digest(grid, exp::run_sweep(grid, nullptr));
}

/// Traced run of the Fig. 10 path: the replicate-0 sub-grid replayed with
/// spans at every layer boundary, alternated with exp::run_sweep on the
/// same sub-grid untraced until `deadline`; the spans of the last traced
/// pass are kept. If any replayed result differs from exp::run_spec, the
/// traced numbers are discarded.
void traced_replay(const RunConfig& cfg, const sim::MachineConfig& machine,
                   double deadline, Ledger& ledger, Outcome& out) {
  const exp::SweepGrid sub = build_grid(machine, 1, cfg.seed);
  Tracer tracer;
  ReplayCounters counters;
  std::vector<exp::RunResult> replayed;
  std::vector<double> untraced_s, traced_s;
  while (static_cast<int>(traced_s.size()) < kMinPasses || now_s() < deadline) {
    const double t0 = now_s();
    (void)exp::run_sweep(sub, nullptr);
    untraced_s.push_back(now_s() - t0);

    tracer.clear();
    counters = ReplayCounters{};
    replayed.clear();
    ProgramMemo memo;
    const double t1 = now_s();
    for (size_t i = 0; i < sub.size(); ++i) {
      const exp::RunSpec& spec = sub.specs()[i];
      tracer.set_request(static_cast<uint32_t>(i));
      Scope span(&tracer, SpanName::kSpec);
      const sim::PhaseProgram& program = memo.get(spec, &tracer, &counters);
      replayed.push_back(replay_spec(spec, program, &tracer, &counters));
    }
    traced_s.push_back(now_s() - t1);
  }
  out.attempted += sub.size() * traced_s.size();
  for (size_t i = 0; i < sub.size(); ++i) {
    if (exp::encode_result(replayed[i]) !=
        exp::encode_result(exp::run_spec(sub.specs()[i]))) {
      out.fail("traced replay of spec " + std::to_string(i) +
               " differs from exp::run_spec");
    }
  }
  if (!out.correct) return;
  ledger.absorb(tracer, counters);
  ledger.trace_overhead_pct =
      (median(traced_s) / median(untraced_s) - 1.0) * 100.0;
  out.reference("trace.overhead_pct", ledger.trace_overhead_pct, "%");
  out.reference("exp.calibrate.share_pct", ledger.exp_calibrate_share_pct,
                "%");
  out.reference("traced_specs", static_cast<double>(sub.size()), "count");
  out.reference("spans", static_cast<double>(tracer.spans().size()), "count");
  const std::string spans_path =
      cfg.work_dir + "/spans-" + cfg.workload + ".tsv";
  if (tracer.write(spans_path)) out.note("spans", spans_path);
}

/// Builds the grid and the in-process oracle kSetupRepeats times; the
/// timed phase and every check compare against the last oracle.
struct Setup {
  std::optional<exp::SweepGrid> grid;
  std::vector<exp::RunResult> oracle;
  std::vector<std::string> oracle_bytes;
  std::vector<double> seconds;
};

/// Checks the oracle; at the pinned seed its digest must be the pin.
void finish_setup(Setup& s, uint64_t seed, Outcome& out) {
  s.oracle_bytes = encode_all(s.oracle);
  if (!sane(s.oracle)) out.fail("a co-simulation produced a degenerate result");
  const uint64_t digest = table_digest(*s.grid, s.oracle);
  if (seed == kPinSeed) check_pinned(digest, out);
  out.note("serial_digest", hex(digest));
  out.reference("setup_repeats", static_cast<double>(s.seconds.size()),
                "count");
}

}  // namespace

Outcome run_fig10_serial(const RunConfig& cfg) {
  Outcome out;
  const sim::MachineConfig machine = sim::haswell_2650v3();
  if (cfg.trace) {
    Ledger ledger;
    traced_replay(cfg, machine, now_s() + cfg.seconds, ledger, out);
    if (out.correct) ledger.add_to(out);
    return out;
  }

  // Set-up: the grid plus one warm-up sweep, which is also the oracle the
  // timed passes must reproduce bit for bit.
  Setup s;
  for (int k = 0; k < kSetupRepeats; ++k) {
    const double t0 = now_s();
    s.grid.emplace(build_grid(machine, kReplicates, cfg.seed));
    s.oracle = exp::run_sweep(*s.grid, nullptr);
    s.seconds.push_back(now_s() - t0);
  }
  finish_setup(s, cfg.seed, out);
  const exp::SweepGrid& grid = *s.grid;

  std::vector<double> rates;
  TickStats ticks;
  const double deadline = now_s() + cfg.seconds;
  while (static_cast<int>(rates.size()) < kMinPasses || now_s() < deadline) {
    const double t0 = now_s();
    const std::vector<exp::RunResult> results = exp::run_sweep(grid, nullptr);
    const double wall = now_s() - t0;
    rates.push_back(static_cast<double>(grid.size()) / wall);
    out.attempted += grid.size();
    if (const size_t bad = mismatches(results, s.oracle_bytes); bad > 0) {
      out.failed += bad;
      out.fail(std::to_string(bad) + " cells differ from the set-up oracle");
    }
    ticks.probe(grid, s.oracle_bytes, out);
  }

  EndToEnd e2e;
  e2e.setup_s = median(s.seconds);
  e2e.specs_per_s = median(rates);
  headline(grid, s.oracle, e2e);
  ticks.report(out, e2e);
  if (cfg.seed != kPinSeed) check_pinned(pin_grid_digest(machine), out);
  out.reference("passes", static_cast<double>(rates.size()), "count");
  out.reference("specs_per_pass", static_cast<double>(grid.size()), "count");
  e2e.add_to(out);
  return out;
}

namespace {

/// The supervisor forks its workers from this process, and fork cost grows
/// with the pages the process maps; memory the set-up and the tick probes
/// freed is returned first so it does not inflate every fork.
void release_free_heap() { ::malloc_trim(0); }

/// One cold supervised sweep into a fresh journal, then the warm re-read
/// phase: a resume of the finished journal and a run_sweep against the
/// set-up's ResultCache, opened afresh. Every cell must equal the oracle.
struct SupervisedPass {
  double cold_s = 0.0;
  double resume_s = 0.0;
  double warm_s = 0.0;
  uint64_t launches = 0;
  uint64_t journal_bytes = 0;
  uint64_t cache_hits = 0;
  std::vector<exp::RunResult> results;
};

bool supervised_pass(const exp::SweepGrid& grid,
                     const std::vector<std::string>& oracle,
                     const std::string& journal_dir,
                     const std::string& cache_dir, SupervisedPass& pass,
                     Outcome& out) {
  std::error_code ec;
  if (fs::exists(journal_dir, ec) && !fs::is_empty(journal_dir, ec)) {
    out.fail("refusing non-empty journal dir " + journal_dir);
    return false;
  }
  exp::SupervisorOptions opt;
  opt.max_workers = 1;  // fig10_serial's worker count

  const double t0 = now_s();
  exp::SupervisorReport report;
  pass.results = exp::SweepSupervisor(grid, journal_dir, opt).run(&report);
  pass.cold_s = now_s() - t0;
  out.attempted += grid.size();
  if (!report.error.empty()) {
    out.failed += grid.size();
    out.fail("supervised sweep could not start: " + report.error);
    return false;
  }
  std::vector<uint8_t> lost(grid.size(), 0);
  for (const exp::QuarantineRow& row : report.quarantined) {
    if (row.spec_index < lost.size()) lost[row.spec_index] = 1;
  }
  for (const uint64_t index : report.unfinished) {
    if (index < lost.size()) lost[index] = 1;
  }
  size_t failed = 0;
  for (const uint8_t l : lost) failed += l;
  out.failed += failed;
  if (failed > 0 || !report.completed) {
    out.fail(std::to_string(failed) + " supervised specs quarantined or "
             "unfinished");
  }
  if (const size_t bad = mismatches(pass.results, oracle, &lost); bad > 0) {
    out.fail(std::to_string(bad) + " supervised cells differ from the oracle");
  }
  pass.launches = report.executed + report.retries;
  pass.journal_bytes =
      fs::file_size(fs::path(journal_dir) / exp::kJournalFileName, ec);
  if (ec) pass.journal_bytes = 0;

  const double t1 = now_s();
  exp::SupervisorReport resumed;
  const std::vector<exp::RunResult> replay =
      exp::SweepSupervisor(grid, journal_dir, opt).run(&resumed);
  pass.resume_s = now_s() - t1;
  if (resumed.resumed != grid.size() || resumed.executed != 0 ||
      mismatches(replay, oracle) != 0) {
    out.fail("journal resume did not serve every cell as the oracle");
  }

  const double t2 = now_s();
  exp::SweepRunStats stats;
  std::vector<exp::RunResult> cached;
  {
    exp::ResultCache cache(cache_dir);
    cached = exp::run_sweep(grid, nullptr, &cache, &stats);
  }
  pass.warm_s = now_s() - t2;
  pass.cache_hits = stats.cache_hits;
  if (stats.cache_hits != grid.size() || mismatches(cached, oracle) != 0) {
    out.fail("warm cache run did not serve every cell as the oracle");
  }
  fs::remove_all(journal_dir, ec);
  return out.correct;
}

}  // namespace

Outcome run_fig10_supervised(const RunConfig& cfg) {
  Outcome out;
  const sim::MachineConfig machine = sim::haswell_2650v3();
  TempDir root(cfg.work_dir, "supervised-");
  if (!root.ok()) {
    out.fail("cannot create a private scratch dir under " + cfg.work_dir);
    return out;
  }

  // Set-up: the grid plus an in-process cold pass that populates a fresh
  // ResultCache and is the oracle for every supervised, resumed and cached
  // cell.
  Setup s;
  std::string cache_dir;
  for (int k = 0; k < kSetupRepeats; ++k) {
    std::error_code ec;
    if (!cache_dir.empty()) fs::remove_all(cache_dir, ec);
    cache_dir = root.path() + "/cache-" + std::to_string(k);
    const double t0 = now_s();
    s.grid.emplace(build_grid(machine, kReplicates, cfg.seed));
    exp::ResultCache cache(cache_dir);
    exp::SweepRunStats stats;
    s.oracle = exp::run_sweep(*s.grid, nullptr, &cache, &stats);
    s.seconds.push_back(now_s() - t0);
    if (stats.cache_misses != s.grid->size()) {
      out.fail("set-up cache was not cold");
    }
  }
  finish_setup(s, cfg.seed, out);
  release_free_heap();
  const exp::SweepGrid& grid = *s.grid;
  const double in_process_s = median(s.seconds);
  const double specs = static_cast<double>(grid.size());

  std::vector<double> cold, rates, resume, warm, reread;
  SupervisedPass pass;
  TickStats ticks;
  uint64_t launches = 0, journal_bytes = 0, hits = 0;
  const double deadline = now_s() + cfg.seconds;
  // A traced run times the supervisor from outside (its workers are
  // separate processes) for kMinPasses passes, then spends the rest of its
  // time on the in-process replay below.
  for (int i = 0; static_cast<int>(cold.size()) < kMinPasses ||
                  (!cfg.trace && now_s() < deadline);
       ++i) {
    const std::string journal = root.path() + "/journal-" + std::to_string(i);
    if (!supervised_pass(grid, s.oracle_bytes, journal, cache_dir, pass, out)) {
      break;
    }
    cold.push_back(pass.cold_s);
    rates.push_back(specs / pass.cold_s);
    resume.push_back(pass.resume_s);
    warm.push_back(pass.warm_s);
    reread.push_back(2.0 * specs / (pass.resume_s + pass.warm_s));
    launches += pass.launches;
    journal_bytes += pass.journal_bytes;
    hits += pass.cache_hits;
    if (!cfg.trace) {
      ticks.probe(grid, s.oracle_bytes, out);
      release_free_heap();
    }
  }
  if (!out.correct) return out;

  const double passes = static_cast<double>(cold.size());
  const double wall_over_serial = median(cold) / in_process_s;
  out.reference("exp.supervisor.wall_over_serial_x", wall_over_serial, "x");
  out.reference("reread_specs_per_s", median(reread), "1/s");
  out.reference("passes", passes, "count");
  if (cfg.trace) {
    Ledger ledger;
    traced_replay(cfg, machine, deadline, ledger, out);
    if (!out.correct) return out;
    ledger.exp_supervisor_wall_over_serial_x = wall_over_serial;
    ledger.exp_supervisor_overhead_ms_per_spec =
        (median(cold) - in_process_s) / specs * 1e3;
    ledger.exp_supervisor_worker_launches = static_cast<double>(launches) / passes;
    ledger.exp_journal_bytes_per_spec =
        static_cast<double>(journal_bytes) / passes / specs;
    ledger.exp_resume_s = median(resume);
    ledger.exp_cache_warm_s = median(warm);
    ledger.exp_cache_hits = static_cast<double>(hits) / passes;
    ledger.exp_reread_specs_per_s = median(reread);
    ledger.add_to(out);
    return out;
  }

  EndToEnd e2e;
  e2e.setup_s = median(s.seconds);
  e2e.specs_per_s = median(rates);
  headline(grid, pass.results, e2e);
  ticks.report(out, e2e);
  if (cfg.seed != kPinSeed) check_pinned(pin_grid_digest(machine), out);
  e2e.add_to(out);
  return out;
}

int check_pin() {
  const uint64_t digest = pin_grid_digest(sim::haswell_2650v3());
  std::printf("serial Fig. 10 digest (10 replicates, seed base 1000): %s, "
              "pinned %s\n",
              hex(digest).c_str(), hex(kPinDigest).c_str());
  return digest == kPinDigest ? 0 : 1;
}

}  // namespace perfbench
