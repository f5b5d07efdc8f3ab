// cotenant_sessions: four manual-tick cuttlefish::Sessions driven in
// virtual lockstep from one thread, the embedding path. Each tenant's
// platform stack is built from public decorators — SimPlatform, a
// transient FaultInjectionPlatform, then an ArbitratedPlatform — and all
// four share one LocalArbiter under a budget below their uncapped node
// power. Each tenant repeats a phase-changing kernel inside a named
// Region, so the first entry starts cold and later entries warm-start.

#include <algorithm>
#include <cstring>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "arbiter/local_arbiter.hpp"
#include "bench.hpp"
#include "common/rng.hpp"
#include "core/icontroller.hpp"
#include "core/region.hpp"
#include "core/session.hpp"
#include "exp/calibrate.hpp"
#include "exp/driver.hpp"
#include "exp/metrics.hpp"
#include "exp/result_cache.hpp"
#include "hal/arbitrated.hpp"
#include "hal/fault_injection.hpp"
#include "ledger.hpp"
#include "replay.hpp"
#include "sim/machine_config.hpp"
#include "sim/sim_machine.hpp"
#include "sim/sim_platform.hpp"
#include "workloads/suite.hpp"

namespace perfbench {

using namespace cuttlefish;

namespace {

/// Phase-changing models, one per tenant: a mix of compute- and
/// memory-bound kernels so demand moves and the budget binds unevenly.
constexpr const char* kTenantModels[] = {"AMG", "Heat-irt", "MiniFE",
                                         "SOR-ws"};
constexpr int kTenants = static_cast<int>(std::size(kTenantModels));
/// Kernel entries per tenant: one cold start, then warm starts.
constexpr int kKernelRepeats = 3;
/// Independent four-tenant scenarios per pass. One scenario's budget
/// dynamics swing its slowdown by a quarter between seeds; averaging
/// eight keeps the simulated metrics steady across seeds.
constexpr int kScenarios = 8;
/// Node budget as a share of the uncapped tenants' average node power.
constexpr double kBudgetShare = 0.5;
constexpr const char* kRegionName = "kernel";

/// One tenant's inputs, built during set-up.
struct TenantInput {
  const workloads::BenchmarkModel* model = nullptr;
  uint64_t seed = 0;
  double kernel_instructions = 0.0;  // one kernel repetition
  sim::PhaseProgram program;         // kKernelRepeats repetitions
  exp::RunResult baseline;           // the same program under Default
};

struct Scenario {
  std::vector<TenantInput> tenants;
  double budget_w = 0.0;
};

/// One tenant's live stack. Members are declared in stack order so that
/// destruction tears down the session before the platforms under it.
struct Tenant {
  Tenant(const sim::MachineConfig& cfg, const TenantInput& in,
         arbiter::LocalArbiter& arb, Tracer* tracer)
      : input(&in), machine(cfg, in.program, in.seed), base(machine) {
    hal::PlatformInterface* p = &base;
    if (tracer != nullptr) {
      hal_timed.emplace(*p, *tracer, SpanName::kHalSample,
                        SpanName::kHalApply, /*count_effective=*/true);
      p = &*hal_timed;
    }
    faulty.emplace(*p, hal::FaultSchedule::transient_only(in.seed));
    p = &*faulty;
    if (tracer != nullptr) {
      fault_timed.emplace(*p, *tracer, SpanName::kFaultSample,
                          SpanName::kFaultApply);
      p = &*fault_timed;
    }
    arbitrated.emplace(*p, arb, core::ControllerConfig{}.tinv_s);
    p = &*arbitrated;
    if (tracer != nullptr) {
      arbiter_timed.emplace(*p, *tracer, SpanName::kArbiterSample,
                            SpanName::kArbiterApply);
      p = &*arbiter_timed;
    }
    Options options;
    options.manual_tick = true;
    session.emplace(*p, options);
  }

  const TenantInput* input;
  sim::SimMachine machine;
  sim::SimPlatform base;
  std::optional<TimedPlatform> hal_timed;
  std::optional<hal::FaultInjectionPlatform> faulty;
  std::optional<TimedPlatform> fault_timed;
  std::optional<hal::ArbitratedPlatform> arbitrated;
  std::optional<TimedPlatform> arbiter_timed;
  std::optional<Session> session;
  std::optional<Region> region;
  int kernel = 0;  // repetitions entered so far
  bool done = false;
  double last_energy_j = 0.0;
};

/// Outcome of one scenario, or of a pass's scenarios merged in order.
struct PassResult {
  uint64_t intervals = 0;
  uint64_t failed_intervals = 0;
  uint64_t over_budget_intervals = 0;
  double node_time_s = 0.0;    // single scenario: makespan
  double node_energy_j = 0.0;  // single scenario: summed tenant energy
  std::vector<double> node_edp_js;  // per scenario
  std::vector<double> time_s;       // per tenant
  std::vector<double> energy_j;     // per tenant
  std::vector<double> tick_ns;  // per lockstep interval: ns per tick
  std::vector<double> scenario_s;   // wall time per scenario
  uint64_t grant_changes = 0;

  void merge(const PassResult& s) {
    intervals += s.intervals;
    failed_intervals += s.failed_intervals;
    over_budget_intervals += s.over_budget_intervals;
    node_edp_js.push_back(s.node_time_s * s.node_energy_j);
    time_s.insert(time_s.end(), s.time_s.begin(), s.time_s.end());
    energy_j.insert(energy_j.end(), s.energy_j.begin(), s.energy_j.end());
    tick_ns.insert(tick_ns.end(), s.tick_ns.begin(), s.tick_ns.end());
    grant_changes += s.grant_changes;
  }
  double mean_node_edp() const {
    double sum = 0.0;
    for (const double e : node_edp_js) sum += e;
    return node_edp_js.empty() ? 0.0 : sum / static_cast<double>(node_edp_js.size());
  }
  double over_budget_pct() const {
    return intervals == 0 ? 0.0
                          : static_cast<double>(over_budget_intervals) /
                                static_cast<double>(intervals) * 100.0;
  }
};

/// Runs every tenant of a scenario to completion in virtual lockstep.
/// `budget_w` <= 0 runs uncapped. Interval power is each live tenant's
/// energy over the interval divided by Tinv, summed over tenants.
PassResult run_scenario(const sim::MachineConfig& machine, const Scenario& in,
                        double budget_w, Tracer* tracer,
                        ReplayCounters* counters) {
  const core::ControllerConfig ctl;
  const double tinv = ctl.tinv_s;
  arbiter::ArbiterConfig acfg;
  acfg.budget_w = budget_w;
  arbiter::LocalArbiter arb(acfg, kTenants);

  std::vector<std::unique_ptr<Tenant>> tenants;
  for (const TenantInput& t : in.tenants) {
    tenants.push_back(std::make_unique<Tenant>(machine, t, arb, tracer));
  }
  PassResult out;
  out.time_s.resize(tenants.size());
  out.energy_j.resize(tenants.size());
  bool failing = false;

  const auto finish = [&](Tenant& t, size_t i) {
    t.done = true;
    out.time_s[i] = t.machine.now();
    out.energy_j[i] = t.machine.energy_joules();
    if (t.region) {
      Scope span(tracer, SpanName::kRegionExit);
      t.region.reset();
    }
    if (counters != nullptr) {
      add_stats(counters->stats, t.session->controller()->stats());
      counters->virtual_s += out.time_s[i];
      counters->freq_switches += t.machine.frequency_switches();
      if (t.hal_timed) {
        counters->hal_writes += t.hal_timed->writes();
        counters->hal_effective_writes += t.hal_timed->effective_writes();
      }
    }
    // Stopping the session and detaching its slot lets the survivors'
    // next publish rebalance the budget.
    t.session->stop();
    t.arbitrated.reset();
  };
  const auto advance_all = [&] {
    for (auto& t : tenants) {
      if (t->done) continue;
      Scope span(tracer, SpanName::kAdvance);
      t->machine.advance(tinv);
    }
  };
  const auto close_interval = [&] {
    double node_w = 0.0;
    for (auto& t : tenants) {
      const double e = t->machine.energy_joules();
      node_w += (e - t->last_energy_j) / tinv;
      t->last_energy_j = e;
    }
    if (budget_w > 0.0 && node_w > budget_w) ++out.over_budget_intervals;
    for (auto& t : tenants) {
      if (t->done) continue;
      const core::IController* c = t->session->controller();
      if (t->session->degraded() || c == nullptr || c->safe_mode()) {
        failing = true;
      }
    }
    ++out.intervals;
    if (failing) ++out.failed_intervals;
  };

  // §4.1 warm-up: machines run at their maxima while controllers sleep.
  bool alive = true;
  for (double t0 = 0.0; alive && t0 + tinv <= ctl.warmup_s + 1e-12;
       t0 += tinv) {
    if (tracer != nullptr) tracer->set_request(static_cast<uint32_t>(out.intervals));
    Scope span(tracer, SpanName::kInterval);
    advance_all();
    alive = false;
    for (size_t i = 0; i < tenants.size(); ++i) {
      Tenant& t = *tenants[i];
      if (t.done) continue;
      if (t.machine.workload_done()) {
        finish(t, i);
      } else {
        alive = true;
      }
    }
    close_interval();
  }
  // The first manual tick baselines the sensors (the daemon's begin()).
  for (auto& t : tenants) {
    if (t->done) continue;
    {
      Scope span(tracer, SpanName::kBegin);
      t->session->tick();
    }
    Scope span(tracer, SpanName::kRegionEnter);
    t->region.emplace(*t->session, kRegionName);
  }

  while (alive) {
    if (tracer != nullptr) tracer->set_request(static_cast<uint32_t>(out.intervals));
    Scope span(tracer, SpanName::kInterval);
    advance_all();
    // Every advance is followed by exactly one tick, the final partial
    // quantum included; ticks run back to back so one clock pair times
    // the interval's ticks.
    const int64_t t0 = now_ns();
    int ticked = 0;
    for (auto& t : tenants) {
      if (t->done) continue;
      Scope tick_span(tracer, SpanName::kTick);
      t->session->tick();
      ++ticked;
    }
    out.tick_ns.push_back(static_cast<double>(now_ns() - t0) / ticked);

    alive = false;
    for (size_t i = 0; i < tenants.size(); ++i) {
      Tenant& t = *tenants[i];
      if (t.done) continue;
      hal::ArbitratedPlatform::GrantChange change;
      while (t.arbitrated->poll_grant_change(&change)) ++out.grant_changes;
      if (t.machine.workload_done()) {
        finish(t, i);
        continue;
      }
      alive = true;
      const double boundary =
          t.input->kernel_instructions * static_cast<double>(t.kernel + 1);
      if (static_cast<double>(t.machine.instructions_retired()) >= boundary &&
          t.kernel + 1 < kKernelRepeats) {
        {
          Scope exit_span(tracer, SpanName::kRegionExit);
          t.region.reset();
        }
        Scope enter_span(tracer, SpanName::kRegionEnter);
        t.region.emplace(*t.session, kRegionName);
        ++t.kernel;
      }
    }
    close_interval();
  }

  for (size_t i = 0; i < tenants.size(); ++i) {
    out.node_time_s = std::max(out.node_time_s, out.time_s[i]);
    out.node_energy_j += out.energy_j[i];
  }
  return out;
}

/// Builds each tenant's program (the model's calibrated kernel repeated),
/// its Default baseline, and the budget from an uncapped lockstep run.
/// Tenant i runs with seed `seed + i`, which also seeds its faults.
Scenario build_scenario(const sim::MachineConfig& machine, uint64_t seed,
                        Tracer* tracer, ReplayCounters* counters,
                        Outcome& out) {
  Scenario in;
  for (int i = 0; i < kTenants; ++i) {
    TenantInput t;
    t.model = &workloads::find_benchmark(kTenantModels[i]);
    t.seed = seed + static_cast<uint64_t>(i);
    sim::PhaseProgram kernel;
    {
      Scope span(tracer, SpanName::kBuild);
      kernel = t.model->build_program(t.seed);
    }
    {
      Scope span(tracer, SpanName::kCalibrate);
      exp::calibrate_program(kernel, machine, t.model->default_time_s);
    }
    t.kernel_instructions = kernel.total_instructions();
    t.program.repeat(kKernelRepeats, kernel.segments());
    if (counters != nullptr) {
      ++counters->programs;
      counters->program_ops += t.program.ops().size();
      counters->program_segments += t.program.segments().size();
    }
    exp::RunOptions options;
    options.seed = t.seed;
    t.baseline = exp::run_default(machine, t.program, options);
    if (tracer != nullptr) {
      // The traced set-up replays the baseline through public classes so
      // the governor has spans; it must match exp::run_default exactly.
      exp::RunSpec spec;
      spec.model = t.model;
      spec.machine = &machine;
      spec.kind = exp::RunKind::kDefault;
      spec.seed = t.seed;
      const exp::RunResult replayed =
          replay_spec(spec, t.program, tracer, counters);
      if (exp::encode_result(replayed) != exp::encode_result(t.baseline)) {
        out.fail(std::string("traced Default replay of tenant ") +
                 kTenantModels[i] + " differs from exp::run_default");
      }
    }
    in.tenants.push_back(std::move(t));
  }
  const PassResult uncapped = run_scenario(machine, in, 0.0, nullptr, nullptr);
  in.budget_w =
      kBudgetShare * uncapped.node_energy_j / uncapped.node_time_s;
  return in;
}

/// The run's scenarios; each draws its tenant seeds from the run seed.
/// Only scenario 0 is traced, here and in run_pass: one scenario's spans
/// already cross every layer boundary, and eight would take ~100 MB.
std::vector<Scenario> build_scenarios(const sim::MachineConfig& machine,
                                      uint64_t seed, Tracer* tracer,
                                      ReplayCounters* counters, Outcome& out) {
  SplitMix64 seeds(seed);
  std::vector<Scenario> scenarios;
  for (int k = 0; k < kScenarios; ++k) {
    scenarios.push_back(build_scenario(machine, seeds.next(),
                                       k == 0 ? tracer : nullptr,
                                       k == 0 ? counters : nullptr, out));
  }
  return scenarios;
}

PassResult run_pass(const sim::MachineConfig& machine,
                    const std::vector<Scenario>& scenarios, Tracer* tracer,
                    ReplayCounters* counters) {
  PassResult pass;
  for (size_t k = 0; k < scenarios.size(); ++k) {
    const double t0 = now_s();
    const PassResult one =
        run_scenario(machine, scenarios[k], scenarios[k].budget_w,
                     k == 0 ? tracer : nullptr, k == 0 ? counters : nullptr);
    pass.scenario_s.push_back(now_s() - t0);
    pass.merge(one);
  }
  return pass;
}

/// Bitwise comparison of the simulated outcome of two passes.
bool same_outcome(const PassResult& a, const PassResult& b) {
  const auto same = [](const std::vector<double>& x,
                       const std::vector<double>& y) {
    return x.size() == y.size() &&
           std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0;
  };
  return a.intervals == b.intervals &&
         a.over_budget_intervals == b.over_budget_intervals &&
         same(a.node_edp_js, b.node_edp_js) && same(a.time_s, b.time_s) &&
         same(a.energy_j, b.energy_j);
}

/// Geomean over every tenant of its energy savings and slowdown against
/// the same program under Default.
void headline(const std::vector<Scenario>& scenarios, const PassResult& pass,
              EndToEnd& e2e) {
  std::vector<double> savings, slowdown;
  size_t i = 0;
  for (const Scenario& s : scenarios) {
    for (const TenantInput& t : s.tenants) {
      savings.push_back((1.0 - pass.energy_j[i] / t.baseline.energy_j) * 100.0);
      slowdown.push_back((pass.time_s[i] / t.baseline.time_s - 1.0) * 100.0);
      ++i;
    }
  }
  e2e.energy_savings_pct = exp::geomean_savings_pct(savings);
  e2e.slowdown_pct = exp::geomean_slowdown_pct(slowdown);
}

void record_pass(Outcome& out, const PassResult& pass) {
  out.attempted += pass.intervals;
  out.failed += pass.failed_intervals;
  if (pass.failed_intervals > 0) {
    out.note("degraded", "a session degraded or safe-stopped");
  }
}

void traced_run(const RunConfig& cfg, const sim::MachineConfig& machine,
                Outcome& out) {
  const double deadline = now_s() + cfg.seconds;
  Tracer tracer;
  ReplayCounters setup_counters;
  const std::vector<Scenario> in =
      build_scenarios(machine, cfg.seed, &tracer, &setup_counters, out);
  const size_t setup_spans = tracer.spans().size();

  ReplayCounters counters;
  PassResult plain, traced;
  std::vector<double> untraced_s, traced_s;
  // Untraced and traced passes alternate; the last traced pass's spans
  // are kept beside the set-up's.
  while (static_cast<int>(traced_s.size()) < kMinPasses || now_s() < deadline) {
    plain = run_pass(machine, in, nullptr, nullptr);
    untraced_s.push_back(plain.scenario_s.front());
    record_pass(out, plain);

    tracer.truncate(setup_spans);
    counters = setup_counters;
    traced = run_pass(machine, in, &tracer, &counters);
    traced_s.push_back(traced.scenario_s.front());
  }
  if (!same_outcome(plain, traced)) {
    out.fail("traced pass did not reproduce over_budget_pct and node_edp_js");
  }
  if (!out.correct) return;

  Ledger ledger;
  ledger.absorb(tracer, counters);
  ledger.arbiter_grant_changes =
      static_cast<double>(traced.grant_changes) / kScenarios;
  ledger.arbiter_over_budget_pct = traced.over_budget_pct();
  ledger.arbiter_node_edp_js = traced.mean_node_edp();
  ledger.trace_overhead_pct =
      (median(traced_s) / median(untraced_s) - 1.0) * 100.0;
  out.reference("trace.overhead_pct", ledger.trace_overhead_pct, "%");
  out.reference("exp.calibrate.share_pct", ledger.exp_calibrate_share_pct, "%");
  out.reference("spans", static_cast<double>(tracer.spans().size()), "count");
  const std::string spans_path =
      cfg.work_dir + "/spans-" + cfg.workload + ".tsv";
  if (tracer.write(spans_path)) out.note("spans", spans_path);
  ledger.add_to(out);
}

}  // namespace

Outcome run_cotenant_sessions(const RunConfig& cfg) {
  Outcome out;
  const sim::MachineConfig machine = sim::haswell_2650v3();
  if (cfg.trace) {
    traced_run(cfg, machine, out);
    return out;
  }

  std::vector<double> setups;
  std::vector<Scenario> in;
  for (int k = 0; k < kSetupRepeats; ++k) {
    const double t0 = now_s();
    in = build_scenarios(machine, cfg.seed, nullptr, nullptr, out);
    setups.push_back(now_s() - t0);
  }

  std::optional<PassResult> first;
  std::vector<double> rates, p50, p99;
  const double deadline = now_s() + cfg.seconds;
  while (static_cast<int>(rates.size()) < kMinPasses || now_s() < deadline) {
    const double t0 = now_s();
    PassResult pass = run_pass(machine, in, nullptr, nullptr);
    rates.push_back(static_cast<double>(pass.time_s.size()) / (now_s() - t0));
    record_pass(out, pass);
    p50.push_back(quantile(pass.tick_ns, 0.50));
    p99.push_back(quantile(pass.tick_ns, 0.99));
    if (!first) {
      first = std::move(pass);
    } else if (!same_outcome(*first, pass)) {
      out.fail("a co-tenant pass did not repeat the first pass exactly");
    }
  }

  EndToEnd e2e;
  e2e.setup_s = median(setups);
  e2e.specs_per_s = median(rates);
  e2e.tick_ns_p50 = median(p50);
  e2e.tick_ns_p99 = median(p99);
  headline(in, *first, e2e);
  out.reference("over_budget_pct", first->over_budget_pct(), "%");
  out.reference("node_edp_js", first->mean_node_edp(), "J.s");
  out.reference("intervals_per_pass", static_cast<double>(first->intervals),
                "count");
  out.reference("passes", static_cast<double>(rates.size()), "count");
  e2e.add_to(out);
  return out;
}

}  // namespace perfbench
