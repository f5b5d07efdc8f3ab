#include "core/controller.hpp"

#include <cmath>
#include <limits>

#include "common/assert.hpp"
#include "common/log.hpp"
#include "hal/arbitrated.hpp"

namespace cuttlefish::core {

const char* to_string(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kFull: return "Cuttlefish";
    case PolicyKind::kCoreOnly: return "Cuttlefish-Core";
    case PolicyKind::kUncoreOnly: return "Cuttlefish-Uncore";
    case PolicyKind::kMonitor: return "Cuttlefish-Monitor";
    case PolicyKind::kMpc: return "Cuttlefish-MPC";
  }
  return "?";
}

PolicyKind narrow_policy(PolicyKind requested, bool jpi_ok, bool can_set_cf,
                         bool can_set_uf) {
  if (!jpi_ok) return PolicyKind::kMonitor;
  switch (requested) {
    case PolicyKind::kFull:
      if (can_set_cf && can_set_uf) return PolicyKind::kFull;
      if (can_set_cf) return PolicyKind::kCoreOnly;
      return can_set_uf ? PolicyKind::kUncoreOnly : PolicyKind::kMonitor;
    case PolicyKind::kCoreOnly:
      return can_set_cf ? PolicyKind::kCoreOnly : PolicyKind::kMonitor;
    case PolicyKind::kUncoreOnly:
      return can_set_uf ? PolicyKind::kUncoreOnly : PolicyKind::kMonitor;
    case PolicyKind::kMpc:
      return can_set_cf || can_set_uf ? PolicyKind::kMpc
                                      : PolicyKind::kMonitor;
    case PolicyKind::kMonitor:
      break;
  }
  return PolicyKind::kMonitor;
}

namespace {

/// The sensors JPI is computed from; without both, every policy monitors.
constexpr hal::CapabilitySet kJpiSensors =
    hal::Capability::kEnergySensor | hal::Capability::kInstructionSensor;

hal::Capability actuator_of(Domain d) {
  return d == Domain::kCore ? hal::Capability::kCoreDvfs
                            : hal::Capability::kUncoreUfs;
}

hal::IoOutcome write_level(hal::PlatformInterface& platform, Domain d,
                           FreqMHz f) {
  return d == Domain::kCore ? platform.apply_core_frequency(f)
                            : platform.apply_uncore_frequency(f);
}

/// True when `policy` adapts domain `d` (and so needs its actuator): with
/// d's actuator alone it still narrows to a policy that acts.
bool drives(PolicyKind policy, Domain d) {
  return narrow_policy(policy, /*jpi_ok=*/true, d == Domain::kCore,
                       d == Domain::kUncore) != PolicyKind::kMonitor;
}

}  // namespace

Controller::DomainControl::DomainControl(Domain domain,
                                         const FreqLadder& domain_ladder,
                                         const ControllerConfig& cfg)
    : ladder(domain_ladder),
      explorer(domain_ladder, cfg.explore_step),
      propagator(domain, cfg.revalidation),
      health(cfg.resilience) {}

Controller::Controller(hal::PlatformInterface& platform, ControllerConfig cfg)
    : platform_(&platform),
      cfg_(cfg),
      caps_(platform.capabilities()),
      effective_(cfg.policy),
      slabber_(cfg.tipi_slab_width),
      domains_{{DomainControl(Domain::kCore, platform.core_ladder(), cfg),
                DomainControl(Domain::kUncore, platform.uncore_ladder(),
                              cfg)}},
      sensor_health_(cfg.resilience) {
  CF_ASSERT(cfg.tinv_s > 0.0, "Tinv must be positive");
  CF_ASSERT(cfg.jpi_samples > 0, "jpi_samples must be positive");
  // One RTTI probe at construction, not per tick: grant-event plumbing
  // only exists when the backend is actually arbitrated.
  if (caps_.has(hal::Capability::kArbitrated)) {
    arbitrated_ = dynamic_cast<hal::ArbitratedPlatform*>(&platform);
  }
  // Narrow the configured policy to what the backend advertises instead
  // of refusing to start — the paper's premise is that start()/stop()
  // works wherever the program runs. Full-capability backends pass
  // through untouched.
  refresh_effective();
  note_missing_capabilities();
  if (effective_ != cfg_.policy) {
    CF_LOG_WARN("policy %s degraded to %s (backend capabilities: %s)",
                to_string(cfg_.policy), to_string(effective_),
                caps_.to_string().c_str());
  }
}

/// Move queued arbiter grant changes into the decision trace. The
/// wrapper's queue is bounded by ticks since the last drain, so this is
/// O(grant movements), usually zero.
void Controller::drain_grant_changes() {
  if (arbitrated_ == nullptr || trace_ == nullptr) return;
  hal::ArbitratedPlatform::GrantChange change;
  while (arbitrated_->poll_grant_change(&change)) {
    const double mw = change.watts * 1000.0;
    const uint32_t aux =
        mw <= 0.0 ? 0u : static_cast<uint32_t>(std::lround(mw));
    trace_->record({stats_.ticks,
                    change.revoked ? TraceEvent::kBudgetRevoked
                                   : TraceEvent::kBudgetGranted,
                    -1, Domain::kCore, kNoLevel, kNoLevel, kNoLevel, aux});
  }
}

void Controller::note_degradation(Domain domain, hal::CapabilitySet lost) {
  degradations_.push_back({0, TraceEvent::kCapabilityDegraded, -1, domain,
                           kNoLevel, kNoLevel, kNoLevel, lost.bits()});
}

/// Record each capability the requested policy needs but the backend
/// lacks: the JPI sensors; with those present, each actuator the policy
/// drives (uncore first); and in every case the TIPI numerator, without
/// which every tick lands in one slab and the controller runs a
/// single-node list rather than failing.
void Controller::note_missing_capabilities() {
  using hal::Capability;
  const hal::CapabilitySet lost_sensors{kJpiSensors.bits() & ~caps_.bits()};
  if (cfg_.policy != PolicyKind::kMonitor && !lost_sensors.empty()) {
    note_degradation(Domain::kCore, lost_sensors);
  } else {
    for (const Domain d : {Domain::kUncore, Domain::kCore}) {
      if (drives(cfg_.policy, d) && !domains_[d].can_set) {
        note_degradation(d, hal::CapabilitySet{}.with(actuator_of(d)));
      }
    }
  }
  if (!caps_.has(Capability::kTorSensor)) {
    note_degradation(Domain::kCore,
                     hal::CapabilitySet{}.with(Capability::kTorSensor));
  }
}

/// Re-derive the actuation permissions and the effective policy from the
/// backend's capabilities minus the quarantined devices.
void Controller::refresh_effective() {
  for (const Domain d : kDomains) {
    DomainControl& dom = domains_[d];
    dom.can_set = caps_.has(actuator_of(d)) && !dom.health.quarantined();
  }
  const bool jpi_ok =
      caps_.has_all(kJpiSensors) && !sensor_health_.quarantined();
  effective_ = safe_mode_ ? PolicyKind::kMonitor
                          : narrow_policy(cfg_.policy, jpi_ok,
                                          domains_[Domain::kCore].can_set,
                                          domains_[Domain::kUncore].can_set);
}

void Controller::note_quarantine(Domain domain, hal::CapabilitySet lost) {
  if (quarantined_domains_ == 0) {
    // First quarantine: preserve the exploration state so a full heal
    // warm-restarts from here instead of re-exploring from scratch.
    recovery_snap_ = snapshot();
    have_recovery_snap_ = true;
  }
  quarantined_domains_ += 1;
  stats_.quarantines += 1;
  refresh_effective();
  if (trace_ != nullptr) {
    trace_->record({stats_.ticks, TraceEvent::kCapabilityDegraded, -1, domain,
                    kNoLevel, kNoLevel, kNoLevel, lost.bits()});
  }
  CF_LOG_WARN("controller: %s quarantined (lost %s); policy narrowed to %s",
              to_string(domain), lost.to_string().c_str(),
              to_string(effective_));
}

void Controller::note_heal(Domain domain, hal::CapabilitySet regained) {
  quarantined_domains_ -= 1;
  stats_.recoveries += 1;
  refresh_effective();
  if (trace_ != nullptr) {
    trace_->record({stats_.ticks, TraceEvent::kCapabilityRestored, -1,
                    domain, kNoLevel, kNoLevel, kNoLevel, regained.bits()});
  }
  CF_LOG_WARN("controller: %s healed (regained %s); policy re-widened to %s",
              to_string(domain), regained.to_string().c_str(),
              to_string(effective_));
  if (quarantined_domains_ == 0 && have_recovery_snap_) {
    // Everything healed: warm-restart exploration from the pre-fault
    // snapshot (restore() re-baselines the sensors and discards the
    // boundary-spanning sample like a region switch would).
    restore(recovery_snap_);
    have_recovery_snap_ = false;
  }
}

/// Probe quarantined devices on their backoff schedule. Sensor probes
/// are one extra sample; actuator probes re-assert the last requested
/// level (or the maximum before any write landed) so a successful probe
/// leaves the hardware where the controller believes it is.
void Controller::quarantine_maintenance() {
  if (sensor_health_.quarantined() &&
      sensor_health_.should_probe(stats_.ticks)) {
    const hal::SampleOutcome probe = platform_->sample_sensors();
    if (probe.io.failed()) {
      sensor_health_.record_failure(stats_.ticks);
    } else if (sensor_health_.record_success(stats_.ticks)) {
      note_heal(Domain::kCore,
                caps_ & hal::CapabilitySet::all_sensors());
    }
  }
  for (const Domain d : kDomains) probe_actuator(d);
}

void Controller::probe_actuator(Domain domain) {
  DomainControl& dom = domains_[domain];
  if (!dom.health.quarantined() || !dom.health.should_probe(stats_.ticks)) {
    return;
  }
  const Level level = dom.set != kNoLevel ? dom.set : dom.ladder.max_level();
  if (write_level(*platform_, domain, dom.ladder.at(level)).failed()) {
    dom.health.record_failure(stats_.ticks);
    return;
  }
  dom.set = level;
  if (dom.health.record_success(stats_.ticks)) {
    note_heal(domain, hal::CapabilitySet{}.with(actuator_of(domain)));
  }
}

hal::SampleOutcome Controller::sample_with_retry() {
  hal::SampleOutcome out = platform_->sample_sensors();
  for (int attempt = 0;
       out.io.failed() && attempt < cfg_.resilience.max_retries; ++attempt) {
    stats_.io_retries += 1;
    out = platform_->sample_sensors();
  }
  return out;
}

/// Write `level` to `domain`, retrying in-call. A write that fails after
/// its retries leaves `set` untouched — the controller's view never
/// silently diverges from the hardware — and feeds the health tracker
/// instead of the trace. kUnsupported counts as accepted: a deliberately
/// absent or masked domain is not ill health (the capability bit already
/// reflects it).
void Controller::actuate(Domain domain, Level level) {
  DomainControl& dom = domains_[domain];
  const FreqMHz f = dom.ladder.at(level);
  hal::IoOutcome io = write_level(*platform_, domain, f);
  for (int attempt = 0;
       io.failed() && attempt < cfg_.resilience.max_retries; ++attempt) {
    stats_.io_retries += 1;
    io = write_level(*platform_, domain, f);
  }
  if (io.failed()) {
    stats_.actuator_write_errors += 1;
    if (dom.health.record_failure(stats_.ticks)) {
      note_quarantine(domain,
                      hal::CapabilitySet{}.with(actuator_of(domain)));
    }
    return;
  }
  dom.health.record_success(stats_.ticks);
  dom.set = level;
  stats_.freq_writes += 1;
  if (trace_ != nullptr) {
    trace_->record({stats_.ticks, TraceEvent::kFrequencySet, -1, domain,
                    kNoLevel, kNoLevel, level});
  }
}

/// Algorithm 1 lines 33-35: the levels become the ones the next interval
/// runs at. A domain is written only when it is permitted (actuator
/// capability present, not quarantined) and its level changed.
void Controller::run_at(const PerDomain<Level>& levels) {
  // Applied per domain by name, not looped over kDomains: on this
  // per-tick path GCC keeps the loop and spills around the actuate()
  // call, which costs the steady-state tick a few ns.
  const auto settle = [&](Domain d) {
    DomainControl& dom = domains_[d];
    if (dom.can_set && levels[d] != dom.set) actuate(d, levels[d]);
    dom.prev = levels[d];
  };
  settle(Domain::kCore);
  settle(Domain::kUncore);
}

PerDomain<Level> Controller::maxima() const {
  return {{domains_[Domain::kCore].ladder.max_level(),
           domains_[Domain::kUncore].ladder.max_level()}};
}

ControllerSnapshot Controller::snapshot() const {
  ControllerSnapshot snap;
  snap.slab_width = cfg_.tipi_slab_width;
  snap.cf_levels = domains_[Domain::kCore].ladder.levels();
  snap.uf_levels = domains_[Domain::kUncore].ladder.levels();
  snap.jpi_samples = cfg_.jpi_samples;
  snap.nodes.reserve(list_.size());
  for (const TipiNode* node = list_.head(); node != nullptr;
       node = node->next) {
    NodeSnapshot ns;
    ns.slab = node->slab;
    ns.ticks = node->ticks;
    ns.cf = capture_domain(node->cf);
    ns.uf = capture_domain(node->uf);
    snap.nodes.push_back(std::move(ns));
  }
  return snap;
}

bool Controller::restore(const ControllerSnapshot& snap) {
  const int cf_levels = domains_[Domain::kCore].ladder.levels();
  const int uf_levels = domains_[Domain::kUncore].ladder.levels();
  const bool shape_ok = snap.slab_width == cfg_.tipi_slab_width &&
                        snap.cf_levels == cf_levels &&
                        snap.uf_levels == uf_levels &&
                        snap.jpi_samples == cfg_.jpi_samples;
  if (!shape_ok) {
    CF_LOG_WARN(
        "controller: snapshot shape mismatch (slab width %g vs %g, "
        "ladders %dx%d vs %dx%d, jpi %d vs %d); starting cold",
        snap.slab_width, cfg_.tipi_slab_width, snap.cf_levels,
        snap.uf_levels, cf_levels, uf_levels, snap.jpi_samples,
        cfg_.jpi_samples);
    reset_exploration();
    return false;
  }
  list_.clear();
  for (const NodeSnapshot& ns : snap.nodes) {
    TipiNode* node = list_.insert(ns.slab);
    node->ticks = ns.ticks;
    restore_domain(node->cf, ns.cf, cfg_.jpi_samples);
    restore_domain(node->uf, ns.uf, cfg_.jpi_samples);
  }
  // The first tick after a region switch spans the boundary; a null
  // prev_node_ makes it a transition, so its JPI sample is discarded like
  // any other TIPI-range change (Algorithm 2 line 6).
  prev_node_ = nullptr;
  last_ = platform_->sample_sensors().sample.totals();
  return true;
}

void Controller::reset_exploration() {
  list_.clear();
  prev_node_ = nullptr;
  last_ = platform_->sample_sensors().sample.totals();
}

void Controller::record_region_event(TraceEvent event, int64_t region_id,
                                     uint32_t payload) {
  if (trace_ == nullptr) return;
  trace_->record({stats_.ticks, event, region_id, Domain::kCore, kNoLevel,
                  kNoLevel, kNoLevel, payload});
}

void Controller::record_runtime_event(TraceEvent event, uint32_t payload) {
  if (trace_ == nullptr) return;
  trace_->record({stats_.ticks, event, -1, Domain::kCore, kNoLevel, kNoLevel,
                  kNoLevel, payload});
}

void Controller::enter_safe_mode() {
  if (safe_mode_) return;
  safe_mode_ = true;
  effective_ = PolicyKind::kMonitor;
  record_runtime_event(TraceEvent::kSafeStop);
  CF_LOG_ERROR("controller: safe-stopped into monitor mode");
}

void Controller::begin() {
  // Make any construction-time capability degradation auditable before
  // the first decision lands in the trace.
  if (trace_ != nullptr) {
    for (const TraceRecord& rec : degradations_) trace_->record(rec);
  }
  // Algorithm 1 lines 1-2: start at the maximum frequencies.
  for (const Domain d : kDomains) domains_[d].set = kNoLevel;
  run_at(maxima());
  last_ = platform_->sample_sensors().sample.totals();
  prev_node_ = nullptr;
}

void Controller::trace_window_init(const TipiNode& node, Domain domain) {
  if (trace_ == nullptr) return;
  const DomainState& st = domain_state(node, domain);
  trace_->record({stats_.ticks,
                  domain == Domain::kCore ? TraceEvent::kCfWindowInit
                                          : TraceEvent::kUfWindowInit,
                  node.slab, domain, st.lb, st.rb, st.opt});
}

void Controller::trace_opt_found(const TipiNode& node, Domain domain) {
  if (trace_ == nullptr) return;
  const DomainState& st = domain_state(node, domain);
  trace_->record({stats_.ticks, TraceEvent::kOptFound, node.slab, domain,
                  st.lb, st.rb, st.opt});
}

void Controller::trace_explore(const TipiNode& node, Domain domain,
                               const ExploreResult& result) {
  if (trace_ == nullptr) return;
  const DomainState& st = domain_state(node, domain);
  if (result.opt_found) {
    trace_opt_found(node, domain);
  } else if (result.rb_lowered || result.lb_raised) {
    trace_->record({stats_.ticks, TraceEvent::kBoundTightened, node.slab,
                    domain, st.lb, st.rb, result.next});
  }
}

/// The domain the policy explores first: UF for the uncore-only variant
/// (the core stays pinned), CF for everything else.
Domain Controller::primary_domain() const {
  return effective_ == PolicyKind::kUncoreOnly ? Domain::kUncore
                                               : Domain::kCore;
}

/// Open `domain`'s exploration window on `node` (§4.4; Algorithm 3 for
/// UF, seeded by `cf_opt` when CF has settled) and propagate an optimum
/// the neighbours already pin down.
void Controller::arm_window(TipiNode& node, Domain domain,
                            std::optional<Level> cf_opt) {
  const FreqLadder& cf_ladder = domains_[Domain::kCore].ladder;
  if (domain == Domain::kCore) {
    init_cf_window(node, cf_ladder, cfg_.jpi_samples,
                   cfg_.insertion_narrowing);
  } else {
    init_uf_window(node, cf_ladder, domains_[Domain::kUncore].ladder,
                   cfg_.jpi_samples, cf_opt, cfg_.insertion_narrowing);
  }
  trace_window_init(node, domain);
  const DomainState& st = domain_state(node, domain);
  if (st.complete()) domains_[domain].propagator.on_opt_found(node, st.opt);
}

/// Algorithm 1 lines 20-24: CF exploration has just concluded; estimate
/// the UF window (Algorithm 3) narrowed by the neighbours (§4.4) and
/// start the UF descent at the window's right bound.
Level Controller::start_uf_phase(TipiNode& node) {
  arm_window(node, Domain::kUncore, node.cf.opt);
  return node.uf.complete() ? node.uf.opt : node.uf.rb;
}

/// One Algorithm-2 step of `domain`'s open window on `node`, with §4.5
/// propagation. Returns the level to run at next.
Level Controller::explore(TipiNode& node, Domain domain, double jpi,
                          bool record) {
  DomainState& st = domain_state(node, domain);
  DomainControl& dom = domains_[domain];
  const ExploreResult res = dom.explorer.step(st, jpi, dom.prev, record);
  if (record) stats_.samples_recorded += 1;
  dom.propagator.apply(node, res);
  trace_explore(node, domain, res);
  return res.next;
}

/// The level `domain` runs at next on `node`: its optimum once found,
/// otherwise the next exploration step.
Level Controller::next_level(TipiNode& node, Domain domain, double jpi,
                             bool record) {
  const DomainState& st = domain_state(node, domain);
  return st.complete() ? st.opt : explore(node, domain, jpi, record);
}

void Controller::run_full_policy(TipiNode& node, double jpi, bool record,
                                 PerDomain<Level>& next) {
  if (!node.cf.complete()) {
    // Algorithm 1 lines 13/18: CF exploration with the uncore held at max.
    next[Domain::kCore] = explore(node, Domain::kCore, jpi, record);
    if (node.cf.complete()) {
      next[Domain::kCore] = node.cf.opt;
      next[Domain::kUncore] = start_uf_phase(node);
    }
    return;
  }
  next[Domain::kCore] = node.cf.opt;
  // Algorithm 1 lines 25-31: UF exploration, then steady state. CF may
  // have completed through §4.5 propagation while another slab was
  // active, in which case the UF phase still has to be armed.
  next[Domain::kUncore] =
      node.uf.window_set ? next_level(node, Domain::kUncore, jpi, record)
                         : start_uf_phase(node);
}

void Controller::on_node_inserted(TipiNode& node) {
  // Algorithm 1 lines 8-12: arm the exploration window of the policy's
  // primary domain.
  arm_window(node, primary_domain(), std::nullopt);
}

void Controller::decide(TipiNode& node, double jpi, bool record,
                        PerDomain<Level>& next) {
  switch (effective_) {
    case PolicyKind::kFull:
      run_full_policy(node, jpi, record, next);
      break;
    case PolicyKind::kCoreOnly:
    case PolicyKind::kUncoreOnly: {
      // The -Core / -Uncore variants: the same Algorithm-2 step on one
      // domain, the other pinned at its maximum.
      const Domain domain = primary_domain();
      next[domain] = next_level(node, domain, jpi, record);
      break;
    }
    case PolicyKind::kMonitor:
      // Profile only: the TIPI list and telemetry fill in, but no windows
      // open and both domains stay at their (unactuated) maxima.
      break;
    case PolicyKind::kMpc:
      // kMpc is implemented by ControllerMpc's override; a plain
      // Controller configured with it (use the factory instead) profiles
      // like kMonitor rather than running a strategy it doesn't have.
      break;
  }
}

void Controller::tick() {
  if (safe_mode_) {
    // Parked by the watchdog: keep the tick count advancing (region and
    // telemetry bookkeeping stays consistent) but touch no hardware.
    stats_.ticks += 1;
    stats_.idle_ticks += 1;
    return;
  }
  if (quarantined_domains_ > 0) {
    quarantine_maintenance();
    if (sensor_health_.quarantined()) {
      // No usable counters: the interval is accounted idle. Probes above
      // keep testing the stack on its backoff schedule; a heal resumes
      // normal ticks from the recovery snapshot.
      stats_.ticks += 1;
      stats_.idle_ticks += 1;
      return;
    }
  }

  // One batched virtual read per tick (Algorithm 1 line 6): every counter
  // arrives in a single SensorSample instead of scattered per-counter
  // register round trips. Transient read failures are retried in-call
  // (same tick, same virtual time); a tick whose read still fails is
  // dropped whole — stale counters must never enter the JPI tables.
  const hal::SampleOutcome sampled = sample_with_retry();
  if (sampled.io.failed()) {
    stats_.ticks += 1;
    stats_.sensor_read_errors += 1;
    // The next successful interval spans the outage; treat it like a
    // region boundary so its sample is discarded as a transition.
    prev_node_ = nullptr;
    if (sensor_health_.record_failure(stats_.ticks)) {
      note_quarantine(Domain::kCore,
                      caps_ & hal::CapabilitySet::all_sensors());
    }
    return;
  }
  sensor_health_.record_success(stats_.ticks);
  // The batched read above published this interval's demand; any grant
  // movement the arbiter answered with belongs to this tick's audit line.
  drain_grant_changes();
  const hal::SensorTotals totals = sampled.sample.totals();
  const uint64_t d_instr = totals.instructions - last_.instructions;
  const uint64_t d_tor = totals.tor_inserts - last_.tor_inserts;
  const double d_energy = totals.energy_joules - last_.energy_joules;
  last_ = totals;
  stats_.ticks += 1;
  if (d_instr == 0) {
    stats_.idle_ticks += 1;
    return;
  }

  // Algorithm 1 line 7: TIPI and JPI of the elapsed interval.
  const double tipi =
      static_cast<double>(d_tor) / static_cast<double>(d_instr);
  const double jpi = d_energy / static_cast<double>(d_instr);
  const int64_t slab = slabber_.slab_of(tipi);

  // Hot-path short circuit: consecutive Tinv intervals overwhelmingly
  // stay in the previous tick's TIPI range, so one compare against the
  // last node skips even the list's MRU/binary-search lookup.
  TipiNode* node = prev_node_ != nullptr && prev_node_->slab == slab
                       ? prev_node_
                       : list_.find(slab);
  bool transition;
  if (node == nullptr) {
    // Algorithm 1 lines 8-12: new TIPI range.
    node = list_.insert(slab);
    stats_.nodes_inserted += 1;
    transition = true;
    if (trace_ != nullptr) {
      trace_->record({stats_.ticks, TraceEvent::kNodeInserted, slab,
                      Domain::kCore, kNoLevel, kNoLevel, kNoLevel});
    }
    if (effective_ != PolicyKind::kMonitor) on_node_inserted(*node);
  } else {
    transition = node != prev_node_;
  }
  node->ticks += 1;
  if (transition) stats_.transitions += 1;

  // A negative or non-finite energy delta (a missed RAPL wrap, a
  // corrupted read) says nothing about this interval's efficiency: like
  // a transition sample, it is discarded rather than recorded. d_instr > 0,
  // so JPI carries the delta's sign; NaN fails both compares, +inf the
  // second.
  const bool record = !transition && jpi >= 0.0 &&
                      jpi <= std::numeric_limits<double>::max();
  PerDomain<Level> next = maxima();
  decide(*node, jpi, record, next);
  run_at(next);
  prev_node_ = node;

  if (telemetry_ != nullptr) {
    telemetry_->push_back(TickTelemetry{
        tipi, jpi, slab, transition,
        domains_[Domain::kCore].ladder.at(next[Domain::kCore]),
        domains_[Domain::kUncore].ladder.at(next[Domain::kUncore])});
  }
}

}  // namespace cuttlefish::core
