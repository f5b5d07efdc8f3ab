#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/frequency.hpp"
#include "common/tipi.hpp"
#include "core/config.hpp"
#include "core/explorer.hpp"
#include "core/icontroller.hpp"
#include "core/narrowing.hpp"
#include "core/snapshot.hpp"
#include "core/tipi_list.hpp"
#include "core/trace.hpp"
#include "hal/health.hpp"
#include "hal/platform.hpp"

namespace cuttlefish::hal {
class ArbitratedPlatform;
}  // namespace cuttlefish::hal

namespace cuttlefish::core {

/// A value per frequency domain, indexed by Domain.
template <typename T>
struct PerDomain {
  std::array<T, 2> by_index;

  T& operator[](Domain d) { return by_index[static_cast<size_t>(d)]; }
  const T& operator[](Domain d) const {
    return by_index[static_cast<size_t>(d)];
  }
};

/// Both domains in Algorithm 1's phase order: CF first, then UF.
inline constexpr Domain kDomains[] = {Domain::kCore, Domain::kUncore};

/// The capability-narrowing rule (docs/CONTROLLERS.md): the policy a
/// `requested` one can actually run given whether the JPI sensors work
/// and which actuators are settable. kFull keeps whichever domain is
/// still actuatable; kMpc keeps its own kind while any actuator remains;
/// an explicit -Core/-Uncore request never switches to the *other*
/// domain; everything drops to kMonitor without JPI sensors. Applied at
/// construction to the backend's capabilities and again after every
/// quarantine or heal to the still-healthy devices.
PolicyKind narrow_policy(PolicyKind requested, bool jpi_ok, bool can_set_cf,
                         bool can_set_uf);

/// The Cuttlefish runtime policy (Algorithm 1) as a tick-driven engine —
/// the `Default` registration of core/controller_factory.hpp. Thread-free
/// by design: core::Daemon wraps it in a real thread for wall-clock use,
/// and the experiment driver calls tick() from the virtual-time
/// co-simulation loop. One tick = one Tinv interval.
///
/// The tick() skeleton — batched sensor read, fault retry/quarantine,
/// TIPI slabbing, node lookup, actuation, telemetry — is policy-agnostic
/// and shared by every subclass; strategies differ only in the two
/// protected hooks, on_node_inserted() and decide()
/// (core/controller_mpc.hpp overrides both).
class Controller : public IController {
 public:
  Controller(hal::PlatformInterface& platform, ControllerConfig cfg = {});

  /// Pin both domains to their maxima and baseline the sensors. Call once
  /// after the warm-up period, immediately before the first tick().
  void begin() override;

  /// One pass of the Algorithm-1 loop body.
  void tick() override;

  const ControllerConfig& config() const override { return cfg_; }
  const SortedTipiList& list() const override { return list_; }
  const ControllerStats& stats() const override { return stats_; }
  const TipiSlabber& slabber() const override { return slabber_; }

  /// The backend's capability set, read once at construction.
  hal::CapabilitySet capabilities() const override { return caps_; }
  /// The policy actually run: config().policy narrowed by
  /// narrow_policy() to what the backend (minus quarantined devices) can
  /// support. Equal to config().policy on full-capability backends.
  PolicyKind effective_policy() const override { return effective_; }
  /// True when effective_policy() differs from the request or a sensor
  /// loss (e.g. TOR -> single-slab TIPI) was recorded.
  bool degraded() const override { return !degradations_.empty(); }

  /// Capture the exploration state — TIPI slab layout, per-node windows
  /// and optima, JPI tables — as plain data. This is what a named region
  /// saves on exit; replaying it through restore() on re-entry skips the
  /// warm-up re-exploration (the recurring-kernel amortisation the paper
  /// targets).
  ControllerSnapshot snapshot() const override;

  /// Replace the exploration state with a previously captured snapshot
  /// and re-baseline the sensors, so the next tick continues exactly
  /// where the snapshot left off (completed nodes go straight to their
  /// optima; partially explored windows resume). Returns false — and
  /// resets to a cold state instead — when the snapshot's shape (ladder
  /// sizes, slab width, JPI quota) does not match this controller.
  bool restore(const ControllerSnapshot& snap) override;

  /// Drop all exploration state (cold region entry): empty TIPI list,
  /// sensors re-baselined. Frequencies are left as-is — the next tick
  /// decides them, discarding the boundary-spanning sample like any
  /// other TIPI transition.
  void reset_exploration() override;

  /// Append a region lifecycle record (enter/exit/warm-start) to the
  /// attached trace. `region_id` is the session-assigned id of the named
  /// region (TraceRecord::slab carries it); `payload` is event-specific
  /// (node count restored by a warm start).
  void record_region_event(TraceEvent event, int64_t region_id,
                           uint32_t payload = 0) override;

  /// Append a machine-wide runtime record (tick overrun, watchdog
  /// diagnostics) to the attached trace; `payload` is event-specific.
  void record_runtime_event(TraceEvent event, uint32_t payload = 0) override;

  /// Permanently park the controller in monitor mode: every subsequent
  /// tick is counted idle and nothing is read or written. The daemon
  /// watchdog's terminal action when the backend wedges (repeated tick
  /// overruns or controller exceptions); irreversible by design — a
  /// backend sick enough to trip it is not trusted again this session.
  void enter_safe_mode() override;
  bool safe_mode() const override { return safe_mode_; }

  /// Per-device health trackers (sensor stack + one per actuator
  /// domain). Drive the retry/quarantine/re-narrowing machinery of
  /// docs/FAULTS.md; exposed for health reports and tests.
  const hal::DeviceHealth& sensor_health() const override {
    return sensor_health_;
  }
  const hal::DeviceHealth& core_actuator_health() const override {
    return domains_[Domain::kCore].health;
  }
  const hal::DeviceHealth& uncore_actuator_health() const override {
    return domains_[Domain::kUncore].health;
  }
  /// True while any device is quarantined (the effective policy is then
  /// narrowed below the construction-time value).
  bool any_quarantine() const override { return quarantined_domains_ > 0; }

  /// Optional per-tick capture (Fig. 2 timelines, tests). Not owned.
  void set_telemetry(std::vector<TickTelemetry>* sink) override {
    telemetry_ = sink;
  }

  /// Optional decision log (diagnostics / auditing). Not owned; null
  /// disables tracing at zero cost.
  void set_trace(DecisionTrace* trace) override { trace_ = trace; }

 protected:
  /// Strategy hook: a new TIPI range just entered the list (Algorithm 1
  /// lines 8-12). Arm whatever per-node state the policy needs before its
  /// first decide(). Only called when the effective policy is not
  /// kMonitor. The Default implementation opens the Algorithm-3
  /// exploration window for the policy's primary domain.
  virtual void on_node_inserted(TipiNode& node);

  /// Strategy hook: pick the levels to run at until the next tick.
  /// `jpi` is the JPI measured over the elapsed interval; `record` is
  /// false when that interval must not enter a JPI table: it spanned a
  /// TIPI transition (Algorithm 2 line 6), or its energy delta went
  /// negative or non-finite (a counter wrap). `next` arrives preloaded
  /// with the ladder maxima; leave a domain untouched to pin it. The
  /// interval ran at prev_level(). The Default implementation is the
  /// Algorithm-1/2/3 ladder descent.
  virtual void decide(TipiNode& node, double jpi, bool record,
                      PerDomain<Level>& next);

  // Read-side accessors for subclasses (the skeleton keeps ownership).
  hal::PlatformInterface& platform() { return *platform_; }
  const FreqLadder& ladder(Domain d) const { return domains_[d].ladder; }
  /// Level `d` ran at during the interval decide() is judging.
  Level prev_level(Domain d) const { return domains_[d].prev; }
  /// Actuation permission of `d` after capability narrowing and
  /// quarantine (kFull-family policies adapt only the permitted domains).
  bool can_set(Domain d) const { return domains_[d].can_set; }
  /// Bump ControllerStats::samples_recorded (a sample entered a table).
  void count_sample() { stats_.samples_recorded += 1; }
  /// Trace helpers shared with subclasses.
  void trace_window_init(const TipiNode& node, Domain domain);
  void trace_opt_found(const TipiNode& node, Domain domain);

 private:
  /// Everything the skeleton keeps per frequency domain.
  struct DomainControl {
    DomainControl(Domain domain, const FreqLadder& domain_ladder,
                  const ControllerConfig& cfg);

    FreqLadder ladder;
    FrequencyExplorer explorer;
    BoundPropagator propagator;
    /// Drives retry/quarantine; health.quarantined() is the runtime
    /// quarantine flag.
    hal::DeviceHealth health;
    /// Permitted after capability narrowing and quarantine.
    bool can_set = false;
    /// Last level that landed on the hardware (kNoLevel before any).
    Level set = kNoLevel;
    /// Level the elapsed interval ran at.
    Level prev = kNoLevel;
  };

  void drain_grant_changes();
  void note_degradation(Domain domain, hal::CapabilitySet lost);
  void note_missing_capabilities();
  void refresh_effective();
  void note_quarantine(Domain domain, hal::CapabilitySet lost);
  void note_heal(Domain domain, hal::CapabilitySet regained);
  void quarantine_maintenance();
  void probe_actuator(Domain domain);
  hal::SampleOutcome sample_with_retry();
  void actuate(Domain domain, Level level);
  void run_at(const PerDomain<Level>& levels);
  PerDomain<Level> maxima() const;
  Domain primary_domain() const;
  void arm_window(TipiNode& node, Domain domain, std::optional<Level> cf_opt);
  Level start_uf_phase(TipiNode& node);
  Level explore(TipiNode& node, Domain domain, double jpi, bool record);
  Level next_level(TipiNode& node, Domain domain, double jpi, bool record);
  void run_full_policy(TipiNode& node, double jpi, bool record,
                       PerDomain<Level>& next);
  void trace_explore(const TipiNode& node, Domain domain,
                     const ExploreResult& result);

  hal::PlatformInterface* platform_;
  /// Non-null when the platform is an ArbitratedPlatform (discovered once
  /// at construction): its queued grant movements are drained into the
  /// decision trace each tick as budget-granted/budget-revoked records.
  hal::ArbitratedPlatform* arbitrated_ = nullptr;
  ControllerConfig cfg_;
  hal::CapabilitySet caps_;
  PolicyKind effective_;
  /// Capability losses found at construction, replayed into the trace by
  /// begin() (the trace sink is usually attached after construction).
  std::vector<TraceRecord> degradations_;
  TipiSlabber slabber_;
  PerDomain<DomainControl> domains_;
  SortedTipiList list_;
  ControllerStats stats_;

  // Fault-tolerance state (docs/FAULTS.md): sensor health (its
  // quarantined() flag parks the tick), the count of quarantined
  // devices and the exploration snapshot taken on the first quarantine so
  // a full heal warm-restarts instead of re-exploring.
  hal::DeviceHealth sensor_health_;
  int quarantined_domains_ = 0;
  ControllerSnapshot recovery_snap_;
  bool have_recovery_snap_ = false;
  bool safe_mode_ = false;

  hal::SensorTotals last_{};
  TipiNode* prev_node_ = nullptr;
  std::vector<TickTelemetry>* telemetry_ = nullptr;
  DecisionTrace* trace_ = nullptr;
};

}  // namespace cuttlefish::core
