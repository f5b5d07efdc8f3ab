#pragma once

// Span recording for the traced run. Spans are taken only from the
// benchmark's own files, around calls into each layer's public functions;
// the library itself is not instrumented. Spans live in memory and are
// written out when the run ends.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "hal/platform.hpp"

namespace perfbench {

inline int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double now_s() { return static_cast<double>(now_ns()) * 1e-9; }

/// Every span name the benchmark records. The prefix before the first
/// dot is the library module the span enters.
enum class SpanName : uint16_t {
  kSpec,            // exp: one spec replayed (request root)
  kBuild,           // workloads: BenchmarkModel::build_program
  kCalibrate,       // exp: calibrate_program
  kRun,             // exp: the co-simulation of one spec
  kAdvance,         // sim: SimMachine::advance
  kGovernor,        // sim: FirmwareUncoreGovernor::tick
  kTick,            // core: IController::tick / Session::tick
  kBegin,           // core: IController::begin / first Session::tick
  kRegionEnter,     // core: Region construction
  kRegionExit,      // core: Region destruction
  kArbiterSample,   // arbiter: ArbitratedPlatform sample
  kArbiterApply,    // arbiter: ArbitratedPlatform write
  kFaultSample,     // hal: FaultInjectionPlatform sample
  kFaultApply,      // hal: FaultInjectionPlatform write
  kHalSample,       // hal: backend sample
  kHalApply,        // hal: backend write
  kInterval,        // exp: one co-tenant lockstep interval (request root)
  kCount,
};

const char* to_string(SpanName name);

struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  // index of the enclosing span, -1 at the root
  uint32_t request = 0; // spec index or interval number
  SpanName name = SpanName::kSpec;
};

/// Per-name totals: `self_ns` is each span's duration minus the time its
/// direct children cover.
struct SpanTotals {
  uint64_t calls = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;
};

/// Single-threaded span recorder. Spans nest strictly (a child ends before
/// its parent), which is what the benchmark's call structure guarantees.
class Tracer {
 public:
  int begin(SpanName name) {
    const int index = static_cast<int>(spans_.size());
    spans_.push_back(Span{now_ns(), 0, open_, request_, name});
    open_ = index;
    return index;
  }
  void end(int index) {
    spans_[static_cast<size_t>(index)].end_ns = now_ns();
    open_ = spans_[static_cast<size_t>(index)].parent;
  }
  void set_request(uint32_t request) { request_ = request; }
  void clear() { truncate(0); }
  /// Drops every span recorded after the first `count` (all closed).
  void truncate(size_t count) {
    spans_.resize(count);
    open_ = -1;
  }
  const std::vector<Span>& spans() const { return spans_; }

  std::vector<SpanTotals> totals() const;
  /// Tab-separated dump: name, start_ns, end_ns, parent, request.
  bool write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  int32_t open_ = -1;
  uint32_t request_ = 0;
};

/// RAII span; a null tracer records nothing.
class Scope {
 public:
  Scope(Tracer* tracer, SpanName name)
      : tracer_(tracer), index_(tracer ? tracer->begin(name) : -1) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->end(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

/// Pass-through PlatformInterface that records a span around every sensor
/// read and frequency write it forwards. Placed between each pair of
/// decorators, the spans split HAL, fault-injection and arbiter self time.
/// With `count_effective` it also counts writes that changed the inner
/// platform's frequency (used directly above the backend).
class TimedPlatform final : public cuttlefish::hal::PlatformInterface {
 public:
  TimedPlatform(cuttlefish::hal::PlatformInterface& inner, Tracer& tracer,
                SpanName sample_name, SpanName apply_name,
                bool count_effective = false)
      : inner_(&inner), tracer_(&tracer), sample_name_(sample_name),
        apply_name_(apply_name), count_effective_(count_effective) {}

  cuttlefish::hal::CapabilitySet capabilities() const override {
    return inner_->capabilities();
  }
  const cuttlefish::FreqLadder& core_ladder() const override {
    return inner_->core_ladder();
  }
  const cuttlefish::FreqLadder& uncore_ladder() const override {
    return inner_->uncore_ladder();
  }
  cuttlefish::FreqMHz core_frequency() const override {
    return inner_->core_frequency();
  }
  cuttlefish::FreqMHz uncore_frequency() const override {
    return inner_->uncore_frequency();
  }
  void set_core_frequency(cuttlefish::FreqMHz f) override {
    (void)apply_core_frequency(f);
  }
  void set_uncore_frequency(cuttlefish::FreqMHz f) override {
    (void)apply_uncore_frequency(f);
  }
  cuttlefish::hal::SensorTotals read_sensors() override {
    return sample_sensors().sample.totals();
  }
  cuttlefish::hal::SensorSample read_sample() override {
    return sample_sensors().sample;
  }
  cuttlefish::hal::IoOutcome apply_core_frequency(
      cuttlefish::FreqMHz f) override {
    const cuttlefish::FreqMHz before =
        count_effective_ ? inner_->core_frequency() : cuttlefish::FreqMHz{0};
    cuttlefish::hal::IoOutcome out;
    {
      Scope span(tracer_, apply_name_);
      out = inner_->apply_core_frequency(f);
    }
    note_write(count_effective_ && inner_->core_frequency() != before);
    return out;
  }
  cuttlefish::hal::IoOutcome apply_uncore_frequency(
      cuttlefish::FreqMHz f) override {
    const cuttlefish::FreqMHz before =
        count_effective_ ? inner_->uncore_frequency() : cuttlefish::FreqMHz{0};
    cuttlefish::hal::IoOutcome out;
    {
      Scope span(tracer_, apply_name_);
      out = inner_->apply_uncore_frequency(f);
    }
    note_write(count_effective_ && inner_->uncore_frequency() != before);
    return out;
  }
  cuttlefish::hal::SampleOutcome sample_sensors() override {
    Scope span(tracer_, sample_name_);
    return inner_->sample_sensors();
  }

  uint64_t writes() const { return writes_; }
  uint64_t effective_writes() const { return effective_writes_; }

 private:
  void note_write(bool changed) {
    ++writes_;
    if (changed) ++effective_writes_;
  }

  cuttlefish::hal::PlatformInterface* inner_;
  Tracer* tracer_;
  SpanName sample_name_;
  SpanName apply_name_;
  bool count_effective_;
  uint64_t writes_ = 0;
  uint64_t effective_writes_ = 0;
};

}  // namespace perfbench
