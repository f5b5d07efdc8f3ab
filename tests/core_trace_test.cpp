#include "core/trace.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <utility>

#include "core/controller.hpp"
#include "hal/platform.hpp"

namespace cuttlefish::core {
namespace {

TraceRecord make_record(uint64_t tick, TraceEvent ev) {
  TraceRecord r;
  r.tick = tick;
  r.event = ev;
  r.slab = 16;
  return r;
}

TEST(DecisionTrace, RecordsInOrder) {
  DecisionTrace trace(8);
  for (uint64_t t = 0; t < 5; ++t) {
    trace.record(make_record(t, TraceEvent::kNodeInserted));
  }
  const auto snap = trace.snapshot();
  ASSERT_EQ(snap.size(), 5u);
  for (uint64_t t = 0; t < 5; ++t) EXPECT_EQ(snap[t].tick, t);
}

TEST(DecisionTrace, RingKeepsNewestRecords) {
  DecisionTrace trace(4);
  for (uint64_t t = 0; t < 10; ++t) {
    trace.record(make_record(t, TraceEvent::kFrequencySet));
  }
  EXPECT_EQ(trace.size(), 4u);
  EXPECT_EQ(trace.total_recorded(), 10u);
  const auto snap = trace.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  EXPECT_EQ(snap.front().tick, 6u);
  EXPECT_EQ(snap.back().tick, 9u);
}

TEST(DecisionTrace, ClearResets) {
  DecisionTrace trace(4);
  trace.record(make_record(1, TraceEvent::kOptFound));
  trace.clear();
  EXPECT_EQ(trace.size(), 0u);
  EXPECT_TRUE(trace.snapshot().empty());
}

TEST(DecisionTrace, TextDumpMentionsEventsAndFrequencies) {
  DecisionTrace trace(8);
  TraceRecord r;
  r.tick = 3;
  r.event = TraceEvent::kOptFound;
  r.slab = 16;
  r.domain = Domain::kUncore;
  r.lb = 10;
  r.rb = 10;
  r.level = 10;
  trace.record(r);
  const std::string text =
      trace.to_text(haswell_core_ladder(), haswell_uncore_ladder());
  EXPECT_NE(text.find("opt-found"), std::string::npos);
  EXPECT_NE(text.find("2200"), std::string::npos);  // level 10 uncore
  EXPECT_NE(text.find("slab 16"), std::string::npos);
}

// --- controller integration --------------------------------------------

class TracePlatform final : public hal::PlatformInterface {
 public:
  TracePlatform()
      : core_(hypothetical_ladder()), uncore_(hypothetical_ladder()),
        cf_(core_.max()), uf_(uncore_.max()) {}

  const FreqLadder& core_ladder() const override { return core_; }
  const FreqLadder& uncore_ladder() const override { return uncore_; }
  hal::IoOutcome apply_core_frequency(FreqMHz f) override {
    cf_ = f;
    return hal::IoOutcome::success();
  }
  hal::IoOutcome apply_uncore_frequency(FreqMHz f) override {
    uf_ = f;
    return hal::IoOutcome::success();
  }
  FreqMHz core_frequency() const override { return cf_; }
  FreqMHz uncore_frequency() const override { return uf_; }
  hal::SampleOutcome sample_sensors() override { return {sample_, {}}; }

  void produce_tick(double tipi) {
    const double instr = 1e9;
    sample_.instructions += static_cast<uint64_t>(instr);
    sample_.tor_local += static_cast<uint64_t>(instr * tipi);
    sample_.energy_joules +=
        (3.0 - 0.2 * core_.level_of(cf_) + 0.2 * uncore_.level_of(uf_)) *
        instr * 1e-9;
  }

 private:
  FreqLadder core_;
  FreqLadder uncore_;
  FreqMHz cf_;
  FreqMHz uf_;
  hal::SensorSample sample_;
};

TEST(DecisionTrace, ControllerEmitsLifecycleEvents) {
  TracePlatform platform;
  Controller controller(platform, ControllerConfig{});
  DecisionTrace trace(1024);
  controller.set_trace(&trace);
  controller.begin();
  for (int i = 0; i < 400; ++i) {
    platform.produce_tick(0.002);
    controller.tick();
  }
  bool saw_insert = false, saw_cf_window = false, saw_uf_window = false;
  bool saw_opt = false, saw_freq = false;
  for (const auto& r : trace.snapshot()) {
    switch (r.event) {
      case TraceEvent::kNodeInserted: saw_insert = true; break;
      case TraceEvent::kCfWindowInit: saw_cf_window = true; break;
      case TraceEvent::kUfWindowInit: saw_uf_window = true; break;
      case TraceEvent::kOptFound: saw_opt = true; break;
      case TraceEvent::kFrequencySet: saw_freq = true; break;
      default: break;
    }
  }
  EXPECT_TRUE(saw_insert);
  EXPECT_TRUE(saw_cf_window);
  EXPECT_TRUE(saw_uf_window);
  EXPECT_TRUE(saw_opt);
  EXPECT_TRUE(saw_freq);
}

TEST(DecisionTrace, SingleDomainVariantsTraceTheirExploration) {
  // -Core and -Uncore run the same explore step as the full policy, so
  // their bound movements and optimum reach the trace too, always on the
  // explored domain.
  for (const auto& [policy, explored] :
       {std::pair{PolicyKind::kCoreOnly, Domain::kCore},
        std::pair{PolicyKind::kUncoreOnly, Domain::kUncore}}) {
    TracePlatform platform;
    ControllerConfig cfg;
    cfg.policy = policy;
    Controller controller(platform, cfg);
    DecisionTrace trace(1024);
    controller.set_trace(&trace);
    controller.begin();
    for (int i = 0; i < 400; ++i) {
      platform.produce_tick(0.002);
      controller.tick();
    }
    int opts = 0;
    for (const auto& r : trace.snapshot()) {
      if (r.event != TraceEvent::kOptFound &&
          r.event != TraceEvent::kBoundTightened) {
        continue;
      }
      EXPECT_EQ(r.domain, explored) << to_string(policy);
      if (r.event == TraceEvent::kOptFound) ++opts;
    }
    EXPECT_EQ(opts, 1) << to_string(policy);
  }
}

TEST(DecisionTrace, DisabledTraceCostsNothingAndCrashesNothing) {
  TracePlatform platform;
  Controller controller(platform, ControllerConfig{});
  controller.begin();
  for (int i = 0; i < 100; ++i) {
    platform.produce_tick(0.03);
    controller.tick();
  }
  SUCCEED();
}

}  // namespace
}  // namespace cuttlefish::core
