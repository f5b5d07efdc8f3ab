// The arbitrated tick's hot path costs no heap traffic and no ladder
// scan. Steady-state LocalArbiter::publish and ArbitratedPlatform's
// sensor sample allocate nothing, capped or uncapped, under both share
// policies — measured by replacing the global operator new with a
// byte-counting version, like sim_footprint_test does. The in-place
// allocate() form equals the vector form bit for bit, and the O(1)
// FreqLadder::floor_level the grant clamp uses picks the level the old
// top-down ladder scan picked.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <new>
#include <numeric>
#include <string>
#include <vector>

#include "arbiter/local_arbiter.hpp"
#include "common/frequency.hpp"
#include "common/rng.hpp"
#include "hal/arbitrated.hpp"

namespace {

std::atomic<uint64_t> g_bytes{0};

}  // namespace

// Counting replacements for the global allocation functions. Sized/aligned
// variants all funnel through these four.
void* operator new(size_t size) {
  g_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(size_t size, std::align_val_t align) {
  g_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<size_t>(align), size)) {
    return p;
  }
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace cuttlefish {
namespace {

using arbiter::ArbiterConfig;
using arbiter::Demand;
using arbiter::LocalArbiter;
using arbiter::SharePolicy;

constexpr SharePolicy kPolicies[] = {SharePolicy::kEqualShare,
                                     SharePolicy::kDemandWeighted};

/// Deterministic, allocation-free inner platform: each sample adds a
/// varying number of joules, so the published demand — and under a cap
/// the grant — moves from tick to tick.
class MeteredPlatform final : public hal::PlatformInterface {
 public:
  explicit MeteredPlatform(uint64_t seed) : rng_(seed) {}

  const FreqLadder& core_ladder() const override { return core_; }
  const FreqLadder& uncore_ladder() const override { return uncore_; }
  FreqMHz core_frequency() const override { return cf_; }
  FreqMHz uncore_frequency() const override { return uf_; }
  hal::SampleOutcome sample_sensors() override {
    sample_.instructions += 1'000'000 + rng_.next_below(500'000);
    sample_.tor_local += rng_.next_below(20'000);
    sample_.tor_remote += rng_.next_below(5'000);
    sample_.energy_joules +=
        0.5 + static_cast<double>(rng_.next_below(1500)) / 1000.0;
    return hal::SampleOutcome{sample_, hal::IoOutcome::success()};
  }
  hal::IoOutcome apply_core_frequency(FreqMHz f) override {
    cf_ = f;
    return hal::IoOutcome::success();
  }
  hal::IoOutcome apply_uncore_frequency(FreqMHz f) override {
    uf_ = f;
    return hal::IoOutcome::success();
  }

 private:
  SplitMix64 rng_;
  FreqLadder core_ = haswell_core_ladder();
  FreqLadder uncore_ = haswell_uncore_ladder();
  FreqMHz cf_{2300};
  FreqMHz uf_{3000};
  hal::SensorSample sample_{};
};

TEST(ArbiterHotPath, LocalPublishAllocatesNothing) {
  // budget 0 = uncapped plane; 1000 W covers every demand; 60 W caps.
  for (const SharePolicy policy : kPolicies) {
    for (const double budget : {0.0, 1000.0, 60.0}) {
      SCOPED_TRACE(std::string(to_string(policy)) + " budget " +
                   std::to_string(budget));
      LocalArbiter arb(ArbiterConfig{budget, policy}, 8);
      int slots[4];
      for (int& s : slots) s = arb.attach();
      SplitMix64 rng(17);
      const auto publish_round = [&](uint64_t tick) {
        for (const int s : slots) {
          Demand d;
          // Zero demands included: they leave the water-filling pool.
          d.watts = static_cast<double>(rng.next_below(60));
          (void)arb.publish(s, d, tick);
        }
      };
      publish_round(1);
      const uint64_t before = g_bytes.load();
      for (uint64_t tick = 2; tick < 2000; ++tick) publish_round(tick);
      EXPECT_EQ(g_bytes.load() - before, 0u);
    }
  }
}

TEST(ArbiterHotPath, ArbitratedSampleAllocatesNothing) {
  for (const SharePolicy policy : kPolicies) {
    for (const double budget : {0.0, 1000.0, 120.0}) {
      SCOPED_TRACE(std::string(to_string(policy)) + " budget " +
                   std::to_string(budget));
      LocalArbiter arb(ArbiterConfig{budget, policy}, 4);
      std::vector<MeteredPlatform> inner;
      inner.reserve(4);
      for (uint64_t i = 0; i < 4; ++i) inner.emplace_back(100 + i);
      std::vector<std::unique_ptr<hal::ArbitratedPlatform>> tenants;
      for (MeteredPlatform& p : inner) {
        tenants.push_back(
            std::make_unique<hal::ArbitratedPlatform>(p, arb, 0.02));
      }
      const FreqLadder ladder = haswell_core_ladder();
      SplitMix64 rng(5);
      uint64_t changes = 0;
      // One lockstep interval: each tenant's controller samples, drains
      // its grant movements and sometimes writes a new core frequency.
      const auto interval = [&] {
        for (auto& t : tenants) {
          (void)t->sample_sensors();
          hal::ArbitratedPlatform::GrantChange change;
          while (t->poll_grant_change(&change)) ++changes;
          if (rng.next_below(4) == 0) {
            (void)t->apply_core_frequency(ladder.at(static_cast<Level>(
                rng.next_below(static_cast<uint64_t>(ladder.levels())))));
          }
        }
      };
      for (int i = 0; i < 50; ++i) interval();
      const uint64_t changes_in_warmup = changes;
      const uint64_t before = g_bytes.load();
      for (int i = 0; i < 2000; ++i) interval();
      EXPECT_EQ(g_bytes.load() - before, 0u);
      if (budget == 120.0) {
        // The capped plane really moved grants (and queued changes)
        // while allocation was being counted.
        EXPECT_GT(changes, changes_in_warmup);
        bool capped = false;
        for (auto& t : tenants) capped = capped || t->grant().capped;
        EXPECT_TRUE(capped);
      }
    }
  }
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

TEST(ArbiterHotPath, InPlaceAllocateEqualsVectorForm) {
  // arbiter_policy_test's demand sets, then seeded random ones (zeros,
  // ties and sizes 0..16). The in-place buffers are reused dirty across
  // every call, as LocalArbiter reuses them.
  std::vector<std::vector<double>> sets{{40.0, 0.0, 95.5},
                                        {40.0, 30.0, 25.0},
                                        {80.0, 60.0, 45.0, 0.0},
                                        {20.0, 80.0, 80.0},
                                        {10.0, 28.0, 90.0, 90.0},
                                        {80.0, 40.0, 40.0},
                                        {55.0, 10.0, 80.0, 33.0, 0.0, 71.0},
                                        {}};
  SplitMix64 rng(2024);
  for (int i = 0; i < 400; ++i) {
    std::vector<double> d(rng.next_below(17));
    for (double& w : d) {
      const uint64_t pick = rng.next_below(5);
      w = pick == 0 ? 0.0
          : pick == 1 ? 30.0
                      : static_cast<double>(rng.next_below(100'000)) / 997.0;
    }
    sets.push_back(std::move(d));
  }
  std::vector<double> grants{1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0};
  std::vector<size_t> open{7, 7, 7};
  for (const SharePolicy policy : kPolicies) {
    for (const auto& demands : sets) {
      const double total = std::accumulate(demands.begin(), demands.end(), 0.0);
      for (const double budget :
           {-5.0, 0.0, 50.0, 95.0, 100.0, 120.0, 200.0, total, total / 3}) {
        arbiter::allocate(policy, budget, demands, &grants, &open);
        EXPECT_TRUE(same_bits(grants,
                              arbiter::allocate(policy, budget, demands)))
            << to_string(policy) << " budget " << budget << " over "
            << demands.size() << " demands";
      }
    }
  }
}

/// The clamp's level before it became arithmetic: scan the ladder top
/// down for the first level at or below the cap, else the bottom.
Level scan_level(const FreqLadder& ladder, double f_cap) {
  for (Level l = ladder.max_level(); l >= ladder.min_level(); --l) {
    if (static_cast<double>(ladder.at(l).value) <= f_cap + 1e-9) return l;
  }
  return ladder.min_level();
}

TEST(ArbiterHotPath, ClampLevelMatchesLadderScan) {
  const FreqLadder ladders[] = {
      haswell_core_ladder(), haswell_uncore_ladder(), hypothetical_ladder(),
      FreqLadder{FreqMHz{800}, FreqMHz{800 + 133 * 9}, 133},
      FreqLadder{FreqMHz{1000}, FreqMHz{1000}, 100}};
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const FreqLadder& ladder : ladders) {
    std::vector<double> caps{-kInf, -1.0, 0.0, 1e-9,
                             std::numeric_limits<double>::quiet_NaN(), kInf};
    for (Level l = 0; l < ladder.levels(); ++l) {
      const double f = static_cast<double>(ladder.at(l).value);
      for (const double d :
           {-1.0, -2e-9, -1e-9, -5e-10, 0.0, 5e-10, 1e-9, 2e-9, 1.0,
            0.5 * ladder.step_mhz()}) {
        caps.push_back(f + d);
      }
      // The neighbouring doubles of the boundary itself.
      caps.push_back(std::nextafter(f - 1e-9, -kInf));
      caps.push_back(std::nextafter(f - 1e-9, kInf));
    }
    // Everything below min().
    for (double below = static_cast<double>(ladder.min().value) - 1e-9;
         below > -5000.0; below -= 377.0) {
      caps.push_back(below);
    }
    for (const double cap : caps) {
      EXPECT_EQ(ladder.floor_level(cap + 1e-9), scan_level(ladder, cap))
          << ladder.to_string() << " at f_cap " << cap;
    }
  }
}

}  // namespace
}  // namespace cuttlefish
