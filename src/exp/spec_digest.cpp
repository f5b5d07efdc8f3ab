#include "exp/spec_digest.hpp"

#include <cstdio>

#include "common/assert.hpp"
#include "core/controller_factory.hpp"
#include "exp/blob.hpp"
#include "workloads/suite.hpp"

namespace cuttlefish::exp {

namespace {

constexpr uint32_t kSpecMagic = 0x43465350u;  // "CFSP"

// ---- MurmurHash3 x64 128 ----------------------------------------------

inline uint64_t rotl64(uint64_t x, int8_t r) {
  return (x << r) | (x >> (64 - r));
}

inline uint64_t fmix64(uint64_t k) {
  k ^= k >> 33;
  k *= 0xff51afd7ed558ccdULL;
  k ^= k >> 33;
  k *= 0xc4ceb9fe1a85ec53ULL;
  k ^= k >> 33;
  return k;
}

}  // namespace

SpecDigest digest_bytes(const void* data, size_t size) {
  const auto* bytes = static_cast<const uint8_t*>(data);
  const size_t nblocks = size / 16;
  // Fixed seed: digests are persisted across processes and machines.
  uint64_t h1 = 0x5eedc0de5eedc0deULL;
  uint64_t h2 = 0x5eedc0de5eedc0deULL;
  const uint64_t c1 = 0x87c37b91114253d5ULL;
  const uint64_t c2 = 0x4cf5ad432745937fULL;

  for (size_t i = 0; i < nblocks; ++i) {
    uint64_t k1, k2;
    std::memcpy(&k1, bytes + i * 16, 8);
    std::memcpy(&k2, bytes + i * 16 + 8, 8);
    k1 *= c1;
    k1 = rotl64(k1, 31);
    k1 *= c2;
    h1 ^= k1;
    h1 = rotl64(h1, 27);
    h1 += h2;
    h1 = h1 * 5 + 0x52dce729;
    k2 *= c2;
    k2 = rotl64(k2, 33);
    k2 *= c1;
    h2 ^= k2;
    h2 = rotl64(h2, 31);
    h2 += h1;
    h2 = h2 * 5 + 0x38495ab5;
  }

  const uint8_t* tail = bytes + nblocks * 16;
  uint64_t k1 = 0, k2 = 0;
  switch (size & 15) {
    case 15: k2 ^= static_cast<uint64_t>(tail[14]) << 48; [[fallthrough]];
    case 14: k2 ^= static_cast<uint64_t>(tail[13]) << 40; [[fallthrough]];
    case 13: k2 ^= static_cast<uint64_t>(tail[12]) << 32; [[fallthrough]];
    case 12: k2 ^= static_cast<uint64_t>(tail[11]) << 24; [[fallthrough]];
    case 11: k2 ^= static_cast<uint64_t>(tail[10]) << 16; [[fallthrough]];
    case 10: k2 ^= static_cast<uint64_t>(tail[9]) << 8; [[fallthrough]];
    case 9:
      k2 ^= static_cast<uint64_t>(tail[8]);
      k2 *= c2;
      k2 = rotl64(k2, 33);
      k2 *= c1;
      h2 ^= k2;
      [[fallthrough]];
    case 8: k1 ^= static_cast<uint64_t>(tail[7]) << 56; [[fallthrough]];
    case 7: k1 ^= static_cast<uint64_t>(tail[6]) << 48; [[fallthrough]];
    case 6: k1 ^= static_cast<uint64_t>(tail[5]) << 40; [[fallthrough]];
    case 5: k1 ^= static_cast<uint64_t>(tail[4]) << 32; [[fallthrough]];
    case 4: k1 ^= static_cast<uint64_t>(tail[3]) << 24; [[fallthrough]];
    case 3: k1 ^= static_cast<uint64_t>(tail[2]) << 16; [[fallthrough]];
    case 2: k1 ^= static_cast<uint64_t>(tail[1]) << 8; [[fallthrough]];
    case 1:
      k1 ^= static_cast<uint64_t>(tail[0]);
      k1 *= c1;
      k1 = rotl64(k1, 31);
      k1 *= c2;
      h1 ^= k1;
  }

  h1 ^= static_cast<uint64_t>(size);
  h2 ^= static_cast<uint64_t>(size);
  h1 += h2;
  h2 += h1;
  h1 = fmix64(h1);
  h2 = fmix64(h2);
  h1 += h2;
  h2 += h1;
  return SpecDigest{h1, h2};
}

std::string SpecDigest::hex() const {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(lo));
  return buf;
}

std::string encode_spec(const RunSpec& spec) {
  CF_ASSERT(spec.model != nullptr && spec.machine != nullptr,
            "spec missing model or machine");
  BlobWriter w;
  w.u32(kSpecMagic);
  w.u32(kSpecFormatVersion);

  // Machine: every coefficient participates — the digest's invalidation
  // rule is "any input that can change the result bytes changes the key".
  const sim::MachineConfig& m = *spec.machine;
  w.i32(m.cores);
  for (const FreqLadder* ladder : {&m.core_ladder, &m.uncore_ladder}) {
    w.i32(ladder->min().value);
    w.i32(ladder->max().value);
    w.i32(ladder->step_mhz());
  }
  w.f64(m.dram_bw_gbs);
  w.f64(m.uncore_bw_gbs_per_ghz);
  w.f64(m.line_bytes);
  w.f64(m.roofline_smoothing_p);
  w.f64(m.static_power_w);
  w.f64(m.core_dyn_coeff);
  w.f64(m.v_at_fmin);
  w.f64(m.v_at_fmax);
  w.f64(m.stall_power_frac);
  w.f64(m.uncore_coeff_w_per_ghz3);
  w.f64(m.energy_per_local_miss_nj);
  w.f64(m.energy_per_remote_miss_nj);
  w.f64(m.remote_miss_fraction);
  w.i32(m.rapl_esu_bits);
  w.f64(m.power_noise_sigma);
  w.f64(m.core_switch_latency_s);
  w.f64(m.uncore_switch_latency_s);

  // Model identity: the name resolves the phase-model builder; cpi0 and
  // default_time_s are the knobs the HClib ports vary on top of their
  // OpenMP twins, so same-named models from different suites get
  // different digests.
  const workloads::BenchmarkModel& model = *spec.model;
  w.str(model.name);
  w.f64(model.cpi0);
  w.f64(model.default_time_s);
  w.u8(model.memory_bound ? 1 : 0);

  // Run variant + seed. The policy's canonical registry name rides along
  // with the enum byte (v2): the kind is part of the result's identity,
  // and the string keeps digests honest across any enum renumbering.
  w.u8(static_cast<uint8_t>(spec.kind));
  w.u8(static_cast<uint8_t>(spec.policy));
  w.str(core::policy_name(spec.policy));
  w.i32(spec.cf.value);
  w.i32(spec.uf.value);
  w.u64(spec.seed);

  // Options. options.seed is excluded (run_spec overwrites it with
  // spec.seed), as are the borrowed faults and rates pointers (neither is
  // part of a spec's identity); everything else is hashed as-is rather
  // than canonicalized per run kind — a field the driver happens to
  // ignore today costs at most a spurious miss, never a wrong hit.
  w.u8(spec.options.capture_timeline ? 1 : 0);
  const core::ControllerConfig& c = spec.options.controller;
  w.u8(static_cast<uint8_t>(c.policy));
  w.str(core::policy_name(c.policy));
  w.f64(c.tinv_s);
  w.f64(c.warmup_s);
  w.i32(c.jpi_samples);
  w.f64(c.tipi_slab_width);
  w.i32(c.explore_step);
  w.u8(c.insertion_narrowing ? 1 : 0);
  w.u8(c.revalidation ? 1 : 0);
  w.i32(c.mpc_design_points);
  w.f64(c.mpc_verify_margin);

  // Arbitration (v3). The share policy's canonical name rides along with
  // the enum byte for the same renumbering honesty as the policy kind.
  const ArbiterSpec& a = spec.options.arbiter;
  w.u8(a.enabled ? 1 : 0);
  w.f64(a.budget_w);
  w.u8(static_cast<uint8_t>(a.policy));
  w.str(arbiter::to_string(a.policy));
  w.i32(a.tenants);
  w.i32(a.tenant_index);
  return w.take();
}

std::unique_ptr<DecodedSpec> decode_spec(const void* data, size_t size) {
  BlobReader r(data, size);
  if (r.u32() != kSpecMagic) return nullptr;
  if (r.u32() != kSpecFormatVersion) return nullptr;

  auto out = std::make_unique<DecodedSpec>();
  sim::MachineConfig& m = out->machine;
  m.cores = r.i32();
  FreqLadder* ladders[] = {&m.core_ladder, &m.uncore_ladder};
  for (FreqLadder* ladder : ladders) {
    const FreqMHz min{r.i32()};
    const FreqMHz max{r.i32()};
    const int step = r.i32();
    if (!r.ok() || step <= 0 || max.value < min.value) return nullptr;
    *ladder = FreqLadder(min, max, step);
  }
  m.dram_bw_gbs = r.f64();
  m.uncore_bw_gbs_per_ghz = r.f64();
  m.line_bytes = r.f64();
  m.roofline_smoothing_p = r.f64();
  m.static_power_w = r.f64();
  m.core_dyn_coeff = r.f64();
  m.v_at_fmin = r.f64();
  m.v_at_fmax = r.f64();
  m.stall_power_frac = r.f64();
  m.uncore_coeff_w_per_ghz3 = r.f64();
  m.energy_per_local_miss_nj = r.f64();
  m.energy_per_remote_miss_nj = r.f64();
  m.remote_miss_fraction = r.f64();
  m.rapl_esu_bits = r.i32();
  m.power_noise_sigma = r.f64();
  m.core_switch_latency_s = r.f64();
  m.uncore_switch_latency_s = r.f64();

  workloads::BenchmarkModel& model = out->model;
  model.name = r.str();
  model.cpi0 = r.f64();
  model.default_time_s = r.f64();
  model.memory_bound = r.u8() != 0;
  // The builder is the one piece of a model the blob cannot carry; resolve
  // it by name (the HClib ports share their OpenMP twin's builder, so the
  // numeric fields above fully reconstruct either suite's model).
  const workloads::BenchmarkModel* named =
      workloads::find_benchmark_or_null(model.name);
  if (named == nullptr) return nullptr;
  model.build = named->build;

  RunSpec& spec = out->spec;
  spec.model = &out->model;
  spec.machine = &out->machine;
  spec.kind = static_cast<RunKind>(r.u8());
  spec.policy = static_cast<core::PolicyKind>(r.u8());
  // v2 cross-check: the explicit name string must resolve to the enum
  // byte, or the blob is from a renumbered (incompatible) build.
  const auto named_policy = core::policy_kind_from_string(r.str());
  if (!r.ok() || !named_policy || *named_policy != spec.policy) {
    return nullptr;
  }
  spec.cf = FreqMHz{r.i32()};
  spec.uf = FreqMHz{r.i32()};
  spec.seed = r.u64();
  spec.options.capture_timeline = r.u8() != 0;
  spec.options.seed = spec.seed;
  core::ControllerConfig& c = spec.options.controller;
  c.policy = static_cast<core::PolicyKind>(r.u8());
  const auto named_cfg_policy = core::policy_kind_from_string(r.str());
  if (!r.ok() || !named_cfg_policy || *named_cfg_policy != c.policy) {
    return nullptr;
  }
  c.tinv_s = r.f64();
  c.warmup_s = r.f64();
  c.jpi_samples = r.i32();
  c.tipi_slab_width = r.f64();
  c.explore_step = r.i32();
  c.insertion_narrowing = r.u8() != 0;
  c.revalidation = r.u8() != 0;
  c.mpc_design_points = r.i32();
  c.mpc_verify_margin = r.f64();

  ArbiterSpec& a = spec.options.arbiter;
  a.enabled = r.u8() != 0;
  a.budget_w = r.f64();
  a.policy = static_cast<arbiter::SharePolicy>(r.u8());
  const auto named_share = arbiter::share_policy_from_string(r.str());
  if (!r.ok() || !named_share || *named_share != a.policy) return nullptr;
  a.tenants = r.i32();
  a.tenant_index = r.i32();

  if (!r.ok() || r.remaining() != 0) return nullptr;
  return out;
}

}  // namespace cuttlefish::exp
