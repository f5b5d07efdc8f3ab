#include "arbiter/shm_arbiter.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstddef>
#include <cstring>

#include <fcntl.h>
#include <signal.h>
#include <sys/file.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/log.hpp"

namespace cuttlefish::arbiter {

namespace {

static_assert(std::atomic<uint64_t>::is_always_lock_free &&
                  std::atomic<uint32_t>::is_always_lock_free,
              "the plane's cross-process atomics must be lock-free");

uint64_t double_bits(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double bits_double(uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

/// FNV-1a over the header fields that precede the checksum slot. The
/// header never changes after creation, so this is computed exactly twice
/// per plane lifetime per process: once by the creator, once per opener.
uint64_t header_checksum(const PlaneHeader& hdr) {
  const unsigned char* p = reinterpret_cast<const unsigned char*>(&hdr);
  uint64_t h = 1469598103934665603ull;
  for (size_t i = 0; i < offsetof(PlaneHeader, checksum); ++i) {
    h = (h ^ p[i]) * 1099511628211ull;
  }
  return h;
}

/// Liveness of a lease owner. kill(pid, 0) probes existence without
/// signalling: ESRCH means the process is gone (reclaimable); EPERM means
/// it exists but belongs to someone else (alive); success means alive.
bool pid_alive(uint32_t pid) {
  if (pid == 0) return false;
  return kill(static_cast<pid_t>(pid), 0) == 0 || errno != ESRCH;
}

}  // namespace

std::unique_ptr<ShmArbiter> ShmArbiter::open(const std::string& path,
                                             const ArbiterConfig& config,
                                             int slots, std::string* error) {
  const auto fail = [&](const std::string& why) -> std::unique_ptr<ShmArbiter> {
    if (error != nullptr) *error = why;
    return nullptr;
  };
  if (slots <= 0 || slots > 4096) {
    return fail("slot count must be in [1, 4096]");
  }
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) {
    return fail("cannot open plane file " + path + ": " +
                std::strerror(errno));
  }
  // First-writer-wins initialization: the flock serializes racing
  // creators; whoever finds the file empty writes the header, everyone
  // else validates it. The lock is dropped before any plane operation —
  // steady state is lock-free.
  if (flock(fd, LOCK_EX) != 0) {
    const int err = errno;
    ::close(fd);
    return fail(std::string("flock failed: ") + std::strerror(err));
  }
  struct stat st {};
  if (fstat(fd, &st) != 0) {
    const int err = errno;
    flock(fd, LOCK_UN);
    ::close(fd);
    return fail(std::string("fstat failed: ") + std::strerror(err));
  }
  size_t bytes = 0;
  if (st.st_size == 0) {
    bytes = sizeof(PlaneHeader) +
            static_cast<size_t>(slots) * sizeof(PlaneSlot);
    // ftruncate zero-fills: every slot starts free (pid 0, seq 0).
    if (ftruncate(fd, static_cast<off_t>(bytes)) != 0) {
      const int err = errno;
      flock(fd, LOCK_UN);
      ::close(fd);
      return fail(std::string("ftruncate failed: ") + std::strerror(err));
    }
    PlaneHeader hdr{};
    hdr.magic = kPlaneMagic;
    hdr.version = kPlaneVersion;
    hdr.nslots = static_cast<uint32_t>(slots);
    hdr.policy = static_cast<uint32_t>(config.policy);
    hdr.budget_w = config.budget_w;
    hdr.checksum = header_checksum(hdr);
    if (pwrite(fd, &hdr, sizeof(hdr), 0) !=
        static_cast<ssize_t>(sizeof(hdr))) {
      const int err = errno;
      flock(fd, LOCK_UN);
      ::close(fd);
      return fail(std::string("header write failed: ") + std::strerror(err));
    }
  } else {
    PlaneHeader hdr{};
    if (st.st_size < static_cast<off_t>(sizeof(hdr)) ||
        pread(fd, &hdr, sizeof(hdr), 0) !=
            static_cast<ssize_t>(sizeof(hdr))) {
      flock(fd, LOCK_UN);
      ::close(fd);
      return fail("plane file " + path + " is truncated");
    }
    if (hdr.magic != kPlaneMagic) {
      flock(fd, LOCK_UN);
      ::close(fd);
      return fail("plane file " + path + " has wrong magic (not a plane?)");
    }
    if (hdr.version != kPlaneVersion) {
      flock(fd, LOCK_UN);
      ::close(fd);
      return fail("plane file " + path + " is version " +
                  std::to_string(hdr.version) + ", expected " +
                  std::to_string(kPlaneVersion));
    }
    // Field-by-field range validation, each rejection naming the field it
    // tripped on — a truncated diagnosis ("corrupt plane") hides which of
    // the operator's artifacts to delete. The checksum comes last: a
    // range error is more specific than "some byte differs".
    if (hdr.nslots == 0 || hdr.nslots > 4096) {
      flock(fd, LOCK_UN);
      ::close(fd);
      return fail("plane file " + path + " has an out-of-range nslots (" +
                  std::to_string(hdr.nslots) + ", expected 1..4096)");
    }
    if (hdr.policy > static_cast<uint32_t>(SharePolicy::kDemandWeighted)) {
      flock(fd, LOCK_UN);
      ::close(fd);
      return fail("plane file " + path + " has an out-of-range policy (" +
                  std::to_string(hdr.policy) + ")");
    }
    if (!std::isfinite(hdr.budget_w) || hdr.budget_w < 0.0) {
      flock(fd, LOCK_UN);
      ::close(fd);
      return fail("plane file " + path +
                  " has an invalid budget_w (not a finite non-negative "
                  "wattage)");
    }
    if (hdr.checksum != header_checksum(hdr)) {
      flock(fd, LOCK_UN);
      ::close(fd);
      return fail("plane file " + path +
                  " failed its header checksum (torn create or outside "
                  "corruption)");
    }
    bytes = sizeof(PlaneHeader) +
            static_cast<size_t>(hdr.nslots) * sizeof(PlaneSlot);
    if (st.st_size < static_cast<off_t>(bytes)) {
      flock(fd, LOCK_UN);
      ::close(fd);
      return fail("plane file " + path + " has a truncated slot table (" +
                  std::to_string(st.st_size) + " bytes, header promises " +
                  std::to_string(bytes) + ")");
    }
  }
  flock(fd, LOCK_UN);
  void* base =
      mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  if (base == MAP_FAILED) {
    const int err = errno;
    ::close(fd);
    return fail(std::string("mmap failed: ") + std::strerror(err));
  }
  return std::unique_ptr<ShmArbiter>(
      new ShmArbiter(path, fd, base, bytes));
}

ShmArbiter::ShmArbiter(std::string path, int fd, void* base, size_t bytes)
    : path_(std::move(path)), fd_(fd), base_(base), bytes_(bytes),
      mine_(header()->nslots),
      scratch_(header()->nslots) {}

ShmArbiter::~ShmArbiter() {
  const int n = nslots();
  for (int i = 0; i < n; ++i) {
    if (mine_[static_cast<size_t>(i)].load(std::memory_order_relaxed)) {
      detach(i);
    }
  }
  if (base_ != nullptr) munmap(base_, bytes_);
  if (fd_ >= 0) ::close(fd_);
}

PlaneHeader* ShmArbiter::header() const {
  return static_cast<PlaneHeader*>(base_);
}

PlaneSlot* ShmArbiter::slot(int i) const {
  return reinterpret_cast<PlaneSlot*>(static_cast<char*>(base_) +
                                      sizeof(PlaneHeader)) +
         i;
}

int ShmArbiter::nslots() const {
  return static_cast<int>(header()->nslots);
}

ArbiterConfig ShmArbiter::config() const {
  ArbiterConfig cfg;
  cfg.budget_w = header()->budget_w;
  cfg.policy = static_cast<SharePolicy>(header()->policy);
  return cfg;
}

int ShmArbiter::attach() {
  const uint32_t self = static_cast<uint32_t>(getpid());
  const int n = nslots();
  for (int i = 0; i < n; ++i) {
    PlaneSlot& s = *slot(i);
    uint32_t cur = s.pid.load(std::memory_order_acquire);
    // Reclaim a dead owner's lease in one CAS — the claimer inherits the
    // slot directly, so a crashed tenant's slot never stays pinned.
    if (cur != 0 && pid_alive(cur)) continue;
    if (s.pid.compare_exchange_strong(cur, self,
                                      std::memory_order_acq_rel)) {
      // Fresh lease: zero the payload so peers never mistake the corpse's
      // last demand for ours.
      const uint32_t s0 = s.seq.load(std::memory_order_relaxed);
      s.seq.store(s0 + 1, std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_release);
      s.tick.store(0, std::memory_order_relaxed);
      s.demand_w_bits.store(0, std::memory_order_relaxed);
      s.jpi_bits.store(0, std::memory_order_relaxed);
      s.tipi_bits.store(0, std::memory_order_relaxed);
      s.seq.store(s0 + 2, std::memory_order_release);
      mine_[static_cast<size_t>(i)].store(true, std::memory_order_relaxed);
      return i;
    }
    // Lost the race for this slot; keep scanning.
  }
  return -1;
}

void ShmArbiter::detach(int slot_index) {
  if (slot_index < 0 || slot_index >= nslots()) return;
  PlaneSlot& s = *slot(slot_index);
  const uint32_t self = static_cast<uint32_t>(getpid());
  uint32_t cur = self;
  // Only release a lease we actually hold (a reclaimed-and-reissued slot
  // belongs to its new owner).
  if (s.pid.compare_exchange_strong(cur, 0, std::memory_order_acq_rel)) {
    // pid 0 is authoritative: peers skip free slots before reading the
    // payload, so no payload scrub is needed on release.
  }
  mine_[static_cast<size_t>(slot_index)].store(false,
                                               std::memory_order_relaxed);
}

Grant ShmArbiter::publish(int slot_index, const Demand& demand,
                          uint64_t tick) {
  if (slot_index < 0 || slot_index >= nslots()) return Grant{};
  PlaneSlot& s = *slot(slot_index);
  // Seqlock write (single writer: the lease owner). Odd sequence marks
  // the window; the release fence orders the odd store before the payload
  // stores, the final release store orders the payload before even.
  const uint32_t s0 = s.seq.load(std::memory_order_relaxed);
  s.seq.store(s0 + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  s.tick.store(tick, std::memory_order_relaxed);
  s.demand_w_bits.store(double_bits(demand.watts),
                        std::memory_order_relaxed);
  s.jpi_bits.store(double_bits(demand.jpi), std::memory_order_relaxed);
  s.tipi_bits.store(double_bits(demand.tipi), std::memory_order_relaxed);
  s.seq.store(s0 + 2, std::memory_order_release);

  // Decentralized arbitration: snapshot every live slot and run the same
  // pure allocate() every peer runs over the same state.
  PublishScratch& scratch = scratch_[static_cast<size_t>(slot_index)];
  if (scratch.open.capacity() == 0) {
    // Sized for a full plane once, on the slot's first publish.
    const auto n = static_cast<size_t>(nslots());
    scratch.demands.reserve(n);
    scratch.owners.reserve(n);
    scratch.grants.reserve(n);
    scratch.open.reserve(n);
  }
  scratch.demands.clear();
  scratch.owners.clear();
  snapshot(&scratch.demands, &scratch.owners, nullptr, nullptr);
  const auto mine = std::find(scratch.owners.begin(), scratch.owners.end(),
                              slot_index);
  if (mine == scratch.owners.end()) {
    // Not in the snapshot: our lease vanished (reclaimed by a peer after
    // a false death verdict, or an operator wiped the plane). Fail open.
    return Grant{demand.watts, false};
  }
  const size_t k = static_cast<size_t>(mine - scratch.owners.begin());
  const ArbiterConfig cfg = config();
  allocate(cfg.policy, cfg.budget_w, scratch.demands, &scratch.grants,
           &scratch.open);
  return Grant{scratch.grants[k],
               scratch.grants[k] < scratch.demands[k] - 1e-12};
}

void ShmArbiter::read_slot(const PlaneSlot& s, uint64_t* tick,
                           Demand* demand) const {
  for (;;) {
    const uint32_t s1 = s.seq.load(std::memory_order_acquire);
    if ((s1 & 1u) != 0) continue;  // write in progress
    const uint64_t t = s.tick.load(std::memory_order_relaxed);
    const uint64_t w = s.demand_w_bits.load(std::memory_order_relaxed);
    const uint64_t j = s.jpi_bits.load(std::memory_order_relaxed);
    const uint64_t i = s.tipi_bits.load(std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_acquire);
    if (s.seq.load(std::memory_order_relaxed) != s1) continue;  // torn
    *tick = t;
    demand->watts = bits_double(w);
    demand->jpi = bits_double(j);
    demand->tipi = bits_double(i);
    return;
  }
}

void ShmArbiter::snapshot(std::vector<double>* demands,
                          std::vector<int>* owners,
                          std::vector<uint32_t>* pids,
                          std::vector<uint64_t>* ticks) const {
  const int n = nslots();
  for (int i = 0; i < n; ++i) {
    PlaneSlot& s = *slot(i);
    const uint32_t pid = s.pid.load(std::memory_order_acquire);
    if (pid == 0) continue;
    if (!pid_alive(pid)) {
      // Stale lease: free it so the dead tenant's demand stops taxing
      // the budget. CAS so we never free a slot that was just re-issued.
      uint32_t expected = pid;
      s.pid.compare_exchange_strong(expected, 0,
                                    std::memory_order_acq_rel);
      continue;
    }
    uint64_t tick = 0;
    Demand d;
    read_slot(s, &tick, &d);
    demands->push_back(d.watts);
    owners->push_back(i);
    if (pids != nullptr) pids->push_back(pid);
    if (ticks != nullptr) ticks->push_back(tick);
  }
}

size_t ShmArbiter::active_tenants() const {
  std::vector<double> demands;
  std::vector<int> owners;
  snapshot(&demands, &owners, nullptr, nullptr);
  return owners.size();
}

std::vector<SlotView> ShmArbiter::view() const {
  std::vector<double> demands;
  std::vector<int> owners;
  std::vector<uint32_t> pids;
  std::vector<uint64_t> ticks;
  snapshot(&demands, &owners, &pids, &ticks);
  const ArbiterConfig cfg = config();
  const std::vector<double> grants =
      allocate(cfg.policy, cfg.budget_w, demands);
  std::vector<SlotView> out;
  out.reserve(owners.size());
  for (size_t k = 0; k < owners.size(); ++k) {
    SlotView v;
    v.slot = owners[k];
    v.pid = pids[k];
    v.tick = ticks[k];
    Demand d;
    uint64_t tick = 0;
    read_slot(*slot(owners[k]), &tick, &d);
    v.demand = d;
    v.grant = Grant{grants[k], grants[k] < demands[k] - 1e-12};
    out.push_back(v);
  }
  return out;
}

}  // namespace cuttlefish::arbiter
