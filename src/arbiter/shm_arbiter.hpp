#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "arbiter/arbiter.hpp"

namespace cuttlefish::arbiter {

/// On-disk/shared-memory layout of the coordination plane (docs/ARBITER.md
/// has the full protocol). One page-aligned file: a 64-byte header
/// followed by a fixed-size table of 64-byte (cache-line) slots. All
/// cross-process state is std::atomic — the plane is coordinated entirely
/// by lock-free operations on the mapped region; the only lock ever taken
/// is a one-shot flock during file initialization.
///
///   slot.pid   lease owner (0 = free). Claimed by CAS; a dead owner
///              (kill(pid, 0) == ESRCH) is reclaimed by any peer's CAS.
///   slot.seq   per-slot seqlock: odd while the owner is writing the
///              payload; readers retry on odd or changed sequence.
///   payload    tick + demand (watts/jpi/tipi as IEEE-754 bit patterns),
///              written only by the lease owner, read by everyone.
struct PlaneSlot {
  std::atomic<uint32_t> pid;
  std::atomic<uint32_t> seq;
  std::atomic<uint64_t> tick;
  std::atomic<uint64_t> demand_w_bits;
  std::atomic<uint64_t> jpi_bits;
  std::atomic<uint64_t> tipi_bits;
  uint64_t pad_[3];
};
static_assert(sizeof(PlaneSlot) == 64, "slot must be one cache line");

struct PlaneHeader {
  uint32_t magic;    // kPlaneMagic
  uint32_t version;  // kPlaneVersion
  uint32_t nslots;
  uint32_t policy;   // SharePolicy
  double budget_w;
  /// Checksum over every field above, written once at creation. The
  /// header is immutable after initialization, so any later disagreement
  /// is a torn create or outside corruption — openers refuse the plane
  /// (and a session degrades to running unarbitrated) rather than divide
  /// a garbage budget.
  uint64_t checksum;
  uint64_t pad_[4];
};
static_assert(sizeof(PlaneHeader) == 64, "header is one slot-sized block");

inline constexpr uint32_t kPlaneMagic = 0x43464150u;  // "CFAP"
/// v2: the checksum field above (a v1 plane fails the version check).
inline constexpr uint32_t kPlaneVersion = 2;

/// The cross-process arbiter: a file-backed mmap of the slot table above.
/// File-backed (rather than shm_open) so tests and tools name planes with
/// ordinary paths; operators put the file on /dev/shm.
///
/// Creation is first-writer-wins under flock: the creator's config
/// (budget, policy, slot count) is written into the header, and every
/// later opener adopts the file's config — all tenants of one plane agree
/// on the division rules by construction. Registration, publication and
/// reclamation are lock-free:
///
///  * attach(): scan for a free (or provably dead) slot, CAS the lease.
///  * publish(): seqlock-write the own slot, then snapshot every live
///    slot's demand and run the same pure allocate() every peer runs —
///    no daemon, no message passing, no writer ever blocks a reader.
///  * crash reclamation: a slot whose lease-holder no longer exists
///    (kill(pid, 0) -> ESRCH) is freed by whichever peer notices first,
///    so a SIGKILL'd tenant stops pinning budget at its neighbours' very
///    next tick. (A kill()ed-but-unreaped zombie still "exists"; budget
///    frees when the parent reaps it.)
///
/// One instance may be shared by threads publishing to *distinct* slots
/// (each slot has a single writer, its lease owner; everything shared is
/// atomic, and publish()'s scratch buffers are per slot) — that is what
/// the seqlock torture test does under TSan.
class ShmArbiter final : public IArbiter {
 public:
  /// Map (creating and initializing if needed) the plane at `path`.
  /// `config`/`slots` apply only when this call creates the plane; an
  /// existing plane's header wins. Returns null with `*error` set on I/O
  /// failure or a malformed/mismatched plane file.
  static std::unique_ptr<ShmArbiter> open(const std::string& path,
                                          const ArbiterConfig& config,
                                          int slots, std::string* error);

  /// Unmaps; releases any slots this instance still holds (a clean exit
  /// never needs peer reclamation).
  ~ShmArbiter() override;

  ShmArbiter(const ShmArbiter&) = delete;
  ShmArbiter& operator=(const ShmArbiter&) = delete;

  int attach() override;
  void detach(int slot) override;
  Grant publish(int slot, const Demand& demand, uint64_t tick) override;
  ArbiterConfig config() const override;
  size_t active_tenants() const override;
  std::vector<SlotView> view() const override;

  const std::string& path() const { return path_; }
  int nslots() const;

 private:
  ShmArbiter(std::string path, int fd, void* base, size_t bytes);

  PlaneHeader* header() const;
  PlaneSlot* slot(int i) const;
  /// Seqlock-consistent read of one slot's payload.
  void read_slot(const PlaneSlot& s, uint64_t* tick, Demand* demand) const;
  /// Snapshot every live slot: reclaims dead leases, appends demands and
  /// their owning slot indices in slot order.
  void snapshot(std::vector<double>* demands, std::vector<int>* owners,
                std::vector<uint32_t>* pids,
                std::vector<uint64_t>* ticks) const;

  std::string path_;
  int fd_ = -1;
  void* base_ = nullptr;
  size_t bytes_ = 0;
  /// Slots attach()ed through this instance (released in the destructor).
  std::vector<std::atomic<bool>> mine_;
  /// publish()'s snapshot and allocate() buffers, one set per slot,
  /// sized for a full plane on the slot's first publish: a slot has one
  /// writer, so threads publishing to distinct slots never share a set,
  /// and later publishes allocate nothing. Aligned so two publishers'
  /// sets never share a cache line.
  struct alignas(64) PublishScratch {
    std::vector<double> demands;
    std::vector<int> owners;
    std::vector<double> grants;
    std::vector<size_t> open;
  };
  std::vector<PublishScratch> scratch_;
};

}  // namespace cuttlefish::arbiter
