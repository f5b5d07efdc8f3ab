#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/assert.hpp"
#include "sim/perf_model.hpp"

namespace cuttlefish::sim {

/// One homogeneous stretch of execution: `instructions` retired at a fixed
/// operating point (CPI0, TIPI). Benchmarks are modelled as sequences of
/// segments; Cuttlefish observes the TIPI of whichever segment is running.
struct Segment {
  double instructions = 0.0;
  OperatingPoint op;
  /// Index of `op` in PhaseProgram::ops(), assigned by the builder —
  /// segments with bit-identical operating points share one index, which
  /// is what keys SimMachine's per-(op, CF, UF) rate cache. Free-standing
  /// Segments (repeat() blocks under construction) leave it at 0; the
  /// program re-interns it on insertion.
  uint32_t op_index = 0;
};

/// An immutable program of segments plus a builder API. Workload models in
/// src/workloads construct these to mirror the phase structure of the ten
/// paper benchmarks (Table 1).
///
/// Operating points are interned as segments are added: a hash index
/// keyed on the bit patterns of (CPI0, TIPI) maps each distinct op to its
/// first-seen position in ops(), so building a program of n segments costs
/// O(n) expected time even when nearly every op is distinct (jittered
/// models). The index is an ordinary member: copies and moves keep
/// deduping on later add()/repeat().
class PhaseProgram {
 public:
  PhaseProgram() = default;

  PhaseProgram& add(double instructions, double cpi0, double tipi);
  /// Appends `count` copies of the segment block built by `body` — used
  /// for iterative solvers (CG, AMG V-cycles, time-stepped stencils).
  PhaseProgram& repeat(int count, const std::vector<Segment>& block);

  /// Multiply every segment's instruction count by `factor` (used to
  /// calibrate total Default-execution time against Table 1).
  void scale_instructions(double factor);

  const std::vector<Segment>& segments() const { return segments_; }
  /// Distinct operating points of the program, deduplicated at build time
  /// by bitwise (CPI0, TIPI) equality. Iterative solvers built with
  /// repeat() collapse to one entry per block segment; every segment's
  /// op_index points here.
  const std::vector<OperatingPoint>& ops() const { return ops_; }
  double total_instructions() const;
  bool empty() const { return segments_.empty(); }

 private:
  /// Bit patterns of an op's (CPI0, TIPI): the interning key.
  struct OpBits {
    uint64_t cpi0;
    uint64_t tipi;
    bool operator==(const OpBits&) const = default;
  };
  struct OpBitsHash {
    size_t operator()(const OpBits& k) const noexcept;
  };

  /// Index of `op` in ops_, appending if unseen. Bitwise comparison (not
  /// operator==) so e.g. -0.0 and +0.0 TIPIs never alias — two segments
  /// share an index only when the models' inputs are identical bits,
  /// which is what keeps cached rates byte-identical to direct evaluation.
  uint32_t intern_op(const OperatingPoint& op);

  std::vector<Segment> segments_;
  std::vector<OperatingPoint> ops_;
  std::unordered_map<OpBits, uint32_t, OpBitsHash> op_index_;
};

/// Consumption state over a PhaseProgram; owned by SimMachine. The
/// per-quantum accessors are inline: advance() calls them every step.
class WorkloadCursor {
 public:
  WorkloadCursor() = default;
  explicit WorkloadCursor(const PhaseProgram* program);

  bool done() const {
    return program_ == nullptr || index_ >= program_->segments().size();
  }
  /// Operating point of the segment currently executing.
  const OperatingPoint& op() const {
    CF_ASSERT(!done(), "cursor exhausted");
    return program_->segments()[index_].op;
  }
  /// Dedup index (PhaseProgram::ops()) of the current segment's operating
  /// point — the rate-cache key of the co-simulation hot path.
  uint32_t op_index() const {
    CF_ASSERT(!done(), "cursor exhausted");
    return program_->segments()[index_].op_index;
  }
  const PhaseProgram* program() const { return program_; }
  /// Instructions left in the current segment.
  double remaining_in_segment() const { return remaining_; }
  /// Consume `instructions` from the current segment (must not exceed
  /// remaining_in_segment); advances to the next segment when drained.
  void consume(double instructions) {
    CF_ASSERT(!done(), "consuming from exhausted cursor");
    CF_ASSERT(instructions <= remaining_ + 1e-6,
              "consuming beyond segment boundary");
    remaining_ -= instructions;
    if (remaining_ <= 1e-6) {
      remaining_ = 0.0;
      skip_empty();
    }
  }

 private:
  const PhaseProgram* program_ = nullptr;
  size_t index_ = 0;
  double remaining_ = 0.0;
  void skip_empty();
};

}  // namespace cuttlefish::sim
