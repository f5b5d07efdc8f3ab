#include "sim/phase_workload.hpp"

#include <bit>

#include "common/assert.hpp"
#include "common/rng.hpp"

namespace cuttlefish::sim {

size_t PhaseProgram::OpBitsHash::operator()(const OpBits& k) const noexcept {
  return static_cast<size_t>(mix64(k.cpi0, k.tipi));
}

uint32_t PhaseProgram::intern_op(const OperatingPoint& op) {
  const OpBits key{std::bit_cast<uint64_t>(op.cpi0),
                   std::bit_cast<uint64_t>(op.tipi)};
  const auto [it, inserted] =
      op_index_.try_emplace(key, static_cast<uint32_t>(ops_.size()));
  if (inserted) ops_.push_back(op);
  return it->second;
}

PhaseProgram& PhaseProgram::add(double instructions, double cpi0,
                                double tipi) {
  CF_ASSERT(instructions >= 0.0, "negative instruction count");
  CF_ASSERT(cpi0 > 0.0, "CPI0 must be positive");
  CF_ASSERT(tipi >= 0.0, "negative TIPI");
  const OperatingPoint op{cpi0, tipi};
  segments_.push_back(Segment{instructions, op, intern_op(op)});
  return *this;
}

PhaseProgram& PhaseProgram::repeat(int count,
                                   const std::vector<Segment>& block) {
  CF_ASSERT(count >= 0, "negative repeat count");
  // Intern each block op once: all `count` copies of a block segment share
  // one op_index, so a V-cycle repeated 100 times costs as many cache rows
  // as one cycle.
  std::vector<uint32_t> block_ops;
  block_ops.reserve(block.size());
  for (const Segment& s : block) block_ops.push_back(intern_op(s.op));
  for (int i = 0; i < count; ++i) {
    for (size_t j = 0; j < block.size(); ++j) {
      Segment copy = block[j];
      copy.op_index = block_ops[j];
      segments_.push_back(copy);
    }
  }
  return *this;
}

void PhaseProgram::scale_instructions(double factor) {
  CF_ASSERT(factor > 0.0, "scale factor must be positive");
  for (Segment& s : segments_) s.instructions *= factor;
}

double PhaseProgram::total_instructions() const {
  double total = 0.0;
  for (const Segment& s : segments_) total += s.instructions;
  return total;
}

WorkloadCursor::WorkloadCursor(const PhaseProgram* program)
    : program_(program) {
  CF_ASSERT(program != nullptr, "null program");
  if (!program_->segments().empty()) {
    remaining_ = program_->segments()[0].instructions;
  }
  skip_empty();
}

void WorkloadCursor::skip_empty() {
  const auto& segs = program_->segments();
  while (index_ < segs.size() && remaining_ <= 0.0) {
    ++index_;
    if (index_ < segs.size()) remaining_ = segs[index_].instructions;
  }
}

}  // namespace cuttlefish::sim
