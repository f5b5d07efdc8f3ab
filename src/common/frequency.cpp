#include "common/frequency.hpp"

#include <algorithm>
#include <sstream>

#include "common/assert.hpp"

namespace cuttlefish {

FreqLadder::FreqLadder(FreqMHz min, FreqMHz max, int step_mhz)
    : min_(min), max_(max), step_(step_mhz) {
  CF_ASSERT(step_mhz > 0, "ladder step must be positive");
  CF_ASSERT(min.value <= max.value, "ladder min must not exceed max");
  CF_ASSERT((max.value - min.value) % step_mhz == 0,
            "ladder span must be a whole number of steps");
  levels_ = (max.value - min.value) / step_mhz + 1;
}

FreqMHz FreqLadder::at(Level level) const {
  CF_ASSERT(level >= 0 && level < levels_, "level out of range");
  return FreqMHz{min_.value + level * step_};
}

Level FreqLadder::level_of(FreqMHz f) const {
  CF_ASSERT(contains(f), "frequency not on ladder");
  return (f.value - min_.value) / step_;
}

Level FreqLadder::nearest_level(FreqMHz f) const {
  if (f.value <= min_.value) return 0;
  if (f.value >= max_.value) return levels_ - 1;
  const int offset = f.value - min_.value;
  return (offset + step_ / 2) / step_;
}

Level FreqLadder::floor_level(double mhz) const {
  const auto fits = [&](Level l) {
    return static_cast<double>(min_.value + l * step_) <= mhz;
  };
  if (!fits(0)) return 0;  // below the ladder (or NaN)
  const double steps = (mhz - static_cast<double>(min_.value)) / step_;
  Level l = steps >= static_cast<double>(levels_ - 1)
                ? levels_ - 1
                : static_cast<Level>(steps);
  // The division may round across a boundary; settle it with the exact
  // predicate.
  while (l + 1 < levels_ && fits(l + 1)) ++l;
  while (l > 0 && !fits(l)) --l;
  return l;
}

bool FreqLadder::contains(FreqMHz f) const {
  if (f.value < min_.value || f.value > max_.value) return false;
  return (f.value - min_.value) % step_ == 0;
}

Level FreqLadder::clamp(Level level) const {
  return std::clamp(level, 0, levels_ - 1);
}

std::vector<FreqMHz> FreqLadder::all() const {
  std::vector<FreqMHz> out;
  out.reserve(static_cast<size_t>(levels_));
  for (Level l = 0; l < levels_; ++l) out.push_back(at(l));
  return out;
}

std::string FreqLadder::to_string() const {
  std::ostringstream os;
  os << min_.value << ".." << max_.value << " MHz step " << step_ << " ("
     << levels_ << " levels)";
  return os.str();
}

FreqLadder haswell_core_ladder() {
  return FreqLadder{FreqMHz{1200}, FreqMHz{2300}, 100};
}

FreqLadder haswell_uncore_ladder() {
  return FreqLadder{FreqMHz{1200}, FreqMHz{3000}, 100};
}

FreqLadder hypothetical_ladder() {
  return FreqLadder{FreqMHz{1000}, FreqMHz{1600}, 100};
}

char level_letter(Level level) {
  CF_ASSERT(level >= 0 && level < 26, "letter levels limited to A..Z");
  return static_cast<char>('A' + level);
}

}  // namespace cuttlefish
