#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace cuttlefish {

/// A frequency in MHz. Intel exposes core/uncore frequencies as integer
/// multiples of 100 MHz (the "ratio"); keeping MHz as the unit makes every
/// ladder step exact and avoids floating-point drift in control decisions.
struct FreqMHz {
  int value = 0;

  constexpr double ghz() const { return static_cast<double>(value) / 1000.0; }
  constexpr auto operator<=>(const FreqMHz&) const = default;
};

/// Index of a frequency within a FreqLadder. Level 0 is the lowest
/// frequency. Using a distinct type prevents mixing core and uncore ladder
/// arithmetic with raw MHz values.
using Level = int;

/// An invalid/unset level, mirroring the paper's "-1" sentinel for
/// not-yet-discovered optimal frequencies.
inline constexpr Level kNoLevel = -1;

/// An evenly spaced frequency ladder [min_mhz, max_mhz] with step_mhz.
/// The Haswell testbed of the paper: core 1200..2300 step 100 (12 levels),
/// uncore 1200..3000 step 100 (19 levels). The paper's explanatory
/// "hypothetical processor" has 7 levels A..G; tests build that ladder too.
class FreqLadder {
 public:
  FreqLadder(FreqMHz min, FreqMHz max, int step_mhz);

  int levels() const { return levels_; }
  FreqMHz min() const { return min_; }
  FreqMHz max() const { return max_; }
  int step_mhz() const { return step_; }

  FreqMHz at(Level level) const;
  /// Level of an exact ladder frequency; aborts if `f` is off-ladder.
  Level level_of(FreqMHz f) const;
  /// Level whose frequency is closest to `f` (clamped to the ladder).
  Level nearest_level(FreqMHz f) const;
  /// Highest level whose frequency is <= `mhz`, or min_level() when none
  /// is. O(1): the same level a top-down scan with that predicate finds.
  Level floor_level(double mhz) const;
  bool contains(FreqMHz f) const;

  Level min_level() const { return 0; }
  Level max_level() const { return levels_ - 1; }
  Level clamp(Level level) const;

  std::vector<FreqMHz> all() const;
  std::string to_string() const;

 private:
  FreqMHz min_;
  FreqMHz max_;
  int step_;
  int levels_;
};

/// The two frequency domains Cuttlefish controls.
enum class Domain { kCore, kUncore };

inline const char* to_string(Domain d) {
  return d == Domain::kCore ? "core" : "uncore";
}

/// Haswell E5-2650 v3 ladders used throughout the paper's evaluation.
FreqLadder haswell_core_ladder();
FreqLadder haswell_uncore_ladder();

/// The paper's hypothetical 7-level A..G processor (Figs. 4-9). Frequencies
/// are placed at 1000..1600 MHz so 'A' = 1000 and 'G' = 1600.
FreqLadder hypothetical_ladder();

/// Letter name (A..Z) of a level in the hypothetical processor discussions.
char level_letter(Level level);

}  // namespace cuttlefish
