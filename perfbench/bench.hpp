#pragma once

// Shared pieces of the three workloads: run configuration, the private
// scratch directory, and the workload entry points.

#include <cstdint>
#include <string>

#include "report.hpp"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1000;
  double seconds = 10.0;
  bool trace = false;
  /// Directory (inside the checkout) for private scratch dirs, span dumps
  /// and result records. Created by main().
  std::string work_dir;
};

/// Set-ups per run; setup_s is their median.
inline constexpr int kSetupRepeats = 5;
/// Timed passes per run never drop below this, however long one takes.
inline constexpr int kMinPasses = 3;

/// A fresh private directory, removed with everything in it on scope
/// exit (also on early returns).
class TempDir {
 public:
  TempDir(const std::string& parent, const std::string& prefix);
  ~TempDir();
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  bool ok() const { return !path_.empty(); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

Outcome run_fig10_serial(const RunConfig& cfg);
Outcome run_fig10_supervised(const RunConfig& cfg);
Outcome run_cotenant_sessions(const RunConfig& cfg);

/// The benchmark's own test: the grid at 10 replicates from seed base
/// 1000 reproduces the project's pinned serial sweep digest. Returns a
/// process exit code.
int check_pin();

}  // namespace perfbench
