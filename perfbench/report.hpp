#pragma once

// Result assembly: metrics with units, medians and percentiles, the host
// fingerprint, and the one-line JSON result the benchmark ends with.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Median of the values (copy; the input order is kept).
double median(std::vector<double> values);
/// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> values, double q);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run of a workload produced.
struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// In-run reference ratios and other context printed beside the result.
  std::vector<Metric> references;
  std::vector<std::pair<std::string, std::string>> notes;
  std::vector<std::string> errors;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void reference(std::string name, double value, std::string unit) {
    references.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string key, std::string value) {
    notes.emplace_back(std::move(key), std::move(value));
  }
  /// Records a failed output check; the run reports correct=false.
  void fail(std::string why) {
    correct = false;
    errors.push_back(std::move(why));
  }
};

/// nproc, CPU model, build type and compiler, as a JSON object.
std::string host_fingerprint_json();

/// Prints the context line (host, references, errors) and then the
/// result object as the last line of standard output; also writes both
/// into `record_path` when it is non-empty.
void emit(const Outcome& outcome, const std::string& workload, uint64_t seed,
          bool trace, const std::string& record_path);

}  // namespace perfbench
