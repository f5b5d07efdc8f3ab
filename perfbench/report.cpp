#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

double median(std::vector<double> values) { return quantile(values, 0.5); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(metrics[i].name) + ": {\"value\": " +
           json_number(metrics[i].value) +
           ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  return out + "}";
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

}  // namespace

std::string host_fingerprint_json() {
  return std::string("{\"nproc\": ") +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"cpu_model\": " + json_string(cpu_model()) +
         ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE) +
         ", \"compiler\": " + json_string(PERFBENCH_COMPILER) + "}";
}

void emit(const Outcome& outcome, const std::string& workload, uint64_t seed,
          bool trace, const std::string& record_path) {
  bool correct = outcome.correct;
  for (const Metric& m : outcome.metrics) {
    if (!std::isfinite(m.value)) correct = false;
  }
  std::vector<Metric> metrics = outcome.metrics;
  for (Metric& m : metrics) {
    if (!std::isfinite(m.value)) m.value = -1.0;
  }
  std::string errors = "[";
  for (size_t i = 0; i < outcome.errors.size(); ++i) {
    if (i > 0) errors += ", ";
    errors += json_string(outcome.errors[i]);
  }
  errors += "]";
  std::string notes = "{";
  for (size_t i = 0; i < outcome.notes.size(); ++i) {
    if (i > 0) notes += ", ";
    notes += json_string(outcome.notes[i].first) + ": " +
             json_string(outcome.notes[i].second);
  }
  notes += "}";
  const std::string context =
      "{\"workload\": " + json_string(workload) +
      ", \"seed\": " + std::to_string(seed) +
      ", \"trace\": " + (trace ? "true" : "false") +
      ", \"host\": " + host_fingerprint_json() +
      ", \"references\": " + metrics_json(outcome.references) +
      ", \"notes\": " + notes + ", \"errors\": " + errors + "}";
  const std::string result =
      std::string("{\"correct\": ") + (correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(outcome.attempted) +
      ", \"failed\": " + std::to_string(outcome.failed) +
      ", \"metrics\": " + metrics_json(metrics) + "}";
  if (!record_path.empty()) {
    std::ofstream out(record_path, std::ios::trunc);
    out << "{\"context\": " << context << ", \"result\": " << result
        << "}\n";
  }
  std::printf("perfbench context: %s\n", context.c_str());
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
