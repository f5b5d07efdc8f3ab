// perfbench: the repository benchmark. One process runs one workload
// through the library's public API and ends its standard output with a
// one-line JSON result. See BENCHMARK.md.
//
//   perfbench --workload fig10_serial|fig10_supervised|cotenant_sessions
//             --seed N --seconds S --trace 0|1 [--work-dir DIR]
//   perfbench --check-pin      # the serial-digest pin test

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

#include <unistd.h>

#include "bench.hpp"
#include "common/log.hpp"

extern char** environ;

namespace perfbench {

TempDir::TempDir(const std::string& parent, const std::string& prefix) {
  std::string tmpl = parent + "/" + prefix + "XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  if (::mkdtemp(buf.data()) != nullptr) path_ = buf.data();
}

TempDir::~TempDir() {
  if (path_.empty()) return;
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

}  // namespace perfbench

namespace {

int usage(const char* prog, const std::string& why) {
  std::fprintf(stderr, "%s: %s\n", prog, why.c_str());
  std::fprintf(stderr,
               "usage: %s --workload fig10_serial|fig10_supervised|"
               "cotenant_sessions --seed N --seconds S --trace 0|1 "
               "[--work-dir DIR]\n       %s --check-pin\n",
               prog, prog);
  return 2;
}

/// The library reads CUTTLEFISH_* overrides (policy, Tinv, arbiter plane,
/// crash injection); the benchmark's inputs come only from its flags.
void clear_library_environment() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "CUTTLEFISH_", 11) == 0) {
      const char* eq = std::strchr(*e, '=');
      names.emplace_back(*e, eq == nullptr ? std::strlen(*e)
                                           : static_cast<size_t>(eq - *e));
    }
  }
  for (const auto& n : names) ::unsetenv(n.c_str());
}

bool parse_u64(const char* text, uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || text[0] == '-') return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  clear_library_environment();
  cuttlefish::set_log_level(cuttlefish::LogLevel::kError);

  RunConfig cfg;
  cfg.work_dir = ".bench_build/perfbench/work";
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--check-pin") return check_pin();
    if (i + 1 >= argc) return usage(argv[0], arg + " expects a value");
    const char* value = argv[++i];
    uint64_t n = 0;
    if (arg == "--workload") {
      cfg.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      if (!parse_u64(value, &cfg.seed)) return usage(argv[0], "bad --seed");
      have_seed = true;
    } else if (arg == "--seconds") {
      if (!parse_u64(value, &n) || n == 0 || n > 3600) {
        return usage(argv[0], "bad --seconds");
      }
      cfg.seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (arg == "--trace") {
      if (!parse_u64(value, &n) || n > 1) return usage(argv[0], "bad --trace");
      cfg.trace = n == 1;
      have_trace = true;
    } else if (arg == "--work-dir") {
      cfg.work_dir = value;
    } else {
      return usage(argv[0], "unknown flag " + arg);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return usage(argv[0], "--workload, --seed, --seconds and --trace are "
                          "required");
  }
  Outcome (*run)(const RunConfig&) = nullptr;
  if (cfg.workload == "fig10_serial") run = &run_fig10_serial;
  if (cfg.workload == "fig10_supervised") run = &run_fig10_supervised;
  if (cfg.workload == "cotenant_sessions") run = &run_cotenant_sessions;
  if (run == nullptr) return usage(argv[0], "unknown workload " + cfg.workload);

  std::error_code ec;
  std::filesystem::create_directories(cfg.work_dir, ec);
  if (ec) return usage(argv[0], "cannot create " + cfg.work_dir);

  const Outcome outcome = run(cfg);
  emit(outcome, cfg.workload, cfg.seed, cfg.trace,
       cfg.work_dir + "/result-" + cfg.workload +
           (cfg.trace ? "-trace" : "") + ".json");
  return 0;
}
