#include "trace.hpp"

#include <cstdio>

namespace perfbench {

const char* to_string(SpanName name) {
  switch (name) {
    case SpanName::kSpec: return "exp.spec";
    case SpanName::kBuild: return "workloads.build";
    case SpanName::kCalibrate: return "exp.calibrate";
    case SpanName::kRun: return "exp.run_spec";
    case SpanName::kAdvance: return "sim.advance";
    case SpanName::kGovernor: return "sim.governor";
    case SpanName::kTick: return "core.tick";
    case SpanName::kBegin: return "core.begin";
    case SpanName::kRegionEnter: return "core.region.enter";
    case SpanName::kRegionExit: return "core.region.exit";
    case SpanName::kArbiterSample: return "arbiter.sample";
    case SpanName::kArbiterApply: return "arbiter.apply";
    case SpanName::kFaultSample: return "hal.fault.sample";
    case SpanName::kFaultApply: return "hal.fault.apply";
    case SpanName::kHalSample: return "hal.sample";
    case SpanName::kHalApply: return "hal.apply";
    case SpanName::kInterval: return "exp.interval";
    case SpanName::kCount: break;
  }
  return "?";
}

std::vector<SpanTotals> Tracer::totals() const {
  std::vector<SpanTotals> out(static_cast<size_t>(SpanName::kCount));
  for (const Span& s : spans_) {
    const int64_t duration = s.end_ns - s.start_ns;
    SpanTotals& t = out[static_cast<size_t>(s.name)];
    ++t.calls;
    t.total_ns += duration;
    t.self_ns += duration;
    if (s.parent >= 0) {
      const Span& parent = spans_[static_cast<size_t>(s.parent)];
      out[static_cast<size_t>(parent.name)].self_ns -= duration;
    }
  }
  return out;
}

bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "name\tstart_ns\tend_ns\tparent\trequest\n");
  for (const Span& s : spans_) {
    std::fprintf(f, "%s\t%lld\t%lld\t%d\t%u\n", to_string(s.name),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent, s.request);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
