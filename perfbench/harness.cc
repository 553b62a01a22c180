#include "perfbench/harness.h"

namespace perfbench {

std::map<std::string, Tracer::Totals> Tracer::SelfTimes() const {
  std::vector<double> child_wall(spans_.size(), 0);
  std::vector<double> child_sim(spans_.size(), 0);
  for (const SpanRecord& span : spans_) {
    if (span.parent >= 0) {
      child_wall[span.parent] += span.wall_end - span.wall_begin;
      child_sim[span.parent] +=
          static_cast<double>(span.sim_end - span.sim_begin) / 1e9;
    }
  }
  std::map<std::string, Totals> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& span = spans_[i];
    double wall = span.wall_end - span.wall_begin;
    double sim = static_cast<double>(span.sim_end - span.sim_begin) / 1e9;
    Totals& t = out[span.name];
    ++t.count;
    t.wall_s += wall;
    t.wall_self_s += wall - child_wall[i];
    t.sim_s += sim;
    t.sim_self_s += sim - child_sim[i];
  }
  return out;
}

std::string Tracer::ChromeTrace(const std::string& extra_events) const {
  // Span ids start high so they never collide with the program's own span
  // ids, which may share the file under another pid.
  constexpr uint64_t kIdBase = 1ull << 40;
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  char buf[512];
  for (const Event& event : events_) {
    const SpanRecord& span = spans_[event.span];
    if (!first) {
      out += ',';
    }
    first = false;
    if (event.begin) {
      uint64_t parent = span.parent < 0 ? 0 : kIdBase + span.parent;
      std::snprintf(buf, sizeof(buf),
                    "\n{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"B\","
                    "\"ts\":%.3f,\"pid\":1,\"tid\":0,\"args\":{\"id\":%llu,"
                    "\"parent\":%llu,\"sim_ns\":%llu}}",
                    span.name.c_str(), span.wall_begin * 1e6,
                    static_cast<unsigned long long>(kIdBase + event.span),
                    static_cast<unsigned long long>(parent),
                    static_cast<unsigned long long>(span.sim_end -
                                                    span.sim_begin));
    } else {
      std::snprintf(buf, sizeof(buf),
                    "\n{\"name\":\"%s\",\"ph\":\"E\",\"ts\":%.3f,\"pid\":1,"
                    "\"tid\":0}",
                    span.name.c_str(), span.wall_end * 1e6);
    }
    out += buf;
  }
  if (!extra_events.empty()) {
    if (!first) {
      out += ',';
    }
    out += extra_events;
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

std::string ResultLine(bool correct, uint64_t attempted, uint64_t failed,
                       const Metrics& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    if (!first) {
      out += ", ";
    }
    first = false;
    out += "\"" + name + "\": {\"value\": " + Num(metric.value) +
           ", \"unit\": \"" + metric.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
