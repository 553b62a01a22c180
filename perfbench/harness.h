#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

// Shared pieces of the benchmark: seeded input randomness, exact-sample
// quantiles, the benchmark's own wall- and sim-stamped span recorder, and
// the metric sink that renders the result line.

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/sim/clock.h"

namespace perfbench {

// splitmix64: the benchmark's input generator. Every input a workload feeds
// the program is drawn from one of these, seeded from --seed plus a salt.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  uint64_t Below(uint64_t n) { return n == 0 ? 0 : Next() % n; }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

// Seconds on the host's monotonic clock since the process started.
inline double WallNow() {
  static const auto start = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Linear-interpolated quantile of exact samples (q in [0, 1]).
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

// Shortest round-trip decimal rendering of a double (every digit measured).
inline std::string Num(double value) {
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, res.ptr);
}

// ---- span recorder ----------------------------------------------------------
// Spans the benchmark records around each call it makes into a layer. Each
// carries both clocks: host wall seconds and the nanos of the simulated clock
// the call runs against (one span never straddles two simulated worlds).
// Nesting follows the call stack. Disabled, a span costs one branch.
struct SpanRecord {
  std::string name;
  int parent = -1;
  double wall_begin = 0;
  double wall_end = 0;
  pass::sim::Nanos sim_begin = 0;
  pass::sim::Nanos sim_end = 0;
  const pass::sim::Clock* clock = nullptr;
};

class Tracer {
 public:
  void set_enabled(bool on) { enabled_ = on; }
  // Forget every recorded span (each traced iteration starts empty).
  void Clear() {
    spans_.clear();
    events_.clear();
    open_.clear();
  }

  int Begin(std::string_view name, const pass::sim::Clock* clock) {
    if (!enabled_) {
      return -1;
    }
    SpanRecord span;
    span.name = std::string(name);
    span.parent = open_.empty() ? -1 : open_.back();
    span.clock = clock;
    span.sim_begin = clock->now();
    span.wall_begin = WallNow();
    spans_.push_back(std::move(span));
    int id = static_cast<int>(spans_.size() - 1);
    open_.push_back(id);
    events_.push_back({true, id});
    return id;
  }

  void End(int id) {
    if (id < 0) {
      return;
    }
    SpanRecord& span = spans_[id];
    span.wall_end = WallNow();
    span.sim_end = span.clock->now();
    open_.pop_back();
    events_.push_back({false, id});
  }

  // Per span name: count, total and self time on both clocks (self = the
  // span's duration minus its direct children's).
  struct Totals {
    uint64_t count = 0;
    double wall_s = 0;
    double wall_self_s = 0;
    double sim_s = 0;
    double sim_self_s = 0;
  };
  std::map<std::string, Totals> SelfTimes() const;

  // Chrome trace-event JSON of the recorded spans on pid 1 (ts = host
  // microseconds; the simulated duration rides in args), followed by
  // `extra_events` (already-rendered events of another pid).
  std::string ChromeTrace(const std::string& extra_events) const;

 private:
  struct Event {
    bool begin = false;
    int span = 0;
  };
  bool enabled_ = false;
  std::vector<SpanRecord> spans_;
  std::vector<Event> events_;
  std::vector<int> open_;
};

class Span {
 public:
  Span(Tracer* tracer, std::string_view name, const pass::sim::Clock* clock)
      : tracer_(tracer), id_(tracer->Begin(name, clock)) {}
  ~Span() { tracer_->End(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

// ---- metric sink ------------------------------------------------------------
struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

// The result line: {"correct", "attempted", "failed", "metrics"}.
std::string ResultLine(bool correct, uint64_t attempted, uint64_t failed,
                       const Metrics& metrics);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
