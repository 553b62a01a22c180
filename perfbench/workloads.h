#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

// The benchmark's three workloads. Each call runs one iteration: it builds
// a fresh simulated world from the seed (set-up), runs the timed phase as a
// closed loop on one thread, and checks the program's answers against
// expectations the benchmark computes itself.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "perfbench/harness.h"

namespace perfbench {

struct Context {
  uint64_t seed = 1;
  bool traced = false;  // record spans, switch on the program's tracer
  bool corrupt = false;  // self-test: falsify one expectation
  bool setup_only = false;  // return right after set-up (a setup_s sample)
  Tracer* tracer = nullptr;
};

struct Iteration {
  double setup_wall_s = 0;
  double timed_wall_s = 0;
  double timed_sim_s = 0;
  // Workload-defined end-to-end figures (see README.md for each workload's
  // definition): prov_overhead_sim_s, prov_store_bytes,
  // ingest_events_per_sim_s, alert_sim_p50_us.
  std::map<std::string, double> e2e;
  // One sample per operation the query_* percentiles are taken over.
  std::vector<double> op_sim_us;
  std::vector<double> op_wall_us;
  std::map<std::string, double> layers;  // per-layer figures
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  // Sum of the final clocks of every simulated world the iteration built:
  // traced and untraced iterations must agree on it to the nanosecond.
  uint64_t sim_end_ns = 0;
  // The program's own trace events (Chrome JSON body), traced runs only.
  std::string program_trace;
};

Iteration RunCapture(const Context& ctx);
Iteration RunAuditIngest(const Context& ctx);
Iteration RunLineageQuery(const Context& ctx);

// Record a failed check (the run's answers are wrong) with a reason.
void CheckFailed(Iteration* it, const std::string& what);
// Record a failed operation.
void OpFailed(Iteration* it, const std::string& what);

// The Chrome-JSON event list inside a TraceCollector export, moved to pid 2.
std::string ProgramEvents(const std::string& chrome_json);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
