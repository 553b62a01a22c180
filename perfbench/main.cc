// perfbench: one benchmark for the PASSv2 stack.
//
//   perfbench --workload capture|audit_ingest|lineage_query --seed N
//             --seconds S --trace 0|1 [--out-dir DIR] [--corrupt 1]
//
// Runs whole iterations of the workload (each: set-up, timed phase, checks)
// until S seconds have passed and at least three iterations ran, then prints
// one JSON result line. --trace 0 reports the end-to-end metrics, and spends
// a tenth of the run, between iterations, on set-ups alone (setup_s
// samples); --trace 1 alternates untraced and traced iterations, reports the
// per-layer metrics, writes DIR/layers.json and DIR/trace.json (span totals
// and Chrome trace events of the first traced iteration), and fails unless
// every iteration ends at the same simulated nanosecond. --corrupt 1
// falsifies one expectation (the self-test: the run must then report
// correct = false). The exit code is nonzero when a check fails.

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "perfbench/harness.h"
#include "perfbench/workloads.h"

namespace perfbench {

void CheckFailed(Iteration* it, const std::string& what) {
  it->correct = false;
  std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
}

void OpFailed(Iteration* it, const std::string& what) {
  ++it->failed;
  std::fprintf(stderr, "perfbench: operation failed: %s\n", what.c_str());
}

std::string ProgramEvents(const std::string& chrome_json) {
  size_t begin = chrome_json.find('[');
  size_t end = chrome_json.rfind(']');
  if (begin == std::string::npos || end == std::string::npos || end <= begin) {
    return "";
  }
  std::string body = chrome_json.substr(begin + 1, end - begin - 1);
  if (body.find('{') == std::string::npos) {
    return "";
  }
  const std::string from = "\"pid\":1,";
  const std::string to = "\"pid\":2,";
  for (size_t at = body.find(from); at != std::string::npos;
       at = body.find(from, at + to.size())) {
    body.replace(at, from.size(), to);
  }
  return body;
}

namespace {

struct NamedMetric {
  const char* name;
  const char* unit;
};

// The end-to-end figures each workload defines for itself (Iteration::e2e).
constexpr NamedMetric kWorkloadMetrics[] = {
    {"prov_overhead_sim_s", "s"},
    {"prov_store_bytes", "bytes"},
    {"ingest_events_per_sim_s", "events/s"},
    {"alert_sim_p50_us", "us"},
};

// Every per-layer metric, printed for every workload (0 where the workload
// does not reach the layer).
constexpr NamedMetric kLayerMetrics[] = {
    {"workloads.run_wall_s", "s"},
    {"workloads.stream_wall_s", "s"},
    {"core.records_in", "count"},
    {"core.analyzer_keep_ratio", "ratio"},
    {"core.distributor_flushed", "count"},
    {"lasagna.txns", "count"},
    {"lasagna.prov_bytes_logged", "bytes"},
    {"lasagna.txn_sim_p50_ns", "ns"},
    {"disk.extra_seeks", "count"},
    {"disk.extra_busy_sim_s", "s"},
    {"disk.extra_bytes_written", "bytes"},
    {"disk.busy_sim_s", "s"},
    {"nfs.extra_rpcs", "count"},
    {"nfs.prov_chunks", "count"},
    {"waldo.drain_wall_s", "s"},
    {"provdb.db_bytes", "bytes"},
    {"provdb.index_bytes", "bytes"},
    {"kvstore.dead_bytes", "bytes"},
    {"kvstore.compactions", "count"},
    {"cluster.sync_sim_s", "s"},
    {"ingest.ack_sim_p50_ns", "ns"},
    {"ingest.ack_sim_p99_ns", "ns"},
    {"ingest.batches_sent", "count"},
    {"ingest.entries_replicated", "count"},
    {"ingest.wire_bytes", "bytes"},
    {"ingest.group_commits", "count"},
    {"ingest.overlap", "ratio"},
    {"ingest.exposed_sim_s", "s"},
    {"cluster.migrate_sim_s", "s"},
    {"cluster.migrate_entries", "count"},
    {"standing.refresh_wall_s", "s"},
    {"standing.refresh_sim_s", "s"},
    {"standing.affected_roots", "count"},
    {"standing.rows_touched", "count"},
    {"standing.eval_rpcs", "count"},
    {"standing.frontier_rpcs", "count"},
    {"standing.frontier_entries", "count"},
    {"standing.frontier_per_new_pnode", "ratio"},
    {"pql.eval_self_wall_s", "s"},
    {"pql.rows_examined_per_result", "ratio"},
    {"federated.wall_s", "s"},
    {"federated.remote_ops", "count"},
    {"federated.remote_bytes", "bytes"},
    {"federated.cache_hit_ratio", "ratio"},
    {"federated.cache_misses", "count"},
    {"federated.cache_entries_invalidated", "count"},
    {"federated.cache_evictions", "count"},
    {"portal.working_set_bytes", "bytes"},
    {"host.wall_s", "s"},
    {"host.query_wall_p50_us", "us"},
    {"host.query_wall_p99_us", "us"},
    {"trace.overhead_share", "ratio"},
};

// Share of an untraced run spent on set-ups alone (setup_s samples).
constexpr double kSetupShare = 0.1;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  int trace = 0;
  std::string out_dir = ".bench_build/perfbench-out";
  bool corrupt = false;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload capture|"
               "audit_ingest|lineage_query --seed N --seconds S --trace 0|1 "
               "[--out-dir DIR] [--corrupt 1]\n",
               why);
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage(("missing value for " + flag).c_str());
    }
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else if (flag == "--trace") {
      args.trace = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else if (flag == "--corrupt") {
      args.corrupt = value == "1";
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') {
      Usage(("not a number: " + value).c_str());
    }
  }
  if (args.seconds < 1 || args.seconds > 600) {
    Usage("--seconds must be 1..600");
  }
  if (args.trace != 0 && args.trace != 1) {
    Usage("--trace must be 0 or 1");
  }
  return args;
}

double PeakRssMiB() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::vector<double> Column(const std::vector<Iteration>& its,
                           double Iteration::*field) {
  std::vector<double> out;
  for (const Iteration& it : its) {
    out.push_back(it.*field);
  }
  return out;
}

bool WriteFile(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << data;
  return static_cast<bool>(out);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args = Parse(argc, argv);
  Iteration (*run)(const Context&) = nullptr;
  if (args.workload == "capture") {
    run = RunCapture;
  } else if (args.workload == "audit_ingest") {
    run = RunAuditIngest;
  } else if (args.workload == "lineage_query") {
    run = RunLineageQuery;
  } else {
    Usage("unknown workload");
  }

  Tracer tracer;
  Context ctx;
  ctx.seed = args.seed;
  ctx.corrupt = args.corrupt;
  ctx.tracer = &tracer;
  auto iterate = [&](bool traced) {
    tracer.Clear();
    tracer.set_enabled(traced);
    ctx.traced = traced;
    return run(ctx);
  };

  const double start = WallNow();
  // Untraced runs also set up alone, between iterations, for a tenth of the
  // run: setup_s is the median of these set-ups and the iterations' own,
  // enough samples, spread over the whole run, to hold still where one
  // set-up takes only tens of milliseconds.
  std::vector<Iteration> setups;
  double setup_alone_s = 0;
  auto set_up_alone = [&] {
    ctx.setup_only = true;
    while (setup_alone_s < (WallNow() - start) * kSetupShare) {
      const double begin = WallNow();
      setups.push_back(run(ctx));
      setup_alone_s += WallNow() - begin;
    }
    ctx.setup_only = false;
  };
  // Untraced runs: every iteration counts. Traced runs alternate untraced
  // and traced iterations (the untraced ones are the twins the traced ones
  // must match to the simulated nanosecond, and the tracing overhead's
  // base); only the traced ones feed the per-layer figures.
  std::vector<Iteration> its;
  std::vector<Iteration> untraced;
  // The first traced iteration's spans, as a Chrome trace and per name.
  std::string chrome_trace;
  std::map<std::string, Tracer::Totals> span_totals;
  do {
    if (args.trace) {
      untraced.push_back(iterate(false));
    }
    its.push_back(iterate(args.trace == 1));
    if (args.trace && its.size() == 1) {
      chrome_trace = tracer.ChromeTrace(its[0].program_trace);
      span_totals = tracer.SelfTimes();
    }
    if (!args.trace) {
      set_up_alone();
    }
  } while (WallNow() - start < args.seconds ||
           its.size() < (args.trace ? 2u : 3u));

  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  for (const std::vector<Iteration>* set : {&setups, &its}) {
    for (const Iteration& it : *set) {
      correct = correct && it.correct;
      attempted += it.attempted;
      failed += it.failed;
    }
  }
  Metrics metrics;
  if (!args.trace) {
    std::vector<double> setup_walls = Column(setups, &Iteration::setup_wall_s);
    for (const Iteration& it : its) {
      setup_walls.push_back(it.setup_wall_s);
    }
    metrics["setup_s"] = {Median(setup_walls), "s"};
    metrics["sim_s"] = {Median(Column(its, &Iteration::timed_sim_s)), "s"};
    metrics["peak_rss_mb"] = {PeakRssMiB(), "MiB"};
    for (const auto& [name, unit] : kWorkloadMetrics) {
      std::vector<double> values;
      for (const Iteration& it : its) {
        values.push_back(it.e2e.at(name));
      }
      metrics[name] = {Median(values), unit};
    }
    // Percentiles over every operation of every iteration, exact samples.
    std::vector<double> op_sim;
    for (const Iteration& it : its) {
      op_sim.insert(op_sim.end(), it.op_sim_us.begin(), it.op_sim_us.end());
    }
    metrics["query_sim_p50_us"] = {Quantile(op_sim, 0.5), "us"};
    metrics["query_sim_p99_us"] = {Quantile(op_sim, 0.99), "us"};
    std::string walls;
    for (const Iteration& it : its) {
      walls += ' ' + Num(it.setup_wall_s) + '+' + Num(it.timed_wall_s);
    }
    std::fprintf(stderr, "perfbench: %s seed %llu: %zu set-ups alone, %zu "
                 "iterations, %zu operation samples, set-up+timed wall per "
                 "iteration:%s\n",
                 args.workload.c_str(), (unsigned long long)args.seed,
                 setups.size(), its.size(), op_sim.size(), walls.c_str());
  } else {
    for (const Iteration& it : untraced) {
      correct = correct && it.correct;
      attempted += it.attempted;
      failed += it.failed;
    }
    const uint64_t sim_end = untraced[0].sim_end_ns;
    for (const std::vector<Iteration>* set : {&untraced, &its}) {
      for (const Iteration& it : *set) {
        if (it.sim_end_ns != sim_end) {
          correct = false;
          std::fprintf(stderr,
                       "perfbench: check failed: an iteration ended at sim "
                       "%llu ns, the first untraced one at %llu ns\n",
                       (unsigned long long)it.sim_end_ns,
                       (unsigned long long)sim_end);
        }
      }
    }
    std::string layers = "{\"workload\": \"" + args.workload +
                         "\", \"seed\": " + std::to_string(args.seed) +
                         ", \"traced_iterations\": " +
                         std::to_string(its.size()) +
                         ", \"sim_end_ns\": {\"untraced\": " +
                         std::to_string(sim_end) +
                         ", \"traced\": " + std::to_string(its[0].sim_end_ns) +
                         "}, \"per_layer\": {";
    // Figures of the whole run: the untraced iterations' host times (kept
    // out of the end-to-end set because the host cannot hold them steady;
    // see README.md) and the tracing overhead measured against them.
    std::vector<double> untraced_op_wall;
    for (const Iteration& it : untraced) {
      untraced_op_wall.insert(untraced_op_wall.end(), it.op_wall_us.begin(),
                              it.op_wall_us.end());
    }
    const double untraced_wall =
        Median(Column(untraced, &Iteration::timed_wall_s));
    const std::map<std::string, double> run_level = {
        {"host.wall_s", untraced_wall},
        {"host.query_wall_p50_us", Quantile(untraced_op_wall, 0.5)},
        {"host.query_wall_p99_us", Quantile(untraced_op_wall, 0.99)},
        {"trace.overhead_share",
         Median(Column(its, &Iteration::timed_wall_s)) / untraced_wall - 1},
    };
    for (size_t i = 0; i < std::size(kLayerMetrics); ++i) {
      const NamedMetric& m = kLayerMetrics[i];
      std::vector<double> values;
      for (const Iteration& it : its) {
        auto found = it.layers.find(m.name);
        values.push_back(found == it.layers.end() ? 0 : found->second);
      }
      auto whole_run = run_level.find(m.name);
      double value =
          whole_run == run_level.end() ? Median(values) : whole_run->second;
      metrics[m.name] = {value, m.unit};
      layers += std::string(i == 0 ? "" : ", ") + "\"" + m.name +
                "\": {\"value\": " + Num(value) + ", \"unit\": \"" + m.unit +
                "\"}";
    }
    layers += "}, \"spans\": {";
    bool first = true;
    for (const auto& [name, t] : span_totals) {
      layers += std::string(first ? "" : ", ") + "\"" + name +
                "\": {\"count\": " + std::to_string(t.count) +
                ", \"wall_s\": " + Num(t.wall_s) +
                ", \"wall_self_s\": " + Num(t.wall_self_s) +
                ", \"sim_s\": " + Num(t.sim_s) +
                ", \"sim_self_s\": " + Num(t.sim_self_s) + "}";
      first = false;
    }
    layers += "}}\n";
    if (!WriteFile(args.out_dir + "/layers.json", layers) ||
        !WriteFile(args.out_dir + "/trace.json", chrome_trace)) {
      std::fprintf(stderr, "perfbench: cannot write to %s\n",
                   args.out_dir.c_str());
      correct = false;
    }
  }
  std::printf("%s\n", ResultLine(correct, attempted, failed, metrics).c_str());
  std::fflush(stdout);
  return correct && failed == 0 ? 0 : 1;
}
