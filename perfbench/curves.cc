// perfbench_curves: the two superlinear costs the benchmark's workloads
// sit on, measured directly so their growth is on record.
//
//   perfbench_curves [seed]
//
// 1. PQL ancestry-by-name through a portal session on the 4-shard audit
//    corpus: host-time p50 of one query as the corpus grows.
// 2. Standing-query refresh: frontier entries FrontierSince reports per
//    pnode the round created, round by round (1 would mean no waste).
//
// Output: "csv,ancestry,<output_files>,<p50_wall_us>,<p50_sim_us>" and
// "csv,frontier,<round>,<new_pnodes>,<frontier_entries>,<per_new_pnode>".

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "perfbench/harness.h"
#include "src/cluster/cluster.h"
#include "src/cluster/portal.h"
#include "src/cluster/standing.h"
#include "src/workloads/audit_stream.h"

namespace {

using pass::cluster::ClusterCoordinator;
using pass::workloads::AuditStreamGenerator;

constexpr int kQueriesPerPoint = 41;

void AncestryCurve(uint64_t seed) {
  pass::cluster::ClusterOptions options;
  options.seed = seed;
  ClusterCoordinator cluster(options);
  pass::workloads::AuditStreamOptions stream_options;
  stream_options.seed = (seed << 1) | 1;
  AuditStreamGenerator stream(&cluster, stream_options);
  if (!stream.SeedTaintSources().ok()) {
    std::exit(1);
  }
  pass::cluster::PortalTier tier(&cluster);
  auto session = tier.Open();
  if (!session.ok()) {
    std::exit(1);
  }
  const std::string query =
      "select A.name from Provenance.file as F F.input* as A "
      "where F.name = \"/out/s0-r1-p0\"";
  for (int rounds = 4; rounds <= 32; rounds *= 2) {
    while (static_cast<int>(stream.stats().rounds) < rounds) {
      if (!stream.StreamRound().ok()) {
        std::exit(1);
      }
    }
    std::vector<double> wall_us;
    std::vector<double> sim_us;
    for (int q = 0; q < kQueriesPerPoint; ++q) {
      double w0 = perfbench::WallNow();
      pass::sim::Nanos s0 = cluster.env().clock().now();
      if (!(*session)->Run(query).ok()) {
        std::exit(1);
      }
      wall_us.push_back((perfbench::WallNow() - w0) * 1e6);
      sim_us.push_back(static_cast<double>(cluster.env().clock().now() - s0) /
                       1e3);
    }
    std::printf("csv,ancestry,%llu,%.1f,%.1f\n",
                (unsigned long long)stream.stats().writes,
                perfbench::Median(wall_us), perfbench::Median(sim_us));
  }
}

void FrontierCurve(uint64_t seed) {
  pass::cluster::ClusterOptions options;
  options.seed = seed;
  ClusterCoordinator cluster(options);
  pass::workloads::AuditStreamOptions stream_options;
  stream_options.seed = (seed << 1) | 1;
  AuditStreamGenerator stream(&cluster, stream_options);
  pass::cluster::StandingQueryTier tier(&cluster);
  if (!stream.SeedTaintSources().ok() ||
      !tier.Register(AuditStreamGenerator::TaintAncestryQuery()).ok() ||
      !tier.Register(AuditStreamGenerator::TaintDescendantQuery()).ok() ||
      !tier.Refresh().ok()) {
    std::exit(1);
  }
  for (int round = 1; round <= 30; ++round) {
    uint64_t processes = stream.stats().processes;
    uint64_t writes = stream.stats().writes;
    uint64_t entries = tier.stats().frontier_entries;
    if (!stream.StreamRound().ok() || !tier.Refresh().ok()) {
      std::exit(1);
    }
    uint64_t new_pnodes = 2 * (stream.stats().processes - processes) +
                          (stream.stats().writes - writes);
    uint64_t frontier = tier.stats().frontier_entries - entries;
    std::printf("csv,frontier,%d,%llu,%llu,%.2f\n", round,
                (unsigned long long)new_pnodes, (unsigned long long)frontier,
                static_cast<double>(frontier) /
                    static_cast<double>(new_pnodes));
  }
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 1;
  AncestryCurve(seed);
  FrontierCurve(seed);
  return 0;
}
