// audit_ingest: the write-heavy path. A 4-shard cluster streams audit
// rounds through pipelined ingest while the two canonical taint watchlists
// stay registered on a StandingQueryTier: one Refresh() after every round,
// one live range migration midway.

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "perfbench/workloads.h"
#include "src/cluster/cluster.h"
#include "src/cluster/standing.h"
#include "src/pql/eval.h"
#include "src/workloads/audit_stream.h"

namespace perfbench {
namespace {

using pass::cluster::ClusterCoordinator;
using pass::cluster::StandingQueryTier;
using pass::workloads::AuditStreamGenerator;

constexpr int kShards = 4;
constexpr int kWarmupRounds = 4;  // part of set-up
constexpr int kRounds = 24;
constexpr int kProcessesPerShard = 6;  // worker chains per shard per round
constexpr int kMigrateAfterRound = kRounds / 2;

std::set<std::string> RowSet(const pass::pql::QueryResult& result) {
  std::set<std::string> rows;
  for (const auto& row : result.rows) {
    std::string line;
    for (const pass::pql::Value& value : row) {
      line += value.ToString();
      line += '|';
    }
    rows.insert(line);
  }
  return rows;
}

// Every standing result must equal a from-scratch evaluation of the same
// text over a fresh federated source, and must flag every worker the
// generator's event-order ground truth saw read taint.
void CheckStanding(Iteration* it, ClusterCoordinator* cluster,
                   const StandingQueryTier& tier,
                   const std::vector<std::pair<uint64_t, std::string>>& queries,
                   const std::set<std::string>& tainted, bool corrupt,
                   const char* when) {
  for (const auto& [id, text] : queries) {
    auto standing = tier.ResultOf(id);
    pass::cluster::FederatedSource fresh = cluster->Source();
    pass::pql::Engine engine(&fresh);
    auto scratch = engine.Run(text);
    if (!standing.ok() || !scratch.ok()) {
      CheckFailed(it, std::string(when) + ": evaluation failed");
      return;
    }
    std::set<std::string> want = RowSet(*scratch);
    if (corrupt && !want.empty()) {
      want.erase(want.begin());  // self-test: forget one tainted process
    }
    std::set<std::string> got = RowSet(*standing);
    if (got != want) {
      CheckFailed(it, std::string(when) + ": standing result (" +
                          std::to_string(got.size()) +
                          " rows) differs from a from-scratch run (" +
                          std::to_string(want.size()) + " rows) of " + text);
    }
    for (const std::string& process : tainted) {
      if (got.count(process + "|") == 0) {
        CheckFailed(it, std::string(when) + ": tainted process " + process +
                            " missing from " + text);
        break;
      }
    }
  }
}

}  // namespace

Iteration RunAuditIngest(const Context& ctx) {
  Iteration it;
  Tracer* tracer = ctx.tracer;

  // ---- set-up ---------------------------------------------------------------
  double setup_begin = WallNow();
  pass::cluster::ClusterOptions options;
  options.shards = kShards;
  options.seed = ctx.seed;
  auto cluster = std::make_unique<ClusterCoordinator>(options);
  pass::sim::Env& env = cluster->env();
  const pass::sim::Clock* clock = &env.clock();
  pass::workloads::AuditStreamOptions stream_options;
  stream_options.seed = (ctx.seed << 1) | 1;  // nonzero, one per seed
  stream_options.processes_per_shard = kProcessesPerShard;
  AuditStreamGenerator stream(cluster.get(), stream_options);
  StandingQueryTier tier(cluster.get());
  std::vector<std::pair<uint64_t, std::string>> queries;
  pass::Status seeded = stream.SeedTaintSources();
  for (const std::string& text : {AuditStreamGenerator::TaintAncestryQuery(),
                                  AuditStreamGenerator::TaintDescendantQuery()}) {
    auto id = tier.Register(text);
    if (!id.ok()) {
      OpFailed(&it, "register: " + id.status().ToString());
      return it;
    }
    queries.push_back({*id, text});
  }
  bool warmed = seeded.ok() && tier.Refresh().ok();  // the seed evaluation
  // Warm-up rounds give the timed phase a standing tier with history.
  for (int round = 0; round < kWarmupRounds && warmed; ++round) {
    warmed = stream.StreamRound().ok() && tier.Refresh().ok();
    it.attempted += 2;
  }
  if (!warmed) {
    OpFailed(&it, "set-up of the audit stream failed");
    return it;
  }
  it.setup_wall_s = WallNow() - setup_begin;
  if (ctx.setup_only) {
    return it;
  }

  // Counters are cumulative: measure the timed phase as deltas.
  tier.ResetStats();
  env.obs().metrics().Reset();
  const pass::cluster::IngestStats ingest0 = cluster->ingest_stats();
  const pass::sim::AsyncStats async0 = cluster->replication_timeline().stats();
  const pass::cluster::FederatedStats fed0 = tier.source().stats();
  const pass::workloads::AuditStreamStats gen0 = stream.stats();
  pass::sim::Nanos disk_busy0 = 0;
  uint64_t txns0 = 0;
  uint64_t prov_bytes0 = 0;
  uint64_t records_in0 = 0;
  for (int s = 0; s < kShards; ++s) {
    disk_busy0 += cluster->machine(s).disk().stats().busy_ns;
    txns0 += cluster->machine(s).volume()->lasagna_stats().txns;
    prov_bytes0 += cluster->machine(s).volume()->lasagna_stats().prov_bytes_logged;
    records_in0 += cluster->machine(s).pass()->analyzer_stats().records_in;
  }

  // ---- timed phase ----------------------------------------------------------
  double stream_wall = 0;
  double refresh_wall = 0;
  double migrate_wall = 0;
  pass::sim::Nanos stream_sim = 0;
  pass::sim::Nanos refresh_sim = 0;
  pass::sim::Nanos migrate_sim = 0;
  uint64_t migrate_entries = 0;
  for (int round = 0; round < kRounds; ++round) {
    // The program's own tracer records the first round and the migration
    // only: a refresh alone records tens of thousands of spans.
    env.obs().trace().set_enabled(ctx.traced && round == 0);
    Span round_span(tracer, "audit.round", clock);
    double w0 = WallNow();
    pass::sim::Nanos s0 = clock->now();
    pass::Status streamed;
    {
      Span span(tracer, "workloads.stream_round", clock);
      streamed = stream.StreamRound();
    }
    ++it.attempted;
    if (!streamed.ok()) {
      OpFailed(&it, "stream round: " + streamed.ToString());
    }
    stream_wall += WallNow() - w0;
    stream_sim += clock->now() - s0;

    if (round == kMigrateAfterRound) {
      double m0 = WallNow();
      pass::sim::Nanos ms0 = clock->now();
      pass::core::PnodeRange range{pass::core::ShardSpace(0).begin,
                                   cluster->machine(0).allocator().peek_next()};
      pass::Result<pass::cluster::MigrationReport> moved =
          pass::Unavailable("not run");
      {
        Span span(tracer, "cluster.migrate", clock);
        env.obs().trace().set_enabled(ctx.traced);
        moved = cluster->MigrateRange(range, 2);
        env.obs().trace().set_enabled(false);
      }
      ++it.attempted;
      if (moved.ok()) {
        migrate_entries += moved->entries_shipped;
      } else {
        OpFailed(&it, "migrate: " + moved.status().ToString());
      }
      migrate_wall += WallNow() - m0;
      migrate_sim += clock->now() - ms0;
    }

    double r0 = WallNow();
    pass::sim::Nanos rs0 = clock->now();
    bool refreshed = false;
    {
      Span span(tracer, "standing.refresh", clock);
      refreshed = tier.Refresh().ok();
    }
    double r_wall = WallNow() - r0;
    pass::sim::Nanos r_sim = clock->now() - rs0;
    ++it.attempted;
    if (!refreshed) {
      OpFailed(&it, "refresh failed");
    }
    refresh_wall += r_wall;
    refresh_sim += r_sim;
    it.op_sim_us.push_back(static_cast<double>(r_sim) / 1e3);
    it.op_wall_us.push_back(r_wall * 1e6);

    if (round == kMigrateAfterRound) {
      // Off the clock: the check's own queries charge simulated time that
      // no timed figure includes.
      Span span(tracer, "perfbench.check", clock);
      CheckStanding(&it, cluster.get(), tier, queries,
                    stream.expected_tainted_processes(), false,
                    "after the migration");
    }
  }
  // Snapshot everything before the final check charges its own queries.
  const pass::cluster::IngestStats ingest1 = cluster->ingest_stats();
  const pass::sim::AsyncStats async1 = cluster->replication_timeline().stats();
  const pass::cluster::FederatedStats fed1 = tier.source().stats();
  const pass::cluster::StandingStats standing = tier.stats();
  pass::obs::MetricRegistry& registry = env.obs().metrics();
  const double sync_sim_s =
      static_cast<double>(registry.GetHistogram("cluster.sync_ns").sum()) / 1e9;
  const pass::obs::Histogram& ack = registry.GetHistogram("ingest.ack_ns");
  pass::sim::Nanos disk_busy = 0;
  uint64_t txns = 0;
  uint64_t prov_bytes = 0;
  uint64_t records_in = 0;
  uint64_t db_bytes = 0;
  uint64_t index_bytes = 0;
  uint64_t dead_bytes = 0;
  uint64_t compactions = 0;
  for (int s = 0; s < kShards; ++s) {
    disk_busy += cluster->machine(s).disk().stats().busy_ns;
    txns += cluster->machine(s).volume()->lasagna_stats().txns;
    prov_bytes += cluster->machine(s).volume()->lasagna_stats().prov_bytes_logged;
    records_in += cluster->machine(s).pass()->analyzer_stats().records_in;
    pass::waldo::ProvDbStats db = cluster->shard_db(s).stats();
    db_bytes += db.db_bytes;
    index_bytes += db.index_bytes;
    for (const pass::waldo::KvStore* store :
         {&cluster->shard_db(s).record_store(),
          &cluster->shard_db(s).index_store()}) {
      pass::waldo::KvStats kv = store->stats();
      dead_bytes += kv.bytes - kv.live_bytes;
      compactions += kv.compactions;
    }
  }
  CheckStanding(&it, cluster.get(), tier, queries,
                stream.expected_tainted_processes(), ctx.corrupt, "at the end");
  if (ctx.traced) {
    it.program_trace = ProgramEvents(env.obs().trace().ChromeTraceJson());
  }
  it.sim_end_ns = clock->now();

  const pass::workloads::AuditStreamStats& gen = stream.stats();
  const double events = static_cast<double>(
      (gen.processes - gen0.processes) + (gen.reads - gen0.reads) +
      (gen.writes - gen0.writes));
  const double new_pnodes = static_cast<double>(
      2 * (gen.processes - gen0.processes) + (gen.writes - gen0.writes));
  it.timed_wall_s = stream_wall + migrate_wall + refresh_wall;
  it.timed_sim_s =
      static_cast<double>(stream_sim + migrate_sim + refresh_sim) / 1e9;
  it.e2e["prov_overhead_sim_s"] = sync_sim_s;
  it.e2e["prov_store_bytes"] = static_cast<double>(db_bytes + index_bytes);
  it.e2e["ingest_events_per_sim_s"] =
      events / (static_cast<double>(stream_sim) / 1e9);
  it.e2e["alert_sim_p50_us"] = Median(it.op_sim_us);

  auto& L = it.layers;
  L["workloads.stream_wall_s"] = stream_wall;
  L["core.records_in"] = static_cast<double>(records_in - records_in0);
  L["lasagna.txns"] = static_cast<double>(txns - txns0);
  L["lasagna.prov_bytes_logged"] = static_cast<double>(prov_bytes - prov_bytes0);
  L["disk.busy_sim_s"] = static_cast<double>(disk_busy - disk_busy0) / 1e9;
  L["provdb.db_bytes"] = static_cast<double>(db_bytes);
  L["provdb.index_bytes"] = static_cast<double>(index_bytes);
  L["kvstore.dead_bytes"] = static_cast<double>(dead_bytes);
  L["kvstore.compactions"] = static_cast<double>(compactions);
  L["cluster.sync_sim_s"] = sync_sim_s;
  L["ingest.ack_sim_p50_ns"] = ack.Quantile(0.5);
  L["ingest.ack_sim_p99_ns"] = ack.Quantile(0.99);
  L["ingest.batches_sent"] =
      static_cast<double>(ingest1.batches_sent - ingest0.batches_sent);
  L["ingest.entries_replicated"] = static_cast<double>(
      ingest1.entries_replicated - ingest0.entries_replicated);
  L["ingest.wire_bytes"] =
      static_cast<double>(ingest1.wire_bytes() - ingest0.wire_bytes());
  L["ingest.group_commits"] =
      static_cast<double>(ingest1.group_commits - ingest0.group_commits);
  const double busy = static_cast<double>(async1.busy_ns - async0.busy_ns);
  const double exposed =
      static_cast<double>(async1.exposed_ns - async0.exposed_ns);
  L["ingest.overlap"] = busy == 0 ? 1.0 : 1.0 - exposed / busy;
  L["ingest.exposed_sim_s"] = exposed / 1e9;
  L["cluster.migrate_sim_s"] =
      static_cast<double>(registry.GetHistogram("cluster.migrate_ns").sum()) /
      1e9;
  L["cluster.migrate_entries"] = static_cast<double>(migrate_entries);
  L["standing.refresh_wall_s"] = refresh_wall;
  L["standing.refresh_sim_s"] = static_cast<double>(refresh_sim) / 1e9;
  L["standing.affected_roots"] = static_cast<double>(standing.affected_roots);
  L["standing.rows_touched"] = static_cast<double>(standing.rows_touched);
  L["standing.eval_rpcs"] = static_cast<double>(standing.eval_rpcs);
  L["standing.frontier_rpcs"] = static_cast<double>(standing.frontier_rpcs);
  L["standing.frontier_entries"] =
      static_cast<double>(standing.frontier_entries);
  L["standing.frontier_per_new_pnode"] =
      static_cast<double>(standing.frontier_entries) / new_pnodes;
  L["federated.remote_ops"] =
      static_cast<double>(fed1.remote_ops - fed0.remote_ops);
  L["federated.remote_bytes"] = static_cast<double>(
      (fed1.remote_request_bytes + fed1.remote_response_bytes) -
      (fed0.remote_request_bytes + fed0.remote_response_bytes));
  const double hits = static_cast<double>(fed1.cache_hits - fed0.cache_hits);
  const double misses =
      static_cast<double>(fed1.cache_misses - fed0.cache_misses);
  L["federated.cache_hit_ratio"] =
      hits + misses == 0 ? 0 : hits / (hits + misses);
  L["federated.cache_misses"] = misses;
  L["federated.cache_entries_invalidated"] = static_cast<double>(
      fed1.cache_entries_invalidated - fed0.cache_entries_invalidated);
  L["federated.cache_evictions"] =
      static_cast<double>(fed1.cache_evictions - fed0.cache_evictions);
  return it;
}

}  // namespace perfbench
