// lineage_query: the read path. A 4-shard cluster holds a seeded
// cross-shard lineage DAG the benchmark generates itself; two portal
// sessions (one whose cache holds the working set, one whose cache does
// not) answer a seeded mix of four query shapes skewed toward recently
// written files, while a little ingest churn lands new files between query
// batches.

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "perfbench/workloads.h"
#include "src/cluster/cluster.h"
#include "src/cluster/portal.h"
#include "src/pql/eval.h"

namespace perfbench {
namespace {

using pass::cluster::ClusterCoordinator;
using pass::cluster::PortalSession;

// The corpus is sized to the audit corpus on which the ancestry query's
// superlinear cost shows; the DAG shape, shape weights, recency skew, churn
// rate and the small cache are assumptions, not measured traffic (README.md,
// "Assumed read traffic", gives each one's reason).
constexpr int kShards = 4;
constexpr int kPreloadFiles = 96;
constexpr int kBatches = 25;
constexpr int kQueriesPerBatch = 48;  // 1,200 timed queries per iteration
constexpr int kWarmupQueries = 96;    // checked, untimed, part of set-up
constexpr int kChurnFilesPerBatch = 2;
// The DAG is kProjects interleaved lineages (file i belongs to project
// i mod kProjects). Each file takes kParents distinct parents among its
// project's newest kParentWindow files: deep cross-shard chains whose
// closure sizes vary little from seed to seed.
constexpr int kProjects = 8;
constexpr int kParents = 2;
constexpr int kParentWindow = 6;
// Query targets: this share among the newest kHotTargets files.
constexpr int kHotTargets = 16;
constexpr double kHotTargetShare = 0.6;
// Session caches: the analyst's holds the whole working set (measured and
// reported as portal.working_set_bytes), the auditor's a fraction of it.
constexpr size_t kLargeCacheBytes = 1u << 20;
constexpr size_t kSmallCacheBytes = 8u << 10;

enum Shape { kAncestry, kDescendants, kInputs, kPattern };
// Weights of the four shapes, in Shape order (percent).
constexpr int kShapeWeights[] = {35, 25, 25, 15};

// The lineage DAG as the benchmark wrote it: the reference every answer is
// checked against.
struct Dag {
  std::vector<std::string> names;
  std::vector<std::vector<int>> parents;
  std::vector<std::vector<int>> children;
  std::vector<pass::core::ObjectRef> refs;

  std::set<std::string> Closure(int from, bool up) const {
    std::set<int> seen = {from};
    std::vector<int> frontier = {from};
    while (!frontier.empty()) {
      int node = frontier.back();
      frontier.pop_back();
      for (int next : up ? parents[node] : children[node]) {
        if (seen.insert(next).second) {
          frontier.push_back(next);
        }
      }
    }
    std::set<std::string> out;
    for (int node : seen) {
      out.insert(names[node]);
    }
    return out;
  }
};

std::string FileName(int index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "/n%06d", index);
  return buf;
}

// The benchmark's own glob ('*' and '?'), independent of the evaluator's.
bool Glob(const char* pattern, const char* text) {
  if (*pattern == '\0') {
    return *text == '\0';
  }
  if (*pattern == '*') {
    return Glob(pattern + 1, text) || (*text != '\0' && Glob(pattern, text + 1));
  }
  return *text != '\0' && (*pattern == '?' || *pattern == *text) &&
         Glob(pattern + 1, text + 1);
}

// Write file `dag->names.size()` with seeded parents.
// Returns the number of INPUT edges disclosed, or -1 if the write failed.
int AddFile(ClusterCoordinator* cluster, Dag* dag, Rng* rng) {
  int index = static_cast<int>(dag->names.size());
  // Earlier files of the same project, newest first.
  std::vector<int> window;
  for (int p = index - kProjects;
       p >= 0 && static_cast<int>(window.size()) < kParentWindow;
       p -= kProjects) {
    window.push_back(p);
  }
  std::vector<int> parents;
  while (static_cast<int>(parents.size()) <
         std::min<int>(kParents, static_cast<int>(window.size()))) {
    int pick = window[rng->Below(window.size())];
    if (std::find(parents.begin(), parents.end(), pick) == parents.end()) {
      parents.push_back(pick);
    }
  }
  std::vector<pass::core::ObjectRef> sources;
  for (int p : parents) {
    sources.push_back(dag->refs[p]);
  }
  std::string name = FileName(index);
  // Placement rotates each project through the shards, so a file's
  // parents sit on other shards and every shard holds the same share (and
  // every churn batch dirties the same number of shards' cache ranges).
  int shard = (index + index / kProjects) % kShards;
  auto ref = cluster->WriteWithLineage(shard, name, std::string(64, 'd'),
                                       sources);
  if (!ref.ok()) {
    return -1;
  }
  dag->names.push_back(name);
  dag->refs.push_back(*ref);
  dag->parents.push_back(parents);
  dag->children.emplace_back();
  for (int p : parents) {
    dag->children[p].push_back(index);
  }
  return static_cast<int>(parents.size());
}

// Wall time and rows of every call the evaluator makes into the portal's
// federated source, with one span per call. Used by the traced run only, to
// split query time between the evaluator and the source.
class TimedSource : public pass::pql::GraphSource {
 public:
  TimedSource(const pass::pql::GraphSource* inner, Tracer* tracer,
              const pass::sim::Clock* clock)
      : inner_(inner), tracer_(tracer), clock_(clock) {}

  std::vector<pass::pql::Node> RootSet(const std::string& name) const override {
    double w0 = WallNow();
    std::vector<pass::pql::Node> out;
    {
      Span span(tracer_, "federated.root_set", clock_);
      out = inner_->RootSet(name);
    }
    wall_s_ += WallNow() - w0;
    rows_ += out.size();
    return out;
  }
  std::vector<std::vector<pass::pql::Node>> FollowMany(
      const std::vector<pass::pql::Node>& nodes, const std::string& link,
      bool inverse) const override {
    double w0 = WallNow();
    std::vector<std::vector<pass::pql::Node>> out;
    {
      Span span(tracer_, "federated.follow", clock_);
      out = inner_->FollowMany(nodes, link, inverse);
    }
    wall_s_ += WallNow() - w0;
    for (const auto& edges : out) {
      rows_ += edges.size();
    }
    return out;
  }
  std::vector<pass::pql::ValueSet> AttributeMany(
      const std::vector<pass::pql::Node>& nodes,
      const std::string& attr) const override {
    double w0 = WallNow();
    std::vector<pass::pql::ValueSet> out;
    {
      Span span(tracer_, "federated.attribute", clock_);
      out = inner_->AttributeMany(nodes, attr);
    }
    wall_s_ += WallNow() - w0;
    for (const auto& values : out) {
      rows_ += values.size();
    }
    return out;
  }
  bool IsLink(const std::string& name) const override {
    return inner_->IsLink(name);
  }
  std::string NodeLabel(const pass::pql::Node& node) const override {
    return inner_->NodeLabel(node);
  }

  double wall_s() const { return wall_s_; }
  uint64_t rows() const { return rows_; }

 private:
  const pass::pql::GraphSource* inner_;
  Tracer* tracer_;
  const pass::sim::Clock* clock_;
  mutable double wall_s_ = 0;
  mutable uint64_t rows_ = 0;
};

}  // namespace

Iteration RunLineageQuery(const Context& ctx) {
  Iteration it;
  Tracer* tracer = ctx.tracer;
  Rng rng(ctx.seed ^ 0x6c696e65ull);

  // ---- set-up ---------------------------------------------------------------
  double setup_begin = WallNow();
  pass::cluster::ClusterOptions options;
  options.shards = kShards;
  options.seed = ctx.seed;
  auto cluster = std::make_unique<ClusterCoordinator>(options);
  pass::sim::Env& env = cluster->env();
  const pass::sim::Clock* clock = &env.clock();
  Dag dag;
  for (int i = 0; i < kPreloadFiles; ++i) {
    if (AddFile(cluster.get(), &dag, &rng) < 0) {
      OpFailed(&it, "preload write failed");
      return it;
    }
  }
  if (!cluster->Sync().ok()) {
    OpFailed(&it, "preload sync failed");
    return it;
  }
  pass::cluster::PortalTierOptions tier_options;
  tier_options.total_cache_bytes = kLargeCacheBytes + kSmallCacheBytes;
  pass::cluster::PortalTier tier(cluster.get(), tier_options);
  pass::cluster::PortalSessionOptions analyst;
  analyst.tenant = "analyst";
  analyst.cache_bytes = kLargeCacheBytes;
  pass::cluster::PortalSessionOptions auditor;
  auditor.tenant = "auditor";
  auditor.cache_bytes = kSmallCacheBytes;
  auto large = tier.Open(analyst);
  auto small = tier.Open(auditor);
  if (!large.ok() || !small.ok()) {
    OpFailed(&it, "portal sessions not admitted");
    return it;
  }
  PortalSession* sessions[2] = {large->get(), small->get()};

  double query_wall = 0;
  double source_wall = 0;
  uint64_t source_rows = 0;
  uint64_t result_rows = 0;
  pass::sim::Nanos query_sim = 0;
  bool corrupt_pending = ctx.corrupt;
  // One seeded query, checked against the DAG; `timed` ones count toward
  // the timed figures.
  auto run_query = [&](bool timed) {
    PortalSession* session = sessions[rng.Below(2)];
    int n = static_cast<int>(dag.names.size());
    int target = rng.Unit() < kHotTargetShare
                     ? n - 1 - static_cast<int>(rng.Below(kHotTargets))
                     : static_cast<int>(rng.Below(n));
    int roll = static_cast<int>(rng.Below(100));
    Shape shape = kPattern;
    for (int s = 0, acc = 0; s < 4; ++s) {
      acc += kShapeWeights[s];
      if (roll < acc) {
        shape = static_cast<Shape>(s);
        break;
      }
    }
    const std::string& name = dag.names[target];
    std::string text;
    std::set<std::string> want;
    switch (shape) {
      case kAncestry:
        text = "select A.name from Provenance.file as F F.input* as A "
               "where F.name = \"" + name + "\" and A.type = \"FILE\"";
        want = dag.Closure(target, true);
        break;
      case kDescendants:
        text = "select D.name from Provenance.file as F F.~input* as D "
               "where F.name = \"" + name + "\" and D.type = \"FILE\"";
        want = dag.Closure(target, false);
        break;
      case kInputs:
        text = "select A.name from Provenance.file as F F.input as A "
               "where F.name = \"" + name + "\" and A.type = \"FILE\"";
        for (int p : dag.parents[target]) {
          want.insert(dag.names[p]);
        }
        break;
      case kPattern: {
        // Every file sharing the target's name up to its last two digits.
        std::string pattern = name.substr(0, name.size() - 2) + "*";
        text = "select F.name from Provenance.file as F where F.name like \"" +
               pattern + "\"";
        for (const std::string& candidate : dag.names) {
          if (Glob(pattern.c_str(), candidate.c_str())) {
            want.insert(candidate);
          }
        }
        break;
      }
    }
    if (corrupt_pending && shape == kAncestry && want.size() > 1) {
      want.erase(want.begin());  // self-test: drop one ancestor
      corrupt_pending = false;
    }

    double w0 = WallNow();
    pass::sim::Nanos s0 = clock->now();
    pass::Result<pass::pql::QueryResult> result = pass::Unavailable("not run");
    if (timed && ctx.traced) {
      // The same work PortalSession::Run does, with the source metered.
      Span span(tracer, "portal.query", clock);
      cluster->Quiesce();
      TimedSource metered(&session->source(), tracer, clock);
      pass::pql::Engine engine(&metered);
      result = engine.Run(text);
      source_wall += metered.wall_s();
      source_rows += metered.rows();
    } else {
      result = session->Run(text);
    }
    double wall = WallNow() - w0;
    pass::sim::Nanos sim = clock->now() - s0;
    ++it.attempted;
    if (timed) {
      query_wall += wall;
      query_sim += sim;
      it.op_sim_us.push_back(static_cast<double>(sim) / 1e3);
      it.op_wall_us.push_back(wall * 1e6);
    }
    if (!result.ok()) {
      OpFailed(&it, "query failed: " + result.status().ToString());
      return;
    }
    if (timed) {
      result_rows += result->rows.size();
    }
    std::set<std::string> got;
    for (const auto& row : result->rows) {
      if (!row.empty() && row[0].is_string()) {
        got.insert(row[0].AsString());
      }
    }
    if (got != want) {
      CheckFailed(&it, "answer to " + text + " has " +
                           std::to_string(got.size()) + " files, the DAG " +
                           std::to_string(want.size()));
    }
  };
  // Warm both caches before timing.
  for (int q = 0; q < kWarmupQueries; ++q) {
    run_query(false);
  }
  it.setup_wall_s = WallNow() - setup_begin;
  if (ctx.setup_only) {
    return it;
  }

  for (PortalSession* session : sessions) {
    session->source().ResetStats();
  }
  env.obs().metrics().Reset();
  const pass::cluster::IngestStats ingest0 = cluster->ingest_stats();
  const pass::sim::AsyncStats async0 = cluster->replication_timeline().stats();

  // ---- timed phase ----------------------------------------------------------
  double churn_wall = 0;
  pass::sim::Nanos churn_sim = 0;
  std::vector<double> churn_sim_us;
  uint64_t churn_events = 0;
  for (int batch = 0; batch < kBatches; ++batch) {
    // Spans, the benchmark's and the program's, cover the first batch
    // only: every query calls the source ~1,000 times, so a whole
    // iteration would hold millions of spans in memory. The source's
    // time and row totals still cover every batch.
    env.obs().trace().set_enabled(ctx.traced && batch == 0);
    tracer->set_enabled(ctx.traced && batch == 0);
    Span batch_span(tracer, "lineage.batch", clock);
    for (int q = 0; q < kQueriesPerBatch; ++q) {
      run_query(true);
    }

    // Churn: new files with lineage into the ranges the queries read,
    // written, synced, and replicated until readers can see them.
    double w0 = WallNow();
    pass::sim::Nanos s0 = clock->now();
    {
      Span span(tracer, "cluster.churn", clock);
      for (int c = 0; c < kChurnFilesPerBatch; ++c) {
        int edges = AddFile(cluster.get(), &dag, &rng);
        if (edges < 0) {
          OpFailed(&it, "churn write failed");
        } else {
          churn_events += 1 + static_cast<uint64_t>(edges);
        }
      }
      if (!cluster->Sync().ok()) {
        OpFailed(&it, "churn sync failed");
      }
      cluster->Quiesce();
    }
    ++it.attempted;
    pass::sim::Nanos sim = clock->now() - s0;
    churn_wall += WallNow() - w0;
    churn_sim += sim;
    churn_sim_us.push_back(static_cast<double>(sim) / 1e3);
  }

  const pass::cluster::IngestStats ingest1 = cluster->ingest_stats();
  const pass::sim::AsyncStats async1 = cluster->replication_timeline().stats();
  pass::obs::MetricRegistry& registry = env.obs().metrics();
  pass::cluster::FederatedStats fed;
  for (PortalSession* session : sessions) {
    const pass::cluster::FederatedStats& s = session->source().stats();
    fed.remote_ops += s.remote_ops;
    fed.remote_request_bytes += s.remote_request_bytes;
    fed.remote_response_bytes += s.remote_response_bytes;
    fed.cache_hits += s.cache_hits;
    fed.cache_misses += s.cache_misses;
    fed.cache_evictions += s.cache_evictions;
    fed.cache_entries_invalidated += s.cache_entries_invalidated;
  }
  uint64_t db_bytes = 0;
  uint64_t index_bytes = 0;
  pass::sim::Nanos disk_busy = 0;
  for (int s = 0; s < kShards; ++s) {
    pass::waldo::ProvDbStats db = cluster->shard_db(s).stats();
    db_bytes += db.db_bytes;
    index_bytes += db.index_bytes;
    disk_busy += cluster->machine(s).disk().stats().busy_ns;
  }
  if (ctx.traced) {
    it.program_trace = ProgramEvents(env.obs().trace().ChromeTraceJson());
  }
  it.sim_end_ns = clock->now();

  it.timed_wall_s = query_wall + churn_wall;
  it.timed_sim_s = static_cast<double>(query_sim + churn_sim) / 1e9;
  it.e2e["prov_overhead_sim_s"] = static_cast<double>(churn_sim) / 1e9;
  it.e2e["prov_store_bytes"] = static_cast<double>(db_bytes + index_bytes);
  it.e2e["ingest_events_per_sim_s"] =
      static_cast<double>(churn_events) / (static_cast<double>(churn_sim) / 1e9);
  it.e2e["alert_sim_p50_us"] = Median(churn_sim_us);

  auto& L = it.layers;
  L["provdb.db_bytes"] = static_cast<double>(db_bytes);
  L["provdb.index_bytes"] = static_cast<double>(index_bytes);
  L["disk.busy_sim_s"] = static_cast<double>(disk_busy) / 1e9;
  L["cluster.sync_sim_s"] =
      static_cast<double>(registry.GetHistogram("cluster.sync_ns").sum()) / 1e9;
  const pass::obs::Histogram& ack = registry.GetHistogram("ingest.ack_ns");
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
  L["pql.eval_self_wall_s"] = query_wall - source_wall;
  L["pql.rows_examined_per_result"] =
      result_rows == 0 ? 0
                       : static_cast<double>(source_rows) /
                             static_cast<double>(result_rows);
  L["federated.wall_s"] = source_wall;
  L["federated.remote_ops"] = static_cast<double>(fed.remote_ops);
  L["federated.remote_bytes"] = static_cast<double>(
      fed.remote_request_bytes + fed.remote_response_bytes);
  const double hits = static_cast<double>(fed.cache_hits);
  const double misses = static_cast<double>(fed.cache_misses);
  L["federated.cache_hit_ratio"] =
      hits + misses == 0 ? 0 : hits / (hits + misses);
  L["federated.cache_misses"] = misses;
  L["federated.cache_entries_invalidated"] =
      static_cast<double>(fed.cache_entries_invalidated);
  L["federated.cache_evictions"] = static_cast<double>(fed.cache_evictions);
  L["portal.working_set_bytes"] =
      static_cast<double>(sessions[0]->source().cache_bytes_used());
  return it;
}

}  // namespace perfbench
