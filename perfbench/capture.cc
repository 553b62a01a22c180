// capture: the paper's Table 2 / Table 3 traffic. The five applications run
// on a vanilla ext3 machine and a vanilla NFS client (set-up: the overhead
// baseline), then, timed, on a PASSv2 machine (Waldo drains the log into
// ProvDb) and on a PA-NFS client of a PASSv2 server.

#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "perfbench/workloads.h"
#include "src/nfs/client.h"
#include "src/nfs/server.h"
#include "src/workloads/machine.h"
#include "src/workloads/workloads.h"

namespace perfbench {
namespace {

using pass::workloads::Machine;
using pass::workloads::MachineOptions;
using pass::workloads::WorkloadReport;

constexpr int kApps = 5;
const char* const kAppNames[kApps] = {"compile", "postmark", "mercurial",
                                      "blast", "kepler"};
// PA-Kepler's vanilla build records its provenance in a text log instead.
constexpr const char* kKeplerTextLog = "/kepler-prov.txt";

// The paper's applications at the library's default scale, each jittered
// by up to +-3% from the seed so every application's inputs depend on it.
struct AppParams {
  pass::workloads::CompileParams compile;
  pass::workloads::PostmarkParams postmark;
  pass::workloads::MercurialParams mercurial;
  pass::workloads::BlastParams blast;
  pass::workloads::KeplerParams kepler;
};

AppParams SeededParams(uint64_t seed) {
  Rng rng(seed ^ 0x63617074ull);
  auto jitter = [&](double base) { return base * (0.97 + 0.06 * rng.Unit()); };
  AppParams p;
  p.compile.source_files =
      static_cast<int>(std::lround(jitter(p.compile.source_files)));
  p.postmark.initial_files =
      static_cast<int>(std::lround(jitter(p.postmark.initial_files)));
  p.postmark.transactions =
      static_cast<int>(std::lround(jitter(p.postmark.transactions)));
  p.mercurial.patches =
      static_cast<int>(std::lround(jitter(p.mercurial.patches)));
  p.blast.sequence_bytes =
      static_cast<size_t>(jitter(static_cast<double>(p.blast.sequence_bytes)));
  p.kepler.rows =
      static_cast<size_t>(jitter(static_cast<double>(p.kepler.rows)));
  return p;
}

WorkloadReport RunApp(int app, Machine* machine, const AppParams& p) {
  switch (app) {
    case 0:
      return pass::workloads::RunLinuxCompile(machine, p.compile);
    case 1:
      return pass::workloads::RunPostmark(machine, p.postmark);
    case 2:
      return pass::workloads::RunMercurial(machine, p.mercurial);
    case 3:
      return pass::workloads::RunBlast(machine, p.blast);
    default:
      return pass::workloads::RunPaKepler(machine, p.kepler);
  }
}

MachineOptions LocalOptions(uint64_t seed, bool with_pass) {
  MachineOptions options;
  options.seed = seed;
  options.with_pass = with_pass;
  return options;
}

// A PA-NFS (or vanilla NFS) pair on one timeline: the server owns the disk,
// the client mounts it as "/" so the unmodified applications run over the
// wire.
struct NfsWorld {
  static MachineOptions ServerOptions(uint64_t seed, bool with_pass) {
    MachineOptions options = LocalOptions(seed, with_pass);
    options.shard = 1;
    return options;
  }
  static MachineOptions ClientOptions(bool with_pass, pass::sim::Env* env,
                                      pass::os::FileSystem* root) {
    MachineOptions options;
    options.with_pass = with_pass;
    options.shard = 2;
    options.shared_env = env;
    options.root_fs = root;
    return options;
  }

  NfsWorld(uint64_t seed, bool with_pass)
      : server(ServerOptions(seed, with_pass)),
        net(&server.env().clock()),
        nfs_server(&server.env(),
                   with_pass ? static_cast<pass::os::FileSystem*>(
                                   server.volume())
                             : &server.basefs(),
                   "nfs"),
        client_fs(&server.env(), &net, &nfs_server),
        client(ClientOptions(with_pass, &server.env(), &client_fs)) {}

  Machine server;
  pass::sim::Network net;
  pass::nfs::NfsServer nfs_server;
  pass::nfs::NfsClientFs client_fs;
  Machine client;
};

// path -> FNV-1a of the file's bytes, for every file outside the provenance
// log directory.
using Tree = std::map<std::string, uint64_t>;

uint64_t Fnv1a(std::string_view data) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : data) {
    h = (h ^ c) * 0x100000001b3ull;
  }
  return h;
}

void HashTree(const pass::fs::MemFs& fs, const std::string& dir, Tree* out) {
  static const std::string kLogDir = pass::lasagna::LasagnaOptions().log_dir;
  auto names = fs.ListDirRaw(dir);
  if (!names.ok()) {
    return;
  }
  for (const std::string& name : *names) {
    std::string path = dir == "/" ? "/" + name : dir + "/" + name;
    if (path == kLogDir) {
      continue;
    }
    if (fs.ListDirRaw(path).ok()) {
      HashTree(fs, path, out);
    } else if (auto data = fs.ReadFileRaw(path); data.ok()) {
      (*out)[path] = Fnv1a(*data);
    }
  }
}

Tree TreeOf(const pass::fs::MemFs& fs) {
  Tree tree;
  HashTree(fs, "/", &tree);
  return tree;
}

void CompareTrees(Iteration* it, const std::string& what, Tree want,
                  const Tree& got) {
  want.erase(kKeplerTextLog);
  if (want == got) {
    return;
  }
  std::string first;
  for (const auto& [path, hash] : want) {
    auto found = got.find(path);
    if (found == got.end() || found->second != hash) {
      first = path;
      break;
    }
  }
  if (first.empty()) {
    first = "(extra files on the provenance stack)";
  }
  CheckFailed(it, what + ": file bytes differ from the vanilla run at " +
                      first);
}

// Every obj/fNNNN.o must have fNNNN.c and headers h((N+k) mod H), k = 0..3,
// in its INPUT closure: RunLinuxCompile's cc reads exactly those.
void CheckCompileClosure(Iteration* it, const pass::waldo::ProvDb& db,
                         const pass::workloads::CompileParams& params,
                         bool corrupt) {
  for (int i = 0; i < params.source_files; ++i) {
    char obj[64];
    std::snprintf(obj, sizeof(obj), "/usr/src/linux/obj/f%04d.o", i);
    std::set<std::string> want;
    char path[64];
    std::snprintf(path, sizeof(path), "/usr/src/linux/f%04d.c", i);
    want.insert(path);
    for (int k = 0; k < 4; ++k) {
      std::snprintf(path, sizeof(path), "/usr/src/linux/include/h%d.h",
                    (i + k) % params.headers);
      want.insert(path);
    }
    if (corrupt && i == 0) {
      // Self-test: expect a header cc never read in place of one it did.
      want.erase(path);
      want.insert("/usr/src/linux/include/never-read.h");
    }
    std::set<std::pair<pass::core::PnodeId, pass::core::Version>> seen;
    std::vector<pass::core::ObjectRef> frontier;
    for (pass::core::PnodeId pnode : db.PnodesByName(obj)) {
      for (pass::core::Version v : db.VersionsOf(pnode)) {
        seen.insert({pnode, v});
        frontier.push_back({pnode, v});
      }
    }
    std::set<std::string> names;
    while (!frontier.empty()) {
      pass::core::ObjectRef ref = frontier.back();
      frontier.pop_back();
      for (const pass::core::ObjectRef& input : db.Inputs(ref)) {
        if (seen.insert({input.pnode, input.version}).second) {
          frontier.push_back(input);
          names.insert(db.NameOf(input.pnode));
        }
      }
    }
    for (const std::string& name : want) {
      if (names.count(name) == 0) {
        CheckFailed(it, std::string(obj) + " lacks " + name +
                            " in its input* closure");
        return;
      }
    }
  }
}

struct DiskTotals {
  uint64_t seeks = 0;
  uint64_t bytes_written = 0;
  pass::sim::Nanos busy_ns = 0;
  void Add(const pass::sim::DiskStats& s) {
    seeks += s.seeks;
    bytes_written += s.bytes_written;
    busy_ns += s.busy_ns;
  }
};

// Vanilla figures for one application (set-up).
struct Baseline {
  double local_sim_s = 0;
  double nfs_sim_s = 0;
  Tree local_tree;
  Tree nfs_tree;
};

}  // namespace

Iteration RunCapture(const Context& ctx) {
  Iteration it;
  const AppParams params = SeededParams(ctx.seed);
  Tracer* tracer = ctx.tracer;

  // ---- set-up: the vanilla baseline ----------------------------------------
  double setup_begin = WallNow();
  std::vector<Baseline> base(kApps);
  DiskTotals vanilla_disk;
  uint64_t vanilla_rpcs = 0;
  for (int app = 0; app < kApps; ++app) {
    {
      Machine m(LocalOptions(ctx.seed, false));
      base[app].local_sim_s = RunApp(app, &m, params).elapsed_seconds;
      base[app].local_tree = TreeOf(m.basefs());
      vanilla_disk.Add(m.disk().stats());
      it.sim_end_ns += m.env().clock().now();
    }
    {
      NfsWorld w(ctx.seed, false);
      base[app].nfs_sim_s = RunApp(app, &w.client, params).elapsed_seconds;
      base[app].nfs_tree = TreeOf(w.server.basefs());
      vanilla_disk.Add(w.server.disk().stats());
      vanilla_disk.Add(w.client.disk().stats());
      vanilla_rpcs += w.client_fs.client_stats().rpcs;
      it.sim_end_ns += w.server.env().clock().now();
    }
  }
  it.setup_wall_s = WallNow() - setup_begin;
  if (ctx.setup_only) {
    return it;
  }

  // ---- timed phase: PASSv2 and PA-NFS ---------------------------------------
  DiskTotals pass_disk;
  double run_wall = 0;
  double drain_wall = 0;
  double pass_sim = 0;  // elapsed of the provenance runs, local + PA-NFS
  double timed_sim = 0;
  std::vector<double> overheads_us;
  uint64_t records_in = 0;
  uint64_t records_out = 0;
  uint64_t flushed = 0;
  uint64_t txns = 0;
  uint64_t prov_bytes = 0;
  uint64_t prov_chunks = 0;
  uint64_t pa_rpcs = 0;
  uint64_t db_bytes = 0;
  uint64_t index_bytes = 0;
  uint64_t dead_bytes = 0;
  uint64_t compactions = 0;
  std::vector<double> txn_p50;
  for (int app = 0; app < kApps; ++app) {
    {
      Machine m(LocalOptions(ctx.seed, true));
      m.env().obs().trace().set_enabled(ctx.traced);
      const pass::sim::Clock* clock = &m.env().clock();
      double w0 = WallNow();
      WorkloadReport report;
      {
        Span span(tracer, "workloads.run", clock);
        report = RunApp(app, &m, params);
      }
      double w1 = WallNow();
      pass::Status drained;
      {
        Span span(tracer, "waldo.drain", clock);
        drained = m.waldo()->Drain();
      }
      double w2 = WallNow();
      ++it.attempted;  // the run
      ++it.attempted;  // the drain
      if (!drained.ok()) {
        OpFailed(&it, "waldo drain: " + drained.ToString());
      }
      run_wall += w1 - w0;
      drain_wall += w2 - w1;
      it.op_sim_us.push_back(report.elapsed_seconds * 1e6);
      it.op_wall_us.push_back((w1 - w0) * 1e6);
      pass_sim += report.elapsed_seconds;
      timed_sim += m.elapsed_seconds();
      overheads_us.push_back((report.elapsed_seconds - base[app].local_sim_s) *
                             1e6);

      const auto& analyzer = m.pass()->analyzer_stats();
      const auto& distributor = m.pass()->distributor_stats();
      const auto& waldo = m.waldo()->stats();
      const auto& lasagna = m.volume()->lasagna_stats();
      records_in += analyzer.records_in;
      records_out += analyzer.records_out;
      flushed += distributor.records_flushed;
      txns += lasagna.txns;
      prov_bytes += lasagna.prov_bytes_logged;
      pass_disk.Add(m.disk().stats());
      pass::waldo::ProvDbStats db = m.db()->stats();
      db_bytes += db.db_bytes;
      index_bytes += db.index_bytes;
      for (const pass::waldo::KvStore* store :
           {&m.db()->record_store(), &m.db()->index_store()}) {
        pass::waldo::KvStats kv = store->stats();
        dead_bytes += kv.bytes - kv.live_bytes;
        compactions += kv.compactions;
      }
      txn_p50.push_back(m.env()
                            .obs()
                            .metrics()
                            .GetHistogram("lasagna.txn_ns", {{"shard", "0"}})
                            .Quantile(0.5));

      // Checks, off the clock.
      CompareTrees(&it, std::string(kAppNames[app]) + " on PASSv2",
                   base[app].local_tree, TreeOf(m.basefs()));
      // Conservation through the pipeline: every analyzer output reached
      // Waldo, except records the distributor still caches for objects that
      // never became persistent (a process that has not exited yet).
      uint64_t still_cached = distributor.records_cached -
                              distributor.records_flushed -
                              distributor.records_discarded;
      if (waldo.entries_ingested + still_cached != analyzer.records_out ||
          waldo.orphans_discarded != 0) {
        CheckFailed(&it, std::string(kAppNames[app]) + ": Waldo ingested " +
                             std::to_string(waldo.entries_ingested) + " + " +
                             std::to_string(still_cached) +
                             " still cached of " +
                             std::to_string(analyzer.records_out) +
                             " analyzer records, " +
                             std::to_string(waldo.orphans_discarded) +
                             " orphans");
      }
      if (app == 0) {
        CheckCompileClosure(&it, *m.db(), params.compile, ctx.corrupt);
        if (ctx.traced && it.program_trace.empty()) {
          it.program_trace =
              ProgramEvents(m.env().obs().trace().ChromeTraceJson());
        }
      }
      it.sim_end_ns += m.env().clock().now();
    }
    {
      NfsWorld w(ctx.seed, true);
      w.server.env().obs().trace().set_enabled(ctx.traced);
      double w0 = WallNow();
      WorkloadReport report;
      {
        Span span(tracer, "workloads.run_nfs", &w.server.env().clock());
        report = RunApp(app, &w.client, params);
      }
      double w1 = WallNow();
      ++it.attempted;
      run_wall += w1 - w0;
      it.op_sim_us.push_back(report.elapsed_seconds * 1e6);
      it.op_wall_us.push_back((w1 - w0) * 1e6);
      pass_sim += report.elapsed_seconds;
      timed_sim += w.server.env().clock().seconds();
      overheads_us.push_back((report.elapsed_seconds - base[app].nfs_sim_s) *
                             1e6);

      const auto& analyzer = w.client.pass()->analyzer_stats();
      records_in += analyzer.records_in;
      records_out += analyzer.records_out;
      flushed += w.client.pass()->distributor_stats().records_flushed;
      const auto& lasagna = w.server.volume()->lasagna_stats();
      txns += lasagna.txns;
      prov_bytes += lasagna.prov_bytes_logged;
      prov_chunks += w.client_fs.client_stats().prov_chunks;
      pa_rpcs += w.client_fs.client_stats().rpcs;
      pass_disk.Add(w.server.disk().stats());
      pass_disk.Add(w.client.disk().stats());
      txn_p50.push_back(w.server.env()
                            .obs()
                            .metrics()
                            .GetHistogram("lasagna.txn_ns", {{"shard", "1"}})
                            .Quantile(0.5));

      CompareTrees(&it, std::string(kAppNames[app]) + " on PA-NFS",
                   base[app].nfs_tree, TreeOf(w.server.basefs()));
      it.sim_end_ns += w.server.env().clock().now();
    }
  }

  it.timed_wall_s = run_wall + drain_wall;
  it.timed_sim_s = timed_sim;
  double overhead_s = 0;
  for (double us : overheads_us) {
    overhead_s += us / 1e6;
  }
  it.e2e["prov_overhead_sim_s"] = overhead_s;
  it.e2e["prov_store_bytes"] = static_cast<double>(db_bytes + index_bytes);
  it.e2e["ingest_events_per_sim_s"] =
      static_cast<double>(records_in) / pass_sim;
  it.e2e["alert_sim_p50_us"] = Median(overheads_us);

  auto& L = it.layers;
  L["workloads.run_wall_s"] = run_wall;
  L["core.records_in"] = static_cast<double>(records_in);
  L["core.analyzer_keep_ratio"] =
      static_cast<double>(records_out) / static_cast<double>(records_in);
  L["core.distributor_flushed"] = static_cast<double>(flushed);
  L["lasagna.txns"] = static_cast<double>(txns);
  L["lasagna.prov_bytes_logged"] = static_cast<double>(prov_bytes);
  L["lasagna.txn_sim_p50_ns"] = Median(txn_p50);
  L["disk.extra_seeks"] = static_cast<double>(pass_disk.seeks) -
                          static_cast<double>(vanilla_disk.seeks);
  L["disk.extra_busy_sim_s"] =
      (static_cast<double>(pass_disk.busy_ns) -
       static_cast<double>(vanilla_disk.busy_ns)) /
      1e9;
  L["disk.extra_bytes_written"] = static_cast<double>(pass_disk.bytes_written) -
                                  static_cast<double>(vanilla_disk.bytes_written);
  L["disk.busy_sim_s"] = static_cast<double>(pass_disk.busy_ns) / 1e9;
  L["nfs.extra_rpcs"] =
      static_cast<double>(pa_rpcs) - static_cast<double>(vanilla_rpcs);
  L["nfs.prov_chunks"] = static_cast<double>(prov_chunks);
  L["waldo.drain_wall_s"] = drain_wall;
  L["provdb.db_bytes"] = static_cast<double>(db_bytes);
  L["provdb.index_bytes"] = static_cast<double>(index_bytes);
  L["kvstore.dead_bytes"] = static_cast<double>(dead_bytes);
  L["kvstore.compactions"] = static_cast<double>(compactions);
  return it;
}

}  // namespace perfbench
