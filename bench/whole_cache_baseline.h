#ifndef BENCH_WHOLE_CACHE_BASELINE_H_
#define BENCH_WHOLE_CACHE_BASELINE_H_

// The pre-fingerprint portal cache, kept as a bench baseline (fig6, fig9):
// the whole cache drops whenever the ShardMap epoch or the sum of every
// shard's ProvDb::mutation_count() moved since the last query — the
// behavior whose hit ratio collapses under ingest churn, which per-entry
// fingerprint invalidation is measured against.
//
// A drop swaps in a fresh FederatedSource (an empty cache) and counts one
// full flush if the old cache held bytes; hits and misses are summed across
// the swaps. Sources are built directly over the cluster's databases rather
// than through ClusterCoordinator::Source(), so the baseline takes no
// Quiesce() barrier of its own that would move the simulated clock under
// the portal it is compared with.

#include <cstdint>
#include <string>

#include "src/cluster/cluster.h"
#include "src/cluster/federated_source.h"
#include "src/pql/eval.h"

namespace pass::bench {

class WholeCacheBaseline {
 public:
  WholeCacheBaseline(cluster::ClusterCoordinator* cluster, size_t cache_bytes)
      : cluster_(cluster),
        cache_bytes_(cache_bytes),
        source_(Fresh()),
        epoch_(cluster->shard_map().epoch()),
        mutations_(MutationSum()) {}

  Result<pql::QueryResult> Run(const std::string& query) {
    uint64_t epoch = cluster_->shard_map().epoch();
    uint64_t mutations = MutationSum();
    if (epoch != epoch_ || mutations != mutations_) {
      if (source_.cache_bytes_used() > 0) {
        ++full_flushes_;
      }
      hits_ += source_.stats().cache_hits;
      misses_ += source_.stats().cache_misses;
      source_ = Fresh();
      epoch_ = epoch;
      mutations_ = mutations;
    }
    return pql::Engine(&source_).Run(query);
  }

  // Counters summed over every source the baseline swapped through.
  uint64_t hits() const { return hits_ + source_.stats().cache_hits; }
  uint64_t misses() const { return misses_ + source_.stats().cache_misses; }
  uint64_t full_flushes() const { return full_flushes_; }

  // Zero the counters; the live cache is untouched (FederatedSource
  // semantics).
  void ResetStats() {
    hits_ = misses_ = full_flushes_ = 0;
    source_.ResetStats();
  }

 private:
  // fig6 and fig9 both compare against a portal on shard 0.
  cluster::FederatedSource Fresh() const {
    return cluster::FederatedSource(
        cluster_->shard_dbs(), &cluster_->network(), &cluster_->shard_map(),
        /*portal_shard=*/0, cache_bytes_, &cluster_->env().obs());
  }

  uint64_t MutationSum() const {
    uint64_t sum = 0;
    for (const waldo::ProvDb* db : cluster_->shard_dbs()) {
      sum += db->mutation_count();
    }
    return sum;
  }

  cluster::ClusterCoordinator* cluster_;
  size_t cache_bytes_;
  cluster::FederatedSource source_;
  uint64_t epoch_;      // ShardMap epoch the live source was built at
  uint64_t mutations_;  // cluster-wide mutation count it was built at
  uint64_t hits_ = 0;   // of swapped-out sources
  uint64_t misses_ = 0;
  uint64_t full_flushes_ = 0;
};

}  // namespace pass::bench

#endif  // BENCH_WHOLE_CACHE_BASELINE_H_
