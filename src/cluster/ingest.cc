#include "src/cluster/ingest.h"

#include <algorithm>
#include <string>
#include <utility>

#include "src/cluster/journal.h"
#include "src/core/object.h"
#include "src/obs/obs.h"

namespace pass::cluster {

namespace {

// RPC framing overhead per batch (op code, shard id, entry count, ...).
constexpr uint64_t kBatchHeaderBytes = 32;
constexpr uint64_t kAckBytes = 16;

obs::Labels ShardLabel(int shard) {
  return obs::Labels{{"shard", std::to_string(shard)}};
}

}  // namespace

void IngestQueue::Offer(int source_shard, const lasagna::LogEntry& entry) {
  ++stats_.entries_examined;
  int subject_owner = map_->OwnerOf(entry.subject.pnode);
  if (subject_owner >= 0 && subject_owner != source_shard) {
    Enqueue(subject_owner, entry);
  }
  if (entry.record.attr == core::Attr::kInput) {
    if (const auto* ancestor =
            std::get_if<core::ObjectRef>(&entry.record.value)) {
      int ancestor_owner = map_->OwnerOf(ancestor->pnode);
      if (ancestor_owner >= 0 && ancestor_owner != source_shard &&
          ancestor_owner != subject_owner) {
        Enqueue(ancestor_owner, entry);
      }
    }
  }
}

void IngestQueue::Enqueue(int destination, const lasagna::LogEntry& entry) {
  auto& queue = pending_[destination];
  if (queue.empty()) {
    pending_since_[destination] = env_->clock().now();
  }
  queue.push_back(entry);
  if (queue.size() >= batch_records_) {
    Seal(destination);
  }
}

void IngestQueue::Seal(int destination) {
  auto& queue = pending_[destination];
  if (queue.empty()) {
    return;
  }
  SealedBatch batch;
  batch.destination = destination;
  batch.entries = std::move(queue);
  batch.enqueued_at = pending_since_[destination];
  queue.clear();
  ready_.push_back(std::move(batch));
}

IngestQueue::Delivery IngestQueue::Deliver(
    int destination, const std::vector<lasagna::LogEntry>& entries,
    const char* rpc_span, const char* apply_span, bool async) {
  obs::TraceCollector* trace = &env_->obs().trace();
  Delivery delivery;
  std::string payload;
  lasagna::EncodeLogEntries(&payload, entries);
  delivery.bytes = payload.size();
  // The batch "carries" the sender's trace context across the simulated
  // RPC boundary: the destination's apply span parents to this rpc span.
  obs::TraceContext rpc_ctx;
  {
    obs::ScopedSpan rpc(trace, rpc_span, destination);
    rpc_ctx = trace->CurrentContext();
    if (async) {
      net_->RoundTripAsync(&timeline_, kBatchHeaderBytes + payload.size(),
                           kAckBytes);
    } else {
      net_->RoundTrip(kBatchHeaderBytes + payload.size(), kAckBytes);
    }
  }
  waldo::ProvDb* db = shards_[destination];
  obs::ScopedSpan apply(trace, rpc_ctx, apply_span, destination);
  for (const lasagna::LogEntry& entry : entries) {
    // InsertUnique adds only the rows (or edge halves) still missing, so a
    // redelivered batch or a re-sent migration chunk cannot duplicate them.
    if (db->InsertUnique(entry)) {
      ++delivery.inserted;
    }
  }
  return delivery;
}

void IngestQueue::Flush() {
  if (env_->crashed()) {
    return;
  }
  // Seal the partial batches too: Flush drains everything pending.
  for (size_t shard = 0; shard < pending_.size(); ++shard) {
    Seal(static_cast<int>(shard));
  }
  if (ready_.empty()) {
    return;
  }
  obs::TraceCollector* trace = &env_->obs().trace();
  obs::MetricRegistry& metrics = env_->obs().metrics();
  sim::Nanos flush_start = env_->clock().now();
  obs::ScopedSpan flush_span(trace, "ingest.flush");
  // Foreground half: one coalesced journal write makes every sealed batch
  // durable (WAP for the cluster), and that single disk charge is the whole
  // ack path — the workload never waits on the wire.
  std::vector<uint64_t> batch_ids(ready_.size(), 0);
  if (journal_ != nullptr) {
    obs::ScopedSpan commit_span(trace, "journal.group_commit");
    journal_->BeginGroup();
    for (size_t i = 0; i < ready_.size(); ++i) {
      batch_ids[i] = journal_->AppendReplBatch(ready_[i].destination,
                                               ready_[i].entries);
    }
    size_t frames = journal_->CommitGroup();
    ++stats_.group_commits;
    stats_.group_frames += frames;
  }
  if (env_->MaybeCrash()) {
    return;  // journaled but never shipped: recovery redelivers every batch
  }
  obs::Histogram& ack_ns = metrics.GetHistogram("ingest.ack_ns");
  for (const SealedBatch& batch : ready_) {
    ++stats_.batches_acked;
    ack_ns.Record(env_->clock().now() - batch.enqueued_at);
  }
  // Background half: hand each durable batch to the async shipper. Crash
  // points bracket every non-durable step; the batches stay in ready_ until
  // the whole drain survived, so DropPending discards them and recovery
  // redelivers from the journal instead.
  std::vector<uint64_t> shipped_ids;
  shipped_ids.reserve(ready_.size());
  for (size_t i = 0; i < ready_.size(); ++i) {
    if (env_->MaybeCrash()) {
      return;  // durable but unsent (or partially sent): redelivered
    }
    // Bounded in-flight window: past it the sender blocks until the oldest
    // transfer completes — the only place replication waits on the wire.
    sim::Nanos waited = timeline_.WaitForSlot(kMaxInFlightBatches);
    if (waited > 0) {
      metrics.GetHistogram("ingest.backpressure_ns").Record(waited);
    }
    // The simulation applies the entries eagerly (state now, time
    // deferred): equivalent to a background shipper whose completion nobody
    // observes before the next quiesce barrier.
    Delivery sent = Deliver(ready_[i].destination, ready_[i].entries,
                            "rpc.repl_batch", "shard.apply_batch",
                            /*async=*/true);
    ++stats_.batches_sent;
    stats_.bytes_sent += sent.bytes;
    stats_.entries_replicated += sent.inserted;
    shipped_ids.push_back(batch_ids[i]);
  }
  if (env_->MaybeCrash()) {
    return;  // every batch in flight, none acknowledged: redelivered
  }
  // The REPL_APPLIED marks are one more coalesced write. Logically they
  // trail the remote acks; journaling them eagerly is safe because a crash
  // before the acks would also lose these marks (same journal, same image)
  // and merely cause an idempotent redelivery.
  if (journal_ != nullptr) {
    obs::ScopedSpan applied_span(trace, "journal.group_commit");
    journal_->BeginGroup();
    for (uint64_t id : shipped_ids) {
      journal_->AppendReplApplied(id);
    }
    size_t frames = journal_->CommitGroup();
    ++stats_.group_commits;
    stats_.group_frames += frames;
  }
  ready_.clear();
  metrics.GetCounter("ingest.flushes").Add();
  metrics.GetHistogram("ingest.flush_ns")
      .Record(env_->clock().now() - flush_start);
}

sim::Nanos IngestQueue::Quiesce() {
  if (env_->crashed()) {
    return 0;
  }
  sim::Nanos charged = timeline_.Drain();
  obs::MetricRegistry& metrics = env_->obs().metrics();
  metrics.GetCounter("ingest.quiesces").Add();
  if (charged > 0) {
    metrics.GetHistogram("ingest.quiesce_wait_ns").Record(charged);
  }
  return charged;
}

void IngestQueue::DropPending() {
  for (auto& queue : pending_) {
    queue.clear();
  }
  ready_.clear();
  timeline_.Reset();
}

uint64_t IngestQueue::Redeliver(
    int destination, const std::vector<lasagna::LogEntry>& entries) {
  obs::ScopedSpan redeliver_span(&env_->obs().trace(), "ingest.redeliver",
                                 destination);
  return Deliver(destination, entries, "rpc.repl_batch", "shard.apply_batch",
                 /*async=*/false)
      .inserted;
}

IngestQueue::ShipReport IngestQueue::ShipTo(
    int destination, const std::vector<lasagna::LogEntry>& entries) {
  ShipReport report;
  for (size_t at = 0; at < entries.size(); at += batch_records_) {
    if (env_->MaybeCrash()) {
      break;  // mid-copy crash: recovery re-ships the whole range
    }
    sim::Nanos chunk_start = env_->clock().now();
    obs::ScopedSpan chunk_span(&env_->obs().trace(), "migrate.ship_chunk",
                               destination);
    size_t batch_end = std::min(at + batch_records_, entries.size());
    std::vector<lasagna::LogEntry> chunk(entries.begin() + at,
                                         entries.begin() + batch_end);
    Delivery sent = Deliver(destination, chunk, "rpc.ship",
                            "shard.apply_chunk", /*async=*/false);
    ++report.batches;
    report.bytes += sent.bytes;
    report.entries_shipped += sent.inserted;
    report.entries_skipped += chunk.size() - sent.inserted;
    chunk_span.End();
    env_->obs()
        .metrics()
        .GetHistogram("migrate.ship_chunk_ns", ShardLabel(destination))
        .Record(env_->clock().now() - chunk_start);
  }
  stats_.migrate_batches += report.batches;
  stats_.migrate_bytes += report.bytes;
  stats_.migrate_entries += report.entries_shipped + report.entries_skipped;
  return report;
}

}  // namespace pass::cluster
