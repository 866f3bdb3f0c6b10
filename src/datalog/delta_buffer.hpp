// Worker-local staging of relation mutations for the lock-free publication
// protocol (see Relation's "delta publication" section in relation.hpp).
//
// A ShardedWriteBuffer accumulates inserts/erases for one Relation, bucketed
// by target shard, and turns them into DeltaChunks: Flush() publishes one
// chunk per touched shard (a single atomic list-append each), waits until
// every chunk is applied — assisting the absorption itself rather than
// spinning idle — and reports per-row outcomes so callers can drive
// semi-naive deltas off the "was it fresh" bit.  Chunks are recycled through
// a free list, so a steady-state worker stages into already-allocated
// storage.
//
// A StoreWriteBuffer is the per-worker aggregate: one ShardedWriteBuffer per
// predicate, created lazily and rebound across stores.  The parallel update
// engine hands each executor worker its own StoreWriteBuffer, making the
// whole write path of a task mutex-free: stage during the task, publish at
// completion.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "datalog/relation.hpp"

namespace dsched::datalog {

class RelationStore;

/// Stages mutations for one Relation and publishes them as per-shard
/// DeltaChunks.  Single-owner (one worker); the relation may be shared with
/// concurrent publishers and absorbers.
class ShardedWriteBuffer {
 public:
  /// Rows staged for one shard before it is auto-published mid-task.
  static constexpr std::size_t kAutoPublishRows = 1024;

  ShardedWriteBuffer() = default;
  explicit ShardedWriteBuffer(Relation& relation) { Bind(relation); }

  /// Points the buffer at `relation`.  Requires no rows staged or in
  /// flight.  No-op when already bound to it.
  void Bind(Relation& relation);

  [[nodiscard]] bool BoundTo(const Relation& relation) const {
    return relation_ == &relation;
  }

  void StageInsert(RowView tuple) { Stage(tuple, Relation::kOpInsert); }
  void StageInsert(const Tuple& tuple) { StageInsert(RowView(tuple)); }
  void StageErase(RowView tuple) { Stage(tuple, Relation::kOpErase); }
  void StageErase(const Tuple& tuple) { StageErase(RowView(tuple)); }

  /// Rows staged but not yet flushed (including auto-published chunks
  /// whose results have not been harvested).
  [[nodiscard]] std::size_t InFlightRows() const { return in_flight_rows_; }

  /// Per-row outcome callback: `op` is Relation::kOpInsert/kOpErase, `row`
  /// views the chunk's storage (valid only during the call), `took_effect`
  /// is true when an insert was fresh or an erase found its row.
  using ResultFn =
      std::function<void(std::uint8_t op, RowView row, bool took_effect)>;

  /// Publishes everything still staged, ensures all published chunks are
  /// applied, invokes `on_result` for every row (publication order per
  /// shard), and recycles the chunks.
  void Flush(const ResultFn& on_result = {});

 private:
  void Stage(RowView tuple, std::uint8_t op);
  Relation::DeltaChunk* StagingFor(std::size_t shard);
  void PublishShard(std::size_t shard);

  Relation* relation_ = nullptr;
  std::vector<std::unique_ptr<Relation::DeltaChunk>> staging_;  // per shard
  struct Published {
    std::unique_ptr<Relation::DeltaChunk> chunk;
    std::size_t shard = 0;
  };
  std::vector<Published> published_;
  std::vector<std::unique_ptr<Relation::DeltaChunk>> free_;
  std::size_t in_flight_rows_ = 0;
};

/// One ShardedWriteBuffer per predicate of a store, created lazily.  The
/// unit the executor hands to each worker.
class StoreWriteBuffer {
 public:
  /// The buffer for `predicate`, bound to its relation in `store`.
  ShardedWriteBuffer& For(RelationStore& store, std::uint32_t predicate);

 private:
  std::vector<std::unique_ptr<ShardedWriteBuffer>> buffers_;
};

}  // namespace dsched::datalog
