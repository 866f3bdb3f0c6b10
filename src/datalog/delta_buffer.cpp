#include "datalog/delta_buffer.hpp"

#include "util/error.hpp"

namespace dsched::datalog {

void ShardedWriteBuffer::Bind(Relation& relation) {
  if (relation_ == &relation) {
    return;
  }
  DSCHED_CHECK_MSG(in_flight_rows_ == 0 && published_.empty(),
                   "rebinding a write buffer with rows in flight");
  relation_ = &relation;
  staging_.clear();
  staging_.resize(relation.NumShards());
}

Relation::DeltaChunk* ShardedWriteBuffer::StagingFor(std::size_t shard) {
  std::unique_ptr<Relation::DeltaChunk>& slot = staging_[shard];
  if (slot == nullptr) {
    if (!free_.empty()) {
      slot = std::move(free_.back());
      free_.pop_back();
    } else {
      slot = std::make_unique<Relation::DeltaChunk>();
    }
  }
  return slot.get();
}

void ShardedWriteBuffer::Stage(RowView tuple, std::uint8_t op) {
  DSCHED_CHECK_MSG(relation_ != nullptr, "write buffer is unbound");
  const std::uint64_t hash = HashValues(tuple);
  const std::size_t shard = relation_->ShardOfHash(hash);
  Relation::DeltaChunk* chunk = StagingFor(shard);
  chunk->values.insert(chunk->values.end(), tuple.begin(), tuple.end());
  chunk->hashes.push_back(hash);
  chunk->ops.push_back(op);
  ++in_flight_rows_;
  if (chunk->Count() >= kAutoPublishRows) {
    PublishShard(shard);
  }
}

void ShardedWriteBuffer::PublishShard(std::size_t shard) {
  std::unique_ptr<Relation::DeltaChunk> chunk = std::move(staging_[shard]);
  if (chunk == nullptr || chunk->Count() == 0) {
    staging_[shard] = std::move(chunk);
    return;
  }
  relation_->Publish(shard, chunk.get());
  published_.push_back({std::move(chunk), shard});
}

void ShardedWriteBuffer::Flush(const ResultFn& on_result) {
  if (relation_ == nullptr) {
    return;
  }
  for (std::size_t shard = 0; shard < staging_.size(); ++shard) {
    PublishShard(shard);
  }
  const std::size_t arity = relation_->Arity();
  for (Published& p : published_) {
    relation_->WaitApplied(p.shard, *p.chunk);
    if (on_result) {
      const Relation::DeltaChunk& chunk = *p.chunk;
      for (std::size_t i = 0; i < chunk.Count(); ++i) {
        on_result(chunk.ops[i],
                  RowView{chunk.values.data() + i * arity, arity},
                  chunk.results[i] != Relation::kNoChange);
      }
    }
    p.chunk->Reset();
    free_.push_back(std::move(p.chunk));
  }
  published_.clear();
  in_flight_rows_ = 0;
}

ShardedWriteBuffer& StoreWriteBuffer::For(RelationStore& store,
                                          std::uint32_t predicate) {
  if (buffers_.size() <= predicate) {
    buffers_.resize(predicate + 1);
  }
  std::unique_ptr<ShardedWriteBuffer>& slot = buffers_[predicate];
  if (slot == nullptr) {
    slot = std::make_unique<ShardedWriteBuffer>();
  }
  slot->Bind(store.Of(predicate));
  return *slot;
}

}  // namespace dsched::datalog
