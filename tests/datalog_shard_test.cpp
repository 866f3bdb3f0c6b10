// Concurrency tests for the hash-sharded Relation and the lock-free delta
// publication protocol (relation.hpp, delta_buffer.hpp).  These run under
// TSan in CI; every cross-thread interaction here must be explainable by
// the protocol's release/acquire pairs alone.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "datalog/delta_buffer.hpp"
#include "datalog/parser.hpp"
#include "datalog/relation.hpp"
#include "obs/metrics.hpp"

namespace dsched::datalog {
namespace {

Tuple T2(std::int64_t a, std::int64_t b) {
  return {Value::Int(a), Value::Int(b)};
}

// Multiplicative scatter so tuples spread across shards and slots.
std::int64_t Scatter(std::uint64_t i) {
  return static_cast<std::int64_t>((i * 0x9e3779b97f4a7c15ULL) &
                                   0x7fffffffULL);
}

std::vector<Tuple> Sorted(const Relation& r) {
  std::vector<Tuple> tuples = r.Tuples();
  std::sort(tuples.begin(), tuples.end());
  return tuples;
}

TEST(ShardTest, ConcurrentPublishersMatchSerialStore) {
  // W writers with disjoint keyspaces, each staging inserts AND erases
  // through its own buffer, must converge to exactly the single-threaded
  // result.
  constexpr std::size_t kWriters = 4;
  constexpr std::uint64_t kPerWriter = 4000;

  Relation serial(2, 1);
  for (std::uint64_t w = 0; w < kWriters; ++w) {
    for (std::uint64_t i = 0; i < kPerWriter; ++i) {
      serial.Insert(T2(Scatter(w * kPerWriter + i), static_cast<std::int64_t>(w)));
    }
    for (std::uint64_t i = 0; i < kPerWriter; i += 3) {
      serial.Erase(T2(Scatter(w * kPerWriter + i), static_cast<std::int64_t>(w)));
    }
  }

  for (const std::size_t shards : {std::size_t{1}, std::size_t{4},
                                   std::size_t{16}}) {
    Relation shared(2, shards);
    std::vector<std::thread> writers;
    writers.reserve(kWriters);
    for (std::size_t w = 0; w < kWriters; ++w) {
      writers.emplace_back([&shared, w] {
        ShardedWriteBuffer buffer(shared);
        for (std::uint64_t i = 0; i < kPerWriter; ++i) {
          buffer.StageInsert(
              T2(Scatter(w * kPerWriter + i), static_cast<std::int64_t>(w)));
        }
        buffer.Flush();
        // Erases in a second batch: the protocol applies each shard's
        // chunks in publication order, so this writer's erases always see
        // its own inserts applied.
        for (std::uint64_t i = 0; i < kPerWriter; i += 3) {
          buffer.StageErase(
              T2(Scatter(w * kPerWriter + i), static_cast<std::int64_t>(w)));
        }
        buffer.Flush();
      });
    }
    for (std::thread& writer : writers) {
      writer.join();
    }
    shared.Quiesce();
    EXPECT_FALSE(shared.HasPending());
    EXPECT_EQ(Sorted(shared), Sorted(serial)) << shards << " shards";
    EXPECT_GE(shared.PublishedChunks(), kWriters);
    EXPECT_EQ(shared.PublishedRows(),
              kWriters * (kPerWriter + (kPerWriter + 2) / 3));
  }
}

TEST(ShardTest, SingleShardDegeneratesToDenseRowIds) {
  // shards=1 must behave exactly like the pre-shard store: row ids are
  // dense insertion indices and iteration is insertion order.
  Relation r(2, 1);
  EXPECT_EQ(r.NumShards(), 1u);
  EXPECT_EQ(r.ShardBits(), 0u);
  for (std::int64_t i = 0; i < 100; ++i) {
    EXPECT_TRUE(r.Insert(T2(i, i * 2)));
  }
  for (std::uint32_t i = 0; i < 100; ++i) {
    EXPECT_EQ(r.EncodeRowId(0, i), i);
    const RowView row = r.Row(i);
    EXPECT_EQ(row[0].AsInt(), static_cast<std::int64_t>(i));
  }
  std::uint32_t next = 0;
  r.ForEachRow([&next](std::uint32_t id, RowView) { EXPECT_EQ(id, next++); });
  EXPECT_EQ(next, 100u);
}

TEST(ShardTest, ShardCountRoundsUpToPowerOfTwo) {
  EXPECT_EQ(Relation(2, 3).NumShards(), 4u);
  EXPECT_EQ(Relation(2, 5).NumShards(), 8u);
  EXPECT_EQ(Relation(2, 16).NumShards(), 16u);
}

TEST(ShardTest, EraseInOneShardLeavesOtherShardsStable) {
  // The per-shard EraseEpoch contract: erasing only bumps the owning
  // shard's epoch, and every other shard's row ids keep resolving to the
  // same tuples (this is what lets cached indexes skip unchanged shards).
  Relation r(2, 4);
  std::vector<Tuple> tuples;
  for (std::uint64_t i = 0; i < 512; ++i) {
    tuples.push_back(T2(Scatter(i), static_cast<std::int64_t>(i)));
    r.Insert(tuples.back());
  }
  std::vector<std::uint64_t> epoch_before(r.NumShards());
  for (std::size_t s = 0; s < r.NumShards(); ++s) {
    epoch_before[s] = r.ShardEraseEpoch(s);
  }
  // Snapshot every row id -> tuple mapping.
  std::vector<std::pair<std::uint32_t, Tuple>> before;
  r.ForEachRow([&before](std::uint32_t id, RowView row) {
    before.emplace_back(id, Tuple(row.begin(), row.end()));
  });

  const Tuple victim = tuples[137];
  const std::size_t victim_shard = r.ShardOfTuple(RowView(victim));
  ASSERT_TRUE(r.Erase(victim));

  for (std::size_t s = 0; s < r.NumShards(); ++s) {
    if (s == victim_shard) {
      EXPECT_EQ(r.ShardEraseEpoch(s), epoch_before[s] + 1);
    } else {
      EXPECT_EQ(r.ShardEraseEpoch(s), epoch_before[s]);
    }
  }
  // Rows outside the victim's shard are untouched, id for id.
  for (const auto& [id, tuple] : before) {
    if ((id & (r.NumShards() - 1)) == victim_shard) {
      continue;
    }
    const RowView row = r.Row(id);
    EXPECT_EQ(Tuple(row.begin(), row.end()), tuple);
  }
}

TEST(ShardTest, SingleShardAppendKeepsIndexSkippingShards) {
  // Store-level view of the same contract: after an append that touches
  // one shard, re-preparing a cached index only rescans the changed shard
  // and counts a skip for each untouched one.
  const Program program = ParseProgram("p(X, Y) :- q(X, Y).");
  RelationStore store(program, 4);
  const std::uint32_t q = program.PredicateId("q");
  for (std::uint64_t i = 0; i < 256; ++i) {
    store.Of(q).Insert(T2(Scatter(i), static_cast<std::int64_t>(i)));
  }
  const std::vector<std::size_t> columns{0};
  (void)store.Prepare(q, columns);  // build

  obs::MetricsRegistry base_metrics;
  store.ExportMetrics(base_metrics);
  const std::uint64_t skips_before =
      base_metrics.Value("store.index_shard_skips");

  const Tuple extra = T2(Scatter(9999), 9999);
  ASSERT_TRUE(store.Of(q).Insert(extra));
  const auto prepared = store.Prepare(q, columns);  // extend, skip 3 shards

  obs::MetricsRegistry metrics;
  store.ExportMetrics(metrics);
  EXPECT_EQ(metrics.Value("store.index_shard_skips"),
            skips_before + store.Of(q).NumShards() - 1);

  const Tuple key{extra[0]};
  const auto rows = RelationStore::LookupPrepared(prepared, key);
  bool found = false;
  for (const std::uint32_t id : rows) {
    const RowView row = RelationStore::RowIn(prepared, id);
    found = found || Tuple(row.begin(), row.end()) == extra;
  }
  EXPECT_TRUE(found);
}

TEST(ShardTest, ConcurrentDuplicateInsertsAreFreshExactlyOnce) {
  // Every tuple is staged by ALL writers, first as an insert and then as an
  // erase; across the whole run each tuple must report took_effect exactly
  // once per phase — the absorber applies chunks serially per shard, so
  // duplicates race but cannot double-count a birth or a death.
  constexpr std::size_t kWriters = 4;
  constexpr std::uint64_t kTuples = 2000;
  for (const std::size_t shards : {std::size_t{1}, std::size_t{8}}) {
    SCOPED_TRACE(shards);
    Relation shared(2, shards);
    const auto race = [&shared](std::uint8_t op) {
      std::vector<std::atomic<std::uint32_t>> hits(kTuples);
      std::vector<std::thread> writers;
      writers.reserve(kWriters);
      for (std::size_t w = 0; w < kWriters; ++w) {
        writers.emplace_back([&shared, &hits, op] {
          ShardedWriteBuffer buffer(shared);
          for (std::uint64_t i = 0; i < kTuples; ++i) {
            const Tuple t = T2(Scatter(i), static_cast<std::int64_t>(i));
            if (op == Relation::kOpInsert) {
              buffer.StageInsert(t);
            } else {
              buffer.StageErase(t);
            }
          }
          buffer.Flush([&hits, op](std::uint8_t row_op, RowView row,
                                   bool took_effect) {
            EXPECT_EQ(row_op, op);
            if (took_effect) {
              hits[static_cast<std::size_t>(row[1].AsInt())].fetch_add(
                  1, std::memory_order_relaxed);
            }
          });
        });
      }
      for (std::thread& writer : writers) {
        writer.join();
      }
      shared.Quiesce();
      for (std::uint64_t i = 0; i < kTuples; ++i) {
        EXPECT_EQ(hits[i].load(), 1u) << "op " << int{op} << " row " << i;
      }
    };
    race(Relation::kOpInsert);
    EXPECT_EQ(shared.Size(), kTuples);
    race(Relation::kOpErase);
    EXPECT_EQ(shared.Size(), 0u);
    EXPECT_FALSE(shared.HasPending());
  }
}

TEST(ShardTest, PublishersRaceAgainstADedicatedAbsorber) {
  // A third party may drain pending lists at any time; publishers must
  // coexist with it (WaitApplied assists rather than assuming ownership).
  constexpr std::size_t kWriters = 3;
  constexpr std::uint64_t kPerWriter = 3000;
  Relation shared(2, 4);
  std::atomic<bool> stop{false};
  std::thread absorber([&shared, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (std::size_t s = 0; s < shared.NumShards(); ++s) {
        shared.TryAbsorb(s);
      }
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (std::size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&shared, w] {
      ShardedWriteBuffer buffer(shared);
      for (std::uint64_t i = 0; i < kPerWriter; ++i) {
        buffer.StageInsert(
            T2(Scatter(w * kPerWriter + i), static_cast<std::int64_t>(w)));
        if (i % 512 == 511) {
          buffer.Flush();
        }
      }
      buffer.Flush();
    });
  }
  for (std::thread& writer : writers) {
    writer.join();
  }
  stop.store(true, std::memory_order_relaxed);
  absorber.join();
  shared.Quiesce();
  EXPECT_EQ(shared.Size(), kWriters * kPerWriter);
}

TEST(ShardTest, PublishedBlockGrowthWithErasesMatchesSerialStore) {
  // Publishers with interleaved erases and a dedicated absorber drive each
  // shard past three arena blocks, so tail blocks are allocated (and,
  // when an erase empties one, freed) by whichever thread absorbs.
  constexpr std::size_t kWriters = 3;
  constexpr std::uint64_t kPerWriter = 12000;
  constexpr std::uint64_t kBatch = 600;
  constexpr std::size_t kShards = 2;
  const auto tuple = [](std::uint64_t w, std::uint64_t i) {
    return T2(Scatter(w * kPerWriter + i), static_cast<std::int64_t>(w));
  };
  // Each batch inserts kBatch tuples, then erases every fourth of them.
  Relation serial(2, kShards);
  for (std::uint64_t w = 0; w < kWriters; ++w) {
    for (std::uint64_t start = 0; start < kPerWriter; start += kBatch) {
      for (std::uint64_t i = start; i < start + kBatch; ++i) {
        serial.Insert(tuple(w, i));
      }
      for (std::uint64_t i = start; i < start + kBatch; i += 4) {
        serial.Erase(tuple(w, i));
      }
    }
  }

  Relation shared(2, kShards);
  std::atomic<bool> stop{false};
  std::thread absorber([&shared, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (std::size_t s = 0; s < shared.NumShards(); ++s) {
        shared.TryAbsorb(s);
      }
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (std::uint64_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&shared, &tuple, w] {
      ShardedWriteBuffer buffer(shared);
      for (std::uint64_t start = 0; start < kPerWriter; start += kBatch) {
        for (std::uint64_t i = start; i < start + kBatch; ++i) {
          buffer.StageInsert(tuple(w, i));
        }
        buffer.Flush();
        for (std::uint64_t i = start; i < start + kBatch; i += 4) {
          buffer.StageErase(tuple(w, i));
        }
        buffer.Flush();
      }
    });
  }
  for (std::thread& writer : writers) {
    writer.join();
  }
  stop.store(true, std::memory_order_relaxed);
  absorber.join();
  shared.Quiesce();
  for (std::size_t s = 0; s < kShards; ++s) {
    EXPECT_GT(shared.ShardSize(s), 3 * Relation::kBlockRows) << s;
  }
  EXPECT_EQ(Sorted(shared), Sorted(serial));
  for (const Tuple& t : serial.Tuples()) {
    ASSERT_TRUE(shared.Contains(t));
  }
}

}  // namespace
}  // namespace dsched::datalog
