// Focused tests for the storage layer details the incremental engine leans
// on: copy semantics, append-only index extension, predicate extension, the
// block arena, and the snapshot-free OldStateView.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "datalog/incremental.hpp"
#include "datalog/parser.hpp"
#include "datalog/relation.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace dsched::datalog {
namespace {

Tuple T2(int a, int b) { return {Value::Int(a), Value::Int(b)}; }

TEST(RelationStoreCopyTest, CopyIsDeepAndCacheFresh) {
  const Program p = ParseProgram("e(a, b).");
  RelationStore store(p);
  const auto e = p.PredicateId("e");
  store.Of(e).Insert(T2(1, 2));
  // Warm the index cache.
  EXPECT_EQ(store.Lookup(e, {0}, {Value::Int(1)}).size(), 1u);

  RelationStore copy = store;
  copy.Of(e).Insert(T2(3, 4));
  EXPECT_EQ(copy.Of(e).Size(), 2u);
  EXPECT_EQ(store.Of(e).Size(), 1u);  // deep copy: original untouched
  // The copy's cache starts fresh and still answers correctly.
  EXPECT_EQ(copy.Lookup(e, {0}, {Value::Int(3)}).size(), 1u);
  EXPECT_EQ(store.Lookup(e, {0}, {Value::Int(3)}).size(), 0u);
}

TEST(RelationStoreCopyTest, AssignmentResetsCache) {
  const Program p = ParseProgram("e(a, b).");
  RelationStore a(p);
  RelationStore b(p);
  const auto e = p.PredicateId("e");
  a.Of(e).Insert(T2(1, 2));
  EXPECT_EQ(b.Lookup(e, {0}, {Value::Int(1)}).size(), 0u);  // warm b's cache
  b = a;
  EXPECT_EQ(b.Lookup(e, {0}, {Value::Int(1)}).size(), 1u);
}

TEST(RelationStoreTest, MetricsExportIsPrefixIsolated) {
  // Single-tenant regression for the service layer: two stores exporting
  // into ONE registry must not clobber each other.  The prefix parameter
  // (default "store.") is how sessions isolate — the host exports each
  // session's store under "session.<name>.store.".
  const Program p = ParseProgram("e(a, b).");
  RelationStore one(p);
  RelationStore two(p);
  const auto e = p.PredicateId("e");
  one.Of(e).Insert(T2(1, 2));
  two.Of(e).Insert(T2(1, 2));
  two.Of(e).Insert(T2(3, 4));
  obs::MetricsRegistry registry;
  one.ExportMetrics(registry, "session.a.store.");
  two.ExportMetrics(registry, "session.b.store.");
  EXPECT_EQ(registry.Value("session.a.store.rows"), 1u);
  EXPECT_EQ(registry.Value("session.b.store.rows"), 2u);
  EXPECT_GT(registry.Value("session.a.store.bytes"), 0u);
  EXPECT_EQ(registry.Value("session.a.store.bytes"), one.MemoryBytes());
  EXPECT_EQ(registry.Value("session.b.store.bytes"), two.MemoryBytes());
  // Re-export after divergence keeps the other prefix untouched.
  const std::uint64_t b_bytes = registry.Value("session.b.store.bytes");
  for (int i = 0; i < 64; ++i) {
    one.Of(e).Insert(T2(5, i));
  }
  one.ExportMetrics(registry, "session.a.store.");
  EXPECT_EQ(registry.Value("session.a.store.rows"), 65u);
  EXPECT_EQ(registry.Value("session.b.store.rows"), 2u);
  EXPECT_EQ(registry.Value("session.a.store.bytes"), one.MemoryBytes());
  EXPECT_EQ(registry.Value("session.b.store.bytes"), b_bytes);
}

TEST(RelationStoreTest, AppendOnlyIndexExtension) {
  const Program p = ParseProgram("e(a, b).");
  RelationStore store(p);
  const auto e = p.PredicateId("e");
  store.Of(e).Insert(T2(1, 10));
  EXPECT_EQ(store.Lookup(e, {0}, {Value::Int(1)}).size(), 1u);
  // Pure appends: the cached index must pick up new rows without losing the
  // old ones.
  store.Of(e).Insert(T2(1, 11));
  store.Of(e).Insert(T2(2, 20));
  EXPECT_EQ(store.Lookup(e, {0}, {Value::Int(1)}).size(), 2u);
  EXPECT_EQ(store.Lookup(e, {0}, {Value::Int(2)}).size(), 1u);
  // An erase invalidates row ids; the rebuilt index must be exact.
  store.Of(e).Erase(T2(1, 10));
  const auto rows = store.Lookup(e, {0}, {Value::Int(1)});
  ASSERT_EQ(rows.size(), 1u);
  const RowView survivor = store.RowAt(e, rows[0]);
  EXPECT_EQ(Tuple(survivor.begin(), survivor.end()), T2(1, 11));
}

TEST(RelationStoreTest, EraseEpochAdvancesOnlyOnErase) {
  Relation r(2);
  const auto epoch0 = r.EraseEpoch();
  r.Insert(T2(1, 2));
  EXPECT_EQ(r.EraseEpoch(), epoch0);
  r.Erase(T2(1, 2));
  EXPECT_GT(r.EraseEpoch(), epoch0);
}

TEST(RelationStoreTest, EnsurePredicatesExtends) {
  Program p = ParseProgram("e(a, b).");
  RelationStore store(p);
  EXPECT_EQ(store.NumRelations(), 1u);
  ExtendProgram(p, "f(X, Y, Z) :- e(X, Y), e(Y, Z).");
  store.EnsurePredicates(p);
  EXPECT_EQ(store.NumRelations(), 2u);
  EXPECT_EQ(store.Of(p.PredicateId("f")).Arity(), 3u);
  // Idempotent.
  store.EnsurePredicates(p);
  EXPECT_EQ(store.NumRelations(), 2u);
}

TEST(RelationEraseTest, SwapRemovalMovesOnlyTheLastRow) {
  // A single shard gives dense row ids, so the swap-removal contract can be
  // observed through Row() directly.
  Relation r(2, 1);
  r.Insert(T2(1, 1));
  r.Insert(T2(2, 2));
  r.Insert(T2(3, 3));
  r.Insert(T2(4, 4));
  // Erasing a middle row compacts by moving the LAST row into its slot;
  // every other row id is stable.
  ASSERT_TRUE(r.Erase(T2(2, 2)));
  EXPECT_EQ(r.Size(), 3u);
  const RowView row0 = r.Row(0);
  const RowView row1 = r.Row(1);
  EXPECT_EQ(Tuple(row0.begin(), row0.end()), T2(1, 1));
  EXPECT_EQ(Tuple(row1.begin(), row1.end()), T2(4, 4));  // moved from id 3
  // Membership survives the move for every remaining tuple.
  EXPECT_TRUE(r.Contains(T2(1, 1)));
  EXPECT_TRUE(r.Contains(T2(3, 3)));
  EXPECT_TRUE(r.Contains(T2(4, 4)));
  EXPECT_FALSE(r.Contains(T2(2, 2)));
}

TEST(RelationEraseTest, EraseLastRowIsPureTruncation) {
  Relation r(2, 1);
  r.Insert(T2(1, 1));
  r.Insert(T2(2, 2));
  ASSERT_TRUE(r.Erase(T2(2, 2)));
  const RowView row0 = r.Row(0);
  EXPECT_EQ(Tuple(row0.begin(), row0.end()), T2(1, 1));
  EXPECT_TRUE(r.Contains(T2(1, 1)));
}

TEST(RelationEraseTest, InterleavedInsertEraseMatchesReferenceSet) {
  // Deterministic mixed workload against a reference model: exercises
  // backward-shift deletion and slot repointing under collision pressure
  // (keys dense in [0, 64) force probe chains at small table sizes).
  Relation r(2);
  std::vector<Tuple> model;
  std::uint64_t rng = 0x1234567887654321ULL;
  const auto next = [&rng]() {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  for (int step = 0; step < 4000; ++step) {
    const int a = static_cast<int>(next() % 64);
    const int b = static_cast<int>(next() % 8);
    const Tuple t = T2(a, b);
    const auto it = std::find(model.begin(), model.end(), t);
    if (next() % 3 != 0) {
      EXPECT_EQ(r.Insert(t), it == model.end());
      if (it == model.end()) {
        model.push_back(t);
      }
    } else {
      EXPECT_EQ(r.Erase(t), it != model.end());
      if (it != model.end()) {
        model.erase(it);
      }
    }
  }
  ASSERT_EQ(r.Size(), model.size());
  std::vector<Tuple> got = r.Tuples();
  std::sort(got.begin(), got.end());
  std::sort(model.begin(), model.end());
  EXPECT_EQ(got, model);
}

TEST(RelationEraseTest, EraseEpochGatesIndexRebuild) {
  // The EraseEpoch contract: pure appends keep the epoch (the cached index
  // may extend in place), any erase advances it (row ids shifted, caches
  // must rebuild).  Interleave the two and check the index stays exact.
  const Program p = ParseProgram("e(a, b).");
  RelationStore store(p);
  const auto e = p.PredicateId("e");
  const auto epoch0 = store.Of(e).EraseEpoch();
  for (int i = 0; i < 16; ++i) {
    store.Of(e).Insert(T2(i % 4, i));
  }
  EXPECT_EQ(store.Of(e).EraseEpoch(), epoch0);
  EXPECT_EQ(store.Lookup(e, {0}, {Value::Int(1)}).size(), 4u);

  store.Of(e).Erase(T2(1, 5));
  const auto epoch1 = store.Of(e).EraseEpoch();
  EXPECT_GT(epoch1, epoch0);
  EXPECT_EQ(store.Lookup(e, {0}, {Value::Int(1)}).size(), 3u);

  // Appends after the rebuild extend without another epoch bump, and row
  // ids handed back by the index must address the right arena rows.
  store.Of(e).Insert(T2(1, 99));
  EXPECT_EQ(store.Of(e).EraseEpoch(), epoch1);
  const auto rows = store.Lookup(e, {0}, {Value::Int(1)});
  EXPECT_EQ(rows.size(), 4u);
  for (const auto id : rows) {
    EXPECT_EQ(store.RowAt(e, id)[0], Value::Int(1));
  }
}

// --- Block arena ----------------------------------------------------------
//
// Rows past the first kBlockRows of a shard live in fixed tail blocks; these
// tests drive shards across block boundaries in both directions and check
// every read path against a reference set.

constexpr std::int64_t kKeys = 97;  // distinct column-0 keys for Lookup

// Tuple i of the block-arena tests: column 0 is a small lookup key,
// column 1 makes the tuple unique.
Tuple BlockTuple(std::uint64_t i) {
  return {Value::Int(static_cast<std::int64_t>(
              (i * 0x9e3779b97f4a7c15ULL >> 40) % kKeys)),
          Value::Int(static_cast<std::int64_t>(i))};
}

// Checks `pred` of `store` against `model` through Contains, Tuples,
// Row/ForEachRow and a cached-index Lookup on column 0; every tuple of
// `absent` must be reported missing.  Reports only the first mismatch, so a
// broken store fails with one short message.
testing::AssertionResult MatchesModel(const RelationStore& store,
                                      std::uint32_t pred,
                                      const std::set<Tuple>& model,
                                      const std::vector<Tuple>& absent = {}) {
  const Relation& r = store.Of(pred);
  if (r.Size() != model.size()) {
    return testing::AssertionFailure()
           << "Size " << r.Size() << " != " << model.size();
  }
  for (const Tuple& t : model) {
    if (!r.Contains(t)) {
      return testing::AssertionFailure() << "missing " << t[1].AsInt();
    }
  }
  for (const Tuple& t : absent) {
    if (r.Contains(t)) {
      return testing::AssertionFailure() << "erased " << t[1].AsInt()
                                         << " still present";
    }
  }
  const std::vector<Tuple> tuples = r.Tuples();
  if (std::set<Tuple>(tuples.begin(), tuples.end()) != model) {
    return testing::AssertionFailure() << "Tuples() differs";
  }
  std::set<Tuple> scanned;
  std::size_t mismatched = 0;
  r.ForEachRow([&](std::uint32_t id, RowView row) {
    const RowView by_id = r.Row(id);
    if (!std::equal(row.begin(), row.end(), by_id.begin(), by_id.end())) {
      ++mismatched;
    }
    scanned.emplace(row.begin(), row.end());
  });
  if (mismatched != 0 || scanned != model) {
    return testing::AssertionFailure()
           << "ForEachRow differs (" << mismatched << " rows unlike Row(id))";
  }
  std::map<std::int64_t, std::set<Tuple>> by_key;
  for (const Tuple& t : model) {
    by_key[t[0].AsInt()].insert(t);
  }
  for (std::int64_t key = 0; key < kKeys; ++key) {
    std::set<Tuple> found;
    for (const std::uint32_t id :
         store.Lookup(pred, {0}, {Value::Int(key)})) {
      const RowView row = store.RowAt(pred, id);
      found.emplace(row.begin(), row.end());
    }
    if (found != by_key[key]) {
      return testing::AssertionFailure() << "Lookup of key " << key
                                         << " differs";
    }
  }
  return testing::AssertionSuccess();
}

class BlockArenaTest : public testing::Test {
 protected:
  static constexpr std::uint32_t kBlock = Relation::kBlockRows;
  static constexpr std::size_t kBlockBytes = kBlock * 2 * sizeof(Value);

  BlockArenaTest() : program_(ParseProgram("e(a, b).")) {
    e_ = program_.PredicateId("e");
  }

  // Inserts tuples next_ .. next_ + n - 1 into `store` and the model.
  void Grow(RelationStore& store, std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i, ++next_) {
      ASSERT_TRUE(store.Of(e_).Insert(BlockTuple(next_)));
      model_.insert(BlockTuple(next_));
    }
  }

  // Erases `t` from `store` and the model, remembering it as absent.
  void EraseOne(RelationStore& store, const Tuple& t) {
    ASSERT_TRUE(store.Of(e_).Erase(t));
    model_.erase(t);
    erased_.push_back(t);
  }

  Program program_;
  std::uint32_t e_ = 0;
  std::uint64_t next_ = 0;
  std::set<Tuple> model_;
  std::vector<Tuple> erased_;
};

TEST_F(BlockArenaTest, GrowShrinkAndRegrowAcrossEveryBlockBoundary) {
  // One shard, so row ids are dense local ids and block boundaries are
  // directly observable.
  RelationStore store(program_, 1);
  Relation& r = store.Of(e_);
  Grow(store, 3 * kBlock + 100);
  ASSERT_TRUE(MatchesModel(store, e_, model_));

  // Swap-removal of a head-block row while tail blocks exist moves the
  // last row (in the last tail block) into the head block.
  {
    const std::uint32_t last = static_cast<std::uint32_t>(r.Size() - 1);
    const RowView tail = r.Row(last);
    const Tuple moved(tail.begin(), tail.end());
    const RowView head = r.Row(5);
    EraseOne(store, Tuple(head.begin(), head.end()));
    const RowView now = r.Row(5);
    EXPECT_EQ(Tuple(now.begin(), now.end()), moved);
  }
  ASSERT_TRUE(MatchesModel(store, e_, model_, erased_));

  // Erase back down to a few rows in a scattered order.  Each erase that
  // takes the shard to an exact multiple of kBlockRows empties the last
  // tail block, which must be freed.
  std::uint64_t rng = 0x243f6a8885a308d3ULL;
  std::size_t freed_blocks = 0;
  while (r.Size() > 40) {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    const RowView victim = r.Row(static_cast<std::uint32_t>(rng % r.Size()));
    const Tuple t(victim.begin(), victim.end());
    const std::size_t before = r.MemoryBytes();
    EraseOne(store, t);
    ASSERT_FALSE(HasFatalFailure());
    const std::size_t rows = r.Size();
    if (rows >= kBlock && rows % kBlock == 0) {
      ASSERT_EQ(r.MemoryBytes(), before - kBlockBytes) << rows << " rows";
      ++freed_blocks;
      ASSERT_TRUE(MatchesModel(store, e_, model_));
    } else {
      ASSERT_EQ(r.MemoryBytes(), before) << rows << " rows";
    }
  }
  EXPECT_EQ(freed_blocks, 3u);
  ASSERT_TRUE(MatchesModel(store, e_, model_, erased_));

  // Grow again past three blocks: freed blocks come back on demand.
  Grow(store, 3 * kBlock + 7);
  ASSERT_TRUE(MatchesModel(store, e_, model_, erased_));
}

TEST_F(BlockArenaTest, SlotTableDoublingsWithInterleavedErases) {
  // From an empty table, every shard's slot table doubles many times while
  // one step in three erases a present tuple — rehashes see tables that
  // backward-shift erases have already compacted.
  for (const std::size_t shards :
       {std::size_t{1}, std::size_t{4}, std::size_t{16}}) {
    SCOPED_TRACE(shards);
    model_.clear();
    erased_.clear();
    next_ = 0;
    RelationStore store(program_, shards);
    std::vector<Tuple> live;
    std::uint64_t rng = 0x9e3779b97f4a7c15ULL ^ shards;
    for (int step = 0; step < 60000; ++step) {
      rng ^= rng << 13;
      rng ^= rng >> 7;
      rng ^= rng << 17;
      if (rng % 3 == 0 && !live.empty()) {
        const std::size_t pick = (rng >> 8) % live.size();
        EraseOne(store, live[pick]);
        live[pick] = live.back();
        live.pop_back();
      } else {
        live.push_back(BlockTuple(next_));
        Grow(store, 1);
      }
      ASSERT_FALSE(HasFatalFailure());
      if (step % 15000 == 14999) {
        ASSERT_TRUE(MatchesModel(store, e_, model_, erased_));
      }
    }
    EXPECT_GT(model_.size(), 3u * kBlock);
  }
}

TEST_F(BlockArenaTest, CopyAndMoveOfAMultiBlockRelation) {
  RelationStore source(program_, 1);
  Grow(source, 3 * kBlock + 33);
  for (std::uint64_t i = 0; i < 3 * kBlock; i += 7) {
    EraseOne(source, BlockTuple(i));
  }
  ASSERT_TRUE(MatchesModel(source, e_, model_, erased_));  // warms the cache
  std::vector<std::pair<std::uint32_t, Tuple>> order;
  source.Of(e_).ForEachRow([&order](std::uint32_t id, RowView row) {
    order.emplace_back(id, Tuple(row.begin(), row.end()));
  });
  const auto same_order = [&order](const Relation& r) {
    std::size_t i = 0;
    std::size_t mismatched = 0;
    r.ForEachRow([&](std::uint32_t id, RowView row) {
      if (i >= order.size() || order[i].first != id ||
          order[i].second != Tuple(row.begin(), row.end())) {
        ++mismatched;
      }
      ++i;
    });
    return mismatched == 0 && i == order.size();
  };

  // Copy construction keeps row ids, and the copy is independent.
  RelationStore copied(source);
  ASSERT_TRUE(MatchesModel(copied, e_, model_, erased_));
  EXPECT_TRUE(same_order(copied.Of(e_)));
  ASSERT_TRUE(copied.Of(e_).Insert(T2(-1, -1)));
  ASSERT_TRUE(copied.Of(e_).Erase(BlockTuple(1)));
  ASSERT_TRUE(MatchesModel(source, e_, model_, erased_));

  // Copy assignment over a populated relation.
  RelationStore assigned(program_, 1);
  assigned.Of(e_).Insert(T2(-2, -2));
  assigned = source;
  ASSERT_TRUE(MatchesModel(assigned, e_, model_, erased_));
  EXPECT_TRUE(same_order(assigned.Of(e_)));
  EXPECT_LE(assigned.Of(e_).MemoryBytes(), source.Of(e_).MemoryBytes());

  // Move construction and move assignment hand the blocks over.
  Relation moved(std::move(assigned.Of(e_)));
  EXPECT_TRUE(same_order(moved));
  RelationStore target(program_, 1);
  target.Of(e_).Insert(T2(-3, -3));
  target.Of(e_) = std::move(moved);
  ASSERT_TRUE(MatchesModel(target, e_, model_, erased_));
  EXPECT_TRUE(same_order(target.Of(e_)));
  Grow(target, kBlock);  // the moved-to relation keeps growing normally
  ASSERT_TRUE(MatchesModel(target, e_, model_, erased_));
}

TEST(TupleHashTest, MixesAllWordsAcrossBucketRanges) {
  // Structured keys (sequential ints, grid pairs) must spread over both the
  // low and the high hash bits — the byte-extracted bucket histograms stay
  // near uniform.  A multiplicative word mixer passes easily; an xor/shift
  // identity-style hash concentrates sequential keys and fails.
  const auto check_spread = [](const std::vector<std::uint64_t>& hashes) {
    for (const int shift : {0, 56}) {
      std::vector<int> buckets(256, 0);
      for (const std::uint64_t h : hashes) {
        ++buckets[(h >> shift) & 0xff];
      }
      const double expected =
          static_cast<double>(hashes.size()) / 256.0;
      for (const int count : buckets) {
        EXPECT_LT(count, expected * 4.0)
            << "bucket overload at shift " << shift;
      }
    }
  };
  std::vector<std::uint64_t> seq;
  std::vector<std::uint64_t> grid;
  for (int i = 0; i < 4096; ++i) {
    seq.push_back(TupleHash{}(Tuple{Value::Int(i)}));
    grid.push_back(TupleHash{}(T2(i % 64, i / 64)));
  }
  check_spread(seq);
  check_spread(grid);

  // No 64-bit collisions on these small structured sets.
  for (auto* hs : {&seq, &grid}) {
    std::sort(hs->begin(), hs->end());
    EXPECT_EQ(std::adjacent_find(hs->begin(), hs->end()), hs->end());
  }

  // Arity participates: a tuple must not collide with its prefix.
  EXPECT_NE(TupleHash{}(Tuple{Value::Int(7)}),
            TupleHash{}(T2(7, 0)));
}

class OldStateViewTest : public testing::Test {
 protected:
  OldStateViewTest() : program_(ParseProgram("e(a, b). d(a, b).")) {
    store_ = RelationStore(program_);
    e_ = program_.PredicateId("e");
    net_.resize(program_.NumPredicates());
  }

  Program program_;
  RelationStore store_;
  std::uint32_t e_ = 0;
  std::vector<PredicateDelta> net_;
};

TEST_F(OldStateViewTest, ReflectsNetInsertionsAsAbsent) {
  store_.Of(e_).Insert(T2(1, 2));  // pre-existing
  store_.Of(e_).Insert(T2(3, 4));  // inserted by this update
  net_[e_].inserted.push_back(T2(3, 4));
  const OldStateView view(store_, net_, {e_});
  EXPECT_TRUE(view.ContainsTuple(e_, T2(1, 2)));
  EXPECT_FALSE(view.ContainsTuple(e_, T2(3, 4)));  // not in the old state
}

TEST_F(OldStateViewTest, ReflectsNetDeletionsAsPresent) {
  store_.Of(e_).Insert(T2(1, 2));
  net_[e_].deleted.push_back(T2(9, 9));  // deleted earlier in this update
  const OldStateView view(store_, net_, {e_});
  EXPECT_TRUE(view.ContainsTuple(e_, T2(9, 9)));
  EXPECT_FALSE(view.ContainsTuple(e_, T2(7, 7)));
}

TEST_F(OldStateViewTest, LookupMergesLiveAndExtras) {
  store_.Of(e_).Insert(T2(1, 2));
  store_.Of(e_).Insert(T2(1, 3));  // live, but inserted by the update
  net_[e_].inserted.push_back(T2(1, 3));
  net_[e_].deleted.push_back(T2(1, 4));  // old-only
  const OldStateView view(store_, net_, {e_});
  const auto ids = view.Lookup(e_, {0}, {Value::Int(1)});
  // Old state for key 1: (1,2) live + (1,4) extra; (1,3) filtered out.
  ASSERT_EQ(ids.size(), 2u);
  std::vector<Tuple> rows;
  for (const auto id : ids) {
    const RowView row = view.RowAt(e_, id);
    rows.emplace_back(row.begin(), row.end());
  }
  std::sort(rows.begin(), rows.end());
  EXPECT_EQ(rows[0], T2(1, 2));
  EXPECT_EQ(rows[1], T2(1, 4));
}

TEST_F(OldStateViewTest, AddDeletedExtraGrowsTheView) {
  store_.Of(e_).Insert(T2(1, 2));
  OldStateView view(store_, net_, {e_});
  // Simulate a phase erasing (1,2): live loses it, the view keeps it.
  view.AddDeletedExtra(e_, T2(1, 2));
  store_.Of(e_).Erase(T2(1, 2));
  EXPECT_TRUE(view.ContainsTuple(e_, T2(1, 2)));
  const auto ids = view.Lookup(e_, {0}, {Value::Int(1)});
  ASSERT_EQ(ids.size(), 1u);
  const RowView row = view.RowAt(e_, ids[0]);
  EXPECT_EQ(Tuple(row.begin(), row.end()), T2(1, 2));
}

TEST_F(OldStateViewTest, IrrelevantPredicatesAreNotSnapshotted) {
  const auto d = program_.PredicateId("d");
  store_.Of(d).Insert(T2(5, 5));
  net_[d].inserted.push_back(T2(5, 5));
  // View built WITHOUT d in the relevant set: d's delta is ignored (the
  // phase would never read it), so the live tuple shows through.
  const OldStateView view(store_, net_, {e_});
  EXPECT_TRUE(view.ContainsTuple(d, T2(5, 5)));
}

}  // namespace
}  // namespace dsched::datalog
