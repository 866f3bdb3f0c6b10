// Tuple storage: hash-sharded relations, the per-program relation store, and
// cached column indexes for joins.
//
// Layout: a Relation is partitioned into P independent shards by a stable
// tuple-hash (P a power of two, fixed at construction).  Each shard keeps its
// rows in a block arena of tagged words (`arity` Values per row, contiguous
// within a block) with an open-addressing (linear-probe, backward-shift-
// delete) hash table over shard-local row ids for O(1) membership.  A row
// costs its values plus one slot word: no per-tuple heap allocation, no
// per-row hash array — a membership probe touches one shard's slot array
// and the candidate's arena words only.
//
// Row ids are encoded as (local_row << shard_bits) | shard, so decoding a
// public row id costs two shifts and ids from different shards never collide.
// Bit 31 is reserved (kExtraBit) for overlay views (OldStateView) that need
// to hand out ids for rows not present in the relation.
//
// Concurrency: distinct shards are disjoint down to the allocator, so
// concurrent writers touching different shards never contend.  Writers that
// cannot prove shard ownership stage rows into DeltaChunks and publish them
// with one atomic list-append per shard (MPSC); any thread may then absorb
// the pending chunks into the shard under a per-shard exclusive flag.  See
// delta_buffer.hpp for the worker-side staging buffer.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "datalog/ast.hpp"
#include "datalog/value.hpp"

namespace dsched::obs {
class MetricsRegistry;
}  // namespace dsched::obs

namespace dsched::datalog {

/// A set of tuples of fixed arity with O(1) membership, hash-partitioned
/// into independent shards.  Iteration order is shard-major (shard 0's rows
/// in insertion order, then shard 1's, ...), modulo swap-removal on erase.
class Relation {
 public:
  /// Default shard count.  Power of two; 1 degenerates to the unsharded
  /// store (dense row ids, single arena).
  static constexpr std::size_t kDefaultShards = 4;

  /// Rows per arena block (see Shard).  Shard-local row `local` lives in
  /// block `local >> kBlockShift` at offset `local & (kBlockRows - 1)`.
  static constexpr std::uint32_t kBlockShift = 12;
  static constexpr std::uint32_t kBlockRows = 1u << kBlockShift;

  /// Reserved id bit for overlay views: row ids produced by a Relation are
  /// always < 2^31, so views layered on top (OldStateView) can tag ids of
  /// rows that live outside the relation.
  static constexpr std::uint32_t kExtraBit = 0x80000000u;

  /// Delta-publication ops.
  static constexpr std::uint8_t kOpErase = 0;
  static constexpr std::uint8_t kOpInsert = 1;

  /// Per-op outcome codes written to DeltaChunk::results: kChanged = the
  /// insert was fresh / the erase found its row.
  static constexpr std::uint8_t kNoChange = 0;
  static constexpr std::uint8_t kChanged = 1;

  /// A batch of staged mutations for one shard, published by a writer and
  /// applied by whichever thread absorbs the shard's pending list.  The
  /// publisher owns the chunk's storage; it must not touch any field after
  /// Publish() until `applied` reads true (acquire), at which point
  /// `results[i]` says whether op i took effect (insert was fresh / erase
  /// found its row).
  struct DeltaChunk {
    std::vector<Value> values;          ///< count × arity staged words
    std::vector<std::uint64_t> hashes;  ///< per staged row, full tuple hash
    std::vector<std::uint8_t> ops;      ///< per row: kOpInsert/kOpErase
    std::vector<std::uint8_t> results;  ///< absorber-written outcome per row
    DeltaChunk* next = nullptr;         ///< intrusive pending-list link
    std::atomic<bool> applied{false};

    [[nodiscard]] std::size_t Count() const { return hashes.size(); }
    void Reset() {
      values.clear();
      hashes.clear();
      ops.clear();
      results.clear();
      next = nullptr;
      applied.store(false, std::memory_order_relaxed);
    }
  };

  explicit Relation(std::size_t arity = 0,
                    std::size_t shards = kDefaultShards);

  Relation(const Relation& other);
  Relation& operator=(const Relation& other);
  Relation(Relation&& other) noexcept;
  Relation& operator=(Relation&& other) noexcept;
  ~Relation() = default;

  [[nodiscard]] std::size_t Arity() const { return arity_; }
  [[nodiscard]] std::size_t Size() const;
  [[nodiscard]] bool Empty() const { return Size() == 0; }

  [[nodiscard]] std::size_t NumShards() const { return num_shards_; }
  [[nodiscard]] std::size_t ShardBits() const { return shard_bits_; }

  /// Shard owning a tuple with hash `hash`.  Uses bits 24..31 of the hash;
  /// a membership entry's home slot and tag both come from the high 32
  /// bits, so shard choice stays independent of probe placement at any
  /// slot-table size.
  [[nodiscard]] std::size_t ShardOfHash(std::uint64_t hash) const {
    return static_cast<std::size_t>(hash >> 24) & shard_mask_;
  }
  [[nodiscard]] std::size_t ShardOfTuple(RowView tuple) const {
    return ShardOfHash(HashValues(tuple));
  }

  /// Public row id for a shard-local row.
  [[nodiscard]] std::uint32_t EncodeRowId(std::size_t shard,
                                          std::uint32_t local) const {
    return (local << shard_bits_) | static_cast<std::uint32_t>(shard);
  }

  /// Rows currently in `shard`.
  [[nodiscard]] std::uint32_t ShardSize(std::size_t shard) const {
    return shards_[shard].num_rows.load(std::memory_order_relaxed);
  }

  /// Per-shard monotone change counter (see Version()).
  [[nodiscard]] std::uint64_t ShardVersion(std::size_t shard) const {
    return shards_[shard].version.load(std::memory_order_relaxed);
  }

  /// Per-shard erase counter (see EraseEpoch()).  While a shard's epoch is
  /// unchanged, its previously assigned row ids are stable and inserts
  /// strictly append.
  [[nodiscard]] std::uint64_t ShardEraseEpoch(std::size_t shard) const {
    return shards_[shard].erase_epoch.load(std::memory_order_relaxed);
  }

  /// The row at public id `row` as a view into its shard's arena.  Valid
  /// until the next Insert (growing the first block moves its rows) or
  /// Erase (swap-removal may overwrite it).
  [[nodiscard]] RowView Row(std::uint32_t row) const {
    return {RowData(shards_[row & shard_mask_], row >> shard_bits_), arity_};
  }

  /// The shard-local row `local` of `shard`.
  [[nodiscard]] RowView ShardRow(std::size_t shard,
                                 std::uint32_t local) const {
    return {RowData(shards_[shard], local), arity_};
  }

  /// Calls fn(public_row_id, row_view) for every row, shard-major.
  template <typename Fn>
  void ForEachRow(Fn&& fn) const {
    for (std::size_t s = 0; s < num_shards_; ++s) {
      const Shard& shard = shards_[s];
      const std::uint32_t n = shard.num_rows.load(std::memory_order_relaxed);
      for (std::uint32_t base = 0; base < n; base += kBlockRows) {
        const Value* block = shard.blocks[base >> kBlockShift].get();
        const std::uint32_t end = std::min(n, base + kBlockRows);
        for (std::uint32_t local = base; local < end; ++local) {
          fn(EncodeRowId(s, local),
             RowView{block + std::size_t{local - base} * arity_, arity_});
        }
      }
    }
  }

  /// Materialized copy of all rows (tests, Query), shard-major order.
  [[nodiscard]] std::vector<Tuple> Tuples() const;

  /// True iff the tuple is present.
  [[nodiscard]] bool Contains(RowView tuple) const;
  [[nodiscard]] bool Contains(const Tuple& tuple) const {
    return Contains(RowView(tuple));
  }

  /// Inserts; returns true iff the tuple was new.  Bumps the owning shard's
  /// version.
  bool Insert(RowView tuple);
  bool Insert(const Tuple& tuple) { return Insert(RowView(tuple)); }

  /// Removes; returns true iff the tuple was present.  Bumps the owning
  /// shard's version and erase epoch.  The shard's last row is swapped into
  /// the erased slot (that shard's row ids above it shift).
  bool Erase(RowView tuple);
  bool Erase(const Tuple& tuple) { return Erase(RowView(tuple)); }

  /// Pre-sizes first blocks and hash tables for `rows` total rows (spread
  /// evenly across shards).  Tail blocks are allocated as rows arrive.
  void Reserve(std::size_t rows);

  /// Monotone change counter: the sum of per-shard versions.  Cached
  /// indexes check per-shard versions for staleness; the sum is only used
  /// by code that wants a single "did anything change" fingerprint.
  [[nodiscard]] std::uint64_t Version() const;

  /// Counts erasures only (sum of per-shard epochs).  While a shard's epoch
  /// is unchanged, that shard's row ids are stable and its inserts strictly
  /// append — the condition under which cached indexes extend incrementally
  /// instead of rebuilding.
  [[nodiscard]] std::uint64_t EraseEpoch() const;

  // --- Lock-free delta publication (MPSC per shard) -----------------------
  //
  // Protocol: a writer stages rows for shard S into a DeltaChunk (values /
  // hashes / ops filled, results sized to count) and calls
  // Publish(S, chunk): one release compare-exchange appends the chunk to
  // S's pending list.  Any thread may call TryAbsorb(S); the winner of the
  // per-shard absorbing flag drains the pending list FIFO, applies each
  // chunk with the shard's ordinary single-writer insert/erase code, fills
  // `results`, and stores `applied` with release.  A publisher that needs
  // read-your-writes calls WaitApplied(), which assists by absorbing
  // instead of spinning idle, so progress never depends on a particular
  // thread being scheduled.
  //
  // Safety contract (matches the engine's phase discipline): while chunks
  // may be in flight for a relation, no thread calls the direct mutators
  // (Insert/Erase/Reserve) or reads the shard's rows without first ensuring
  // its chunks applied.  Distinct relations are always independent.

  /// Appends a fully staged chunk to `shard`'s pending list.  The chunk
  /// must stay alive and untouched until `applied` reads true.
  void Publish(std::size_t shard, DeltaChunk* chunk);

  /// Attempts to drain `shard`'s pending list.  Returns false if another
  /// thread holds the shard's absorbing flag (its drain is in progress).
  /// Returns true once this thread has drained the list it observed.
  bool TryAbsorb(std::size_t shard);

  /// Blocks (assisting) until `chunk`, previously Publish()ed to `shard`,
  /// has been applied.
  void WaitApplied(std::size_t shard, const DeltaChunk& chunk);

  /// Drains every shard's pending list.  Single-threaded convenience for
  /// tests and teardown paths.
  void Quiesce();

  /// True if any shard has unapplied published chunks.
  [[nodiscard]] bool HasPending() const;

  // Publication counters (relaxed; monotone).
  [[nodiscard]] std::uint64_t PublishedChunks() const {
    return publish_chunks_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t PublishedRows() const {
    return publish_rows_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t AbsorbRuns() const {
    return absorb_runs_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t AbsorbWaits() const {
    return absorb_waits_.load(std::memory_order_relaxed);
  }

  /// Approximate resident bytes.
  [[nodiscard]] std::size_t MemoryBytes() const;

 private:
  static constexpr std::size_t kNoSlot = ~std::size_t{0};

  /// Frees a block allocated uninitialized by AllocateBlock.
  struct BlockFree {
    void operator()(Value* block) const noexcept { ::operator delete(block); }
  };
  using Block = std::unique_ptr<Value[], BlockFree>;

  /// One hash partition: block arena + membership table over shard-local
  /// row ids.  num_rows/version/erase_epoch are atomics only so observers
  /// on other threads (Size(), index freshness checks) read torn-free
  /// values; every mutation happens under exclusive ownership of the shard
  /// (direct writer or absorbing-flag holder).
  struct Shard {
    /// Block-pointer table.  blocks[0] holds rows [0, head_rows) and grows
    /// by doubling (copying its rows) up to kBlockRows rows; every later
    /// block holds exactly kBlockRows rows and never moves.  Slack is at
    /// most one block, growth past the first block copies nothing, and an
    /// erase that empties the last tail block frees it.
    std::vector<Block> blocks;
    std::uint32_t head_rows = 0;  ///< blocks[0] capacity in rows
    /// Hash-tagged slots: high 32 bits = hash tag (the hash's high 32
    /// bits), low 32 = local row id + 1; 0 = empty.  An entry's home slot
    /// is `tag & mask`, read from the word itself, so rehashing and
    /// backward-shift erase never need the row's hash again, and a probe
    /// rejects mismatched entries on the tag alone without touching the
    /// arena.
    std::vector<std::uint64_t> slots;
    std::atomic<std::uint32_t> num_rows{0};
    std::atomic<std::uint64_t> version{0};
    std::atomic<std::uint64_t> erase_epoch{0};
    std::atomic<DeltaChunk*> pending{nullptr};  ///< push-only Treiber list
    std::atomic<bool> absorbing{false};         ///< drain exclusion flag
  };

  void InitShards(std::size_t shards);
  void CopyFrom(const Relation& other);

  /// First word of shard-local row `local`.
  [[nodiscard]] Value* RowData(const Shard& shard,
                               std::uint32_t local) const {
    return shard.blocks[local >> kBlockShift].get() +
           std::size_t{local & (kBlockRows - 1)} * arity_;
  }

  /// Uninitialized storage for `rows` rows.
  [[nodiscard]] Block AllocateBlock(std::size_t rows) const;

  /// Regrows `shard`'s first block to `rows` rows, copying its live rows.
  void GrowHead(Shard& shard, std::uint32_t rows) const;

  /// Slot of `shard` whose entry matches `tuple` (hash `hash`), or kNoSlot.
  [[nodiscard]] std::size_t FindSlotLocal(const Shard& shard, RowView tuple,
                                          std::uint64_t hash) const;

  /// Rebuilds `shard`'s slot table at `capacity` (a power of two) by
  /// re-placing its slot words.
  static void RehashShard(Shard& shard, std::size_t capacity);

  /// Single-owner insert/erase into one shard (hash already computed).
  bool InsertLocal(Shard& shard, RowView tuple, std::uint64_t hash);
  bool EraseLocal(Shard& shard, RowView tuple, std::uint64_t hash);

  /// Applies one chunk to its shard; caller holds the absorbing flag.
  void ApplyChunk(Shard& shard, DeltaChunk& chunk);

  std::size_t arity_;
  std::size_t num_shards_ = 1;
  std::size_t shard_bits_ = 0;
  std::size_t shard_mask_ = 0;
  std::unique_ptr<Shard[]> shards_;
  std::atomic<std::uint64_t> publish_chunks_{0};
  std::atomic<std::uint64_t> publish_rows_{0};
  std::atomic<std::uint64_t> absorb_runs_{0};
  std::atomic<std::uint64_t> absorb_waits_{0};
};

/// One Relation per predicate of a program, plus a cache of column indexes
/// used by the join machinery.  The incremental engine never copies it:
/// overdeletions read the pre-update state through an OldStateView overlay
/// on the live store.  Copies (tests, benches) start with a fresh, empty
/// cache.
///
/// Thread compatibility: the parallel update engine runs component phases
/// concurrently.  Distinct phases never write the same Relation (the
/// dependency DAG's precedence guarantees it), but they do share the index
/// cache.  The cache keeps one atomic entry list per predicate: the
/// read-mostly path walks the list and checks per-shard version stamps with
/// acquire loads — no lock of any kind — and only a rebuild/extension takes
/// the predicate's refresh mutex.  A span returned by Lookup stays valid
/// after Prepare returns because an entry is only refreshed when its
/// relation's version moved, and a relation is never written while another
/// phase may be reading it.
class RelationStore {
 public:
  RelationStore() = default;
  /// Creates empty relations matching the program's predicate arities,
  /// each partitioned into `shards` hash shards.
  explicit RelationStore(const Program& program,
                         std::size_t shards = Relation::kDefaultShards);

  // Copies and moves transfer the relations and start with a fresh, empty
  // cache (the cache is a pure optimisation; nobody may be concurrently
  // reading either side of a copy/move).
  RelationStore(const RelationStore& other)
      : relations_(other.relations_), default_shards_(other.default_shards_) {
    ResetCaches();
  }
  RelationStore& operator=(const RelationStore& other) {
    if (this != &other) {
      relations_ = other.relations_;
      default_shards_ = other.default_shards_;
      ResetCaches();
    }
    return *this;
  }
  RelationStore(RelationStore&& other) noexcept
      : relations_(std::move(other.relations_)),
        default_shards_(other.default_shards_) {
    ResetCaches();
  }
  RelationStore& operator=(RelationStore&& other) noexcept {
    if (this != &other) {
      relations_ = std::move(other.relations_);
      default_shards_ = other.default_shards_;
      ResetCaches();
    }
    return *this;
  }

  /// Appends empty relations for predicates the program gained since this
  /// store was created (incremental rule changes may introduce new
  /// predicates).  Existing relations are untouched.
  void EnsurePredicates(const Program& program);

  [[nodiscard]] Relation& Of(std::uint32_t predicate);
  [[nodiscard]] const Relation& Of(std::uint32_t predicate) const;
  [[nodiscard]] std::size_t NumRelations() const { return relations_.size(); }

  /// Total tuples across all relations.
  [[nodiscard]] std::size_t TotalTuples() const;

  /// Row indices of `predicate` whose values at `columns` equal `key`
  /// (parallel vectors).  Backed by an open-addressing hash index cached
  /// per (predicate, column set), extended incrementally on pure appends
  /// and rebuilt after erasures.
  [[nodiscard]] std::span<const std::uint32_t> Lookup(
      std::uint32_t predicate, const std::vector<std::size_t>& columns,
      const Tuple& key) const;

  /// Number of distinct keys the cached index for (predicate, columns)
  /// holds, or 0 when no up-to-date index exists.  The join planner divides
  /// relation size by this fan-out to estimate lookup cardinality; 0 tells
  /// it to fall back to an independence assumption rather than build an
  /// index it might never use.
  [[nodiscard]] std::size_t IndexDistinct(
      std::uint32_t predicate, const std::vector<std::size_t>& columns) const;

  // --- Uniform join-source interface (shared with OldStateView so the
  // join machinery can be instantiated over either).
  [[nodiscard]] RowView RowAt(std::uint32_t predicate,
                              std::uint32_t row) const {
    return Of(predicate).Row(row);
  }
  [[nodiscard]] bool ContainsTuple(std::uint32_t predicate,
                                   RowView tuple) const {
    return Of(predicate).Contains(tuple);
  }
  [[nodiscard]] std::size_t RelationSize(std::uint32_t predicate) const {
    return Of(predicate).Size();
  }

  [[nodiscard]] std::size_t MemoryBytes() const;

  /// Publishes store counters as `<prefix>*` gauges/counters (see
  /// docs/OBSERVABILITY.md, "store.*").
  void ExportMetrics(obs::MetricsRegistry& registry,
                     const std::string& prefix = "store.") const;

 private:
  /// One cached column index, partitioned into sub-indexes by *key* hash
  /// (same bits as the relation's shard choice, so a probe touches exactly
  /// one sub-index).  A group stores no key tuple — its key IS the indexed
  /// columns of its first row, read straight from the relation's arena — so
  /// neither building nor probing ever materializes or re-hashes a heap
  /// key.  Freshness is tracked per relation shard: an extension only scans
  /// shards whose version moved, and publishes new per-shard stamps with
  /// release stores so the lock-free fast path can trust everything it
  /// reads after its acquire loads.
  struct CachedIndex {
    struct Group {
      std::uint64_t hash = 0;
      /// Representative row (== rows.front()), denormalized so a probe's
      /// key comparison reads the arena directly instead of chasing the
      /// rows vector's heap buffer first.
      std::uint32_t rep = 0;
      std::vector<std::uint32_t> rows;  ///< public row ids
    };
    /// One key-hash partition: hash-tagged slots (high 32 = tag, low 32 =
    /// group id + 1, 0 = empty) over `groups`.
    struct Sub {
      std::vector<std::uint64_t> slots;
      std::vector<Group> groups;
    };
    std::vector<Sub> subs;  ///< size = relation shard count
    /// Shard count the entry is initialized for; 0 until the first
    /// RefreshIndex finishes the init branch.  The lock-free fast path
    /// gates on this (acquire) instead of reading subs.size() / the
    /// seen_version pointer directly — entries are pushed onto the cache
    /// list before they are initialized, so those members may still be
    /// under construction when a reader first walks to the entry.
    std::atomic<std::size_t> ready_shards{0};
    /// Per relation shard: version stamp the index reflects.  Written with
    /// release after a refresh, read with acquire by the lock-free fast
    /// path; ~0 = never refreshed.
    std::unique_ptr<std::atomic<std::uint64_t>[]> seen_version;
    /// Per relation shard: erase epoch / row watermark the index reflects.
    /// Only touched under the refresh mutex.
    std::vector<std::uint64_t> seen_epoch;
    std::vector<std::uint32_t> rows_indexed;
    std::size_t total_groups = 0;
  };

  /// One intrusive cache entry per (predicate, column-bitmask); entries are
  /// pushed at the head under the refresh mutex and never removed, so a
  /// lock-free walk (acquire on head, plain next) is safe and a
  /// PreparedIndex pointer stays valid for the store's lifetime.
  struct CacheEntry {
    std::uint64_t mask = 0;
    CachedIndex index;
    CacheEntry* next = nullptr;
  };

  /// Per-predicate cache: lock-free entry list + refresh mutex.
  struct PredicateCache {
    std::atomic<CacheEntry*> head{nullptr};
    std::mutex refresh_mutex;
    ~PredicateCache() {
      CacheEntry* e = head.load(std::memory_order_relaxed);
      while (e != nullptr) {
        CacheEntry* next = e->next;
        delete e;
        e = next;
      }
    }
  };

 public:
  /// A resolved (predicate, column set) index, probe-able without locks.
  /// Obtain per rule application via Prepare(); valid while the underlying
  /// relation is unchanged — the same contract as a Lookup() span, which is
  /// what join levels already rely on.  `columns` must outlive the handle
  /// (the join plan owns it).
  struct PreparedIndex {
    const CachedIndex* cached = nullptr;
    const Relation* relation = nullptr;
    const std::vector<std::size_t>* columns = nullptr;
  };

  /// Brings the (predicate, columns) index up to date and hands back a
  /// lock-free probe handle.  When the index is already fresh this takes no
  /// lock at all: an acquire walk of the entry list plus one acquire load
  /// per relation shard.  The per-probe hot path then costs one hash and
  /// one open-addressing scan of a single sub-index.
  [[nodiscard]] PreparedIndex Prepare(
      std::uint32_t predicate, const std::vector<std::size_t>& columns) const;

  /// Rows matching `key` in a prepared index.
  [[nodiscard]] static std::span<const std::uint32_t> LookupPrepared(
      const PreparedIndex& prepared, const Tuple& key) {
    const CachedIndex::Group* group =
        FindGroup(*prepared.cached, *prepared.relation, *prepared.columns,
                  key, HashValues(key));
    return group == nullptr ? std::span<const std::uint32_t>()
                            : std::span<const std::uint32_t>(group->rows);
  }

  /// The row behind an id produced by LookupPrepared on the same handle.
  [[nodiscard]] static RowView RowIn(const PreparedIndex& prepared,
                                     std::uint32_t row) {
    return prepared.relation->Row(row);
  }

 private:
  /// Entry for `mask` in `cache`, or nullptr.  Lock-free.
  [[nodiscard]] static CacheEntry* FindEntry(const PredicateCache& cache,
                                             std::uint64_t mask);

  /// True iff `cached` reflects every shard of `relation` (acquire loads
  /// pair with RefreshIndex's release stores).
  [[nodiscard]] static bool IsFresh(const CachedIndex& cached,
                                    const Relation& relation);

  /// Brings an entry up to date with its relation; caller holds the
  /// predicate's refresh mutex.
  void RefreshIndex(CachedIndex& cached, const Relation& relation,
                    const std::vector<std::size_t>& columns) const;

  /// Group whose key equals `key` (hash `hash`), or nullptr.
  static const CachedIndex::Group* FindGroup(
      const CachedIndex& cached, const Relation& relation,
      const std::vector<std::size_t>& columns, RowView key,
      std::uint64_t hash);

  /// Recreates one empty cache per relation (caches are not copyable).
  void ResetCaches();

  std::vector<Relation> relations_;
  std::size_t default_shards_ = Relation::kDefaultShards;
  mutable std::vector<std::unique_ptr<PredicateCache>> caches_;
  // Cache-path counters (relaxed; monotone).
  mutable std::atomic<std::uint64_t> prepare_fast_{0};
  mutable std::atomic<std::uint64_t> prepare_locked_{0};
  mutable std::atomic<std::uint64_t> index_rebuilds_{0};
  mutable std::atomic<std::uint64_t> index_extend_rows_{0};
  mutable std::atomic<std::uint64_t> index_shard_skips_{0};
};

}  // namespace dsched::datalog
