// Incremental maintenance of a materialized Datalog program: insertions via
// semi-naive continuation, deletions via DRed (delete-and-rederive,
// Gupta-Mumick-Subrahmanian), with stratified negation handled in both
// directions (insertions into a negated predicate destroy derivations;
// deletions from one create them).
//
// This is the computation whose task graph the paper schedules: an update
// touches base predicates, the change cascades component by component down
// the dependency DAG, and a component whose inputs changed may or may not
// change its own output.  ComponentUpdateStats records exactly that; the
// parallel engine (parallel_update.hpp) runs the same phases over the
// program's activation graph and records each run as a JobTrace.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "datalog/eval.hpp"
#include "datalog/relation.hpp"
#include "datalog/stratify.hpp"

namespace dsched::datalog {

class StoreWriteBuffer;

/// A batch of base-fact changes.  Deletions apply before insertions, so a
/// tuple listed in both is present afterwards.
struct UpdateRequest {
  /// (predicate, tuple) pairs to add.  Already-present tuples are no-ops.
  std::vector<std::pair<std::uint32_t, Tuple>> insertions;
  /// (predicate, tuple) pairs to remove.  Absent tuples are no-ops.  A
  /// tuple still derivable by some rule is rederived, per DRed semantics.
  std::vector<std::pair<std::uint32_t, Tuple>> deletions;

  [[nodiscard]] bool Empty() const {
    return insertions.empty() && deletions.empty();
  }
};

/// What happened to one component during an update.
struct ComponentUpdateStats {
  std::uint32_t component = 0;
  /// Did any input (body predicate delta or base change to a member) touch
  /// this component?  — "activated" in the paper's model.
  bool input_changed = false;
  /// Did the component's own relations net-change? — "output changed".
  bool output_changed = false;
  std::size_t tuples_overdeleted = 0;
  std::size_t tuples_rederived = 0;
  std::size_t tuples_inserted = 0;  ///< net new tuples of member predicates
  std::size_t tuples_deleted = 0;   ///< net removed tuples
  // Maintenance-strategy effort (see maintenance.hpp).  maint_ops is the
  // uniform tuple-level operation count the strategies are compared on:
  // store mutations + derivability checks + backward probes of the
  // deletion pipeline.  Insertion-side work is excluded everywhere —
  // DRed's semi-naive continuation and B/F's forward phase — so the metric
  // compares what each strategy does about deletions, the axis they
  // actually differ on.
  std::size_t maint_ops = 0;
  std::size_t maint_backward_probes = 0;  ///< B/F: aliveness probes
  std::size_t maint_avoided = 0;  ///< deletions DRed would do, skipped here
  double seconds = 0.0;           ///< wall time spent on this component
  EvalStats eval;
};

/// Result of one Apply().
struct UpdateResult {
  std::vector<ComponentUpdateStats> components;  ///< in evaluation order
  std::size_t total_inserted = 0;
  std::size_t total_deleted = 0;
  std::size_t total_maint_ops = 0;  ///< summed ComponentUpdateStats::maint_ops
  double seconds = 0.0;

  [[nodiscard]] std::string ToString(const Program& program,
                                     const Stratification& strat) const;
};

/// Per-predicate tuple sets (index = predicate id).
using TupleSet = std::unordered_set<Tuple, TupleHash, TupleEq>;

/// Net change to one predicate, finalized when its component's phase ends.
struct PredicateDelta {
  std::vector<Tuple> inserted;
  std::vector<Tuple> deleted;

  [[nodiscard]] bool Empty() const { return inserted.empty() && deleted.empty(); }
};

/// Base changes grouped per predicate (index = predicate id).
struct GroupedBaseChanges {
  std::vector<std::vector<Tuple>> insertions;
  std::vector<std::vector<Tuple>> deletions;

  GroupedBaseChanges() = default;
  GroupedBaseChanges(const Program& program, const UpdateRequest& request);
};

/// Read-only view of the PRE-update contents of the store, expressed as the
/// live store minus this update's insertions plus its deletions — so DRed's
/// overdeletion can join against the old state without snapshotting the
/// database (the deltas are small; the database is not).  The insertions
/// are held as views into the finalized `net` rows, never copied.
///
/// Row-id space per predicate: ids without Relation::kExtraBit are live rows
/// (ids straight from the live store's indexes, so its caches are reused —
/// a live Relation never produces an id with bit 31 set), and ids with the
/// bit set address the "deleted extras" — tuples removed from the live store
/// that the old state still contains.  Member-phase deletions are appended
/// via AddDeletedExtra as the phase erases them.
///
/// Implements the same read interface as RelationStore (ContainsTuple /
/// RowAt / Lookup), which is what the join machinery is instantiated over.
class OldStateView {
 public:
  /// Overlays the deltas of exactly `relevant` predicates (the phase's
  /// rule-body predicates and members; duplicates are ignored).
  /// Restricting the read set is what keeps the parallel engine race-free:
  /// net entries of incomparable components may be mid-write, but they are
  /// never relevant here.  The `net[p].inserted` rows of relevant
  /// predicates must not change while the view lives.  Any other predicate
  /// reads as the live relation.
  OldStateView(const RelationStore& live,
               const std::vector<PredicateDelta>& net,
               const std::vector<std::uint32_t>& relevant);

  /// Registers a tuple the current phase just erased from the live store
  /// (`predicate` must be relevant).
  void AddDeletedExtra(std::uint32_t predicate, const Tuple& tuple);

  [[nodiscard]] bool ContainsTuple(std::uint32_t predicate,
                                   RowView tuple) const;
  [[nodiscard]] RowView RowAt(std::uint32_t predicate,
                              std::uint32_t row) const;
  [[nodiscard]] std::vector<std::uint32_t> Lookup(
      std::uint32_t predicate, const std::vector<std::size_t>& columns,
      const Tuple& key) const;

 private:
  /// Hash set over the ids of an id-addressable row list that lives
  /// elsewhere: open addressing over (id + 1) words, so n rows cost one slot
  /// array instead of n hash nodes.  `row_of(id)` must return the RowView of
  /// an inserted id; rows are compared by value.
  class RowIdSet {
   public:
    template <typename RowOf>
    [[nodiscard]] bool Contains(RowView row, const RowOf& row_of) const {
      if (size_ == 0) {
        return false;
      }
      const std::size_t mask = slots_.size() - 1;
      for (std::size_t i = HashValues(row) & mask;; i = (i + 1) & mask) {
        if (slots_[i] == 0) {
          return false;
        }
        if (TupleEq{}(row_of(slots_[i] - 1), row)) {
          return true;
        }
      }
    }

    /// Adds `id` unless a row equal to row_of(id) is already present;
    /// returns whether it was added.
    template <typename RowOf>
    bool Insert(std::uint32_t id, const RowOf& row_of) {
      if (Contains(row_of(id), row_of)) {
        return false;
      }
      if (2 * (size_ + 1) > slots_.size()) {
        std::vector<std::uint32_t> old(
            std::max<std::size_t>(8, 2 * slots_.size()));
        old.swap(slots_);
        for (const std::uint32_t slot : old) {
          if (slot != 0) {
            Place(slot, row_of);
          }
        }
      }
      Place(id + 1, row_of);
      ++size_;
      return true;
    }

   private:
    template <typename RowOf>
    void Place(std::uint32_t slot, const RowOf& row_of) {
      const std::size_t mask = slots_.size() - 1;
      std::size_t i = HashValues(row_of(slot - 1)) & mask;
      while (slots_[i] != 0) {
        i = (i + 1) & mask;
      }
      slots_[i] = slot;
    }

    std::vector<std::uint32_t> slots_;  ///< id + 1; 0 = empty
    std::size_t size_ = 0;
  };

  /// The old-state correction of one relevant predicate.
  struct Overlay {
    std::uint32_t predicate = 0;
    /// Live-only tuples (not in the old state): the predicate's finalized
    /// net insertions, borrowed, and a set over their positions.
    std::span<const Tuple> inserted;
    RowIdSet inserted_set;
    std::vector<Tuple> extras;  ///< old-only tuples, id-addressable
    RowIdSet extras_set;

    [[nodiscard]] bool IsInserted(RowView row) const {
      return inserted_set.Contains(row, [this](std::uint32_t id) {
        return RowView(inserted[id]);
      });
    }
    [[nodiscard]] bool IsExtra(RowView row) const {
      return extras_set.Contains(row, [this](std::uint32_t id) {
        return RowView(extras[id]);
      });
    }
    /// Appends an old-only tuple unless already present.
    void AddExtra(const Tuple& tuple);
  };

 public:
  /// Prepared-probe interface mirroring RelationStore's: a handle resolved
  /// once per rule application, probed per binding without re-resolving the
  /// live store's cache entry or the overlay.  Unlike the live store's
  /// span-returning probe, results materialize a vector (live ids are
  /// filtered against the update's insertions and extras are appended) —
  /// acceptable because DRed's overdeletion runs over small deltas.
  struct PreparedIndex {
    const Overlay* overlay = nullptr;  ///< nullptr: not relevant
    const std::vector<std::size_t>* columns = nullptr;
    RelationStore::PreparedIndex live;
  };
  [[nodiscard]] PreparedIndex Prepare(
      std::uint32_t predicate, const std::vector<std::size_t>& columns) const;
  [[nodiscard]] std::vector<std::uint32_t> LookupPrepared(
      const PreparedIndex& prepared, const Tuple& key) const;
  [[nodiscard]] RowView RowIn(const PreparedIndex& prepared,
                              std::uint32_t row) const {
    if ((row & Relation::kExtraBit) != 0) {
      return prepared.overlay->extras[row & ~Relation::kExtraBit];
    }
    return RelationStore::RowIn(prepared.live, row);
  }

  // Join-planner statistics (uniform join-source interface).  Sizes count
  // the old state; fan-outs are approximated by the live store's indexes
  // (the deltas are small, so live fan-out is the right estimate).
  [[nodiscard]] std::size_t RelationSize(std::uint32_t predicate) const;
  [[nodiscard]] std::size_t IndexDistinct(
      std::uint32_t predicate, const std::vector<std::size_t>& columns) const;

 private:
  /// The overlay of `predicate`, or nullptr when it is not relevant.
  [[nodiscard]] const Overlay* Find(std::uint32_t predicate) const;

  const RelationStore& live_;
  /// One per relevant predicate: a phase reads a handful, so a linear scan
  /// beats a program-sized table.
  std::vector<Overlay> overlays_;
};

/// ApplyRule against the old state (defined alongside the join machinery in
/// eval.cpp; the template there is instantiated for both sources).
void ApplyRuleOldState(const Program& program, const OldStateView& old_state,
                       const Rule& rule, const DeltaRestriction& restriction,
                       EvalStats& stats,
                       const std::function<void(const Tuple&)>& emit);

/// True iff `component`'s inputs are touched by the given base changes or
/// lower-predicate net deltas — the "activated" test of the paper's model.
[[nodiscard]] bool ComponentInputTouched(const Program& program,
                                         const Stratification& strat,
                                         std::uint32_t component,
                                         const GroupedBaseChanges& base,
                                         const std::vector<PredicateDelta>& net);

/// The old state `component`'s deletion pipeline joins against, or nothing
/// when the phase has no deletion input: no base deletion of a member, no
/// deleted positive lower input and no inserted negated lower input.
/// Without one no member tuple can lose support, so the phase is
/// insert-only and skips its deletion pipeline.
[[nodiscard]] std::optional<OldStateView> DeletionInputView(
    const Program& program, const Stratification& strat,
    std::uint32_t component, const RelationStore& store,
    const GroupedBaseChanges& base, const std::vector<PredicateDelta>& net);

/// Calls `fn(head_predicate, head)` for every head a rule of `component`
/// derived in the old state through a deleted positive lower input or an
/// inserted negated lower input — where both deletion pipelines start.
/// `fn` runs after each join, so it may mutate the member relations.
void ForEachLostHead(
    const Program& program, const Stratification& strat,
    std::uint32_t component, const OldStateView& old_state,
    const std::vector<PredicateDelta>& net, EvalStats& stats,
    const std::function<void(std::uint32_t, const Tuple&)>& fn);

/// The forward phase shared by DRed and B/F: negation-driven insertions,
/// base insertions into members and the semi-naive continuation, then the
/// finalization of the member entries of `net`.  Every row the phase adds
/// goes straight to `net[p].inserted`; the lower insertions seed the
/// continuation as borrowed spans.  On entry, `net[p].inserted` may hold
/// rows the deletion pipeline already re-added (DRed's rederivations);
/// they seed the continuation too.  `phase_deleted` (empty when nothing was
/// deleted, else indexed by member position, Stratification::member_index)
/// holds the member rows the phase erased.  A row both erased and re-added is neither inserted nor
/// deleted; `net[p].deleted` is the erased rows absent from the store when
/// the phase ends.
void RunForwardPhase(const Program& program, const Stratification& strat,
                     std::uint32_t component, RelationStore& store,
                     const GroupedBaseChanges& base,
                     std::vector<PredicateDelta>& net,
                     const std::vector<TupleSet>& phase_deleted,
                     StoreWriteBuffer* scratch, ComponentUpdateStats& stats);

/// Runs one component's full DRed phase: overdeletion against the old state
/// (when the phase has a deletion input), rederivation, then the shared
/// forward phase.
///
/// Thread compatibility (used by the parallel engine): writes only the
/// member relations of `component` in `store`, the member entries of
/// `net`, and the returned stats; reads lower predicates' relations and
/// `net` entries, which the caller must have finalized (the dependency
/// DAG's precedence).
///
/// `scratch`, when given, is the calling worker's write buffer: the phase
/// stages its base insertions through the lock-free shard-publication
/// protocol instead of direct Insert calls (see delta_buffer.hpp).  The
/// buffer must be owned by the calling thread; nullptr keeps the direct
/// path.
ComponentUpdateStats RunComponentPhase(const Program& program,
                                       const Stratification& strat,
                                       std::uint32_t component,
                                       RelationStore& store,
                                       const GroupedBaseChanges& base,
                                       std::vector<PredicateDelta>& net,
                                       StoreWriteBuffer* scratch = nullptr);

}  // namespace dsched::datalog
