// Bottom-up evaluation: rule application (joins), naive and semi-naive
// fixpoints over stratified components.
//
// The join machinery is shared with the incremental engine, which replays
// rules with one body element restricted to a delta set — the standard
// semi-naive/DRed device.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "datalog/ast.hpp"
#include "datalog/relation.hpp"
#include "datalog/stratify.hpp"
#include "obs/metrics.hpp"

namespace dsched::datalog {

/// Evaluation effort counters.
struct EvalStats {
  std::uint64_t rule_applications = 0;  ///< ApplyRule invocations
  std::uint64_t bindings_explored = 0;  ///< partial join rows visited
  std::uint64_t tuples_derived = 0;     ///< head emissions (pre-dedup)
  std::uint64_t tuples_inserted = 0;    ///< genuinely new tuples
  std::uint64_t rounds = 0;             ///< semi-naive iterations
  std::uint64_t index_probes = 0;       ///< indexed lookups issued by joins
  std::uint64_t index_misses = 0;       ///< probes that matched no rows

  void Merge(const EvalStats& other);
  [[nodiscard]] std::string ToString() const;

  /// Publishes the counters into `registry` under `prefix` (e.g.
  /// "datalog.").
  void ExportMetrics(obs::MetricsRegistry& registry,
                     const std::string& prefix) const;
};

/// Restriction applied to one rule application.
struct DeltaRestriction {
  /// Index into rule.body of the element bound against `rows` instead of
  /// the store; kNone applies the rule unrestricted.
  std::size_t body_index = kNone;
  /// The delta tuples for that element's predicate.
  std::span<const Tuple> rows;
  /// When the restricted element is a *negated* literal, it is matched
  /// positively against `rows` (DRed's negation-delta device) and its
  /// normal absence check is skipped.
  static constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
};

/// Applies `rule` against `store`, calling `emit` for each derived head
/// tuple (duplicates possible).  `emit` MUST NOT mutate the store: join
/// iteration holds spans into it.  Restriction semantics per
/// DeltaRestriction.
void ApplyRule(const Program& program, const RelationStore& store,
               const Rule& rule, const DeltaRestriction& restriction,
               EvalStats& stats, const std::function<void(const Tuple&)>& emit);

/// A derivation query for one rule, planned once and probed per ground head
/// tuple: DRed's rederivation checks and B/F's backward probes.  The plan
/// depends only on which variables the head binds, never on their values,
/// so one probe serves a whole maintenance phase; index handles are
/// re-obtained per query, so the store may change between queries (not
/// during one).  A probe is not re-entrant: a query issued from inside a
/// ForEachDerivation callback of the same rule needs another probe.  Not
/// defined for aggregation rules.
class DerivationProbe {
 public:
  /// Ground positive body literals of one derivation, in body order.
  using Body = std::vector<std::pair<std::uint32_t, Tuple>>;

  DerivationProbe(const Program& program, const RelationStore& store,
                  const Rule& rule, EvalStats& stats);
  ~DerivationProbe();

  /// True iff `head_tuple` is derivable by the rule in the store now.
  bool IsDerivable(RowView head_tuple);

  /// Enumerates the derivations of `head_tuple`: for every complete body
  /// match, calls `on_derivation` with the ground positive body literals.
  /// The body is valid only during the call.  `on_derivation` returning
  /// true stops the enumeration (the Backward/Forward "one live derivation
  /// suffices" query); the return value says whether it stopped early.
  bool ForEachDerivation(RowView head_tuple,
                         const std::function<bool(const Body&)>& on_derivation);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// One-shot DerivationProbe::IsDerivable.
[[nodiscard]] bool IsDerivable(const Program& program,
                               const RelationStore& store, const Rule& rule,
                               const Tuple& head_tuple, EvalStats& stats);

/// One-shot DerivationProbe::ForEachDerivation.
bool ForEachDerivation(
    const Program& program, const RelationStore& store, const Rule& rule,
    const Tuple& head_tuple, EvalStats& stats,
    const std::function<bool(const DerivationProbe::Body&)>& on_derivation);

/// Evaluates one aggregation rule against the current store: joins the
/// body, deduplicates complete variable bindings, groups by the head's
/// group-by terms, and folds the aggregate.  Returns the full head relation
/// contents this rule implies (one tuple per non-empty group).  sum/min/max
/// require integer values and throw util::InvalidArgument otherwise.
[[nodiscard]] std::vector<Tuple> EvaluateAggregateRule(
    const Program& program, const RelationStore& store, const Rule& rule,
    EvalStats& stats);

/// Per-predicate delta sets flowing between components.
using DeltaMap = std::map<std::uint32_t, std::vector<Tuple>>;

/// Borrowed seed deltas of an incremental continuation: (predicate, rows)
/// pairs, one per seeded predicate (a predicate not listed, or listed with
/// an empty span, has no delta).  The rows must already be in the store and
/// must not move during the call.
using SeedSpans = std::vector<std::pair<std::uint32_t, std::span<const Tuple>>>;

/// Evaluates one component to fixpoint (semi-naive).
///
/// If `seeds` is null, this is a from-scratch evaluation: every rule fires
/// once unrestricted, then recursive rounds run on the rows derived.  If
/// non-null, it is an incremental continuation: rules fire once per body
/// element whose predicate has a seed (restricted to it), then recursive
/// rounds run.  New tuples of member predicates are moved into
/// `out_deltas` (if provided); a component whose rules read no member keeps
/// no other copy of them.
EvalStats EvaluateComponent(const Program& program,
                            const Stratification& strat,
                            std::uint32_t component, RelationStore& store,
                            const SeedSpans* seeds, DeltaMap* out_deltas);

/// From-scratch evaluation of the whole program (facts included — they are
/// empty-body rules).  Returns merged stats.
EvalStats EvaluateProgram(const Program& program, const Stratification& strat,
                          RelationStore& store);

/// Reference evaluator for tests: naive iterate-all-rules-until-fixpoint,
/// stratum by stratum.  Asymptotically slower; must agree with
/// EvaluateProgram exactly.
EvalStats EvaluateProgramNaive(const Program& program,
                               const Stratification& strat,
                               RelationStore& store);

}  // namespace dsched::datalog
