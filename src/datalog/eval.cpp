#include "datalog/eval.hpp"

#include "datalog/incremental.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "obs/obs.hpp"
#include "util/error.hpp"

namespace dsched::datalog {

void EvalStats::Merge(const EvalStats& other) {
  rule_applications += other.rule_applications;
  bindings_explored += other.bindings_explored;
  tuples_derived += other.tuples_derived;
  tuples_inserted += other.tuples_inserted;
  rounds += other.rounds;
  index_probes += other.index_probes;
  index_misses += other.index_misses;
}

std::string EvalStats::ToString() const {
  std::ostringstream oss;
  oss << "applications=" << rule_applications
      << " bindings=" << bindings_explored << " derived=" << tuples_derived
      << " inserted=" << tuples_inserted << " rounds=" << rounds
      << " probes=" << index_probes << " misses=" << index_misses;
  return oss.str();
}

void EvalStats::ExportMetrics(obs::MetricsRegistry& registry,
                              const std::string& prefix) const {
  registry.Set(prefix + "rule_applications", rule_applications);
  registry.Set(prefix + "bindings_explored", bindings_explored);
  registry.Set(prefix + "tuples_derived", tuples_derived);
  registry.Set(prefix + "tuples_inserted", tuples_inserted);
  registry.Set(prefix + "rounds", rounds);
  registry.Set(prefix + "index_probes", index_probes);
  registry.Set(prefix + "index_misses", index_misses);
}

namespace {

/// One rule application: nested-loop join with index lookups, run over an
/// explicit binding environment.  TStore is any type with the read
/// interface ContainsTuple / RowAt / Lookup / RelationSize / IndexDistinct
/// — the live RelationStore or the incremental engine's OldStateView.
///
/// Construction plans the join once; Run executes it any number of times:
///  * a head-bound join (the rederive/probe queries) plans every level and
///    filter against the head variables as bound.  The plan depends only
///    on WHICH variables the head binds, never on their values, so one
///    plan serves every probe: BindHead writes a ground head's values per
///    probe and re-checks head constants and repeated variables (a clash
///    means no derivation);
///  * positive body literals are ordered greedily by estimated lookup
///    cardinality (relation size ÷ bound-column index fan-out when a fresh
///    index exists, an independence-assumption power law otherwise), with
///    the delta-restricted literal pinned first;
///  * a positive literal whose variables are all bound at its plan point
///    becomes a membership filter (ContainsTuple on the relation's own
///    hash table), never a level over an all-columns index;
///  * each level's index key columns are fixed statically, so the per-row
///    inner loop neither rebuilds column lists nor re-derives which
///    variables to bind — it fills a reusable key buffer and walks a
///    precomputed (position, variable) slot list;
///  * negations and comparisons are hoisted to the earliest level at which
///    all their variables are bound, pruning partial bindings instead of
///    filtering complete ones.
/// Index handles are re-obtained at the start of every Run: a handle is
/// valid only while its relation is unchanged, and callers may insert
/// between probes (rederivation does).  A Run must finish before the same
/// join is rebound or run again.
template <typename TStore>
class RuleJoin {
 public:
  /// Plans `rule`.  With `head_bound`, every head variable counts as bound
  /// from the start and each Run needs a BindHead first.
  RuleJoin(const Program& program, const TStore& store,
           const Rule& rule, const DeltaRestriction& restriction,
           EvalStats& stats, bool head_bound = false)
      : program_(program),
        store_(store),
        rule_(rule),
        restriction_(restriction),
        stats_(stats),
        bindings_(rule.variable_names.size()),
        head_(rule.head.args.size()) {
    OBS_SCOPE(Category::kJoinPlan);

    // Head-bound plan: the head's variables are bound before any planning
    // decision.  A position whose variable occurred earlier in the head is
    // a repeat BindHead compares instead of writing.
    std::vector<char> sbound(rule.variable_names.size(), 0);
    if (head_bound) {
      head_first_.resize(rule_.head.args.size(), 0);
      for (std::size_t i = 0; i < rule_.head.args.size(); ++i) {
        const Term& term = rule_.head.args[i];
        if (term.IsVar() && sbound[term.var] == 0) {
          sbound[term.var] = 1;
          head_first_[i] = 1;
        }
      }
    }
    std::vector<char> hoist_bound = sbound;

    // Split the body: the restricted element (if any) joins first; then
    // the remaining positive literals, planner-ordered; negations and
    // comparisons become filters hoisted onto the levels.
    std::vector<std::size_t> positives;
    std::vector<std::size_t> filters;
    positives.reserve(rule_.body.size());
    filters.reserve(rule_.body.size());
    levels_.reserve(rule_.body.size());
    for (std::size_t i = 0; i < rule_.body.size(); ++i) {
      const bool restricted = (i == restriction_.body_index);
      if (const auto* literal = std::get_if<Literal>(&rule_.body[i])) {
        if (restricted) {
          // Positive or negated: matched against the delta rows, first.
          // Its slots are planned statically like an indexed level with an
          // empty key: constants become value checks, variable occurrences
          // fresh binds or repeat checks.
          LevelPlan delta;
          delta.body_index = i;
          delta.is_delta = true;
          delta.atom = &literal->atom;
          for (std::size_t pos = 0; pos < literal->atom.args.size(); ++pos) {
            const Term& term = literal->atom.args[pos];
            if (!term.IsVar()) {
              delta.const_slots.emplace_back(pos, term.constant);
            } else {
              const bool check = sbound[term.var] != 0 ||
                                 VarSeenBefore(literal->atom, pos);
              delta.var_slots.push_back({pos, term.var, check});
            }
          }
          levels_.push_back(std::move(delta));
          MarkVars(literal->atom, sbound);
        } else if (!literal->negated) {
          positives.push_back(i);
        } else {
          filters.push_back(i);
        }
      } else {
        DSCHED_CHECK_MSG(!restricted,
                         "a comparison cannot carry a delta restriction");
        filters.push_back(i);
      }
    }

    // Greedy selectivity ordering over the static bound-variable set.  A
    // literal already fully bound here is a membership test, not a level.
    while (!positives.empty()) {
      std::size_t best = 0;
      double best_cost = EstimateCost(AtomAt(positives[0]), sbound);
      for (std::size_t c = 1; c < positives.size(); ++c) {
        const double cost = EstimateCost(AtomAt(positives[c]), sbound);
        if (cost < best_cost) {
          best_cost = cost;
          best = c;
        }
      }
      const std::size_t body_index = positives[best];
      positives.erase(positives.begin() + static_cast<std::ptrdiff_t>(best));
      if (FilterVarsBound(body_index, sbound)) {
        filters.push_back(body_index);
        continue;
      }
      levels_.push_back(PlanLevel(body_index, sbound));
      MarkVars(AtomAt(body_index), sbound);
    }

    // Hoist each filter to the earliest point all its variables are bound.
    // (Safety validation guarantees every filter variable occurs in some
    // positive literal, so placement always succeeds.)  Head-bound
    // variables count from the start: a body the head binds completely
    // runs all its filters up front.
    const auto place_bound_filters = [&](std::vector<std::size_t>& sink) {
      std::erase_if(filters, [&](std::size_t f) {
        if (!FilterVarsBound(f, hoist_bound)) {
          return false;
        }
        sink.push_back(f);
        return true;
      });
    };
    place_bound_filters(pre_filters_);
    for (LevelPlan& level : levels_) {
      MarkVars(*level.atom, hoist_bound);
      place_bound_filters(level.filters);
    }

    // Head plan: constants are baked into the reusable buffer once;
    // EmitHead fills only the variable positions.
    for (std::size_t i = 0; i < rule_.head.args.size(); ++i) {
      const Term& term = rule_.head.args[i];
      if (term.IsVar()) {
        head_vars_.emplace_back(i, term.var);
      } else {
        head_[i] = term.constant;
      }
    }

    // Innermost-level fast path: eligible when the last level is indexed,
    // filter-free, and all-fresh (every probed row emits).  Runs that stop
    // early or read bindings_ in emit (RunUntil) bypass it.
    if (!levels_.empty()) {
      LevelPlan& leaf = levels_.back();
      bool fresh = !leaf.is_delta && leaf.filters.empty();
      for (const auto& slot : leaf.var_slots) {
        fresh = fresh && !slot.check;
      }
      if (fresh) {
        leaf.leaf_fast = true;
        for (const auto& [dst, var] : head_vars_) {
          bool from_row = false;
          for (const auto& slot : leaf.var_slots) {
            if (slot.var == var) {
              leaf.leaf_head_row.emplace_back(dst, slot.pos);
              from_row = true;
              break;
            }
          }
          if (!from_row) {
            leaf.leaf_head_outer.emplace_back(dst, var);
          }
        }
      }
    }
  }

  /// Binds a ground head tuple for the next Run of a head-bound join.
  /// Returns false (and the next Run finds nothing) when the tuple clashes
  /// with a head constant or a repeated head variable.
  bool BindHead(RowView head_tuple) {
    DSCHED_CHECK_MSG(head_tuple.size() == head_first_.size(),
                     "head tuple arity mismatch");
    head_clash_ = false;
    for (std::size_t i = 0; i < head_tuple.size() && !head_clash_; ++i) {
      const Term& term = rule_.head.args[i];
      const Value v = head_tuple[i];
      if (head_first_[i] != 0) {
        bindings_[term.var] = v;
      } else {
        head_clash_ =
            !((term.IsVar() ? bindings_[term.var] : term.constant) == v);
      }
    }
    return !head_clash_;
  }

  /// Runs the join; emit is called per derived head tuple.  If
  /// `stop_after_first`, returns true as soon as one derivation succeeds.
  bool Run(const std::function<void(const Tuple&)>& emit,
           bool stop_after_first) {
    if (head_clash_) {
      return false;
    }
    OBS_SCOPE(Category::kJoinProbe);
    // Resolve each indexed level's cache entry per Run — the per-binding
    // hot path then probes lock-free, and inserts made between two Runs
    // never leave a stale handle behind.
    for (LevelPlan& level : levels_) {
      if (!level.is_delta) {
        level.prepared = store_.Prepare(level.atom->predicate, level.columns);
      }
    }
    ++stats_.rule_applications;
    const std::uint64_t derived_before = stats_.tuples_derived;
    emit_ = &emit;
    stop_after_first_ = stop_after_first;
    for (const std::size_t f : pre_filters_) {
      if (!Filter(f)) {
        return false;
      }
    }
    const bool found = JoinFrom(0);
    OBS_COUNTER(Category::kJoinEmit,
                stats_.tuples_derived - derived_before);
    return found;
  }

  /// Runs the join like Run(), but additionally stops (unwinding cleanly)
  /// as soon as `*stop_flag` reads true after an emission — the device
  /// behind ForEachDerivation's conditional early exit, which plain
  /// stop_after_first cannot express.
  bool RunUntil(const std::function<void(const Tuple&)>& emit,
                const bool* stop_flag) {
    stop_flag_ = stop_flag;
    const bool found = Run(emit, /*stop_after_first=*/false);
    stop_flag_ = nullptr;
    return found;
  }

  /// Materializes the ground positive body literals of the current complete
  /// binding as (predicate, tuple) pairs, in body order.  Only meaningful
  /// inside an emit callback.
  void GroundPositiveBody(
      std::vector<std::pair<std::uint32_t, Tuple>>& out) const {
    out.clear();
    for (const BodyElement& element : rule_.body) {
      const auto* literal = std::get_if<Literal>(&element);
      if (literal == nullptr || literal->negated) {
        continue;
      }
      Tuple t(literal->atom.args.size());
      for (std::size_t i = 0; i < t.size(); ++i) {
        const Term& term = literal->atom.args[i];
        t[i] = term.IsVar() ? bindings_[term.var] : term.constant;
      }
      out.emplace_back(literal->atom.predicate, std::move(t));
    }
  }

 private:
  /// One join level, fully planned at construction.
  struct LevelPlan {
    std::size_t body_index = 0;
    bool is_delta = false;
    const Atom* atom = nullptr;
    /// Index key columns (constants + statically bound first occurrences).
    std::vector<std::size_t> columns;
    /// Source term per key column (constant or bound variable).
    std::vector<Term> key_terms;
    /// Reusable key buffer, parallel to `columns`.
    Tuple key;
    /// One non-key position to bind or check per row.  `check` is decided
    /// statically: a variable bound by an earlier level or an earlier
    /// occurrence in this literal is compared; otherwise the slot is a
    /// fresh first binding and the hot path just overwrites bindings_.
    struct VarSlot {
      std::size_t pos;
      std::uint32_t var;
      bool check;
    };
    std::vector<VarSlot> var_slots;
    /// Constant positions of a delta level (indexed levels fold constants
    /// into the key instead).
    std::vector<std::pair<std::size_t, Value>> const_slots;
    /// Filters to evaluate once this level's variables are bound.
    std::vector<std::size_t> filters;
    /// Lock-free probe handle for (atom->predicate, columns).
    typename TStore::PreparedIndex prepared;
    /// Innermost-level fast path (see JoinFrom): true when this is the
    /// last level, it has no filters, and every slot is a fresh bind — so
    /// every indexed row emits, and the head can be written straight from
    /// the row without touching bindings_.
    bool leaf_fast = false;
    /// Head positions sourced from this level's row (dst in head_, column
    /// in the row) and from outer bindings (dst, variable).
    std::vector<std::pair<std::size_t, std::size_t>> leaf_head_row;
    std::vector<std::pair<std::size_t, std::uint32_t>> leaf_head_outer;
  };

  const Atom& AtomAt(std::size_t body_index) const {
    return std::get<Literal>(rule_.body[body_index]).atom;
  }

  /// True iff the variable at `atom.args[pos]` also occurs at an earlier
  /// position of the same atom (arities are small: a scan beats a table).
  static bool VarSeenBefore(const Atom& atom, std::size_t pos) {
    const std::uint32_t var = atom.args[pos].var;
    for (std::size_t j = 0; j < pos; ++j) {
      if (atom.args[j].IsVar() && atom.args[j].var == var) {
        return true;
      }
    }
    return false;
  }

  static void MarkVars(const Atom& atom, std::vector<char>& bound) {
    for (const Term& term : atom.args) {
      if (term.IsVar()) {
        bound[term.var] = 1;
      }
    }
  }

  /// Estimated rows one index probe into `atom` yields, given the
  /// statically bound variables.  Prefers the real fan-out of an
  /// up-to-date cached index; falls back to |R|^(1 - bound/arity), the
  /// standard attribute-independence assumption.
  double EstimateCost(const Atom& atom, const std::vector<char>& sbound) {
    const auto n = static_cast<double>(store_.RelationSize(atom.predicate));
    if (n == 0.0 || atom.args.empty()) {
      return n;
    }
    std::vector<std::size_t>& columns = cost_columns_;
    columns.clear();
    for (std::size_t i = 0; i < atom.args.size(); ++i) {
      const Term& term = atom.args[i];
      if (!term.IsVar() ||
          (sbound[term.var] != 0 && !VarSeenBefore(atom, i))) {
        columns.push_back(i);
      }
    }
    if (columns.empty()) {
      return n;
    }
    if (columns.size() == atom.args.size()) {
      return 1.0;  // fully bound: a point probe
    }
    const std::size_t distinct =
        store_.IndexDistinct(atom.predicate, columns);
    if (distinct > 0) {
      return n / static_cast<double>(distinct);
    }
    const double frac = static_cast<double>(columns.size()) /
                        static_cast<double>(atom.args.size());
    return std::pow(n, 1.0 - frac);
  }

  /// Builds the static per-level plan for `body_index` given the variables
  /// bound by earlier levels.  A variable repeated within the literal
  /// contributes only its first occurrence to the key; the index
  /// guarantees key columns match, so only var_slots are re-checked per
  /// row.
  LevelPlan PlanLevel(std::size_t body_index,
                      const std::vector<char>& sbound) {
    LevelPlan level;
    level.body_index = body_index;
    level.atom = &AtomAt(body_index);
    for (std::size_t i = 0; i < level.atom->args.size(); ++i) {
      const Term& term = level.atom->args[i];
      const bool repeat = term.IsVar() && VarSeenBefore(*level.atom, i);
      if (!term.IsVar() || (sbound[term.var] != 0 && !repeat)) {
        level.columns.push_back(i);
        level.key_terms.push_back(term);
      } else {
        const bool check = sbound[term.var] != 0 || repeat;
        level.var_slots.push_back({i, term.var, check});
      }
    }
    level.key.resize(level.columns.size());
    return level;
  }

  [[nodiscard]] bool FilterVarsBound(std::size_t body_index,
                                     const std::vector<char>& bound) const {
    if (const auto* literal = std::get_if<Literal>(&rule_.body[body_index])) {
      for (const Term& term : literal->atom.args) {
        if (term.IsVar() && bound[term.var] == 0) {
          return false;
        }
      }
      return true;
    }
    const auto& cmp = std::get<Comparison>(rule_.body[body_index]);
    return (!cmp.lhs.IsVar() || bound[cmp.lhs.var] != 0) &&
           (!cmp.rhs.IsVar() || bound[cmp.rhs.var] != 0);
  }

  /// Full match of one delta row: constant positions first (no index
  /// pre-matched them), then the planned variable slots.
  bool MatchDelta(const LevelPlan& level, RowView row) {
    for (const auto& [pos, value] : level.const_slots) {
      if (!(value == row[pos])) {
        return false;
      }
    }
    return MatchSlots(level, row);
  }

  /// Binds/checks the non-key positions of one indexed row.  Key columns
  /// are skipped — the index already matched them.  Check slots compare
  /// against bindings_ directly: the planner guarantees their variable was
  /// written by the head, an earlier level or an earlier slot of this loop.
  /// Fresh slots are a bare store.
  bool MatchSlots(const LevelPlan& level, RowView row) {
    for (const auto& slot : level.var_slots) {
      const Value v = row[slot.pos];
      if (slot.check) {
        if (!(bindings_[slot.var] == v)) {
          return false;
        }
      } else {
        bindings_[slot.var] = v;
      }
    }
    return true;
  }

  /// Ground-evaluates one filter element.
  bool Filter(std::size_t body_index) {
    if (const auto* literal = std::get_if<Literal>(&rule_.body[body_index])) {
      probe_.resize(literal->atom.args.size());
      for (std::size_t i = 0; i < probe_.size(); ++i) {
        const Term& term = literal->atom.args[i];
        probe_[i] = term.IsVar() ? bindings_[term.var] : term.constant;
      }
      const bool present =
          store_.ContainsTuple(literal->atom.predicate, probe_);
      return literal->negated ? !present : present;
    }
    const auto& cmp = std::get<Comparison>(rule_.body[body_index]);
    const Value lhs = cmp.lhs.IsVar() ? bindings_[cmp.lhs.var] : cmp.lhs.constant;
    const Value rhs = cmp.rhs.IsVar() ? bindings_[cmp.rhs.var] : cmp.rhs.constant;
    return EvalCmp(cmp.op, lhs, rhs);
  }

  bool RunFilters(const LevelPlan& level) {
    for (const std::size_t f : level.filters) {
      if (!Filter(f)) {
        return false;
      }
    }
    return true;
  }

  bool EmitHead() {
    for (const auto& [dst, var] : head_vars_) {
      head_[dst] = bindings_[var];
    }
    ++stats_.tuples_derived;
    (*emit_)(head_);
    return stop_after_first_ || (stop_flag_ != nullptr && *stop_flag_);
  }

  /// Returns true when stop_after_first_ and a derivation was found.
  bool JoinFrom(std::size_t k) {
    if (k == levels_.size()) {
      return EmitHead();
    }
    LevelPlan& level = levels_[k];

    if (level.is_delta) {
      for (const Tuple& row : restriction_.rows) {
        ++stats_.bindings_explored;
        if (MatchDelta(level, row) && RunFilters(level) &&
            JoinFrom(k + 1)) {
          return true;
        }
      }
      return false;
    }

    for (std::size_t i = 0; i < level.key.size(); ++i) {
      const Term& term = level.key_terms[i];
      level.key[i] = term.IsVar() ? bindings_[term.var] : term.constant;
    }
    if (level.leaf_fast && !stop_after_first_ && stop_flag_ == nullptr) {
      // Innermost all-fresh level: every row emits; the head reads the
      // arena row directly and outer-bound positions are filled once.
      const auto rows = store_.LookupPrepared(level.prepared, level.key);
      ++stats_.index_probes;
      stats_.index_misses += rows.empty() ? 1u : 0u;
      stats_.bindings_explored += rows.size();
      stats_.tuples_derived += rows.size();
      if (!rows.empty()) {
        for (const auto& [dst, var] : level.leaf_head_outer) {
          head_[dst] = bindings_[var];
        }
        for (const std::uint32_t row_id : rows) {
          const RowView row = store_.RowIn(level.prepared, row_id);
          for (const auto& [dst, pos] : level.leaf_head_row) {
            head_[dst] = row[pos];
          }
          (*emit_)(head_);
        }
      }
      return false;
    }
    const auto rows = store_.LookupPrepared(level.prepared, level.key);
    ++stats_.index_probes;
    stats_.index_misses += rows.empty() ? 1u : 0u;
    for (const std::uint32_t row_id : rows) {
      ++stats_.bindings_explored;
      if (MatchSlots(level, store_.RowIn(level.prepared, row_id)) &&
          RunFilters(level) && JoinFrom(k + 1)) {
        return true;
      }
    }
    return false;
  }

  const Program& program_;
  const TStore& store_;
  const Rule& rule_;
  const DeltaRestriction restriction_;
  EvalStats& stats_;
  /// Head-bound joins: per head position, 1 where its variable first
  /// occurs (BindHead writes it), 0 for constants and repeats (compared).
  std::vector<char> head_first_;

  std::vector<Value> bindings_;
  std::vector<LevelPlan> levels_;
  std::vector<std::size_t> cost_columns_;  ///< EstimateCost scratch
  std::vector<std::size_t> pre_filters_;  ///< ground before any join level
  /// Variable head positions (dst, var); constant positions are prebaked.
  std::vector<std::pair<std::size_t, std::uint32_t>> head_vars_;
  Tuple head_;                            ///< reusable head buffer
  Tuple probe_;                           ///< reusable negation-probe buffer
  const std::function<void(const Tuple&)>* emit_ = nullptr;
  bool stop_after_first_ = false;
  const bool* stop_flag_ = nullptr;  ///< RunUntil's conditional stop
  bool head_clash_ = false;  ///< bound head contradicts the rule head
};

}  // namespace

void ApplyRule(const Program& program, const RelationStore& store,
               const Rule& rule, const DeltaRestriction& restriction,
               EvalStats& stats,
               const std::function<void(const Tuple&)>& emit) {
  DSCHED_CHECK_MSG(!rule.IsAggregate(),
                   "aggregation rules go through EvaluateAggregateRule");
  RuleJoin<RelationStore> join(program, store, rule, restriction, stats);
  join.Run(emit, /*stop_after_first=*/false);
}

void ApplyRuleOldState(const Program& program, const OldStateView& old_state,
                       const Rule& rule, const DeltaRestriction& restriction,
                       EvalStats& stats,
                       const std::function<void(const Tuple&)>& emit) {
  DSCHED_CHECK_MSG(!rule.IsAggregate(),
                   "aggregation rules go through EvaluateAggregateRule");
  RuleJoin<OldStateView> join(program, old_state, rule, restriction, stats);
  join.Run(emit, /*stop_after_first=*/false);
}

std::vector<Tuple> EvaluateAggregateRule(const Program& program,
                                         const RelationStore& store,
                                         const Rule& rule, EvalStats& stats) {
  DSCHED_CHECK_MSG(rule.IsAggregate(), "not an aggregation rule");
  const Aggregate& aggregate = *rule.aggregate;

  // Synthetic projection: group-by terms, then (for value aggregates) the
  // aggregated variable, then every rule variable — so emitted tuples are
  // distinct exactly when the complete body binding is distinct.
  Rule probe = rule;
  probe.aggregate.reset();
  probe.head.args = rule.head.args;
  const std::size_t groups = rule.head.args.size();
  const bool has_value = aggregate.op != AggOp::kCount;
  if (has_value) {
    probe.head.args.push_back(Term::Var(aggregate.var));
  }
  for (std::uint32_t v = 0; v < rule.variable_names.size(); ++v) {
    probe.head.args.push_back(Term::Var(v));
  }

  std::unordered_set<Tuple, TupleHash> bindings;
  {
    RuleJoin<RelationStore> join(program, store, probe, DeltaRestriction{},
                                 stats);
    const std::function<void(const Tuple&)> collect =
        [&bindings](const Tuple& t) { bindings.insert(t); };
    join.Run(collect, /*stop_after_first=*/false);
  }

  // Fold per group.
  struct Accumulator {
    std::int64_t value = 0;
    std::uint64_t count = 0;
  };
  std::unordered_map<Tuple, Accumulator, TupleHash> folds;
  for (const Tuple& binding : bindings) {
    Tuple key(binding.begin(),
              binding.begin() + static_cast<std::ptrdiff_t>(groups));
    Accumulator& acc = folds[std::move(key)];
    ++acc.count;
    if (has_value) {
      const Value v = binding[groups];
      if (!v.IsInt()) {
        throw util::InvalidArgument(
            std::string(AggOpName(aggregate.op)) +
            " aggregates integer values only");
      }
      const std::int64_t x = v.AsInt();
      switch (aggregate.op) {
        case AggOp::kSum:
          acc.value += x;
          break;
        case AggOp::kMin:
          acc.value = acc.count == 1 ? x : std::min(acc.value, x);
          break;
        case AggOp::kMax:
          acc.value = acc.count == 1 ? x : std::max(acc.value, x);
          break;
        case AggOp::kCount:
          break;
      }
    }
  }
  std::vector<Tuple> out;
  out.reserve(folds.size());
  for (const auto& [key, acc] : folds) {
    Tuple head = key;
    head.push_back(Value::Int(aggregate.op == AggOp::kCount
                                  ? static_cast<std::int64_t>(acc.count)
                                  : acc.value));
    out.push_back(std::move(head));
  }
  ++stats.rule_applications;
  stats.tuples_derived += out.size();
  return out;
}

struct DerivationProbe::Impl {
  Impl(const Program& program, const RelationStore& store, const Rule& rule,
       EvalStats& stats)
      : join(program, store, rule, DeltaRestriction{}, stats,
             /*head_bound=*/true) {}

  RuleJoin<RelationStore> join;
  Body body;  ///< reused per derivation
  const std::function<bool(const Body&)>* on_derivation = nullptr;
  bool stopped = false;
  /// Built once: the per-query callbacks capture nothing but `this`.
  const std::function<void(const Tuple&)> ignore = [](const Tuple&) {};
  const std::function<void(const Tuple&)> ground = [this](const Tuple&) {
    if (stopped) {
      return;
    }
    join.GroundPositiveBody(body);
    stopped = (*on_derivation)(body);
  };
};

DerivationProbe::DerivationProbe(const Program& program,
                                 const RelationStore& store, const Rule& rule,
                                 EvalStats& stats) {
  DSCHED_CHECK_MSG(!rule.IsAggregate(),
                   "aggregation rules go through EvaluateAggregateRule");
  impl_ = std::make_unique<Impl>(program, store, rule, stats);
}

DerivationProbe::~DerivationProbe() = default;

bool DerivationProbe::IsDerivable(RowView head_tuple) {
  return impl_->join.BindHead(head_tuple) &&
         impl_->join.Run(impl_->ignore, /*stop_after_first=*/true);
}

bool DerivationProbe::ForEachDerivation(
    RowView head_tuple,
    const std::function<bool(const Body&)>& on_derivation) {
  Impl& impl = *impl_;
  if (!impl.join.BindHead(head_tuple)) {
    return false;
  }
  impl.on_derivation = &on_derivation;
  impl.stopped = false;
  impl.join.RunUntil(impl.ground, &impl.stopped);
  return impl.stopped;
}

bool IsDerivable(const Program& program, const RelationStore& store,
                 const Rule& rule, const Tuple& head_tuple, EvalStats& stats) {
  return DerivationProbe(program, store, rule, stats).IsDerivable(head_tuple);
}

bool ForEachDerivation(
    const Program& program, const RelationStore& store, const Rule& rule,
    const Tuple& head_tuple, EvalStats& stats,
    const std::function<bool(const DerivationProbe::Body&)>& on_derivation) {
  return DerivationProbe(program, store, rule, stats)
      .ForEachDerivation(head_tuple, on_derivation);
}

EvalStats EvaluateComponent(const Program& program, const Stratification& strat,
                            std::uint32_t component, RelationStore& store,
                            const SeedSpans* seeds, DeltaMap* out_deltas) {
  EvalStats stats;
  const auto& rule_ids = strat.component_rules[component];
  const auto is_member = [&strat, component](std::uint32_t p) {
    return strat.component_of[p] == component;
  };
  // Only a component whose rules read a member can fire on its own output;
  // the others never need their fresh rows again.
  bool recursive = false;
  for (const std::size_t r : rule_ids) {
    for (const BodyElement& element : program.rules[r].body) {
      const auto* literal = std::get_if<Literal>(&element);
      recursive = recursive || (literal != nullptr && !literal->negated &&
                                is_member(literal->atom.predicate));
    }
  }

  // `round` holds the member rows a recursive component derived in the
  // current round; a finished round moves on to `out_deltas`.
  DeltaMap round;
  DeltaMap next;
  std::vector<Tuple> buffer;
  const std::function<void(const Tuple&)> collect =
      [&buffer](const Tuple& t) { buffer.push_back(t); };
  const auto flush_into = [&](std::uint32_t head_pred, DeltaMap* sink) {
    Relation& relation = store.Of(head_pred);
    relation.Reserve(relation.Size() + buffer.size());
    std::vector<Tuple>* dst = sink != nullptr ? &(*sink)[head_pred] : nullptr;
    if (dst != nullptr) {
      dst->reserve(dst->size() + buffer.size());
    }
    for (Tuple& t : buffer) {
      if (relation.Insert(t)) {
        ++stats.tuples_inserted;
        if (dst != nullptr) {
          dst->push_back(std::move(t));
        }
      }
    }
    buffer.clear();
  };
  const auto hand_off = [out_deltas](DeltaMap& rows) {
    if (out_deltas == nullptr) {
      return;
    }
    for (auto& [pred, moved] : rows) {
      std::vector<Tuple>& dst = (*out_deltas)[pred];
      if (dst.empty()) {
        dst = std::move(moved);
      } else {
        dst.insert(dst.end(), std::make_move_iterator(moved.begin()),
                   std::make_move_iterator(moved.end()));
      }
    }
  };
  DeltaMap* const seed_sink = recursive ? &round : out_deltas;

  // --- Seed phase.
  if (seeds == nullptr) {
    // From scratch: every rule fires once, unrestricted.
    for (const std::size_t r : rule_ids) {
      const Rule& rule = program.rules[r];
      if (rule.IsAggregate()) {
        // Aggregates see only lower (already final) components, so a single
        // evaluation is exact.
        for (Tuple& t : EvaluateAggregateRule(program, store, rule, stats)) {
          buffer.push_back(std::move(t));
        }
        flush_into(rule.head.predicate, seed_sink);
        continue;
      }
      ApplyRule(program, store, rule, DeltaRestriction{}, stats, collect);
      flush_into(rule.head.predicate, seed_sink);
    }
  } else {
    // Incremental continuation: fire each rule once per positive body
    // literal whose predicate carries a seed delta, member or lower.  The
    // seeds are already in the store, so the rounds below only need the
    // rows derived here.  (Insertions into negated predicates never create
    // derivations; the maintenance phase handles their destructive effect
    // separately.)
    const auto seed_of = [seeds](std::uint32_t p) {
      for (const auto& [pred, rows] : *seeds) {
        if (pred == p) {
          return rows;
        }
      }
      return std::span<const Tuple>();
    };
    for (const std::size_t r : rule_ids) {
      const Rule& rule = program.rules[r];
      DSCHED_CHECK_MSG(!rule.IsAggregate(),
                       "aggregate components are maintained by recompute-diff "
                       "(RunComponentPhase), not semi-naive continuation");
      for (std::size_t i = 0; i < rule.body.size(); ++i) {
        const auto* literal = std::get_if<Literal>(&rule.body[i]);
        if (literal == nullptr || literal->negated) {
          continue;
        }
        const std::span<const Tuple> rows = seed_of(literal->atom.predicate);
        if (rows.empty()) {
          continue;
        }
        DeltaRestriction restriction;
        restriction.body_index = i;
        restriction.rows = rows;
        buffer.reserve(rows.size());
        ApplyRule(program, store, rule, restriction, stats, collect);
        flush_into(rule.head.predicate, seed_sink);
      }
    }
  }

  // --- Recursive rounds on member-predicate deltas.
  while (true) {
    bool any = false;
    for (const auto& [pred, rows] : round) {
      if (!rows.empty()) {
        any = true;
        break;
      }
    }
    if (!any) {
      break;
    }
    ++stats.rounds;
    for (const std::size_t r : rule_ids) {
      const Rule& rule = program.rules[r];
      for (std::size_t i = 0; i < rule.body.size(); ++i) {
        const auto* literal = std::get_if<Literal>(&rule.body[i]);
        if (literal == nullptr || literal->negated ||
            !is_member(literal->atom.predicate)) {
          continue;
        }
        const auto it = round.find(literal->atom.predicate);
        if (it == round.end() || it->second.empty()) {
          continue;
        }
        DeltaRestriction restriction;
        restriction.body_index = i;
        restriction.rows = it->second;
        buffer.reserve(it->second.size());
        ApplyRule(program, store, rule, restriction, stats, collect);
        flush_into(rule.head.predicate, &next);
      }
    }
    hand_off(round);
    round = std::move(next);
    next.clear();
  }
  return stats;
}

EvalStats EvaluateProgram(const Program& program, const Stratification& strat,
                          RelationStore& store) {
  EvalStats stats;
  for (const std::uint32_t component : strat.component_order) {
    stats.Merge(EvaluateComponent(program, strat, component, store,
                                  /*seeds=*/nullptr, /*out_deltas=*/nullptr));
  }
  return stats;
}

EvalStats EvaluateProgramNaive(const Program& program,
                               const Stratification& strat,
                               RelationStore& store) {
  EvalStats stats;
  std::vector<Tuple> buffer;
  const std::function<void(const Tuple&)> collect =
      [&buffer](const Tuple& t) { buffer.push_back(t); };
  for (const std::uint32_t component : strat.component_order) {
    bool changed = true;
    while (changed) {
      changed = false;
      ++stats.rounds;
      for (const std::size_t r : strat.component_rules[component]) {
        const Rule& rule = program.rules[r];
        if (rule.IsAggregate()) {
          for (Tuple& t : EvaluateAggregateRule(program, store, rule, stats)) {
            buffer.push_back(std::move(t));
          }
        } else {
          ApplyRule(program, store, rule, DeltaRestriction{}, stats, collect);
        }
        Relation& relation = store.Of(rule.head.predicate);
        for (const Tuple& t : buffer) {
          if (relation.Insert(t)) {
            ++stats.tuples_inserted;
            changed = true;
          }
        }
        buffer.clear();
      }
    }
  }
  return stats;
}

}  // namespace dsched::datalog
