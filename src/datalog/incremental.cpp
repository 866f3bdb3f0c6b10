#include "datalog/incremental.hpp"

#include <iterator>
#include <sstream>

#include "datalog/delta_buffer.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace dsched::datalog {

OldStateView::OldStateView(const RelationStore& live,
                           const std::vector<PredicateDelta>& net,
                           const std::vector<std::uint32_t>& relevant)
    : live_(live),
      inserted_(net.size()),
      extras_(net.size()),
      extras_set_(net.size()) {
  for (const std::uint32_t p : relevant) {
    inserted_[p].insert(net[p].inserted.begin(), net[p].inserted.end());
    for (const Tuple& t : net[p].deleted) {
      if (extras_set_[p].insert(t).second) {
        extras_[p].push_back(t);
      }
    }
  }
}

void OldStateView::AddDeletedExtra(std::uint32_t predicate,
                                   const Tuple& tuple) {
  if (extras_set_[predicate].insert(tuple).second) {
    extras_[predicate].push_back(tuple);
  }
}

bool OldStateView::ContainsTuple(std::uint32_t predicate,
                                 RowView tuple) const {
  if (live_.Of(predicate).Contains(tuple)) {
    return inserted_[predicate].empty() ||
           !inserted_[predicate].contains(tuple);
  }
  return extras_set_[predicate].contains(tuple);
}

RowView OldStateView::RowAt(std::uint32_t predicate,
                            std::uint32_t row) const {
  if ((row & Relation::kExtraBit) != 0) {
    return extras_[predicate][row & ~Relation::kExtraBit];
  }
  return live_.Of(predicate).Row(row);
}

OldStateView::PreparedIndex OldStateView::Prepare(
    std::uint32_t predicate, const std::vector<std::size_t>& columns) const {
  return {predicate, &columns, live_.Prepare(predicate, columns)};
}

std::vector<std::uint32_t> OldStateView::LookupPrepared(
    const PreparedIndex& prepared, const Tuple& key) const {
  const std::uint32_t predicate = prepared.predicate;
  const std::vector<std::size_t>& columns = *prepared.columns;
  std::vector<std::uint32_t> out;
  const RowSet& inserted = inserted_[predicate];
  const auto live_ids = RelationStore::LookupPrepared(prepared.live, key);
  out.reserve(live_ids.size());
  for (const std::uint32_t id : live_ids) {
    if (inserted.empty() || !inserted.contains(live_.RowAt(predicate, id))) {
      out.push_back(id);
    }
  }
  const auto& extras = extras_[predicate];
  for (std::size_t i = 0; i < extras.size(); ++i) {
    bool match = true;
    for (std::size_t c = 0; c < columns.size(); ++c) {
      if (!(extras[i][columns[c]] == key[c])) {
        match = false;
        break;
      }
    }
    if (match) {
      out.push_back(Relation::kExtraBit | static_cast<std::uint32_t>(i));
    }
  }
  return out;
}

std::vector<std::uint32_t> OldStateView::Lookup(
    std::uint32_t predicate, const std::vector<std::size_t>& columns,
    const Tuple& key) const {
  return LookupPrepared(Prepare(predicate, columns), key);
}

std::size_t OldStateView::RelationSize(std::uint32_t predicate) const {
  return live_.Of(predicate).Size() + extras_[predicate].size();
}

std::size_t OldStateView::IndexDistinct(
    std::uint32_t predicate, const std::vector<std::size_t>& columns) const {
  return live_.IndexDistinct(predicate, columns);
}

std::string UpdateResult::ToString(const Program& program,
                                   const Stratification& strat) const {
  std::ostringstream oss;
  oss << "update: +" << total_inserted << " -" << total_deleted << " in "
      << seconds << "s\n";
  for (const ComponentUpdateStats& c : components) {
    if (!c.input_changed) {
      continue;
    }
    oss << "  component " << c.component << " {";
    for (std::size_t i = 0; i < strat.component_members[c.component].size();
         ++i) {
      if (i > 0) {
        oss << ", ";
      }
      oss << program.predicate_names[strat.component_members[c.component][i]];
    }
    oss << "}: " << (c.output_changed ? "changed" : "unchanged")
        << " +" << c.tuples_inserted << " -" << c.tuples_deleted
        << " (overdeleted " << c.tuples_overdeleted << ", rederived "
        << c.tuples_rederived << ")\n";
  }
  return oss.str();
}

GroupedBaseChanges::GroupedBaseChanges(const Program& program,
                                       const UpdateRequest& request)
    : insertions(program.NumPredicates()), deletions(program.NumPredicates()) {
  for (const auto& [pred, tuple] : request.insertions) {
    DSCHED_CHECK_MSG(pred < program.NumPredicates(), "unknown predicate id");
    insertions[pred].push_back(tuple);
  }
  for (const auto& [pred, tuple] : request.deletions) {
    DSCHED_CHECK_MSG(pred < program.NumPredicates(), "unknown predicate id");
    deletions[pred].push_back(tuple);
  }
}

bool ComponentInputTouched(const Program& program, const Stratification& strat,
                           std::uint32_t component,
                           const GroupedBaseChanges& base,
                           const std::vector<PredicateDelta>& net) {
  for (const std::uint32_t p : strat.component_members[component]) {
    if (!base.insertions[p].empty() || !base.deletions[p].empty()) {
      return true;
    }
  }
  for (const std::size_t r : strat.component_rules[component]) {
    for (const BodyElement& element : program.rules[r].body) {
      if (const auto* literal = std::get_if<Literal>(&element)) {
        const std::uint32_t p = literal->atom.predicate;
        if (strat.component_of[p] != component && !net[p].Empty()) {
          return true;
        }
      }
    }
  }
  return false;
}

std::optional<OldStateView> DeletionInputView(
    const Program& program, const Stratification& strat,
    std::uint32_t component, const RelationStore& store,
    const GroupedBaseChanges& base, const std::vector<PredicateDelta>& net) {
  const auto& members = strat.component_members[component];
  bool deletion_input = false;
  for (const std::uint32_t p : members) {
    deletion_input = deletion_input || !base.deletions[p].empty();
  }
  // The view reads exactly the members and the lower body predicates.
  std::vector<std::uint32_t> relevant(members.begin(), members.end());
  for (const std::size_t r : strat.component_rules[component]) {
    for (const BodyElement& element : program.rules[r].body) {
      const auto* literal = std::get_if<Literal>(&element);
      if (literal == nullptr ||
          strat.component_of[literal->atom.predicate] == component) {
        continue;
      }
      const std::uint32_t p = literal->atom.predicate;
      relevant.push_back(p);
      deletion_input = deletion_input ||
                       !(literal->negated ? net[p].inserted : net[p].deleted)
                            .empty();
    }
  }
  if (!deletion_input) {
    return std::nullopt;
  }
  return std::optional<OldStateView>(std::in_place, store, net, relevant);
}

void ForEachLostHead(
    const Program& program, const Stratification& strat,
    std::uint32_t component, const OldStateView& old_state,
    const std::vector<PredicateDelta>& net, EvalStats& stats,
    const std::function<void(std::uint32_t, const Tuple&)>& fn) {
  std::vector<Tuple> buffer;
  const std::function<void(const Tuple&)> collect =
      [&buffer](const Tuple& t) { buffer.push_back(t); };
  for (const std::size_t r : strat.component_rules[component]) {
    const Rule& rule = program.rules[r];
    for (std::size_t i = 0; i < rule.body.size(); ++i) {
      const auto* literal = std::get_if<Literal>(&rule.body[i]);
      if (literal == nullptr ||
          strat.component_of[literal->atom.predicate] == component) {
        continue;  // internal support: each pipeline closes over it
      }
      const PredicateDelta& lower = net[literal->atom.predicate];
      const std::vector<Tuple>& rows =
          literal->negated ? lower.inserted : lower.deleted;
      if (rows.empty()) {
        continue;
      }
      DeltaRestriction restriction;
      restriction.body_index = i;
      restriction.rows = rows;
      ApplyRuleOldState(program, old_state, rule, restriction, stats, collect);
      for (const Tuple& t : buffer) {
        fn(rule.head.predicate, t);
      }
      buffer.clear();
    }
  }
}

void RunForwardPhase(const Program& program, const Stratification& strat,
                     std::uint32_t component, RelationStore& store,
                     const GroupedBaseChanges& base,
                     std::vector<PredicateDelta>& net,
                     const std::vector<TupleSet>& phase_deleted,
                     StoreWriteBuffer* scratch, ComponentUpdateStats& stats) {
  const auto& members = strat.component_members[component];
  const auto& rule_ids = strat.component_rules[component];

  // Negation-driven insertions: a deletion from a negated lower predicate
  // can create brand-new derivations in the NEW state.
  std::vector<Tuple> buffer;
  const std::function<void(const Tuple&)> collect =
      [&buffer](const Tuple& t) { buffer.push_back(t); };
  for (const std::size_t r : rule_ids) {
    const Rule& rule = program.rules[r];
    for (std::size_t i = 0; i < rule.body.size(); ++i) {
      const auto* literal = std::get_if<Literal>(&rule.body[i]);
      if (literal == nullptr || !literal->negated ||
          net[literal->atom.predicate].deleted.empty()) {
        continue;
      }
      DeltaRestriction restriction;
      restriction.body_index = i;
      restriction.rows = net[literal->atom.predicate].deleted;
      ApplyRule(program, store, rule, restriction, stats.eval, collect);
      for (Tuple& t : buffer) {
        if (store.Of(rule.head.predicate).Insert(t)) {
          net[rule.head.predicate].inserted.push_back(std::move(t));
        }
      }
      buffer.clear();
    }
  }

  // Base inserts into members.  With a worker scratch buffer they go
  // through the lock-free shard-publication protocol — staged per shard,
  // one atomic append each, outcomes harvested at Flush — instead of the
  // direct mutator.  (The deletion pipelines stay direct on purpose: their
  // erases must be visible to the old-state view immediately, or a tuple
  // would be found both live and as a deleted extra.)
  for (const std::uint32_t p : members) {
    if (base.insertions[p].empty()) {
      continue;
    }
    std::vector<Tuple>& fresh = net[p].inserted;
    if (scratch != nullptr) {
      ShardedWriteBuffer& writes = scratch->For(store, p);
      for (const Tuple& t : base.insertions[p]) {
        writes.StageInsert(t);
      }
      writes.Flush([&fresh](std::uint8_t, RowView row, bool took_effect) {
        if (took_effect) {
          fresh.emplace_back(row.begin(), row.end());
        }
      });
    } else {
      for (const Tuple& t : base.insertions[p]) {
        if (store.Of(p).Insert(t)) {
          fresh.push_back(t);
        }
      }
    }
  }

  // Semi-naive continuation, seeded by every member row the phase added so
  // far and by the lower insertions, all borrowed in place.
  if (!rule_ids.empty()) {
    SeedSpans seeds(program.NumPredicates());
    for (const std::uint32_t p : members) {
      seeds[p] = net[p].inserted;
    }
    for (const std::size_t r : rule_ids) {
      for (const BodyElement& element : program.rules[r].body) {
        if (const auto* literal = std::get_if<Literal>(&element)) {
          if (!literal->negated) {
            seeds[literal->atom.predicate] = net[literal->atom.predicate].inserted;
          }
        }
      }
    }
    DeltaMap derived;
    stats.eval.Merge(
        EvaluateComponent(program, strat, component, store, &seeds, &derived));
    for (auto& [p, rows] : derived) {
      std::vector<Tuple>& dst = net[p].inserted;
      if (dst.empty()) {
        dst = std::move(rows);
      } else {
        dst.insert(dst.end(), std::make_move_iterator(rows.begin()),
                   std::make_move_iterator(rows.end()));
      }
    }
  }

  // Finalize the member entries of `net` for downstream components.
  for (const std::uint32_t p : members) {
    PredicateDelta& delta = net[p];
    if (!phase_deleted.empty() && !phase_deleted[p].empty()) {
      const TupleSet& erased = phase_deleted[p];
      std::erase_if(delta.inserted,
                    [&erased](const Tuple& t) { return erased.contains(t); });
      for (const Tuple& t : erased) {
        if (!store.Of(p).Contains(t)) {
          delta.deleted.push_back(t);
        }
      }
    }
    stats.tuples_inserted += delta.inserted.size();
    stats.tuples_deleted += delta.deleted.size();
  }
  stats.output_changed = stats.tuples_inserted > 0 || stats.tuples_deleted > 0;
}

ComponentUpdateStats RunComponentPhase(const Program& program,
                                       const Stratification& strat,
                                       std::uint32_t component,
                                       RelationStore& store,
                                       const GroupedBaseChanges& base,
                                       std::vector<PredicateDelta>& net,
                                       StoreWriteBuffer* scratch) {
  util::WallTimer comp_timer;
  ComponentUpdateStats comp_stats;
  comp_stats.component = component;
  comp_stats.input_changed = true;  // caller gates on ComponentInputTouched
  const auto& members = strat.component_members[component];
  const auto& rule_ids = strat.component_rules[component];

  // ---------------------------------------------------------------- 0.
  // Aggregate components are maintained by recompute-and-diff: the body
  // lives strictly below (stratification), so re-folding against the new
  // state and diffing against the stored relation is exact — and cheap,
  // since it touches only this predicate's groups.
  if (!rule_ids.empty() && program.rules[rule_ids.front()].IsAggregate()) {
    DSCHED_CHECK_MSG(members.size() == 1,
                     "aggregate components are singletons by stratification");
    const std::uint32_t p = members.front();
    TupleSet fresh;
    for (const std::size_t r : rule_ids) {
      for (Tuple& t : EvaluateAggregateRule(program, store, program.rules[r],
                                            comp_stats.eval)) {
        fresh.insert(std::move(t));
      }
    }
    Relation& relation = store.Of(p);
    std::vector<Tuple> stale;
    relation.ForEachRow([&fresh, &stale](std::uint32_t, RowView row) {
      if (!fresh.contains(row)) {
        stale.emplace_back(row.begin(), row.end());
      }
    });
    for (const Tuple& t : stale) {
      relation.Erase(t);
      net[p].deleted.push_back(t);
    }
    for (const Tuple& t : fresh) {
      if (relation.Insert(t)) {
        net[p].inserted.push_back(t);
      }
    }
    comp_stats.tuples_inserted = net[p].inserted.size();
    comp_stats.tuples_deleted = net[p].deleted.size();
    comp_stats.output_changed =
        comp_stats.tuples_inserted > 0 || comp_stats.tuples_deleted > 0;
    comp_stats.seconds = comp_timer.ElapsedSeconds();
    return comp_stats;
  }

  // The member rows this phase erases; sized only when something can lose
  // support.
  std::vector<TupleSet> phase_deleted;
  if (std::optional<OldStateView> old_state =
          DeletionInputView(program, strat, component, store, base, net)) {
    phase_deleted.resize(program.NumPredicates());
    // -------------------------------------------------------------- 1.
    // OVERDELETE.  Seed D with (a) base deletions of member predicates and
    // (b) heads of rules fired with a deleted positive input or an inserted
    // negated input, all joined against the OLD state: the live store
    // corrected by the finalized deltas of exactly the predicates this
    // phase may read, growing member extras as the phase erases tuples.  No
    // database snapshot is taken.
    DeltaMap overdelete;  // per member predicate, this round's delta
    const auto queue_overdeleted = [&](std::uint32_t pred, const Tuple& t) {
      if (phase_deleted[pred].insert(t).second) {
        overdelete[pred].push_back(t);
        old_state->AddDeletedExtra(pred, t);
        store.Of(pred).Erase(t);
        ++comp_stats.tuples_overdeleted;
      }
    };
    for (const std::uint32_t p : members) {
      for (const Tuple& t : base.deletions[p]) {
        if (old_state->ContainsTuple(p, t)) {
          queue_overdeleted(p, t);
        }
      }
    }
    ForEachLostHead(program, strat, component, *old_state, net,
                    comp_stats.eval, queue_overdeleted);
    std::vector<Tuple> buffer;
    const std::function<void(const Tuple&)> collect =
        [&buffer](const Tuple& t) { buffer.push_back(t); };
    // Internal overdeletion rounds (member tuples supporting member tuples).
    while (true) {
      DeltaMap current = std::move(overdelete);
      overdelete.clear();
      bool any = false;
      for (const auto& [pred, rows] : current) {
        if (!rows.empty()) {
          any = true;
        }
      }
      if (!any) {
        break;
      }
      for (const std::size_t r : rule_ids) {
        const Rule& rule = program.rules[r];
        for (std::size_t i = 0; i < rule.body.size(); ++i) {
          const auto* literal = std::get_if<Literal>(&rule.body[i]);
          if (literal == nullptr || literal->negated ||
              strat.component_of[literal->atom.predicate] != component) {
            continue;
          }
          const auto it = current.find(literal->atom.predicate);
          if (it == current.end() || it->second.empty()) {
            continue;
          }
          DeltaRestriction restriction;
          restriction.body_index = i;
          restriction.rows = it->second;
          ApplyRuleOldState(program, *old_state, rule, restriction,
                            comp_stats.eval, collect);
          for (const Tuple& t : buffer) {
            queue_overdeleted(rule.head.predicate, t);
          }
          buffer.clear();
        }
      }
    }

    // -------------------------------------------------------------- 2.
    // REDERIVE: an overdeleted tuple still derivable in the NEW state comes
    // back, and seeds the forward phase's continuation.
    for (const std::uint32_t p : members) {
      for (const Tuple& t : phase_deleted[p]) {
        for (const std::size_t r : rule_ids) {
          const Rule& rule = program.rules[r];
          if (rule.head.predicate == p &&
              IsDerivable(program, store, rule, t, comp_stats.eval)) {
            store.Of(p).Insert(t);
            net[p].inserted.push_back(t);
            ++comp_stats.tuples_rederived;
            break;
          }
        }
      }
    }
  }

  // ---------------------------------------------------------------- 3.
  // Negation-driven insertions, base insertions, the semi-naive
  // continuation and the finalization of `net`.
  RunForwardPhase(program, strat, component, store, base, net, phase_deleted,
                  scratch, comp_stats);
  // DRed's deletion-pipeline effort: one erase per overdeleted tuple, at
  // least one derivability check each, one re-insert per rederived tuple.
  // Rule-less components are pure base-change application — every
  // strategy does that identical work, so it reports no maintenance ops.
  if (!rule_ids.empty()) {
    comp_stats.maint_ops =
        2 * comp_stats.tuples_overdeleted + comp_stats.tuples_rederived;
  }
  comp_stats.seconds = comp_timer.ElapsedSeconds();
  return comp_stats;
}

UpdateResult PropagateUpdate(const Program& program,
                             const Stratification& strat, RelationStore& store,
                             const GroupedBaseChanges& base,
                             const std::vector<bool>* force_touched) {
  util::WallTimer total_timer;
  UpdateResult result;
  std::vector<PredicateDelta> net(program.NumPredicates());

  for (const std::uint32_t component : strat.component_order) {
    const bool forced =
        force_touched != nullptr && (*force_touched)[component];
    if (!forced &&
        !ComponentInputTouched(program, strat, component, base, net)) {
      ComponentUpdateStats untouched;
      untouched.component = component;
      result.components.push_back(untouched);
      continue;
    }
    ComponentUpdateStats comp_stats =
        RunComponentPhase(program, strat, component, store, base, net);
    result.total_inserted += comp_stats.tuples_inserted;
    result.total_deleted += comp_stats.tuples_deleted;
    result.total_maint_ops += comp_stats.maint_ops;
    result.components.push_back(std::move(comp_stats));
  }

  result.seconds = total_timer.ElapsedSeconds();
  return result;
}

IncrementalEngine::IncrementalEngine(const Program& program,
                                     const Stratification& strat,
                                     RelationStore& store)
    : program_(program), strat_(strat), store_(store) {}

UpdateResult IncrementalEngine::Apply(const UpdateRequest& request) {
  return PropagateUpdate(program_, strat_, store_,
                         GroupedBaseChanges(program_, request));
}

}  // namespace dsched::datalog
