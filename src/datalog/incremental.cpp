#include "datalog/incremental.hpp"

#include <algorithm>
#include <iterator>
#include <sstream>

#include "datalog/delta_buffer.hpp"
#include "datalog/maintenance.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace dsched::datalog {

OldStateView::OldStateView(const RelationStore& live,
                           const std::vector<PredicateDelta>& net,
                           const std::vector<std::uint32_t>& relevant)
    : live_(live) {
  overlays_.reserve(relevant.size());
  for (const std::uint32_t p : relevant) {
    if (Find(p) != nullptr) {
      continue;
    }
    Overlay& overlay = overlays_.emplace_back();
    overlay.predicate = p;
    overlay.inserted = net[p].inserted;
    for (std::size_t i = 0; i < overlay.inserted.size(); ++i) {
      overlay.inserted_set.Insert(
          static_cast<std::uint32_t>(i),
          [&overlay](std::uint32_t id) { return RowView(overlay.inserted[id]); });
    }
    overlay.extras.reserve(net[p].deleted.size());
    for (const Tuple& t : net[p].deleted) {
      overlay.AddExtra(t);
    }
  }
}

void OldStateView::Overlay::AddExtra(const Tuple& tuple) {
  if (IsExtra(tuple)) {
    return;
  }
  extras.push_back(tuple);
  extras_set.Insert(static_cast<std::uint32_t>(extras.size() - 1),
                    [this](std::uint32_t id) { return RowView(extras[id]); });
}

const OldStateView::Overlay* OldStateView::Find(std::uint32_t predicate) const {
  for (const Overlay& overlay : overlays_) {
    if (overlay.predicate == predicate) {
      return &overlay;
    }
  }
  return nullptr;
}

void OldStateView::AddDeletedExtra(std::uint32_t predicate,
                                   const Tuple& tuple) {
  auto* overlay = const_cast<Overlay*>(Find(predicate));
  DSCHED_CHECK_MSG(overlay != nullptr, "deleted extra of an unread predicate");
  overlay->AddExtra(tuple);
}

bool OldStateView::ContainsTuple(std::uint32_t predicate,
                                 RowView tuple) const {
  const Overlay* overlay = Find(predicate);
  if (live_.Of(predicate).Contains(tuple)) {
    return overlay == nullptr || !overlay->IsInserted(tuple);
  }
  return overlay != nullptr && overlay->IsExtra(tuple);
}

RowView OldStateView::RowAt(std::uint32_t predicate,
                            std::uint32_t row) const {
  if ((row & Relation::kExtraBit) != 0) {
    return Find(predicate)->extras[row & ~Relation::kExtraBit];
  }
  return live_.Of(predicate).Row(row);
}

OldStateView::PreparedIndex OldStateView::Prepare(
    std::uint32_t predicate, const std::vector<std::size_t>& columns) const {
  return {Find(predicate), &columns, live_.Prepare(predicate, columns)};
}

std::vector<std::uint32_t> OldStateView::LookupPrepared(
    const PreparedIndex& prepared, const Tuple& key) const {
  const std::vector<std::size_t>& columns = *prepared.columns;
  const auto live_ids = RelationStore::LookupPrepared(prepared.live, key);
  const Overlay* overlay = prepared.overlay;
  std::vector<std::uint32_t> out;
  if (overlay == nullptr) {
    out.assign(live_ids.begin(), live_ids.end());
    return out;
  }
  out.reserve(live_ids.size());
  for (const std::uint32_t id : live_ids) {
    if (!overlay->IsInserted(RelationStore::RowIn(prepared.live, id))) {
      out.push_back(id);
    }
  }
  const auto& extras = overlay->extras;
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
  const Overlay* overlay = Find(predicate);
  return live_.Of(predicate).Size() +
         (overlay == nullptr ? 0 : overlay->extras.size());
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
  const auto for_each_lower = [&](const auto& fn) {
    for (const std::size_t r : strat.component_rules[component]) {
      for (const BodyElement& element : program.rules[r].body) {
        const auto* literal = std::get_if<Literal>(&element);
        if (literal != nullptr &&
            strat.component_of[literal->atom.predicate] != component) {
          fn(*literal);
        }
      }
    }
  };
  for_each_lower([&](const Literal& literal) {
    const PredicateDelta& lower = net[literal.atom.predicate];
    deletion_input = deletion_input ||
                     !(literal.negated ? lower.inserted : lower.deleted).empty();
  });
  if (!deletion_input) {
    return std::nullopt;
  }
  std::vector<std::uint32_t> relevant(members.begin(), members.end());
  for_each_lower([&relevant](const Literal& literal) {
    relevant.push_back(literal.atom.predicate);
  });
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
      buffer.reserve(rows.size());
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
      buffer.reserve(restriction.rows.size());
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
    fresh.reserve(fresh.size() + base.insertions[p].size());
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
    SeedSpans seeds;
    const auto add_seed = [&](std::uint32_t p) {
      const bool listed =
          std::any_of(seeds.begin(), seeds.end(),
                      [p](const auto& seed) { return seed.first == p; });
      if (!listed && !net[p].inserted.empty()) {
        seeds.emplace_back(p, net[p].inserted);
      }
    };
    for (const std::uint32_t p : members) {
      add_seed(p);
    }
    for (const std::size_t r : rule_ids) {
      for (const BodyElement& element : program.rules[r].body) {
        if (const auto* literal = std::get_if<Literal>(&element)) {
          if (!literal->negated) {
            add_seed(literal->atom.predicate);
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
  for (std::size_t m = 0; m < members.size(); ++m) {
    const std::uint32_t p = members[m];
    PredicateDelta& delta = net[p];
    if (!phase_deleted.empty() && !phase_deleted[m].empty()) {
      const TupleSet& erased = phase_deleted[m];
      std::erase_if(delta.inserted,
                    [&erased](const Tuple& t) { return erased.contains(t); });
      delta.deleted.reserve(delta.deleted.size() + erased.size());
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

  // The member rows this phase erases, by member position; sized only when
  // something can lose support.
  std::vector<TupleSet> phase_deleted;
  if (std::optional<OldStateView> old_state =
          DeletionInputView(program, strat, component, store, base, net)) {
    phase_deleted.resize(members.size());
    // -------------------------------------------------------------- 1.
    // OVERDELETE.  Seed D with (a) base deletions of member predicates and
    // (b) heads of rules fired with a deleted positive input or an inserted
    // negated input, all joined against the OLD state: the live store
    // corrected by the finalized deltas of exactly the predicates this
    // phase may read, growing member extras as the phase erases tuples.  No
    // database snapshot is taken.
    // This round's overdeletions, by member position.
    std::vector<std::vector<Tuple>> overdelete(members.size());
    std::vector<std::vector<Tuple>> current(members.size());
    const auto queue_overdeleted = [&](std::uint32_t pred, const Tuple& t) {
      const std::uint32_t m = strat.member_index[pred];
      if (phase_deleted[m].insert(t).second) {
        overdelete[m].push_back(t);
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
      current.swap(overdelete);
      for (std::vector<Tuple>& rows : overdelete) {
        rows.clear();
      }
      if (std::all_of(current.begin(), current.end(),
                      [](const std::vector<Tuple>& rows) {
                        return rows.empty();
                      })) {
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
          const std::vector<Tuple>& rows =
              current[strat.member_index[literal->atom.predicate]];
          if (rows.empty()) {
            continue;
          }
          DeltaRestriction restriction;
          restriction.body_index = i;
          restriction.rows = rows;
          buffer.reserve(rows.size());
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
    // back, and seeds the forward phase's continuation.  Each rule's probe
    // is planned at its first use and serves every later tuple.
    std::vector<std::optional<DerivationProbe>> probes(rule_ids.size());
    for (std::size_t m = 0; m < members.size(); ++m) {
      const std::uint32_t p = members[m];
      net[p].inserted.reserve(net[p].inserted.size() +
                              phase_deleted[m].size());
      for (const Tuple& t : phase_deleted[m]) {
        for (std::size_t k = 0; k < rule_ids.size(); ++k) {
          const Rule& rule = program.rules[rule_ids[k]];
          if (rule.head.predicate != p) {
            continue;
          }
          if (!probes[k]) {
            probes[k].emplace(program, store, rule, comp_stats.eval);
          }
          if (probes[k]->IsDerivable(t)) {
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

}  // namespace dsched::datalog
