#include "datalog/maintenance.hpp"

#include <deque>
#include <optional>
#include <sstream>
#include <unordered_map>

#include "obs/obs.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace dsched::datalog {

const char* MaintenanceStrategyName(MaintenanceStrategy s) {
  switch (s) {
    case MaintenanceStrategy::kDRed:
      return "dred";
    case MaintenanceStrategy::kBackwardForward:
      return "bf";
  }
  return "dred";
}

const std::vector<std::string>& KnownMaintenanceStrategies() {
  static const std::vector<std::string> kNames = {"dred", "bf"};
  return kNames;
}

MaintenanceStrategy ParseMaintenanceStrategy(const std::string& name) {
  if (name == "dred") {
    return MaintenanceStrategy::kDRed;
  }
  if (name == "bf") {
    return MaintenanceStrategy::kBackwardForward;
  }
  std::ostringstream oss;
  oss << "unknown maintenance strategy '" << name << "'; valid values:";
  for (const std::string& known : KnownMaintenanceStrategies()) {
    oss << " " << known;
  }
  throw util::ParseError(oss.str());
}

namespace {

// ------------------------------------------------------------ Backward/Forward

/// Aliveness verdicts during the backward phase.  Absence from the mark
/// map means "not yet probed".
enum class Mark : std::uint8_t { kInStack, kAlive, kDead };

/// The backward-phase DFS.  A suspect tuple is alive iff some rule
/// instance derives it whose member supports are all alive; non-suspect
/// supports are alive by construction — the suspect set is closed under
/// consumption before any probe runs, so a tuple outside it has no
/// derivation touching anything that might die — and lower supports are
/// read from the live store, which already holds the new state.  The
/// in-stack check prunes cyclic proof attempts: a tuple with any
/// derivation has a repeat-free one (a repeated tuple on a proof path
/// can be spliced out), so exploring only repeat-free paths from the root
/// is complete.
///
/// Memoization protocol: kAlive memos are always sound (the proof found
/// is self-contained).  kDead is recorded only when every derivation
/// failed CLEANLY (no in-stack ancestor involved) — an unclean failure
/// only proves the tuple unprovable on the CURRENT path, so the mark is
/// reverted to unknown and the tuple is re-probed as its own root, where
/// the repeat-free argument makes the verdict final.
struct BackwardProber {
  using MarkMap = std::unordered_map<Tuple, Mark, TupleHash, TupleEq>;

  const Program& program;
  const Stratification& strat;
  std::uint32_t component;
  const RelationStore& store;
  /// Per member position: positions in the component's rule list of the
  /// rules deriving that member.
  const std::vector<std::vector<std::size_t>>& rules_by_head;
  std::vector<TupleSet>& suspects;  ///< per member position
  std::vector<MarkMap>& marks;      ///< per member position
  std::vector<std::pair<std::uint32_t, Tuple>>& deaths;
  ComponentUpdateStats& stats;
  /// Per rule of the component: its planned probes, the first live[k] of
  /// them running on the CheckAlive stack.  A recursive check of a rule
  /// whose probe is still enumerating takes the next instance (planned on
  /// first need), so no running join is ever rebound.  The store does not
  /// change while B.3 runs, so every instance plans the same join order.
  std::vector<std::deque<DerivationProbe>>& probes;
  std::vector<std::size_t>& live;

  bool CheckAlive(std::uint32_t pred, const Tuple& t, bool& clean) {
    MarkMap& pred_marks = marks[strat.member_index[pred]];
    const auto it = pred_marks.find(t);
    if (it != pred_marks.end()) {
      if (it->second == Mark::kAlive) {
        return true;
      }
      if (it->second == Mark::kDead) {
        return false;
      }
      clean = false;  // in-stack ancestor: this path is cyclic
      return false;
    }
    pred_marks.emplace(t, Mark::kInStack);
    ++stats.maint_backward_probes;
    OBS_COUNTER(Category::kMaintBackwardProbe, 1);

    bool alive = false;
    bool all_clean = true;
    const std::function<bool(const DerivationProbe::Body&)> live_derivation =
        [this, &all_clean](const DerivationProbe::Body& body) -> bool {
      for (const auto& [bp, bt] : body) {
        if (strat.component_of[bp] != component ||
            !suspects[strat.member_index[bp]].contains(bt)) {
          continue;  // lower or untouched: alive by construction
        }
        bool sub_clean = true;
        if (!CheckAlive(bp, bt, sub_clean)) {
          if (!sub_clean) {
            all_clean = false;
          }
          return false;  // this derivation fails; keep enumerating
        }
      }
      return true;  // every support alive: live derivation, stop
    };
    for (const std::size_t k : rules_by_head[strat.member_index[pred]]) {
      if (live[k] == probes[k].size()) {
        probes[k].emplace_back(
            program, store,
            program.rules[strat.component_rules[component][k]], stats.eval);
      }
      DerivationProbe& probe = probes[k][live[k]++];
      const bool found = probe.ForEachDerivation(t, live_derivation);
      --live[k];
      if (found) {
        alive = true;
        break;
      }
    }
    if (alive) {
      pred_marks[t] = Mark::kAlive;
      return true;
    }
    if (all_clean) {
      pred_marks[t] = Mark::kDead;
      deaths.emplace_back(pred, t);
      return false;
    }
    pred_marks.erase(t);  // unprovable here, maybe provable as a root
    clean = false;
    return false;
  }
};

/// B, the backward phase of Backward/Forward, for one rule-owning,
/// non-aggregate component with a deletion input: seed the suspect set
/// (tuples that lost an old-state derivation), close it under live-store
/// consumption (marking only), prove each suspect alive or dead via
/// backward probes, and only then erase the proven-dead rows, recording
/// them in `phase_deleted` — DRed's overdelete/rederive round-trip never
/// happens.  Every erase is deferred, so member relations stay physically
/// old until the suspect set is resolved and `old_state` accrues no extras.
void RunBackwardPhase(const Program& program, const Stratification& strat,
                      std::uint32_t component, RelationStore& store,
                      const GroupedBaseChanges& base,
                      const std::vector<PredicateDelta>& net,
                      const OldStateView& old_state,
                      std::vector<TupleSet>& phase_deleted,
                      ComponentUpdateStats& comp_stats) {
  const auto& members = strat.component_members[component];
  const auto& rule_ids = strat.component_rules[component];
  // Scaffolding is indexed by member position (Stratification::
  // member_index), never by program predicate.
  std::vector<std::vector<std::size_t>> rules_by_head(members.size());
  for (std::size_t k = 0; k < rule_ids.size(); ++k) {
    rules_by_head[strat.member_index[program.rules[rule_ids[k]].head.predicate]]
        .push_back(k);
  }

  // --- B.1: seed the suspect set with every member tuple that lost an
  // old-state derivation (same seeds DRed overdeletes from) plus the base
  // deletions.
  std::vector<TupleSet> suspects(members.size());
  std::vector<std::pair<std::uint32_t, Tuple>> worklist;
  const auto add_suspect = [&](std::uint32_t pred, const Tuple& t) {
    if (!store.Of(pred).Contains(t)) {
      return;  // only present tuples can die
    }
    if (suspects[strat.member_index[pred]].insert(t).second) {
      worklist.emplace_back(pred, t);
    }
  };
  for (const std::uint32_t p : members) {
    for (const Tuple& t : base.deletions[p]) {
      add_suspect(p, t);
    }
  }
  ForEachLostHead(program, strat, component, old_state, net, comp_stats.eval,
                  add_suspect);
  std::vector<Tuple> buffer;
  const std::function<void(const Tuple&)> collect =
      [&buffer](const Tuple& t) { buffer.push_back(t); };

  // --- B.2: close the suspect set under consumption.  Any tuple with a
  // live-store derivation through a suspect might lose it, so it is
  // suspect too — transitively.  This is DRed's overdeletion closure
  // reduced to MARKING: nothing is deleted and nothing is rederived.
  // The closure is what makes the prober's "non-suspect support is
  // alive" shortcut sound: cyclically-supported clusters (a recursive
  // component's hallmark) all land in the suspect set together instead
  // of vouching for each other from outside it.
  std::size_t wi = 0;
  while (wi < worklist.size()) {
    const auto [sp, st] = worklist[wi++];  // copy: the list grows below
    const std::span<const Tuple> suspect_row(&st, 1);
    for (const std::size_t r : rule_ids) {
      const Rule& rule = program.rules[r];
      for (std::size_t i = 0; i < rule.body.size(); ++i) {
        const auto* literal = std::get_if<Literal>(&rule.body[i]);
        // Member literals are never negated (stratification).
        if (literal == nullptr || literal->atom.predicate != sp ||
            literal->negated) {
          continue;
        }
        DeltaRestriction restriction;
        restriction.body_index = i;
        restriction.rows = suspect_row;
        // Live store: the aliveness probes run over it, so its instance
        // graph is the one whose consumers are at risk.  Erases are all
        // deferred, so every at-risk instance is still visible here.
        ApplyRule(program, store, rule, restriction, comp_stats.eval,
                  collect);
        for (const Tuple& h : buffer) {
          add_suspect(rule.head.predicate, h);
        }
        buffer.clear();
      }
    }
  }

  // --- B.3: probe every suspect.  Verdicts are final: an alive proof
  // grounds out in non-suspect (hence untouched) or lower supports, and a
  // dead verdict means every repeat-free path failed.
  std::vector<BackwardProber::MarkMap> marks(members.size());
  std::vector<std::pair<std::uint32_t, Tuple>> deaths;
  std::vector<std::deque<DerivationProbe>> probes(rule_ids.size());
  std::vector<std::size_t> live(rule_ids.size(), 0);
  BackwardProber prober{program, strat, component, store, rules_by_head,
                        suspects, marks, deaths, comp_stats, probes, live};
  for (const auto& [p, t] : worklist) {
    BackwardProber::MarkMap& p_marks = marks[strat.member_index[p]];
    if (p_marks.contains(t)) {
      continue;  // settled while proving another suspect
    }
    bool clean = true;
    if (!prober.CheckAlive(p, t, clean) && !clean) {
      // Unclean failure AT THE ROOT is final: live tuples have
      // repeat-free derivations, and the root's probe explored exactly
      // the repeat-free paths.
      p_marks[t] = Mark::kDead;
      deaths.emplace_back(p, t);
    }
  }

  // --- B.4: erase the proven dead.  This is the ONLY store mutation of
  // the backward phase.
  for (const auto& [p, t] : deaths) {
    if (phase_deleted[strat.member_index[p]].insert(t).second) {
      store.Of(p).Erase(t);
    }
  }
  std::size_t alive_suspects = 0;
  for (const BackwardProber::MarkMap& member_marks : marks) {
    for (const auto& [t, mark] : member_marks) {
      if (mark == Mark::kAlive) {
        ++alive_suspects;
      }
    }
  }
  comp_stats.maint_avoided = alive_suspects;  // DRed's overdelete+rederive set
  // B/F's deletion-pipeline effort: one probe per aliveness question, one
  // erase per proven-dead tuple.
  comp_stats.maint_ops = comp_stats.maint_backward_probes + deaths.size();
}

}  // namespace

ComponentUpdateStats RunMaintenancePhase(
    MaintenanceStrategy strategy, const Program& program,
    const Stratification& strat, std::uint32_t component, RelationStore& store,
    const GroupedBaseChanges& base, std::vector<PredicateDelta>& net,
    StoreWriteBuffer* scratch) {
  OBS_SCOPE(Category::kMaintPhase);
  const auto& rule_ids = strat.component_rules[component];
  // Aggregate and rule-less components take DRed's path under every
  // strategy (recompute-diff / plain base changes).
  if (strategy == MaintenanceStrategy::kDRed || rule_ids.empty() ||
      program.rules[rule_ids.front()].IsAggregate()) {
    ComponentUpdateStats comp_stats =
        RunComponentPhase(program, strat, component, store, base, net, scratch);
    OBS_COUNTER(Category::kMaintOverdelete, comp_stats.tuples_overdeleted);
    return comp_stats;
  }
  // Backward/Forward: the backward phase (only with a deletion input),
  // then the forward phase shared with DRed.
  util::WallTimer comp_timer;
  ComponentUpdateStats comp_stats;
  comp_stats.component = component;
  comp_stats.input_changed = true;
  std::vector<TupleSet> phase_deleted;
  if (const std::optional<OldStateView> old_state =
          DeletionInputView(program, strat, component, store, base, net)) {
    phase_deleted.resize(strat.component_members[component].size());
    RunBackwardPhase(program, strat, component, store, base, net, *old_state,
                     phase_deleted, comp_stats);
  }
  OBS_COUNTER(Category::kMaintOverdeleteAvoided, comp_stats.maint_avoided);
  RunForwardPhase(program, strat, component, store, base, net, phase_deleted,
                  scratch, comp_stats);
  comp_stats.seconds = comp_timer.ElapsedSeconds();
  return comp_stats;
}

UpdateResult PropagateUpdateWithStrategy(
    const Program& program, const Stratification& strat, RelationStore& store,
    const GroupedBaseChanges& base, MaintenanceStrategy strategy,
    const std::vector<bool>* force_touched,
    const std::vector<bool>* only_components) {
  util::WallTimer total_timer;
  UpdateResult result;
  result.components.reserve(strat.component_order.size());
  std::vector<PredicateDelta> net(program.NumPredicates());

  for (const std::uint32_t component : strat.component_order) {
    const bool allowed =
        only_components == nullptr || (*only_components)[component];
    const bool forced =
        force_touched != nullptr && (*force_touched)[component];
    if (!allowed || (!forced &&
        !ComponentInputTouched(program, strat, component, base, net))) {
      ComponentUpdateStats untouched;
      untouched.component = component;
      result.components.push_back(untouched);
      continue;
    }
    ComponentUpdateStats comp_stats = RunMaintenancePhase(
        strategy, program, strat, component, store, base, net, nullptr);
    result.total_inserted += comp_stats.tuples_inserted;
    result.total_deleted += comp_stats.tuples_deleted;
    result.total_maint_ops += comp_stats.maint_ops;
    result.components.push_back(std::move(comp_stats));
  }

  result.seconds = total_timer.ElapsedSeconds();
  return result;
}

}  // namespace dsched::datalog
