#include "datalog/database.hpp"

#include <functional>
#include <utility>

#include "datalog/eval.hpp"
#include "datalog/parallel_update.hpp"
#include "obs/obs.hpp"
#include "util/error.hpp"

namespace dsched::datalog {

Database::Database(std::string_view program_text)
    : compiled_(CompileProgram(ParseProgram(program_text))) {
  store_ = RelationStore(compiled_->program);
}

void Database::Insert(std::string_view predicate, Tuple tuple) {
  DSCHED_CHECK_MSG(!materialized_,
                   "use MakeUpdate()/Apply() after materialization");
  const Program& program = compiled_->program;
  const std::uint32_t pred = program.PredicateId(predicate);
  if (tuple.size() != program.predicate_arities[pred]) {
    throw util::InvalidArgument("arity mismatch inserting into '" +
                                std::string(predicate) + "'");
  }
  store_.Of(pred).Insert(tuple);
}

EvalStats Database::Materialize() {
  const EvalStats stats =
      EvaluateProgram(compiled_->program, compiled_->strat, store_);
  materialized_ = true;
  return stats;
}

std::vector<Tuple> Database::Query(std::string_view predicate) const {
  const std::shared_ptr<const CompiledProgram> snap = Snapshot();
  return store_.Of(snap->program.PredicateId(predicate)).Tuples();
}

bool Database::Contains(std::string_view predicate, const Tuple& tuple) const {
  const std::shared_ptr<const CompiledProgram> snap = Snapshot();
  return store_.Of(snap->program.PredicateId(predicate)).Contains(tuple);
}

Database::Update& Database::Update::Insert(std::string_view predicate,
                                           Tuple tuple) {
  request_.insertions.emplace_back(
      db_->compiled_->program.PredicateId(predicate), std::move(tuple));
  return *this;
}

Database::Update& Database::Update::Delete(std::string_view predicate,
                                           Tuple tuple) {
  request_.deletions.emplace_back(
      db_->compiled_->program.PredicateId(predicate), std::move(tuple));
  return *this;
}

UpdateResult Database::Apply(const Update& update) {
  return ApplyRequest(update.request_, default_strategy_);
}

UpdateResult Database::PropagateEvolution(const CompiledProgram& next,
                                          const std::vector<bool>& affected,
                                          GroupedBaseChanges& base,
                                          std::vector<bool>& force) {
  const Stratification& strat = next.strat;
  // Restrict the cascade to the affected cone's components: deltas cannot
  // escape the cone (it is downstream-closed), so everything outside is
  // recorded untouched without probing.
  std::vector<bool> only(strat.NumComponents(), false);
  for (std::size_t p = 0; p < affected.size(); ++p) {
    if (affected[p]) {
      only[strat.component_of[p]] = true;
    }
  }

  OBS_SCOPE(Category::kEvolveMaintain);
  return PropagateUpdateWithStrategy(next.program, strat, store_, base,
                                     default_strategy_, &force, &only);
}

Database::EvolveResult Database::EvolveAddRules(std::string_view rules_text) {
  DSCHED_CHECK_MSG(materialized_, "Materialize() before changing rules");
  EvolveResult result;
  std::vector<bool> affected;
  std::shared_ptr<CompiledProgram> next;
  std::size_t old_rule_count = 0;
  {
    // The recompile deep-copies the program — symbol table included, which
    // a concurrent Sym() intern would tear — so hold the symbol lock from
    // copy through publish.  Any failure throws before the swap, leaving
    // this database on its current version.  The cascade runs outside.
    const std::lock_guard<std::mutex> sym_lock(sym_mutex_);
    OBS_SCOPE(Category::kEvolveRecompile);
    Program candidate = compiled_->program;
    old_rule_count = candidate.rules.size();
    ExtendProgram(candidate, rules_text);
    std::vector<std::uint32_t> changed_heads;
    changed_heads.reserve(candidate.rules.size() - old_rule_count);
    for (std::size_t r = old_rule_count; r < candidate.rules.size(); ++r) {
      changed_heads.push_back(candidate.rules[r].head.predicate);
    }
    next = RecompileProgram(*compiled_, std::move(candidate), changed_heads,
                            &affected, &result.stats);
    store_.EnsurePredicates(next->program);
    const std::lock_guard<std::mutex> snap_lock(snapshot_mutex_);
    compiled_ = next;
  }
  result.program_version = next->version;
  OBS_COUNTER(Category::kEvolveConePred, result.stats.cone_predicates);
  OBS_COUNTER(Category::kEvolveReusedComponent,
              result.stats.reused_components);

  // Seed: every new rule's direct derivations against the current state,
  // injected as if they were base insertions of the head predicate.  The
  // propagation rounds complete recursive fixpoints and cascade downstream
  // (including destructive effects through negation).  Aggregate heads are
  // regenerated wholesale by their recompute-diff phase, so forcing their
  // component is enough.
  const Program& program = next->program;
  const Stratification& strat = next->strat;
  GroupedBaseChanges base;
  base.insertions.resize(program.NumPredicates());
  base.deletions.resize(program.NumPredicates());
  std::vector<bool> force(strat.NumComponents(), false);
  EvalStats scratch;
  std::vector<Tuple> buffer;
  const std::function<void(const Tuple&)> collect =
      [&buffer](const Tuple& t) { buffer.push_back(t); };
  for (std::size_t r = old_rule_count; r < program.rules.size(); ++r) {
    const Rule& rule = program.rules[r];
    force[strat.component_of[rule.head.predicate]] = true;
    if (rule.IsAggregate()) {
      continue;
    }
    ApplyRule(program, store_, rule, DeltaRestriction{}, scratch, collect);
    auto& sink = base.insertions[rule.head.predicate];
    for (Tuple& t : buffer) {
      sink.push_back(std::move(t));
    }
    buffer.clear();
  }
  result.update = PropagateEvolution(*next, affected, base, force);
  return result;
}

Database::EvolveResult Database::EvolveRemoveRule(
    std::string_view clause_text) {
  DSCHED_CHECK_MSG(materialized_, "Materialize() before changing rules");
  EvolveResult result;
  std::vector<bool> affected;
  std::shared_ptr<CompiledProgram> next;
  Rule removed;
  {
    const std::lock_guard<std::mutex> sym_lock(sym_mutex_);
    OBS_SCOPE(Category::kEvolveRecompile);
    const Rule target = ParseSingleClause(compiled_->program, clause_text);
    const std::vector<Rule>& rules = compiled_->program.rules;
    std::size_t index = rules.size();
    for (std::size_t r = 0; r < rules.size(); ++r) {
      if (RulesEquivalent(rules[r], target)) {
        index = r;
        break;
      }
    }
    if (index == rules.size()) {
      throw util::InvalidArgument("no such rule in the program: " +
                                  std::string(clause_text));
    }
    removed = rules[index];
    Program candidate = compiled_->program;
    candidate.rules.erase(candidate.rules.begin() +
                          static_cast<std::ptrdiff_t>(index));
    next = RecompileProgram(*compiled_, std::move(candidate),
                            {removed.head.predicate}, &affected,
                            &result.stats);
    const std::lock_guard<std::mutex> snap_lock(snapshot_mutex_);
    compiled_ = next;
  }
  result.program_version = next->version;
  OBS_COUNTER(Category::kEvolveConePred, result.stats.cone_predicates);
  OBS_COUNTER(Category::kEvolveReusedComponent,
              result.stats.reused_components);

  // The removed rule's current derivations are exactly the support it
  // contributed to the fixpoint; inject them as base deletions so the
  // cascade retracts whatever the remaining rules no longer sustain.
  // Aggregate heads are regenerated wholesale by their recompute-diff
  // phase, so forcing their component is enough.
  const Program& program = next->program;
  const Stratification& strat = next->strat;
  GroupedBaseChanges base;
  base.insertions.resize(program.NumPredicates());
  base.deletions.resize(program.NumPredicates());
  std::vector<bool> force(strat.NumComponents(), false);
  force[strat.component_of[removed.head.predicate]] = true;
  EvalStats scratch;
  if (!removed.IsAggregate()) {
    std::vector<Tuple> buffer;
    const std::function<void(const Tuple&)> collect =
        [&buffer](const Tuple& t) { buffer.push_back(t); };
    ApplyRule(program, store_, removed, DeltaRestriction{}, scratch, collect);
    base.deletions[removed.head.predicate] = std::move(buffer);
  }
  result.update = PropagateEvolution(*next, affected, base, force);
  return result;
}

UpdateResult Database::ApplyRequest(const UpdateRequest& request) {
  return ApplyRequest(request, default_strategy_);
}

UpdateResult Database::ApplyRequest(const UpdateRequest& request,
                                    MaintenanceStrategy strategy) {
  DSCHED_CHECK_MSG(materialized_, "Materialize() before applying updates");
  // One snapshot acquire per dispatch: the whole cascade reads this pin.
  const std::shared_ptr<const CompiledProgram> snap = Snapshot();
  return PropagateUpdateWithStrategy(snap->program, snap->strat, store_,
                                     GroupedBaseChanges(snap->program, request),
                                     strategy);
}

ParallelUpdateResult Database::ApplyRequestParallel(
    const UpdateRequest& request, runtime::TaskRouter& router,
    const ParallelUpdateOptions& options) {
  DSCHED_CHECK_MSG(materialized_, "Materialize() before applying updates");
  // One snapshot acquire per dispatch: program, stratification, and the
  // activation graph all come off this pin, so the cascade can never
  // observe a torn program version even while an EvolveRules swap is
  // pending elsewhere.
  const std::shared_ptr<const CompiledProgram> snap = Snapshot();
  ParallelUpdateOptions resolved = options;
  resolved.strategy = options.strategy.value_or(default_strategy_);
  return ::dsched::datalog::ApplyParallel(*snap, store_, request, router,
                                          resolved);
}

}  // namespace dsched::datalog
