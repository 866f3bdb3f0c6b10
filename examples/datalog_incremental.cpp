// End-to-end pipeline on a retail-flavoured Datalog program — the workload
// class the paper's LogicBlox traces come from:
//
//   program text ──parse/stratify/compile──► activation graph (the
//                                            paper's DAG model, built once)
//   materialized database
//        update ──executor over the graph──► DRed/semi-naive component
//                                            phases on the worker pool
//               ──recorded run──────────────► JobTrace: activation + timings
//               ──schedulers (simulated)────► makespans + scheduling overhead
//
// The program maintains a product hierarchy with rolled-up stock levels,
// promotion eligibility, and restock alerts; the update ships one delivery
// and retires one promotion, and we watch the change cascade.
//
// Usage: datalog_incremental [--strategy=dred|bf]
// The flag picks the maintenance strategy the update cascades run under
// (datalog/maintenance.hpp); the run also prints a DRed-vs-B/F
// maintenance-op comparison for the delivery batch regardless.
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "datalog/database.hpp"
#include "datalog/maintenance.hpp"
#include "runtime/task_router.hpp"
#include "sched/factory.hpp"
#include "service/engine_host.hpp"
#include "service/session.hpp"
#include "sim/audit.hpp"
#include "sim/engine.hpp"
#include "trace/cascade.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace {

constexpr const char* kRetailProgram = R"(
    % category hierarchy: subcat(child, parent)
    ancestorcat(C, P) :- subcat(C, P).
    ancestorcat(C, A) :- ancestorcat(C, P), subcat(P, A).

    % a product belongs to every category above its own
    incat(Prod, Cat) :- product(Prod, Cat).
    incat(Prod, Anc) :- product(Prod, Cat), ancestorcat(Cat, Anc).

    % stock per product, alerts when below the threshold
    low(Prod) :- stock(Prod, Units), threshold(Prod, Min), Units < Min.
    alert(Cat) :- low(Prod), incat(Prod, Cat).

    % rolled-up inventory per category (stratified aggregation)
    totalstock(Cat; sum(Units)) :- incat(Prod, Cat), stock(Prod, Units).
    range(Cat; count()) :- incat(Prod, Cat).

    % promotions apply to whole categories, unless blocked
    promoted(Prod) :- promo(Cat), incat(Prod, Cat), !blocked(Prod).
    pushdeal(Prod) :- promoted(Prod), low(Prod).
  )";

/// Base data: electronics > computers > laptops; groceries.  Works on both
/// a bare Database and a service Session — same bootstrap surface.
template <typename Db>
void SeedRetail(Db& db) {
  using dsched::datalog::Value;
  db.Insert("subcat", {db.Sym("laptops"), db.Sym("computers")});
  db.Insert("subcat", {db.Sym("computers"), db.Sym("electronics")});
  db.Insert("subcat", {db.Sym("phones"), db.Sym("electronics")});
  db.Insert("product", {db.Sym("zenbook"), db.Sym("laptops")});
  db.Insert("product", {db.Sym("thinkpad"), db.Sym("laptops")});
  db.Insert("product", {db.Sym("pixel"), db.Sym("phones")});
  db.Insert("stock", {db.Sym("zenbook"), Value::Int(3)});
  db.Insert("stock", {db.Sym("thinkpad"), Value::Int(40)});
  db.Insert("stock", {db.Sym("pixel"), Value::Int(2)});
  db.Insert("threshold", {db.Sym("zenbook"), Value::Int(5)});
  db.Insert("threshold", {db.Sym("thinkpad"), Value::Int(5)});
  db.Insert("threshold", {db.Sym("pixel"), Value::Int(5)});
  db.Insert("promo", {db.Sym("electronics")});
  db.Insert("blocked", {db.Sym("thinkpad")});
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dsched;
  using datalog::Value;

  std::string strategy_name = "dred";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--strategy=", 11) == 0) {
      strategy_name = argv[i] + 11;
    }
  }
  datalog::MaintenanceStrategy strategy;
  try {
    strategy = datalog::ParseMaintenanceStrategy(strategy_name);
  } catch (const util::Error& err) {
    std::fprintf(stderr, "%s\n", err.what());
    return 2;
  }

  datalog::Database db(kRetailProgram);
  db.SetDefaultStrategy(strategy);
  SeedRetail(db);

  const auto stats = db.Materialize();
  std::printf("materialized: %llu tuples derived (%llu rule applications)\n",
              static_cast<unsigned long long>(stats.tuples_inserted),
              static_cast<unsigned long long>(stats.rule_applications));
  std::printf("alerts: %zu, deals to push: %zu\n", db.Query("alert").size(),
              db.Query("pushdeal").size());
  for (const auto& row : db.Query("totalstock")) {
    std::printf("  totalstock%s\n",
                datalog::TupleToString(row, db.GetProgram().symbols).c_str());
  }

  // --- The update: a delivery restocks the zenbook; the thinkpad block is
  // lifted.  Note what this does NOT touch: the category hierarchy.
  auto update = db.MakeUpdate();
  update.Delete("stock", {db.Sym("zenbook"), Value::Int(3)});
  update.Insert("stock", {db.Sym("zenbook"), Value::Int(25)});
  update.Delete("blocked", {db.Sym("thinkpad")});
  const datalog::UpdateRequest& request = update.Request();
  const auto& program = db.GetProgram();

  // The cascade runs through the executor over the program's activation
  // graph, which records the run as a scheduling trace.
  runtime::TaskRouter router({.workers = 2});
  const datalog::ParallelUpdateResult applied =
      db.ApplyRequestParallel(request, router, {});
  const datalog::UpdateResult& result = applied.update;
  std::printf(
      "\nincremental update (%s + recompute-diff aggregates):\n%s",
      datalog::MaintenanceStrategyName(strategy),
      result.ToString(program, db.GetStratification()).c_str());
  std::printf("alerts now: %zu, deals now: %zu\n", db.Query("alert").size(),
              db.Query("pushdeal").size());
  for (const auto& row : db.Query("totalstock")) {
    std::printf("  totalstock%s\n",
                datalog::TupleToString(row, db.GetProgram().symbols).c_str());
  }

  // --- Strategy shoot-out on that same delivery.  alert(electronics) has
  // redundant support (two low products under electronics): DRed
  // overdeletes it and rederives it, backward/forward proves it alive with
  // one probe.
  std::printf("\nmaintenance-op comparison for the delivery batch:\n");
  std::size_t dred_ops = 0;
  for (const char* name : {"dred", "bf"}) {
    datalog::Database replay(kRetailProgram);
    replay.SetDefaultStrategy(datalog::ParseMaintenanceStrategy(name));
    SeedRetail(replay);
    (void)replay.Materialize();
    const datalog::UpdateResult r = replay.ApplyRequest(request);
    if (dred_ops == 0) {
      dred_ops = r.total_maint_ops;
    }
    std::printf("  %-9s %3zu maintenance ops (%.1fx vs dred)\n", name,
                r.total_maint_ops,
                r.total_maint_ops > 0
                    ? static_cast<double>(dred_ops) /
                          static_cast<double>(r.total_maint_ops)
                    : 0.0);
  }


  // --- The scheduling trace that update recorded.
  const trace::JobTrace& recorded = applied.trace;
  const trace::Cascade cascade = trace::ComputeCascade(recorded);
  std::printf(
      "\nscheduling DAG: %zu nodes (%zu rule components + %zu predicate "
      "collectors), %zu dirtied, %zu activated\n",
      recorded.NumNodes(), recorded.NumNodes() - program.NumPredicates(),
      program.NumPredicates(), recorded.InitialDirty().size(),
      cascade.NumActive());

  // --- Compare schedulers on the extracted trace.
  for (const char* spec : {"levelbased", "logicblox", "hybrid"}) {
    auto scheduler = sched::CreateScheduler(spec);
    sim::SimConfig config;
    config.processors = 4;
    config.record_schedule = true;
    const sim::SimResult sim_result =
        sim::Simulate(recorded, *scheduler, config);
    const bool valid = sim::AuditSchedule(recorded, sim_result).valid;
    std::printf(
        "  %-28s makespan %s, overhead %s, ops %6llu, audit %s\n",
        sim_result.scheduler_name.c_str(),
        util::FormatSeconds(sim_result.makespan).c_str(),
        util::FormatSeconds(sim_result.sched_wall_seconds).c_str(),
        static_cast<unsigned long long>(sim_result.ops.Total()),
        valid ? "ok" : "FAILED");
  }

  // --- The OTHER update kind the paper names: rule definitions change.
  // Add a rush-order rule incrementally, then retire it again.
  db.EvolveAddRules("rush(Prod) :- low(Prod), promoted(Prod).");
  std::printf("\nadded rule 'rush': %zu rush orders derived incrementally\n",
              db.Query("rush").size());
  db.EvolveRemoveRule("rush(Prod) :- low(Prod), promoted(Prod).");
  std::printf("removed rule 'rush': %zu rush orders remain\n",
              db.Query("rush").size());

  // --- And the real thing: hand the same program to the service layer.
  // The EngineHost owns ONE shared worker pool; a session owns the
  // program, its store, its scheduler, and a serialized update queue, and
  // its DRed cascades run on the host's workers (src/service/).
  service::EngineHost host({.workers = 4});
  service::SessionOptions session_options;
  session_options.name = "retail";
  session_options.scheduler_spec = "hybrid";
  session_options.maintenance_strategy = strategy_name;
  auto session = host.OpenSession(kRetailProgram, session_options);
  SeedRetail(*session);
  (void)session->Materialize();
  // Catch the session's store up to the live database: replay the delivery
  // batch serially, then submit the NEXT update through the queue.
  (void)session->Submit(request).get();

  auto restock = session->MakeUpdate();
  restock.Delete("stock", {session->Sym("pixel"), Value::Int(2)});
  restock.Insert("stock", {session->Sym("pixel"), Value::Int(30)});
  const service::UpdateOutcome outcome = session->Submit(restock).get();
  std::printf(
      "\nservice update (epoch %llu, hybrid scheduler on %zu shared "
      "workers): +%zu -%zu tuples, %llu cascade tasks; alerts now: %zu\n",
      static_cast<unsigned long long>(outcome.epoch), host.NumWorkers(),
      outcome.update.total_inserted, outcome.update.total_deleted,
      static_cast<unsigned long long>(outcome.run.executed),
      session->Query("alert").size());
  return 0;
}
