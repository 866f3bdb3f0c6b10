// High-level facade: parse → validate → stratify → materialize → update.
//
//   Database db(R"(
//     path(X, Y) :- edge(X, Y).
//     path(X, Z) :- path(X, Y), edge(Y, Z).
//   )");
//   db.Insert("edge", {db.Sym("a"), db.Sym("b")});
//   db.Materialize();
//   auto rows = db.Query("path");
//   Database::Update u;
//   u.Insert("edge", {db.Sym("b"), db.Sym("c")});
//   auto stats = db.Apply(u);         // incremental, not from scratch
//
// Program-derived state lives in a versioned, immutable CompiledProgram
// snapshot (compiled_program.hpp).  EvolveAddRules/EvolveRemoveRule publish
// a new version atomically; concurrent readers (the wire frontend's op
// translation, query rendering) pin Snapshot() once per dispatch and never
// observe a torn (program, strat, plan) triple.  The relation store is
// shared across versions — evolution maintains it in place.
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "datalog/ast.hpp"
#include "datalog/compiled_program.hpp"
#include "datalog/incremental.hpp"
#include "datalog/maintenance.hpp"
#include "datalog/parallel_update.hpp"
#include "datalog/parser.hpp"
#include "datalog/relation.hpp"
#include "datalog/stratify.hpp"

namespace dsched::runtime {
class TaskRouter;
}

namespace dsched::datalog {

/// One materialized Datalog database.
class Database {
 public:
  /// Parses, validates, and stratifies the program text.  Throws
  /// util::ParseError / util::InvalidArgument on bad programs.
  explicit Database(std::string_view program_text);

  /// Interns a symbol constant.  Thread-safe against concurrent Sym calls
  /// and against rule evolution (the table is append-only; ids are stable
  /// across program versions).
  [[nodiscard]] Value Sym(std::string_view name) {
    const std::lock_guard<std::mutex> lock(sym_mutex_);
    return Value::Symbol(compiled_->program.symbols.Intern(name));
  }

  /// Renders symbol ids under the lock Sym interns under, held for this
  /// view's lifetime: a caller rendering many values (a whole query
  /// result) locks once, not once per value.  The table read is the CURRENT one —
  /// at least as new as any id obtained from this database, so every id
  /// renders.  Do not call Sym (or evolve rules) while holding one.
  class SymbolNames {
   public:
    [[nodiscard]] const std::string& Of(const Value& value) const {
      return symbols_.NameOf(value.AsSymbol());
    }

   private:
    friend class Database;
    explicit SymbolNames(const Database& db)
        : lock_(db.sym_mutex_), symbols_(db.compiled_->program.symbols) {}
    std::lock_guard<std::mutex> lock_;
    const SymbolTable& symbols_;
  };
  [[nodiscard]] SymbolNames LockSymbolNames() const {
    return SymbolNames(*this);
  }

  /// Adds a base fact before materialization (or as part of ordinary
  /// evaluation bootstrap).  Tuple arity must match the predicate.
  void Insert(std::string_view predicate, Tuple tuple);

  /// Runs from-scratch evaluation to fixpoint.  Idempotent.
  EvalStats Materialize();

  /// All rows of a predicate (shard-major order; within a shard, insertion
  /// order modulo swap-removal on erase).
  [[nodiscard]] std::vector<Tuple> Query(std::string_view predicate) const;

  /// Membership test.
  [[nodiscard]] bool Contains(std::string_view predicate,
                              const Tuple& tuple) const;

  /// A batch of base changes, built against this database's interning.
  class Update {
   public:
    Update& Insert(std::string_view predicate, Tuple tuple);
    Update& Delete(std::string_view predicate, Tuple tuple);

    /// The accumulated raw request (predicate-id form) — how the service
    /// layer hands a built batch to a session queue.
    [[nodiscard]] const UpdateRequest& Request() const { return request_; }

   private:
    friend class Database;
    explicit Update(Database& db) : db_(&db) {}
    Database* db_;
    UpdateRequest request_;
  };

  /// Starts an update batch.
  [[nodiscard]] Update MakeUpdate() { return Update(*this); }

  /// Applies a batch incrementally.  Requires Materialize() first.
  UpdateResult Apply(const Update& update);

  /// Raw-request variants of Apply for callers (the service session loop)
  /// that already hold predicate-id batches; a built Update hands its
  /// batch over through Request().  Each dispatch pins the compiled-program
  /// snapshot exactly once and reads everything program-derived off that
  /// pin.
  ///
  /// ApplyRequestParallel executes the per-component phases in parallel on
  /// `router`'s shared pool, ordered by a scheduler (see
  /// datalog/parallel_update.hpp); final state identical to ApplyRequest.
  /// It also surfaces executor-level RunStats and the recorded trace over
  /// the version's activation graph.  An empty `options.strategy` inherits
  /// the database default (SetDefaultStrategy).
  UpdateResult ApplyRequest(const UpdateRequest& request);
  UpdateResult ApplyRequest(const UpdateRequest& request,
                            MaintenanceStrategy strategy);
  ParallelUpdateResult ApplyRequestParallel(
      const UpdateRequest& request, runtime::TaskRouter& router,
      const ParallelUpdateOptions& options);

  /// Default maintenance strategy for Apply/ApplyRequest and for
  /// ApplyRequestParallel calls that don't pick their own
  /// (maintenance.hpp).
  void SetDefaultStrategy(MaintenanceStrategy strategy) {
    default_strategy_ = strategy;
  }
  [[nodiscard]] MaintenanceStrategy DefaultStrategy() const {
    return default_strategy_;
  }

  /// What one rule-set evolution did: the maintenance cascade's result,
  /// the program version it published, and the cone/reuse accounting.
  struct EvolveResult {
    UpdateResult update;
    std::uint64_t program_version = 0;
    EvolveStats stats;
  };

  /// Incremental RULE changes (the paper's other trigger: "the rule
  /// definitions change").  Both maintain the materialization without a
  /// from-scratch re-evaluation:
  ///  * EvolveAddRules parses additional clauses (they may introduce new
  ///    predicates), re-stratifies only the affected cone, and propagates
  ///    the new rules' derivations as insertions;
  ///  * EvolveRemoveRule identifies an existing rule by its textual
  ///    clause, removes it, and propagates the loss of its derivations
  ///    under the current default strategy (rederiving anything the
  ///    remaining rules still support).
  /// Maintenance runs only on the cone's components.  Validation or
  /// stratification failures leave the database unchanged (the new
  /// snapshot is built before anything is published).
  EvolveResult EvolveAddRules(std::string_view rules_text);
  EvolveResult EvolveRemoveRule(std::string_view clause_text);

  /// Pins the current compiled snapshot.  The one acquire a concurrent
  /// reader needs: everything program-derived hangs off the returned
  /// pointer, immutable for its lifetime (symbol table aside — see
  /// CompiledProgram).
  [[nodiscard]] std::shared_ptr<const CompiledProgram> Snapshot() const {
    const std::lock_guard<std::mutex> lock(snapshot_mutex_);
    return compiled_;
  }
  /// The current program version (1-based; bumped by every evolution).
  [[nodiscard]] std::uint64_t ProgramVersion() const {
    return Snapshot()->version;
  }

  /// Direct references into the CURRENT snapshot.  Valid only while the
  /// caller is serialized with rule evolution (single-threaded use, or the
  /// session's epoch serialization); concurrent readers pin Snapshot().
  [[nodiscard]] const Program& GetProgram() const {
    return compiled_->program;
  }
  [[nodiscard]] const Stratification& GetStratification() const {
    return compiled_->strat;
  }
  [[nodiscard]] const RelationStore& Store() const { return store_; }
  [[nodiscard]] bool Materialized() const { return materialized_; }

 private:
  /// Seeds, scopes, and runs the maintenance cascade for one published
  /// evolution (shared tail of EvolveAddRules/EvolveRemoveRule).
  UpdateResult PropagateEvolution(const CompiledProgram& next,
                                  const std::vector<bool>& affected,
                                  GroupedBaseChanges& base,
                                  std::vector<bool>& force);

  /// The current snapshot; swapped under BOTH mutexes by evolution.
  std::shared_ptr<CompiledProgram> compiled_;
  /// Guards the compiled_ pointer itself (Snapshot vs swap).
  mutable std::mutex snapshot_mutex_;
  /// Guards the symbol table: Sym interning and SymbolNames rendering vs
  /// the evolution's program deep-copy (which reads the whole table).
  mutable std::mutex sym_mutex_;
  RelationStore store_;
  MaintenanceStrategy default_strategy_ = MaintenanceStrategy::kDRed;
  bool materialized_ = false;
};

}  // namespace dsched::datalog
