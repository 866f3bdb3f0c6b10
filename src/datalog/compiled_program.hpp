// The versioned, immutable compile of one program: everything derived from
// the rule text alone — stratification, component condensation, the
// pipeline plan's levels/fences, and the activation graph every cascade
// runs over — bundled into one snapshot that readers pin with a single
// shared_ptr acquire (DESIGN.md §15).
//
// Splitting these artifacts out of Database is what makes live rule-set
// evolution safe: an EvolveRules swap publishes a complete new version
// atomically, so a pipelined cascade, a query renderer, or the wire
// frontend's op translation always sees ONE consistent
// (program, strat, plan) triple — never a new stratification against an old
// rule list.  The store is deliberately NOT part of the snapshot: relations
// are shared across versions (rule edits only append predicates), and the
// maintenance cascade migrates their contents in place.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "datalog/ast.hpp"
#include "datalog/pipeline_plan.hpp"
#include "datalog/stratify.hpp"

namespace dsched::datalog {

/// Work accounting for one rule-set evolution, surfaced through
/// Database::EvolveResult and the service layer's UpdateOutcome.
struct EvolveStats {
  /// Predicates whose derivations can change (the affected SCC cone).
  std::size_t cone_predicates = 0;
  /// Components re-stratified by the cone-restricted Tarjan run.
  std::size_t cone_components = 0;
  /// Old components reused verbatim (membership untouched by the edit).
  std::size_t reused_components = 0;
};

/// One compiled snapshot.  Immutable after publication with ONE exception:
/// `program.symbols` is append-only and grows under the owning Database's
/// symbol lock (symbol ids are global across versions — every recompile
/// copies its predecessor's table, so a table at least as new as the data
/// renders any id).
struct CompiledProgram {
  /// 1-based, incremented by every successful AddRules/RemoveRule.
  std::uint64_t version = 1;
  Program program;
  Stratification strat;
  PipelinePlan plan;
  ActivationGraph graph;
};

/// Full compile of a freshly parsed program (version 1).  Validates,
/// stratifies from scratch, and builds the pipeline plan and the
/// activation graph.  Throws util::InvalidArgument on unsafe or
/// unstratifiable programs.
[[nodiscard]] std::shared_ptr<CompiledProgram> CompileProgram(Program program);

/// Incremental recompile after a rule edit.  `program` is the edited rule
/// set (predicates only ever appended relative to `old`), `changed_heads`
/// the head predicates of every added/removed rule.  Stratification runs
/// Tarjan only on the affected cone (stratify.hpp RestratifyAffected) and
/// reuses every untouched component of `old`; the pipeline plan and the
/// activation graph are rebuilt globally (linear).  Pure: throws
/// (util::InvalidArgument) without touching `old`, so a failed evolution
/// leaves the database on its current version.  On success
/// `*affected_out` (when non-null) holds the cone bitmap over the NEW
/// predicate space.
[[nodiscard]] std::shared_ptr<CompiledProgram> RecompileProgram(
    const CompiledProgram& old, Program program,
    const std::vector<std::uint32_t>& changed_heads,
    std::vector<bool>* affected_out = nullptr, EvolveStats* stats = nullptr);

}  // namespace dsched::datalog
