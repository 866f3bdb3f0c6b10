// Stratification: predicate dependency analysis and stratum assignment.
//
// Build the predicate dependency graph (edge q → p when q appears in the
// body of a rule with head p; marked "negative" if under negation), find
// its strongly connected components (Tarjan), reject negative edges inside
// a component (unstratifiable), and order the condensation topologically.
// Each SCC is one evaluation unit — the fixpoint granule that later becomes
// a task node in the scheduling DAG.
#pragma once

#include <cstdint>
#include <vector>

#include "datalog/ast.hpp"

namespace dsched::datalog {

/// Result of stratifying one program.
struct Stratification {
  /// Component id per predicate (dense, 0-based).
  std::vector<std::uint32_t> component_of;
  /// Predicates per component.
  std::vector<std::vector<std::uint32_t>> component_members;
  /// Position of each predicate in its component's member list, so a
  /// maintenance phase can index its scaffolding by member, not by
  /// predicate id.
  std::vector<std::uint32_t> member_index;
  /// Components in evaluation order (every dependency precedes its users).
  std::vector<std::uint32_t> component_order;
  /// Rule indices whose head lies in each component.
  std::vector<std::vector<std::size_t>> component_rules;
  /// True when some rule in the component depends on a predicate of the
  /// same component (a genuine fixpoint is needed).
  std::vector<bool> component_recursive;
  /// Stratum number per component (max over dependencies, +1 on negation).
  std::vector<std::uint32_t> component_stratum;

  [[nodiscard]] std::size_t NumComponents() const {
    return component_members.size();
  }
};

/// Computes the stratification; throws util::InvalidArgument when the
/// program uses negation through recursion (unstratifiable).
[[nodiscard]] Stratification Stratify(const Program& program);

/// Work accounting for one incremental re-stratification.
struct RestratifyStats {
  /// Predicates whose derivations can change (the affected cone).
  std::size_t cone_predicates = 0;
  /// Components produced by running Tarjan over the cone subgraph.
  std::size_t cone_components = 0;
  /// Old components carried over verbatim (membership untouched).
  std::size_t reused_components = 0;
};

/// Re-stratifies after a rule-set edit without re-running SCC detection on
/// the whole dependency graph.  `changed_heads` lists the head predicates of
/// every added/removed rule; predicates with id >= `old_num_predicates` are
/// the ones the edit introduced.  The affected cone is the downstream
/// closure of those seeds in the NEW dependency graph; Tarjan runs only on
/// the cone-induced subgraph while every component fully outside the cone is
/// reused from `old` (a rule edit can only create or break cycles through a
/// changed head, and the cone is downstream-closed, so no surviving SCC can
/// straddle the boundary).  The condensation order, strata, and per-
/// component rule lists are rebuilt globally (linear passes).  On return
/// `*affected_out` (when non-null) holds the cone membership bitmap and
/// `*stats` (when non-null) the reuse accounting.  Throws
/// util::InvalidArgument when the edited program is unstratifiable.
[[nodiscard]] Stratification RestratifyAffected(
    const Program& program, const Stratification& old,
    std::size_t old_num_predicates,
    const std::vector<std::uint32_t>& changed_heads,
    std::vector<bool>* affected_out = nullptr,
    RestratifyStats* stats = nullptr);

}  // namespace dsched::datalog
