#include "datalog/compiled_program.hpp"

#include <utility>

#include "datalog/validate.hpp"

namespace dsched::datalog {

std::shared_ptr<CompiledProgram> CompileProgram(Program program) {
  ValidateProgram(program);
  auto compiled = std::make_shared<CompiledProgram>();
  compiled->version = 1;
  compiled->program = std::move(program);
  compiled->strat = Stratify(compiled->program);
  compiled->plan = BuildPipelinePlan(compiled->program, compiled->strat);
  compiled->graph =
      BuildActivationGraph(compiled->program, compiled->strat, compiled->plan);
  return compiled;
}

std::shared_ptr<CompiledProgram> RecompileProgram(
    const CompiledProgram& old, Program program,
    const std::vector<std::uint32_t>& changed_heads,
    std::vector<bool>* affected_out, EvolveStats* stats) {
  // Validate and re-stratify BEFORE allocating the snapshot's version so a
  // throw leaves nothing half-published.
  ValidateProgram(program);
  RestratifyStats restrat;
  Stratification strat =
      RestratifyAffected(program, old.strat, old.program.NumPredicates(),
                         changed_heads, affected_out, &restrat);

  auto compiled = std::make_shared<CompiledProgram>();
  compiled->version = old.version + 1;
  compiled->program = std::move(program);
  compiled->strat = std::move(strat);
  compiled->plan = BuildPipelinePlan(compiled->program, compiled->strat);
  compiled->graph =
      BuildActivationGraph(compiled->program, compiled->strat, compiled->plan);
  if (stats != nullptr) {
    stats->cone_predicates = restrat.cone_predicates;
    stats->cone_components = restrat.cone_components;
    stats->reused_components = restrat.reused_components;
  }
  return compiled;
}

}  // namespace dsched::datalog
