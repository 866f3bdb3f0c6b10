#include "datalog/stratify.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace dsched::datalog {

namespace {

/// Dependency edge q -> p: head p depends on body predicate q.
struct DepEdge {
  std::uint32_t from = 0;  // body predicate
  std::uint32_t to = 0;    // head predicate
  bool negative = false;
};

/// Iterative Tarjan SCC over the predicate dependency graph.
class Tarjan {
 public:
  Tarjan(std::size_t n, const std::vector<std::vector<std::uint32_t>>& adj)
      : adj_(adj),
        index_(n, kUnvisited),
        lowlink_(n, 0),
        on_stack_(n, false),
        component_(n, 0) {}

  void Run() {
    for (std::uint32_t v = 0; v < index_.size(); ++v) {
      if (index_[v] == kUnvisited) {
        Visit(v);
      }
    }
  }

  [[nodiscard]] const std::vector<std::uint32_t>& Components() const {
    return component_;
  }
  [[nodiscard]] std::uint32_t Count() const { return component_count_; }

 private:
  static constexpr std::uint32_t kUnvisited = 0xffffffffU;

  void Visit(std::uint32_t root) {
    struct Frame {
      std::uint32_t v;
      std::size_t edge;
    };
    std::vector<Frame> call_stack{{root, 0}};
    while (!call_stack.empty()) {
      Frame& frame = call_stack.back();
      const std::uint32_t v = frame.v;
      if (frame.edge == 0) {
        index_[v] = lowlink_[v] = next_index_++;
        stack_.push_back(v);
        on_stack_[v] = true;
      }
      bool descended = false;
      while (frame.edge < adj_[v].size()) {
        const std::uint32_t w = adj_[v][frame.edge++];
        if (index_[w] == kUnvisited) {
          call_stack.push_back({w, 0});
          descended = true;
          break;
        }
        if (on_stack_[w]) {
          lowlink_[v] = std::min(lowlink_[v], index_[w]);
        }
      }
      if (descended) {
        continue;
      }
      if (lowlink_[v] == index_[v]) {
        // v roots a component; pop it.
        for (;;) {
          const std::uint32_t w = stack_.back();
          stack_.pop_back();
          on_stack_[w] = false;
          component_[w] = component_count_;
          if (w == v) {
            break;
          }
        }
        ++component_count_;
      }
      call_stack.pop_back();
      if (!call_stack.empty()) {
        const std::uint32_t parent = call_stack.back().v;
        lowlink_[parent] = std::min(lowlink_[parent], lowlink_[v]);
      }
    }
  }

  const std::vector<std::vector<std::uint32_t>>& adj_;
  std::vector<std::uint32_t> index_;
  std::vector<std::uint32_t> lowlink_;
  std::vector<bool> on_stack_;
  std::vector<std::uint32_t> component_;
  std::vector<std::uint32_t> stack_;
  std::uint32_t next_index_ = 0;
  std::uint32_t component_count_ = 0;
};

/// Dependency edges + forward adjacency of `program`.
void CollectDependencies(const Program& program, std::vector<DepEdge>& edges,
                         std::vector<std::vector<std::uint32_t>>& adj) {
  adj.assign(program.NumPredicates(), {});
  for (const Rule& rule : program.rules) {
    for (const BodyElement& element : rule.body) {
      if (const auto* literal = std::get_if<Literal>(&element)) {
        // Aggregation is non-monotone like negation: it must see its inputs
        // complete, so every body edge of an aggregation rule is "negative"
        // (stratum bump, recursion through it rejected).
        edges.push_back({literal->atom.predicate, rule.head.predicate,
                         literal->negated || rule.IsAggregate()});
        adj[literal->atom.predicate].push_back(rule.head.predicate);
      }
    }
  }
}

/// The stratification tail shared by full and incremental builds: given
/// `component_of`/`component_members`, validates stratifiability and fills
/// the member positions, condensation order, recursion flags, strata, and
/// per-component rule lists (all linear in |edges| + |components|).
void FinishStratification(const Program& program,
                          const std::vector<DepEdge>& edges,
                          Stratification& strat) {
  const std::uint32_t num_components =
      static_cast<std::uint32_t>(strat.NumComponents());
  strat.member_index.assign(strat.component_of.size(), 0);
  for (const auto& members : strat.component_members) {
    for (std::size_t i = 0; i < members.size(); ++i) {
      strat.member_index[members[i]] = static_cast<std::uint32_t>(i);
    }
  }

  // Reject negation inside a component (negation through recursion).
  for (const DepEdge& edge : edges) {
    if (edge.negative &&
        strat.component_of[edge.from] == strat.component_of[edge.to]) {
      throw util::InvalidArgument(
          "program is not stratifiable: predicate '" +
          program.predicate_names[edge.to] +
          "' depends non-monotonically (negation or aggregation) on '" +
          program.predicate_names[edge.from] +
          "' within the same recursive component");
    }
  }

  // Condensation adjacency + recursion flags.
  std::vector<std::vector<std::uint32_t>> comp_adj(num_components);
  strat.component_recursive.assign(num_components, false);
  for (const DepEdge& edge : edges) {
    const std::uint32_t cf = strat.component_of[edge.from];
    const std::uint32_t ct = strat.component_of[edge.to];
    if (cf == ct) {
      strat.component_recursive[ct] = true;
    } else {
      comp_adj[cf].push_back(ct);
    }
  }

  // Kahn order over the condensation.
  std::vector<std::size_t> indegree(num_components, 0);
  for (std::uint32_t c = 0; c < num_components; ++c) {
    std::sort(comp_adj[c].begin(), comp_adj[c].end());
    comp_adj[c].erase(std::unique(comp_adj[c].begin(), comp_adj[c].end()),
                      comp_adj[c].end());
  }
  for (std::uint32_t c = 0; c < num_components; ++c) {
    for (const std::uint32_t d : comp_adj[c]) {
      ++indegree[d];
    }
  }
  std::vector<std::uint32_t> queue;
  for (std::uint32_t c = 0; c < num_components; ++c) {
    if (indegree[c] == 0) {
      queue.push_back(c);
    }
  }
  std::sort(queue.begin(), queue.end());
  std::size_t head = 0;
  while (head < queue.size()) {
    const std::uint32_t c = queue[head++];
    strat.component_order.push_back(c);
    for (const std::uint32_t d : comp_adj[c]) {
      if (--indegree[d] == 0) {
        queue.push_back(d);
      }
    }
  }
  DSCHED_CHECK_MSG(strat.component_order.size() == num_components,
                   "condensation has a cycle — Tarjan bug");

  // Stratum numbers: max over dependencies; +1 across a negative edge.
  strat.component_stratum.assign(num_components, 0);
  for (const std::uint32_t c : strat.component_order) {
    std::uint32_t stratum = 0;
    for (const DepEdge& edge : edges) {
      if (strat.component_of[edge.to] != c ||
          strat.component_of[edge.from] == c) {
        continue;
      }
      const std::uint32_t from_stratum =
          strat.component_stratum[strat.component_of[edge.from]];
      stratum = std::max(stratum, from_stratum + (edge.negative ? 1U : 0U));
    }
    strat.component_stratum[c] = stratum;
  }

  // Rules per component (by head predicate); facts included.
  strat.component_rules.assign(num_components, {});
  for (std::size_t r = 0; r < program.rules.size(); ++r) {
    const std::uint32_t c =
        strat.component_of[program.rules[r].head.predicate];
    strat.component_rules[c].push_back(r);
  }
}

}  // namespace

Stratification Stratify(const Program& program) {
  const std::size_t n = program.NumPredicates();

  // Collect dependency edges from the rules.
  std::vector<DepEdge> edges;
  std::vector<std::vector<std::uint32_t>> adj;
  CollectDependencies(program, edges, adj);

  Tarjan tarjan(n, adj);
  tarjan.Run();
  const std::uint32_t num_components = std::max<std::uint32_t>(tarjan.Count(), 0);

  Stratification strat;
  strat.component_of = tarjan.Components();
  strat.component_members.assign(num_components, {});
  for (std::uint32_t p = 0; p < n; ++p) {
    strat.component_members[strat.component_of[p]].push_back(p);
  }

  FinishStratification(program, edges, strat);
  return strat;
}

Stratification RestratifyAffected(const Program& program,
                                  const Stratification& old,
                                  std::size_t old_num_predicates,
                                  const std::vector<std::uint32_t>& changed_heads,
                                  std::vector<bool>* affected_out,
                                  RestratifyStats* stats) {
  const std::size_t n = program.NumPredicates();
  DSCHED_CHECK_MSG(old_num_predicates <= n,
                   "rule edits never remove predicates");

  std::vector<DepEdge> edges;
  std::vector<std::vector<std::uint32_t>> adj;
  CollectDependencies(program, edges, adj);

  // Affected cone: downstream closure (over the NEW graph) of every changed
  // rule head plus every predicate the edit introduced.
  std::vector<bool> affected(n, false);
  std::vector<std::uint32_t> frontier;
  const auto seed = [&](std::uint32_t p) {
    if (!affected[p]) {
      affected[p] = true;
      frontier.push_back(p);
    }
  };
  for (const std::uint32_t h : changed_heads) {
    seed(h);
  }
  for (std::uint32_t p = static_cast<std::uint32_t>(old_num_predicates);
       p < n; ++p) {
    seed(p);
  }
  for (std::size_t i = 0; i < frontier.size(); ++i) {
    for (const std::uint32_t w : adj[frontier[i]]) {
      seed(w);
    }
  }

  Stratification strat;
  strat.component_of.assign(n, 0);
  std::uint32_t next_component = 0;

  // Reuse every old component fully outside the cone, in old-id order.
  // Membership is all-or-none: an old cycle reaching a cone member stays
  // inside the cone (it is downstream-closed through unchanged in-edges),
  // so a partially-affected old component would mean the closure above is
  // broken — check it.
  std::size_t reused = 0;
  for (std::uint32_t oc = 0; oc < old.NumComponents(); ++oc) {
    const std::vector<std::uint32_t>& members = old.component_members[oc];
    std::size_t hit = 0;
    for (const std::uint32_t m : members) {
      hit += affected[m] ? 1u : 0u;
    }
    if (hit != 0) {
      DSCHED_CHECK_MSG(hit == members.size(),
                       "affected cone split an old SCC — closure bug");
      continue;
    }
    for (const std::uint32_t m : members) {
      strat.component_of[m] = next_component;
    }
    strat.component_members.push_back(members);
    ++next_component;
    ++reused;
  }

  // Tarjan over the cone-induced subgraph only.
  std::vector<std::uint32_t> cone;  // local vertex id -> predicate id
  std::vector<std::uint32_t> local(n, 0xffffffffU);
  for (std::uint32_t p = 0; p < n; ++p) {
    if (affected[p]) {
      local[p] = static_cast<std::uint32_t>(cone.size());
      cone.push_back(p);
    }
  }
  std::vector<std::vector<std::uint32_t>> cone_adj(cone.size());
  for (const DepEdge& edge : edges) {
    if (affected[edge.from] && affected[edge.to]) {
      cone_adj[local[edge.from]].push_back(local[edge.to]);
    }
  }
  Tarjan tarjan(cone.size(), cone_adj);
  tarjan.Run();
  strat.component_members.resize(next_component + tarjan.Count());
  for (std::uint32_t i = 0; i < cone.size(); ++i) {
    const std::uint32_t c = next_component + tarjan.Components()[i];
    strat.component_of[cone[i]] = c;
    strat.component_members[c].push_back(cone[i]);
  }

  FinishStratification(program, edges, strat);

  if (affected_out != nullptr) {
    *affected_out = std::move(affected);
  }
  if (stats != nullptr) {
    stats->cone_predicates = cone.size();
    stats->cone_components = tarjan.Count();
    stats->reused_components = reused;
  }
  return strat;
}

}  // namespace dsched::datalog
