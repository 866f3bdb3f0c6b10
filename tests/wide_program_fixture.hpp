// Shared test fixture: the "wide" Datalog program used by the parallel,
// stress, and service tests.  One copy, three consumers — the program has
// genuinely parallel structure (several independent derived chains off
// shared bases, recursion, negation, and a final join), which is what makes
// scheduler/worker sweeps and multi-session interleaving meaningful.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "datalog/compiled_program.hpp"
#include "datalog/eval.hpp"
#include "datalog/incremental.hpp"
#include "datalog/maintenance.hpp"
#include "datalog/parser.hpp"
#include "datalog/relation.hpp"
#include "datalog/stratify.hpp"
#include "util/rng.hpp"

namespace dsched::testing {

constexpr const char* kWideProgram = R"(
  tc(X, Y) :- e(X, Y).
  tc(X, Z) :- tc(X, Y), e(Y, Z).
  rev(Y, X) :- e(X, Y).
  revtc(X, Y) :- rev(X, Y).
  revtc(X, Z) :- revtc(X, Y), rev(Y, Z).
  hasout(X) :- e(X, _).
  deadend(X) :- n(X), !hasout(X).
  hot(X) :- mark(X).
  hotpair(X, Y) :- hot(X), tc(X, Y).
  cold(X) :- n(X), !hot(X).
  summary(X, Y) :- hotpair(X, Y), revtc(Y, X).
)";

inline std::vector<datalog::Tuple> Sorted(std::vector<datalog::Tuple> rows) {
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// EXPECT-asserts predicate-by-predicate tuple-set equality of two stores
/// over the same program.
inline void ExpectStoresEqual(const datalog::Program& program,
                              const datalog::RelationStore& a,
                              const datalog::RelationStore& b,
                              const char* what) {
  for (std::uint32_t pred = 0; pred < program.NumPredicates(); ++pred) {
    EXPECT_EQ(Sorted(a.Of(pred).Tuples()), Sorted(b.Of(pred).Tuples()))
        << what << ": predicate " << program.predicate_names[pred];
  }
}

/// The serial replay step of the equality tests: one DRed update of
/// `store`, on the calling thread, with no scheduler or executor.
inline datalog::UpdateResult SerialUpdate(
    const datalog::Program& program, const datalog::Stratification& strat,
    datalog::RelationStore& store, const datalog::UpdateRequest& request) {
  return datalog::PropagateUpdateWithStrategy(
      program, strat, store, datalog::GroupedBaseChanges(program, request),
      datalog::MaintenanceStrategy::kDRed);
}

/// A compiled kWideProgram with its own store, ready for Base().
struct WideFixture {
  std::shared_ptr<const datalog::CompiledProgram> compiled =
      datalog::CompileProgram(datalog::ParseProgram(kWideProgram));
  const datalog::Program& program = compiled->program;
  const datalog::Stratification& strat = compiled->strat;
  datalog::RelationStore store{program};

  /// Seeds n/mark/e with a random instance and evaluates to fixpoint.
  void Base(util::Rng& rng, int nodes, double edge_prob) {
    const auto e = program.PredicateId("e");
    const auto n = program.PredicateId("n");
    const auto mark = program.PredicateId("mark");
    for (int i = 0; i < nodes; ++i) {
      store.Of(n).Insert({datalog::Value::Int(i)});
      if (rng.NextBool(0.3)) {
        store.Of(mark).Insert({datalog::Value::Int(i)});
      }
    }
    for (int i = 0; i < nodes; ++i) {
      for (int j = 0; j < nodes; ++j) {
        if (i != j && rng.NextBool(edge_prob)) {
          store.Of(e).Insert({datalog::Value::Int(i), datalog::Value::Int(j)});
        }
      }
    }
    datalog::EvaluateProgram(program, strat, store);
  }
};

/// A small random e/mark churn batch against kWideProgram's base relations.
inline datalog::UpdateRequest RandomUpdate(const datalog::Program& program,
                                           util::Rng& rng, int nodes) {
  using datalog::Tuple;
  using datalog::Value;
  datalog::UpdateRequest request;
  const auto e = program.PredicateId("e");
  const auto mark = program.PredicateId("mark");
  for (int tries = 0; tries < 8; ++tries) {
    const int i =
        static_cast<int>(rng.NextBelow(static_cast<std::uint64_t>(nodes)));
    const int j =
        static_cast<int>(rng.NextBelow(static_cast<std::uint64_t>(nodes)));
    if (i == j) {
      continue;
    }
    if (rng.NextBool(0.5)) {
      request.insertions.emplace_back(e, Tuple{Value::Int(i), Value::Int(j)});
    } else {
      request.deletions.emplace_back(e, Tuple{Value::Int(i), Value::Int(j)});
    }
  }
  const int m =
      static_cast<int>(rng.NextBelow(static_cast<std::uint64_t>(nodes)));
  if (rng.NextBool(0.5)) {
    request.insertions.emplace_back(mark, Tuple{Value::Int(m)});
  } else {
    request.deletions.emplace_back(mark, Tuple{Value::Int(m)});
  }
  return request;
}

/// A batch of exactly `size` base changes over e and mark, about half
/// inserts and half deletes.  The dispatch decision counts raw changes, so
/// repeats and no-ops count too.
inline datalog::UpdateRequest SizedUpdate(const datalog::Program& program,
                                          util::Rng& rng, int nodes,
                                          std::size_t size) {
  using datalog::Tuple;
  using datalog::Value;
  const auto e = program.PredicateId("e");
  const auto mark = program.PredicateId("mark");
  const auto pick = [&] {
    return Value::Int(
        static_cast<std::int64_t>(rng.NextBelow(static_cast<std::uint64_t>(nodes))));
  };
  datalog::UpdateRequest request;
  while (request.insertions.size() + request.deletions.size() < size) {
    auto& side = rng.NextBool(0.5) ? request.insertions : request.deletions;
    if (rng.NextBool(0.8)) {
      side.emplace_back(e, Tuple{pick(), pick()});
    } else {
      side.emplace_back(mark, Tuple{pick()});
    }
  }
  return request;
}

}  // namespace dsched::testing
