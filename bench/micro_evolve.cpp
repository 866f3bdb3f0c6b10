// Rule-set evolution benchmark: EvolveAddRules/EvolveRemoveRule against a
// from-scratch rebuild of the final rule set, for every maintenance
// strategy, over two cone shapes that bracket the tentpole's claim:
//
//   small — a two-hop side chain (side/side2 over tag) bolted onto a heavy
//           transitive-closure tower.  Adding side3 or removing the side2
//           rule perturbs one predicate; the tower's strata are untouched
//           and the evolution must not pay for them.  This is the shape the
//           affected-cone scoping exists for and the cells self-gate the
//           acceptance bar: rebuild_ops >= 2x evolve_ops.
//   large — a reach + d1..d3 delta chain where the evolved rule feeds all
//           of tc into reach, so the cone covers most of the derived store.
//           Reported (the ratio naturally collapses toward 1x) but not
//           gated: when everything is affected, affected-only is honest
//           about doing everything.
//
// Each cell evolves a materialized database once, then builds a second
// database from scratch with the final rule set and the same base facts.
// The two stores must agree on an order-independent checksum — the bench
// doubles as an evolve-vs-rebuild equivalence stress — and that checksum,
// the op counts, the cone size and the published program version are all
// deterministic, so CI gates them exactly.
//
//   evolve_ops  — the evolution cascade's total effort: maintenance probes
//                 plus rows inserted/deleted (UpdateResult totals).
//   rebuild_ops — EvalStats::tuples_inserted of the from-scratch
//                 Materialize() of the final program.
//
// Every cell first applies one small base update under its strategy, so
// evolution runs against an incrementally maintained store rather than a
// fresh materialization.
//
// Usage: micro_evolve [--out=BENCH_evolve.json] [--scale=1.0] [--trace=out.json]
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "datalog/database.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace dsched::bench {

using datalog::Database;
using datalog::MaintenanceStrategy;
using datalog::ParseMaintenanceStrategy;
using datalog::RowView;
using datalog::Tuple;
using datalog::Value;

// The removable side2 rule is last so its predicate is the LAST one
// interned: the rebuild program (which never mentions side2) assigns the
// same ids to every other predicate and the checksums stay comparable.
constexpr const char* kSmallBase = R"(
  tc(X, Y) :- e(X, Y).
  tc(X, Z) :- tc(X, Y), e(Y, Z).
  side(X) :- tag(X).
  side2(X) :- side(X).
)";
constexpr const char* kSmallAddRule = "side3(X) :- tag(X), side(X).";
constexpr const char* kSmallRemoveRule = "side2(X) :- side(X).";

constexpr const char* kLargeBase = R"(
  tc(X, Y) :- e(X, Y).
  tc(X, Z) :- tc(X, Y), e(Y, Z).
  reach(X, Y) :- e(X, Y), e(Y, X).
  d1(X, Y) :- reach(X, Y).
  d2(X, Y) :- d1(X, Y).
  d3(X, Y) :- d2(X, Y).
)";
// Feeds all of tc into reach: the cone is {reach, d1, d2, d3} and the
// evolution legitimately rewrites most of the derived store.
constexpr const char* kLargeRule = "reach(X, Y) :- tc(X, Y).";

struct Shape {
  std::string cone;          ///< "small" | "large"
  std::string kind;          ///< "add" | "remove"
  std::string start_text;    ///< program the database is built with
  std::string final_text;    ///< program the rebuild database is built with
  std::string evolve_clause; ///< rule text handed to the evolve call
};

Shape MakeShape(const std::string& cone, const std::string& kind) {
  Shape s;
  s.cone = cone;
  s.kind = kind;
  const bool small = cone == "small";
  const std::string base = small ? kSmallBase : kLargeBase;
  const std::string rule = small ? (kind == "add" ? kSmallAddRule
                                                  : kSmallRemoveRule)
                                 : kLargeRule;
  s.evolve_clause = rule;
  if (kind == "add") {
    s.start_text = base;
    s.final_text = base + ("\n  " + rule + "\n");
  } else {
    // Small removal drops the trailing side2 rule from the base text;
    // large removal starts from base + the reach rule and drops it again.
    if (small) {
      s.start_text = base;
      const std::size_t at = s.start_text.rfind("side2");
      s.final_text = s.start_text.substr(0, at - 2);  // "  side2..." line
    } else {
      s.start_text = base + ("\n  " + rule + "\n");
      s.final_text = base;
    }
  }
  return s;
}

Tuple Row1(std::int64_t a) { return {Value::Int(a)}; }
Tuple Row2(std::int64_t a, std::int64_t b) {
  return {Value::Int(a), Value::Int(b)};
}

/// Deterministic shared base facts: a random digraph on `v` nodes dense
/// enough for long tc chains, plus `t` tag values for the side chain.
struct BaseFacts {
  std::vector<std::pair<std::int64_t, std::int64_t>> edges;
  std::int64_t tags = 0;
};

BaseFacts MakeBase(double scale) {
  BaseFacts base;
  const auto v = static_cast<std::int64_t>(24.0 * std::sqrt(scale));
  base.tags = static_cast<std::int64_t>(64.0 * scale);
  util::Rng rng(0xe701u);
  for (std::int64_t i = 0; i < v; ++i) {
    for (std::int64_t j = 0; j < v; ++j) {
      if (i != j && rng.NextBool(0.12)) {
        base.edges.emplace_back(i, j);
      }
    }
  }
  return base;
}

/// The small programs take the side chain's tag facts; the large ones only
/// know `e`.
void InsertBase(Database& db, const BaseFacts& base, bool with_tags) {
  for (const auto& [a, b] : base.edges) {
    db.Insert("e", Row2(a, b));
  }
  if (with_tags) {
    for (std::int64_t i = 0; i < base.tags; ++i) {
      db.Insert("tag", Row1(i));
    }
  }
}

/// The warm-up row: a fresh tag for the small shapes, an isolated fresh
/// edge (no contact with the random digraph) for the large ones.
std::pair<const char*, Tuple> WarmFact(const std::string& cone,
                                       const BaseFacts& base) {
  if (cone == "small") {
    return {"tag", Row1(base.tags)};
  }
  return {"e", Row2(9999, 10000)};
}

/// Order-independent content fingerprint over the whole store (the
/// micro_maint fingerprint; empty relations contribute nothing, so the
/// evolved database's retired side2 relation doesn't skew the compare).
std::uint64_t Checksum(const Database& db) {
  std::uint64_t sum = 0;
  const datalog::RelationStore& store = db.Store();
  for (std::size_t p = 0; p < store.NumRelations(); ++p) {
    const auto pred = static_cast<std::uint32_t>(p);
    store.Of(pred).ForEachRow([&sum, pred](std::uint32_t, RowView row) {
      std::uint64_t h = pred + 1;
      for (const Value& v : row) {
        h = h * 0x100000001b3ULL + v.Bits();
      }
      sum += h;
    });
  }
  return sum;
}

struct Cell {
  std::string kind;
  std::string cone;
  std::string strategy;
  std::uint64_t cone_preds = 0;
  std::uint64_t reused_components = 0;
  std::uint64_t evolve_ops = 0;
  std::uint64_t rebuild_ops = 0;
  std::uint64_t program_version = 0;
  std::uint64_t evolve_checksum = 0;
  std::uint64_t rebuild_checksum = 0;
  double seconds = 0.0;  ///< the evolve call only
};

Cell RunCell(const Shape& shape, const BaseFacts& base,
             const std::string& strategy_name) {
  Cell cell;
  cell.kind = shape.kind;
  cell.cone = shape.cone;
  cell.strategy = strategy_name;
  const MaintenanceStrategy strategy =
      ParseMaintenanceStrategy(strategy_name);

  const bool small = shape.cone == "small";
  Database db(shape.start_text);
  db.SetDefaultStrategy(strategy);
  InsertBase(db, base, small);
  db.Materialize();

  // One warm-up base update under the cell's strategy.  The extra row
  // joins the rebuild base too.
  const auto [warm_pred, warm_row] = WarmFact(shape.cone, base);
  Database::Update warm = db.MakeUpdate();
  warm.Insert(warm_pred, warm_row);
  db.Apply(warm);

  util::WallTimer timer;
  const Database::EvolveResult result =
      shape.kind == "add" ? db.EvolveAddRules(shape.evolve_clause)
                          : db.EvolveRemoveRule(shape.evolve_clause);
  cell.seconds = timer.ElapsedSeconds();
  cell.cone_preds = result.stats.cone_predicates;
  cell.reused_components = result.stats.reused_components;
  cell.evolve_ops = static_cast<std::uint64_t>(
      result.update.total_maint_ops + result.update.total_inserted +
      result.update.total_deleted);
  cell.program_version = result.program_version;
  cell.evolve_checksum = Checksum(db);

  Database rebuild(shape.final_text);
  rebuild.SetDefaultStrategy(strategy);
  InsertBase(rebuild, base, small);
  rebuild.Insert(warm_pred, warm_row);
  cell.rebuild_ops = rebuild.Materialize().tuples_inserted;
  cell.rebuild_checksum = Checksum(rebuild);
  return cell;
}

void Report(const Cell& c) {
  const double ratio = c.evolve_ops > 0
                           ? static_cast<double>(c.rebuild_ops) /
                                 static_cast<double>(c.evolve_ops)
                           : 0.0;
  std::printf("%-6s %-5s %-9s  cone %3llu preds  reused %3llu  "
              "%7llu evolve_ops  %7llu rebuild_ops  %6.2fx  %10s\n",
              c.kind.c_str(), c.cone.c_str(), c.strategy.c_str(),
              static_cast<unsigned long long>(c.cone_preds),
              static_cast<unsigned long long>(c.reused_components),
              static_cast<unsigned long long>(c.evolve_ops),
              static_cast<unsigned long long>(c.rebuild_ops), ratio,
              util::FormatSeconds(c.seconds).c_str());
}

}  // namespace dsched::bench

int main(int argc, char** argv) {
  using namespace dsched;
  using namespace dsched::bench;
  MicroBenchArgs args;
  args.out = "BENCH_evolve.json";
  if (!ParseMicroBenchArgs(argc, argv, &args)) {
    return 2;
  }
  const auto session = MaybeStartTrace(args.trace);

  const BaseFacts base = MakeBase(args.scale);
  std::vector<Shape> shapes;
  for (const char* cone : {"small", "large"}) {
    for (const char* kind : {"add", "remove"}) {
      shapes.push_back(MakeShape(cone, kind));
    }
  }

  const char* strategies[] = {"dred", "bf"};
  std::vector<Cell> cells;
  int failures = 0;
  for (const Shape& shape : shapes) {
    for (const char* strategy : strategies) {
      Cell cell = RunCell(shape, base, strategy);
      Report(cell);
      if (cell.evolve_checksum != cell.rebuild_checksum) {
        std::fprintf(stderr,
                     "FAIL %s/%s %s: evolved checksum %llu != rebuild %llu "
                     "— evolution diverged from from-scratch\n",
                     cell.kind.c_str(), cell.cone.c_str(), strategy,
                     static_cast<unsigned long long>(cell.evolve_checksum),
                     static_cast<unsigned long long>(cell.rebuild_checksum));
        ++failures;
      }
      cells.push_back(std::move(cell));
    }
  }

  // --- Summary ratios.  Small-cone cells self-gate the tentpole's
  // acceptance bar: affected-only maintenance must beat a full
  // re-materialization by >= 2x.  Large-cone ratios are reported only —
  // the cone covers the store, so parity is the honest outcome.
  struct Ratio {
    std::string key;
    double value = 0.0;
    double gate = 0.0;  ///< self-gate: fail below this (0 = ungated)
  };
  std::vector<Ratio> ratios;
  for (const Cell& c : cells) {
    Ratio r;
    r.key = c.kind + "_" + c.cone + "_" + c.strategy + "_ratio";
    r.value = c.evolve_ops > 0 ? static_cast<double>(c.rebuild_ops) /
                                     static_cast<double>(c.evolve_ops)
                               : 0.0;
    if (c.cone == "small") {
      r.gate = 2.0;
    }
    ratios.push_back(std::move(r));
  }
  for (const Ratio& r : ratios) {
    std::printf("%-28s %7.2fx%s\n", r.key.c_str(), r.value,
                r.gate > 0.0 && r.value < r.gate ? "  (BELOW GATE)" : "");
    if (r.gate > 0.0 && r.value < r.gate) {
      std::fprintf(stderr, "FAIL %s: %.2fx below the %.1fx gate\n",
                   r.key.c_str(), r.value, r.gate);
      ++failures;
    }
  }
  if (failures > 0) {
    return 1;
  }

  std::string json = "{\n  \"bench\": \"micro_evolve\",\n  \"scale\": " +
                     std::to_string(args.scale) + ",\n  \"summary\": {\n";
  for (std::size_t i = 0; i < ratios.size(); ++i) {
    char line[128];
    std::snprintf(line, sizeof line, "    \"%s\": %.2f%s\n",
                  ratios[i].key.c_str(), ratios[i].value,
                  i + 1 < ratios.size() ? "," : "");
    json += line;
  }
  json += "  },\n  \"results\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    char line[320];
    std::snprintf(
        line, sizeof line,
        "    {\"kind\": \"%s\", \"cone\": \"%s\", \"strategy\": \"%s\", "
        "\"cone_preds\": %llu, \"reused_components\": %llu, "
        "\"evolve_ops\": %llu, \"rebuild_ops\": %llu, "
        "\"program_version\": %llu, \"checksum\": %llu, "
        "\"seconds\": %.6f}%s\n",
        c.kind.c_str(), c.cone.c_str(), c.strategy.c_str(),
        static_cast<unsigned long long>(c.cone_preds),
        static_cast<unsigned long long>(c.reused_components),
        static_cast<unsigned long long>(c.evolve_ops),
        static_cast<unsigned long long>(c.rebuild_ops),
        static_cast<unsigned long long>(c.program_version),
        static_cast<unsigned long long>(c.evolve_checksum), c.seconds,
        i + 1 < cells.size() ? "," : "");
    json += line;
  }
  json += "  ]\n}\n";
  if (!WriteBenchFile(args.out, json)) {
    return 1;
  }
  std::printf("wrote %s\n", args.out.c_str());

  obs::MetricsRegistry metrics;
  for (const Cell& c : cells) {
    const std::string key =
        "micro_evolve." + c.kind + "_" + c.cone + "." + c.strategy + ".";
    metrics.Set(key + "cone_preds", c.cone_preds);
    metrics.Set(key + "evolve_ops", c.evolve_ops);
    metrics.Set(key + "rebuild_ops", c.rebuild_ops);
    metrics.Set(key + "checksum", c.evolve_checksum);
    metrics.Set(key + "seconds_ns",
                static_cast<std::uint64_t>(c.seconds * 1e9));
  }
  for (const Ratio& r : ratios) {
    metrics.Set("micro_evolve." + r.key + "_x100",
                static_cast<std::uint64_t>(r.value * 100.0));
  }
  PrintMetrics(metrics);
  FinishTrace(session.get(), args.trace);
  return 0;
}
