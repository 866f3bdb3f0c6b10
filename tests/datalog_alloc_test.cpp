// Allocation budget of serial maintenance.  A component phase on a small
// delta should allocate in proportion to the rows that changed, not per
// probe or per program predicate; this binary counts every global
// operator new made inside Database::ApplyRequest over a seeded stream of
// small batches on the wide benchmark program, and gates the mean per
// batch.  It is its own executable because it replaces the global
// allocation functions.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "datalog/database.hpp"
#include "datalog/eval.hpp"
#include "datalog/maintenance.hpp"
#include "util/rng.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};

void* CountedAlloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* CountedAlignedAlloc(std::size_t size, std::align_val_t align) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  const auto a = static_cast<std::size_t>(align);
  void* p = std::aligned_alloc(a, (size + a - 1) / a * a);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace dsched::datalog {
namespace {

// perfbench's wide program (perfbench/workload.cpp): four chains of six
// non-recursive levels, each chain's first level joining the base key's
// group against a static two-column relation.
constexpr const char* kWideProgram = R"(
  a1(X, V) :- base(X, G), sa(G, V).  b1(X, V) :- base(X, G), sb(G, V).
  c1(X, V) :- base(X, G), sc(G, V).  d1(X, V) :- base(X, G), sd(G, V).
  a2(X, V) :- a1(X, V).  b2(X, V) :- b1(X, V).
  c2(X, V) :- c1(X, V).  d2(X, V) :- d1(X, V).
  a3(X, V) :- a2(X, V).  b3(X, V) :- b2(X, V).
  c3(X, V) :- c2(X, V).  d3(X, V) :- d2(X, V).
  a4(X, V) :- a3(X, V).  b4(X, V) :- b3(X, V).
  c4(X, V) :- c3(X, V).  d4(X, V) :- d3(X, V).
  a5(X, V) :- a4(X, V).  b5(X, V) :- b4(X, V).
  c5(X, V) :- c4(X, V).  d5(X, V) :- d4(X, V).
  a6(X, V) :- a5(X, V).  b6(X, V) :- b5(X, V).
  c6(X, V) :- c5(X, V).  d6(X, V) :- d5(X, V).
)";

constexpr std::int64_t kGroups = 256;
constexpr int kStaticPerGroup = 2;
constexpr std::int64_t kPreloadKeys = 1000;
constexpr int kBatches = 200;
constexpr int kInserts = 4;
constexpr int kDeletes = 4;
/// A key becomes deletable once this many later batches were sent.
constexpr int kDeleteLag = 4;

/// Budgets: mean allocations inside ApplyRequest per 8-op batch.
constexpr double kDRedBudget = 2000.0;
constexpr double kBFBudget = 3000.0;

Tuple Pair(std::int64_t a, std::int64_t b) {
  return {Value::Int(a), Value::Int(b)};
}

std::int64_t GroupOf(std::int64_t key) {
  return static_cast<std::int64_t>(
      (static_cast<std::uint64_t>(key) * 0x9e3779b97f4a7c15ULL) >> 56);
}

/// The seeded stream: static rows, preloaded keys, then batches of fresh
/// inserts and deletes of older keys — the shape of perfbench's wide
/// workloads on one connection.
struct WideStream {
  std::vector<std::pair<std::string, Tuple>> setup;
  std::vector<UpdateRequest> batches;
  std::vector<Tuple> final_base;
};

WideStream MakeStream(const Program& program, std::uint64_t seed) {
  WideStream out;
  util::Rng rng(seed);
  for (const char* pred : {"sa", "sb", "sc", "sd"}) {
    for (std::int64_t g = 0; g < kGroups; ++g) {
      for (int j = 0; j < kStaticPerGroup; ++j) {
        out.setup.emplace_back(
            pred, Pair(g, static_cast<std::int64_t>(rng.NextBelow(1u << 20))));
      }
    }
  }
  std::vector<std::int64_t> live;
  for (std::int64_t k = 0; k < kPreloadKeys; ++k) {
    out.setup.emplace_back("base", Pair(k, GroupOf(k)));
    live.push_back(k);
  }
  const std::uint32_t base = program.PredicateId("base");
  std::vector<std::int64_t> deletable(live);
  std::vector<std::vector<std::int64_t>> inserted;
  std::int64_t next = kPreloadKeys;
  for (int b = 0; b < kBatches; ++b) {
    if (b >= kDeleteLag) {
      const auto& old = inserted[static_cast<std::size_t>(b - kDeleteLag)];
      deletable.insert(deletable.end(), old.begin(), old.end());
    }
    UpdateRequest request;
    for (int d = 0; d < kDeletes; ++d) {
      const auto idx =
          static_cast<std::size_t>(rng.NextBelow(deletable.size()));
      const std::int64_t key = deletable[idx];
      deletable[idx] = deletable.back();
      deletable.pop_back();
      request.deletions.emplace_back(base, Pair(key, GroupOf(key)));
    }
    std::vector<std::int64_t>& mine = inserted.emplace_back();
    for (int i = 0; i < kInserts; ++i) {
      const std::int64_t key = next++;
      request.insertions.emplace_back(base, Pair(key, GroupOf(key)));
      mine.push_back(key);
    }
    out.batches.push_back(std::move(request));
  }
  // Keys still live at the end: the undeleted preload and every later
  // insert not yet deleted.
  for (const std::int64_t k : deletable) {
    out.final_base.push_back(Pair(k, GroupOf(k)));
  }
  for (int b = std::max(0, kBatches - kDeleteLag); b < kBatches; ++b) {
    for (const std::int64_t k : inserted[static_cast<std::size_t>(b)]) {
      out.final_base.push_back(Pair(k, GroupOf(k)));
    }
  }
  return out;
}

std::vector<Tuple> Sorted(std::vector<Tuple> rows) {
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// Replays the stream under `strategy`, counting allocations only inside
/// ApplyRequest; returns the mean per batch and checks the final store
/// against a from-scratch Materialize of the final base facts.
double MeanAllocationsPerBatch(MaintenanceStrategy strategy,
                               std::uint64_t seed) {
  Database db(kWideProgram);
  const WideStream stream = MakeStream(db.GetProgram(), seed);
  for (const auto& [pred, tuple] : stream.setup) {
    db.Insert(pred, tuple);
  }
  db.Materialize();

  std::uint64_t total = 0;
  for (const UpdateRequest& request : stream.batches) {
    g_allocations.store(0, std::memory_order_relaxed);
    g_counting.store(true, std::memory_order_relaxed);
    db.ApplyRequest(request, strategy);
    g_counting.store(false, std::memory_order_relaxed);
    total += g_allocations.load(std::memory_order_relaxed);
  }

  Database fresh(kWideProgram);
  for (const auto& [pred, tuple] : stream.setup) {
    if (pred != "base") {
      fresh.Insert(pred, tuple);
    }
  }
  for (const Tuple& t : stream.final_base) {
    fresh.Insert("base", t);
  }
  fresh.Materialize();
  const Program& program = db.GetProgram();
  for (std::uint32_t p = 0; p < program.NumPredicates(); ++p) {
    const std::string& name = program.predicate_names[p];
    EXPECT_EQ(Sorted(db.Query(name)), Sorted(fresh.Query(name)))
        << MaintenanceStrategyName(strategy) << ": predicate " << name;
  }
  return static_cast<double>(total) / kBatches;
}

TEST(AllocBudgetTest, DRedSmallBatchesStayUnderBudget) {
  const double mean = MeanAllocationsPerBatch(MaintenanceStrategy::kDRed, 1);
  RecordProperty("dred_allocations_per_batch", std::to_string(mean));
  std::printf("dred: %.1f allocations per batch\n", mean);
  EXPECT_LE(mean, kDRedBudget);
}

TEST(AllocBudgetTest, BackwardForwardSmallBatchesStayUnderBudget) {
  const double mean =
      MeanAllocationsPerBatch(MaintenanceStrategy::kBackwardForward, 1);
  RecordProperty("bf_allocations_per_batch", std::to_string(mean));
  std::printf("bf: %.1f allocations per batch\n", mean);
  EXPECT_LE(mean, kBFBudget);
}

}  // namespace
}  // namespace dsched::datalog
