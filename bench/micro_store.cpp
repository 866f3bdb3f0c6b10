// Sharded-store write-path benchmark: contended inserts, probes, and erases
// against the hash-sharded Relation, sweeping shard counts and writer
// counts.  Compares the lock-free publication protocol (ShardedWriteBuffer:
// stage per shard, one atomic append per chunk, absorb-assisting flush)
// against a global-mutex write path — the discipline the engine used before
// shards existed.  Emits BENCH_store.json so future PRs can track the
// trajectory.
//
// Workloads (arity-2 tuples, multiplicative key scatter):
//   serial_insert_pP    — one thread, direct Insert() into P shards; also
//                         reports the store's bytes per row
//                         (MemoryBytes() / rows), self-gated at
//                         kMaxBytesPerRow (exit 1 above it).
//   publish_insert_pP_wW— W writer threads, disjoint keyspaces, each staging
//                         into its own ShardedWriteBuffer and flushing; the
//                         tentpole's hot path.
//   locked_insert_wW    — W writer threads sharing one std::mutex around
//                         direct Insert(); the pre-shard baseline.
//   probe_pP            — one thread, Contains() over a populated store,
//                         alternating hits and misses.
//   mixed_erase_pP      — one thread, insert then erase every other tuple.
//
// Every insert variant must converge to the same relation contents: the
// harness cross-checks an order-independent checksum across shard counts
// and write paths, so the bench doubles as a stress test.
//
// NOTE on scaling numbers: writer threads only overlap when the host has
// cores to run them on.  On a single-core container, publish_insert_p16_w8
// measures protocol overhead under timeslicing, not parallel speedup — the
// `scale_p16_vs_p1_w8` summary ratio is machine-dependent by design and the
// CI gate ignores it (see tools/check_bench.py invocation in ci.yml).
//
// Usage: micro_store [--out=BENCH_store.json] [--scale=1.0] [--trace=out.json]
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "datalog/delta_buffer.hpp"
#include "datalog/relation.hpp"
#include "util/timer.hpp"

namespace dsched::bench {

using datalog::Relation;
using datalog::RowView;
using datalog::ShardedWriteBuffer;
using datalog::Tuple;
using datalog::Value;

// Odd-constant multiply (a bijection mod 2^64) so keys land in arbitrary
// shards and slots; sequential keys would serialize on one shard.
std::uint64_t Scatter(std::uint64_t i) { return i * 0x9e3779b97f4a7c15ULL; }

/// Ceiling on serial_insert_pP's MemoryBytes() / rows at scale >= 1: 16 B
/// of values per row plus one slot word, the 7/8-load table headroom and at
/// most one partly filled arena block per shard.  Smaller smoke scales are
/// dominated by that fixed per-shard slack and are not gated.
constexpr double kMaxBytesPerRow = 34.0;

Tuple MakeTuple(std::uint64_t i) {
  const std::uint64_t k = Scatter(i);
  return {Value::Int(static_cast<std::int64_t>(k & 0x7fffffffULL)),
          Value::Int(static_cast<std::int64_t>(i))};
}

/// Order-independent content fingerprint (shard-major iteration order
/// differs across shard counts; addition does not care).
std::uint64_t Checksum(const Relation& r) {
  std::uint64_t sum = 0;
  r.ForEachRow([&sum](std::uint32_t, RowView row) {
    sum += row[0].Bits() * 3 + row[1].Bits();
  });
  return sum;
}

struct Row {
  std::string workload;
  std::uint64_t rows = 0;      ///< tuples touched per rep
  std::uint64_t checksum = 0;  ///< content fingerprint after the last rep
  double seconds = 0.0;
  double bytes_per_row = 0.0;  ///< MemoryBytes() / rows; 0 = not measured

  [[nodiscard]] double Mops(std::size_t reps) const {
    return seconds > 0.0
               ? static_cast<double>(rows) * static_cast<double>(reps) /
                     seconds / 1e6
               : 0.0;
  }
};

void Report(const Row& r, std::size_t reps) {
  std::printf("%-24s %10llu rows  %10s  %7.2f Mop/s", r.workload.c_str(),
              static_cast<unsigned long long>(r.rows),
              util::FormatSeconds(r.seconds).c_str(), r.Mops(reps));
  if (r.bytes_per_row > 0.0) {
    std::printf("  %5.1f B/row", r.bytes_per_row);
  }
  std::printf("\n");
}

}  // namespace dsched::bench

int main(int argc, char** argv) {
  using namespace dsched;
  using namespace dsched::bench;
  MicroBenchArgs args;
  args.out = "BENCH_store.json";
  if (!ParseMicroBenchArgs(argc, argv, &args)) {
    return 2;
  }
  const std::string& out_path = args.out;
  const std::string& trace_path = args.trace;
  const double scale = args.scale;
  const auto session = MaybeStartTrace(trace_path);

  const auto n_rows = static_cast<std::uint64_t>(200000.0 * scale);
  const std::size_t reps = 3;
  const std::size_t shard_counts[] = {1, 4, 16};
  const std::size_t writer_counts[] = {1, 8};
  std::vector<Row> rows;
  std::uint64_t expected_checksum = 0;  // filled by the first insert variant

  const auto check = [&expected_checksum](const Row& row) {
    if (expected_checksum == 0) {
      expected_checksum = row.checksum;
    } else if (row.checksum != expected_checksum) {
      std::fprintf(stderr, "%s checksum mismatch: %llu != %llu\n",
                   row.workload.c_str(),
                   static_cast<unsigned long long>(row.checksum),
                   static_cast<unsigned long long>(expected_checksum));
      std::exit(1);
    }
  };

  // --- serial_insert_pP: one thread, direct mutators.
  for (const std::size_t p : shard_counts) {
    Row row;
    row.workload = "serial_insert_p" + std::to_string(p);
    row.rows = n_rows;
    util::WallTimer timer;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      Relation r(2, p);
      r.Reserve(n_rows);
      for (std::uint64_t i = 0; i < n_rows; ++i) {
        r.Insert(MakeTuple(i));
      }
      row.checksum = Checksum(r);
      row.bytes_per_row = static_cast<double>(r.MemoryBytes()) /
                          static_cast<double>(r.Size());
    }
    row.seconds = timer.ElapsedSeconds();
    check(row);
    Report(row, reps);
    rows.push_back(row);
  }

  // --- publish_insert_pP_wW: staged writes, lock-free publication.
  for (const std::size_t p : shard_counts) {
    for (const std::size_t w : writer_counts) {
      Row row;
      row.workload =
          "publish_insert_p" + std::to_string(p) + "_w" + std::to_string(w);
      row.rows = n_rows;
      const std::uint64_t per_writer = n_rows / w;
      util::WallTimer timer;
      for (std::size_t rep = 0; rep < reps; ++rep) {
        Relation r(2, p);
        r.Reserve(n_rows);
        std::vector<std::thread> writers;
        writers.reserve(w);
        for (std::size_t t = 0; t < w; ++t) {
          writers.emplace_back([&r, t, per_writer] {
            ShardedWriteBuffer buffer(r);
            const std::uint64_t base = static_cast<std::uint64_t>(t) *
                                       per_writer;
            for (std::uint64_t i = 0; i < per_writer; ++i) {
              buffer.StageInsert(MakeTuple(base + i));
            }
            buffer.Flush();
          });
        }
        for (std::thread& writer : writers) {
          writer.join();
        }
        r.Quiesce();
        row.checksum = Checksum(r);
      }
      row.seconds = timer.ElapsedSeconds();
      if (w == 1) {
        // Disjoint-keyspace splits only cover the full range when w divides
        // n_rows; w=1 always does, so only it cross-checks contents.
        check(row);
      }
      Report(row, reps);
      rows.push_back(row);
    }
  }

  // --- locked_insert_wW: the pre-shard discipline, one mutex for the
  // whole relation (default shard count; the mutex is the bottleneck).
  for (const std::size_t w : writer_counts) {
    Row row;
    row.workload = "locked_insert_w" + std::to_string(w);
    row.rows = n_rows;
    const std::uint64_t per_writer = n_rows / w;
    util::WallTimer timer;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      Relation r(2);
      r.Reserve(n_rows);
      std::mutex write_mutex;
      std::vector<std::thread> writers;
      writers.reserve(w);
      for (std::size_t t = 0; t < w; ++t) {
        writers.emplace_back([&r, &write_mutex, t, per_writer] {
          const std::uint64_t base = static_cast<std::uint64_t>(t) *
                                     per_writer;
          for (std::uint64_t i = 0; i < per_writer; ++i) {
            const Tuple tuple = MakeTuple(base + i);
            const std::scoped_lock lock(write_mutex);
            r.Insert(tuple);
          }
        });
      }
      for (std::thread& writer : writers) {
        writer.join();
      }
      row.checksum = Checksum(r);
    }
    row.seconds = timer.ElapsedSeconds();
    if (w == 1) {
      check(row);
    }
    Report(row, reps);
    rows.push_back(row);
  }

  // --- probe_pP: membership checks, alternating hits and misses.
  for (const std::size_t p : {std::size_t{1}, std::size_t{16}}) {
    Relation r(2, p);
    r.Reserve(n_rows);
    for (std::uint64_t i = 0; i < n_rows; ++i) {
      r.Insert(MakeTuple(i));
    }
    Row row;
    row.workload = "probe_p" + std::to_string(p);
    row.rows = n_rows;
    std::uint64_t hits = 0;
    util::WallTimer timer;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      for (std::uint64_t i = 0; i < n_rows; ++i) {
        // Odd offsets miss: MakeTuple is injective in i, so i + n_rows
        // never collides with an inserted tuple.
        hits += r.Contains(MakeTuple(i % 2 == 0 ? i : i + n_rows)) ? 1u : 0u;
      }
    }
    row.seconds = timer.ElapsedSeconds();
    row.checksum = hits;
    if (hits != reps * ((n_rows + 1) / 2)) {
      std::fprintf(stderr, "%s hit-count mismatch: %llu\n",
                   row.workload.c_str(),
                   static_cast<unsigned long long>(hits));
      return 1;
    }
    Report(row, reps);
    rows.push_back(row);
  }

  // --- mixed_erase_pP: insert everything, erase every other tuple.
  for (const std::size_t p : {std::size_t{1}, std::size_t{16}}) {
    Row row;
    row.workload = "mixed_erase_p" + std::to_string(p);
    row.rows = n_rows + n_rows / 2;
    util::WallTimer timer;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      Relation r(2, p);
      r.Reserve(n_rows);
      for (std::uint64_t i = 0; i < n_rows; ++i) {
        r.Insert(MakeTuple(i));
      }
      for (std::uint64_t i = 0; i < n_rows; i += 2) {
        r.Erase(MakeTuple(i));
      }
      row.checksum = r.Size();
    }
    row.seconds = timer.ElapsedSeconds();
    if (row.checksum != n_rows / 2) {
      std::fprintf(stderr, "%s size mismatch\n", row.workload.c_str());
      return 1;
    }
    Report(row, reps);
    rows.push_back(row);
  }

  // --- Summary ratios.
  const auto seconds_of = [&rows](const std::string& workload) {
    for (const Row& r : rows) {
      if (r.workload == workload) {
        return r.seconds;
      }
    }
    return 0.0;
  };
  const double p1_w8 = seconds_of("publish_insert_p1_w8");
  const double p16_w8 = seconds_of("publish_insert_p16_w8");
  const double locked_w8 = seconds_of("locked_insert_w8");
  const double scale_p16_vs_p1_w8 = p16_w8 > 0.0 ? p1_w8 / p16_w8 : 0.0;
  const double staged_vs_locked_w8 =
      p16_w8 > 0.0 ? locked_w8 / p16_w8 : 0.0;
  std::printf("scale_p16_vs_p1_w8   %5.2fx\n", scale_p16_vs_p1_w8);
  std::printf("staged_vs_locked_w8  %5.2fx\n", staged_vs_locked_w8);

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"micro_store\",\n  \"scale\": %f,\n",
               scale);
  std::fprintf(out, "  \"summary\": {\n");
  std::fprintf(out, "    \"scale_p16_vs_p1_w8\": %.2f,\n",
               scale_p16_vs_p1_w8);
  std::fprintf(out, "    \"staged_vs_locked_w8\": %.2f\n  },\n",
               staged_vs_locked_w8);
  std::fprintf(out, "  \"results\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(out,
                 "    {\"workload\": \"%s\", \"rows\": %llu, "
                 "\"checksum\": %llu, \"seconds\": %.6f, \"mops\": %.2f",
                 r.workload.c_str(), static_cast<unsigned long long>(r.rows),
                 static_cast<unsigned long long>(r.checksum), r.seconds,
                 r.Mops(reps));
    if (r.bytes_per_row > 0.0) {
      std::fprintf(out, ", \"bytes_per_row\": %.1f", r.bytes_per_row);
    }
    std::fprintf(out, "}%s\n", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());

  obs::MetricsRegistry metrics;
  for (const Row& r : rows) {
    const std::string key = "micro_store." + r.workload + ".";
    metrics.Set(key + "rows", r.rows);
    metrics.Set(key + "checksum", r.checksum);
    metrics.Set(key + "seconds_ns",
                static_cast<std::uint64_t>(r.seconds * 1e9));
    metrics.Set(key + "mops_x100",
                static_cast<std::uint64_t>(r.Mops(reps) * 100.0));
    if (r.bytes_per_row > 0.0) {
      metrics.Set(key + "bytes_per_row_x10",
                  static_cast<std::uint64_t>(r.bytes_per_row * 10.0));
    }
  }
  metrics.Set("micro_store.scale_p16_vs_p1_w8_x100",
              static_cast<std::uint64_t>(scale_p16_vs_p1_w8 * 100.0));
  metrics.Set("micro_store.staged_vs_locked_w8_x100",
              static_cast<std::uint64_t>(staged_vs_locked_w8 * 100.0));
  PrintMetrics(metrics);
  FinishTrace(session.get(), trace_path);

  int status = 0;
  for (const Row& r : rows) {
    if (scale >= 1.0 && r.bytes_per_row > kMaxBytesPerRow) {
      std::fprintf(stderr, "%s: %.1f B/row exceeds the %.1f B/row bar\n",
                   r.workload.c_str(), r.bytes_per_row, kMaxBytesPerRow);
      status = 1;
    }
  }
  return status;
}
