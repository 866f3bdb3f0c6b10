#!/usr/bin/env python3
"""Compare a fresh bench JSON against its checked-in BENCH_* baseline.

Both files are flattened to dot-keys (rows of a "results" list are keyed by
their identifying fields: workload, scheduler, engine, ...).  Every key is
then classified, first match wins:

  ignored — machine-dependent measurements (wall times, throughput,
            contention counters).  Default regex matches `seconds`, `_ns`,
            `mops`, `per_sec`, `_share`, scheduler sleep/steal counters.
  exact   — structural facts that must not drift at all: row counts,
            checksums, task counts, plus every string and boolean.
  banded  — everything else numeric (speedups, ratios): the fresh value
            must lie within --tolerance (relative) of the baseline.

The gate fails (exit 1) on any exact mismatch, out-of-band value, or key
present in the baseline but missing from the fresh run.  Keys only present
in the fresh run are reported but do not fail — benches grow new rows.

Usage:
  check_bench.py BASELINE FRESH [--tolerance 0.15]
                 [--ignore REGEX ...] [--exact REGEX ...] [--verbose]

CI gates all nine checked-in baselines (see .github/workflows/ci.yml
perf-gate for the per-bench flags):
  BENCH_datalog.json   — micro_join: rows/checksums exact
  BENCH_store.json     — micro_store: rows/checksums exact,
                         bytes_per_row banded, w8 scaling ratios ungated
                         (runner-core-count dependent)
  BENCH_executor.json  — micro_executor: task counts exact; speedups and
                         hw_concurrency ungated
  BENCH_sched.json     — micro_sched trace mode: pops/ops_total exact
                         (the simulated schedule is deterministic),
                         makespan_us ungated
  BENCH_maint.json     — micro_maint: checksums and maint-op counts exact
                         (maintenance work is deterministic per strategy),
                         DRed-vs-B/F ratios banded
  BENCH_pipeline.json  — micro_pipeline: per-cell checksums/rows exact at
                         EVERY pipeline depth K (order independence of the
                         epoch overlap); K-scaling ratios, stall counts and
                         hw_concurrency ungated (runner-core-count
                         dependent — the binary self-gates the >=1.5x bar
                         only on >=4-core hosts)
  BENCH_service.json   — micro_service: per-cell rows/checksums exact (the
                         wire read-back must equal the serial replay for
                         every mode x connection-count cell); latency
                         percentiles (p50_us/p99_us/p999_us), throughput
                         and backpressure_stalls ungated (load-dependent)
  BENCH_meta.json      — micro_meta: sim cells (Theorem-10 meta scheduler)
                         are fully deterministic — makespans, bound ratios,
                         abort flags and peak-memory figures all gated;
                         live cells gate kills/checksums/rows exact while
                         the accounted-memory counters (mem_peak_bytes,
                         mem_deferred, mem_budget_stalls, mem_forced) are
                         dispatch-timing artifacts and stay ungated (the
                         binary itself hard-fails a budget violation)
  BENCH_evolve.json    — micro_evolve: rule-set evolution is deterministic,
                         so evolve/rebuild op counts, cone sizes, program
                         versions and checksums are all exact; the
                         rebuild-vs-evolve ratios are derived figures and
                         ignored (the binary self-gates the small-cone
                         >= 2x bar)

stdlib only; runs anywhere python3 does.
"""

import argparse
import json
import re
import sys

# Fields that identify a row within a "results" list, in identity order.
ID_FIELDS = ("bench", "workload", "scheduler", "engine", "body", "strategy",
             "workers", "mode", "name", "k", "batch", "connections", "rate",
             "zeta", "budget", "kind", "cone")

DEFAULT_IGNORE = (r"(seconds|_ns\b|_ns$|mops|per_sec|_share|sleeps|wakeups"
                  r"|steals|drains|batch)")
DEFAULT_EXACT = r"(rows|checksum|tasks|emitted|count|\bscale\b|bench)"


def flatten(node, prefix, out, dups):
    """Flattens dicts/lists into {dot.key: leaf} with stable row identities.

    Colliding keys are collected into `dups` rather than raised one at a
    time, so a baseline with several under-identified rows reports every
    offender in a single run.
    """
    if isinstance(node, dict):
        for key, value in node.items():
            flatten(value, f"{prefix}.{key}" if prefix else key, out, dups)
    elif isinstance(node, list):
        for i, item in enumerate(node):
            if isinstance(item, dict):
                ident = "/".join(
                    str(item[f]) for f in ID_FIELDS if f in item)
                label = ident if ident else str(i)
            else:
                label = str(i)
            flatten(item, f"{prefix}[{label}]", out, dups)
    else:
        if prefix in out:
            dups.append(prefix)
        out[prefix] = node
    return out


def load(path):
    try:
        with open(path, encoding="utf-8") as fh:
            dups = []
            flat = flatten(json.load(fh), "", {}, dups)
    except (OSError, ValueError) as err:
        raise SystemExit(f"cannot load {path}: {err}") from err
    if dups:
        listing = "\n".join(f"  duplicate flattened key: {key}"
                            for key in dups)
        raise SystemExit(f"{path}: {len(dups)} duplicate flattened key(s) "
                         f"(results rows need distinguishing id fields)\n"
                         f"{listing}")
    return flat


def classify(key, ignore_res, exact_res):
    for rx in ignore_res:
        if rx.search(key):
            return "ignored"
    for rx in exact_res:
        if rx.search(key):
            return "exact"
    return "banded"


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("baseline", help="checked-in BENCH_*.json")
    parser.add_argument("fresh", help="JSON emitted by a fresh bench run")
    parser.add_argument("--tolerance", type=float, default=0.15,
                        help="relative band for 'banded' keys (default 0.15)")
    parser.add_argument("--ignore", action="append", default=[],
                        metavar="REGEX",
                        help="extra ignore pattern (repeatable)")
    parser.add_argument("--exact", action="append", default=[],
                        metavar="REGEX",
                        help="extra exact pattern (repeatable)")
    parser.add_argument("--verbose", action="store_true",
                        help="print every key with its classification")
    args = parser.parse_args()

    ignore_res = [re.compile(p) for p in [DEFAULT_IGNORE] + args.ignore]
    exact_res = [re.compile(p) for p in [DEFAULT_EXACT] + args.exact]

    baseline = load(args.baseline)
    fresh = load(args.fresh)

    failures = []
    counts = {"ignored": 0, "exact": 0, "banded": 0}

    for key in sorted(baseline):
        kind = classify(key, ignore_res, exact_res)
        base = baseline[key]
        # Strings and booleans are structural no matter the key name.
        if kind != "ignored" and isinstance(base, (str, bool)):
            kind = "exact"
        counts[kind] += 1
        if key not in fresh:
            failures.append(f"MISSING  {key} (baseline: {base!r})")
            continue
        new = fresh[key]
        if args.verbose:
            print(f"  [{kind:7}] {key}: {base!r} -> {new!r}")
        if kind == "ignored":
            continue
        if kind == "exact":
            if new != base:
                failures.append(f"EXACT    {key}: baseline {base!r}, "
                                f"fresh {new!r}")
            continue
        # banded
        if not isinstance(base, (int, float)) or not isinstance(
                new, (int, float)):
            if new != base:
                failures.append(f"TYPE     {key}: baseline {base!r}, "
                                f"fresh {new!r}")
            continue
        if base == 0:
            if abs(new) > args.tolerance:
                failures.append(f"BAND     {key}: baseline 0, fresh {new}")
            continue
        rel = abs(new - base) / abs(base)
        if rel > args.tolerance:
            failures.append(f"BAND     {key}: baseline {base}, fresh {new} "
                            f"({rel:+.0%} vs ±{args.tolerance:.0%})")

    extra = sorted(set(fresh) - set(baseline))
    for key in extra:
        print(f"note: fresh-only key (not gated): {key}")

    total = sum(counts.values())
    print(f"checked {total} baseline keys: {counts['exact']} exact, "
          f"{counts['banded']} banded (±{args.tolerance:.0%}), "
          f"{counts['ignored']} ignored; {len(failures)} failure(s)")
    if failures:
        for line in failures:
            print(f"FAIL {line}")
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
