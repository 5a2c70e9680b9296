#!/usr/bin/env python3
"""Validates bench outputs and gates their determinism contracts.

By default reads the BENCH_queries.json written by
bench_fig4_query_times, prints a throughput summary, and exits non-zero
when the batch results differ between 1 and N threads
(results_identical_across_thread_counts != 1).

With --metrics SNAPSHOT.json it additionally validates the metrics
snapshot written by --metrics-out (DESIGN.md §8): the JSON document has
the expected structure, the required instrumentation series exist, every
histogram is coherent (ascending bounds, count == sum of buckets), and
the Prometheus sibling (.prom) agrees with the JSON on every value.

With --coldstart BENCH_coldstart.json it instead validates the
cold-start document written by bench_preprocessing (DESIGN.md §10):
the mapped and heap-loaded replicas must be bit-identical, every
parallel-build fingerprint must match the serial build, and the mapped
open path must hold zero heap bytes over a mapping that covers the
whole artifact. The Load and Map open latencies are printed, not gated:
their ratio measures the host's page cache as much as the code.
--coldstart runs standalone: the query-bench files are not required.

With --walkbuild BENCH_walkbuild.json it instead validates the
weighted walk-build document written by bench_preprocessing
--build-only (DESIGN.md §11): the alias-sampled build must be
bit-identical across thread counts and the sampler must materialize
tables on the dense weighted graph. --walkbuild also runs standalone.

Usage: ci/compare_bench.py [--dir DIR]
                           [--metrics SNAPSHOT.json]
                           [--coldstart BENCH_coldstart.json]
                           [--walkbuild BENCH_walkbuild.json]
"""

import argparse
import json
import os
import sys


def load_json(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


# Series every instrumented bench run must have registered: the trace
# spans around engine construction and the batch entry point, the
# query-stage counters, the walk-index build, and the pool/caches.
REQUIRED_COUNTERS = [
    "semsim_batch_engine_create_total",
    "semsim_batch_query_batch_total",
    "semsim_batch_query_items_total",
    "semsim_query_published_total",
    "semsim_query_met_walks_total",
    "semsim_walk_index_build_total",
    "semsim_graph_transition_table_build_total",
    "semsim_pool_parallel_for_total",
    "semsim_pool_chunks_total",
    "semsim_cache_normalizer_hits_total",
    "semsim_cache_normalizer_misses_total",
    "semsim_cache_normalizer_evictions_total",
    "semsim_query_normalizer_work_total",
]
REQUIRED_HISTOGRAMS = [
    "semsim_batch_engine_create_seconds",
    "semsim_batch_query_batch_seconds",
    "semsim_walk_index_build_seconds",
    "semsim_pool_chunk_seconds",
]
REQUIRED_GAUGES = [
    "semsim_pool_queue_depth",
    "semsim_pool_active_jobs",
]


def parse_prometheus(path):
    """Parses a Prometheus text exposition into {series: value}."""
    values = {}
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            series, value = line.rsplit(" ", 1)
            if series in values:
                raise ValueError(f"duplicate series {series!r} in {path}")
            values[series] = float(value)
    return values


def check_metrics(json_path):
    """Validates a --metrics-out snapshot; returns a list of failures."""
    failures = []
    doc = load_json(json_path)
    for section in ("counters", "gauges", "histograms"):
        if not isinstance(doc.get(section), dict):
            failures.append(f"metrics JSON lacks a {section!r} object")
            return failures

    for name in REQUIRED_COUNTERS:
        if name not in doc["counters"]:
            failures.append(f"missing counter {name!r}")
    for name in REQUIRED_GAUGES:
        if name not in doc["gauges"]:
            failures.append(f"missing gauge {name!r}")
    for name in REQUIRED_HISTOGRAMS:
        if name not in doc["histograms"]:
            failures.append(f"missing histogram {name!r}")

    # The bench ran real queries, so the spans must have fired.
    for name in ("semsim_batch_query_batch_total",
                 "semsim_query_published_total"):
        if doc["counters"].get(name, 0) == 0:
            failures.append(f"counter {name!r} is zero after a bench run")

    for name, h in doc["histograms"].items():
        bounds, counts = h["bounds"], h["counts"]
        if len(counts) != len(bounds) + 1:
            failures.append(f"{name}: expected {len(bounds) + 1} buckets "
                            f"(incl. overflow), got {len(counts)}")
            continue
        if any(b1 >= b2 for b1, b2 in zip(bounds, bounds[1:])):
            failures.append(f"{name}: bounds are not strictly ascending")
        if h["count"] != sum(counts):
            failures.append(f"{name}: count {h['count']} != bucket sum "
                            f"{sum(counts)}")

    # Cross-check the Prometheus sibling: every JSON value must reappear.
    prom_path = (json_path[:-len(".json")] if json_path.endswith(".json")
                 else json_path) + ".prom"
    if not os.path.exists(prom_path):
        failures.append(f"missing Prometheus sibling {prom_path!r}")
        return failures
    prom = parse_prometheus(prom_path)
    for name, value in doc["counters"].items():
        if prom.get(name) != float(value):
            failures.append(f"{name}: JSON {value} != Prometheus "
                            f"{prom.get(name)}")
    for name, value in doc["gauges"].items():
        if prom.get(name) != float(value):
            failures.append(f"{name}: JSON {value} != Prometheus "
                            f"{prom.get(name)}")
    for name, h in doc["histograms"].items():
        # Key the .prom buckets by their parsed le value: both exporters
        # print round-trip precision, so float equality is exact, while
        # the C and Python "%.17g" spellings may differ.
        prefix = f"{name}_bucket{{le=\""
        prom_buckets = {}
        for series, value in prom.items():
            if series.startswith(prefix) and series.endswith("\"}"):
                le = series[len(prefix):-2]
                prom_buckets[float("inf") if le == "+Inf" else float(le)] = \
                    value
        cumulative = 0
        for bound, count in zip(h["bounds"], h["counts"]):
            cumulative += count
            if prom_buckets.get(bound) != float(cumulative):
                failures.append(f"{name}_bucket le={bound}: JSON cumulative "
                                f"{cumulative} != Prometheus "
                                f"{prom_buckets.get(bound)}")
        if prom_buckets.get(float("inf")) != float(h["count"]):
            failures.append(f"{name}_bucket le=+Inf: JSON {h['count']} != "
                            f"Prometheus {prom_buckets.get(float('inf'))}")
        if prom.get(f"{name}_count") != float(h["count"]):
            failures.append(f"{name}_count disagrees with JSON")
        if prom.get(f"{name}_sum") != h["sum"]:
            failures.append(f"{name}_sum disagrees with JSON")
    return failures


def check_coldstart(json_path):
    """Validates a BENCH_coldstart.json; returns a list of failures."""
    failures = []
    doc = load_json(json_path)
    for key in ("bit_identical", "single_source_fingerprints_match",
                "mapped_owned_bytes", "mapped_mapped_bytes", "artifact_bytes",
                "records"):
        if key not in doc:
            failures.append(f"coldstart JSON lacks {key!r}")
    if failures:
        return failures, doc

    if not doc["bit_identical"]:
        failures.append("mapped replica is not bit-identical to the "
                        "heap-loaded replica")
    if not doc["single_source_fingerprints_match"]:
        failures.append("single-source sweeps over Load and Map disagree")
    # The zero-copy claim: a mapped open must not hold a heap copy of the
    # artifact, and the mapping must cover the whole file.
    if doc["mapped_owned_bytes"] != 0:
        failures.append(f"Map holds {doc['mapped_owned_bytes']} heap bytes "
                        "(expected 0 for the zero-copy path)")
    if doc["mapped_mapped_bytes"] < doc["artifact_bytes"]:
        failures.append("mapping smaller than the artifact")
    for record in doc["records"]:
        if not record.get("fingerprint_matches", 0):
            failures.append(f"parallel build with {record.get('threads')} "
                            "thread(s) does not reproduce the serial index")
    return failures, doc


def check_walkbuild(json_path):
    """Validates a BENCH_walkbuild.json; returns a list of failures."""
    failures = []
    doc = load_json(json_path)
    for key in ("alias_walks_per_sec", "alias_threads_bit_identical",
                "sampler_table_bytes"):
        if key not in doc:
            failures.append(f"walkbuild JSON lacks {key!r}")
    if failures:
        return failures, doc

    if not doc["alias_threads_bit_identical"]:
        failures.append("alias-sampled walk build is not bit-identical "
                        "across thread counts")
    if doc["sampler_table_bytes"] <= 0:
        failures.append("sampler index reports zero table bytes on the "
                        "dense weighted graph")
    return failures, doc


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dir", default=".",
                    help="directory holding the BENCH_*.json files")
    ap.add_argument("--metrics", default=None,
                    help="also validate this --metrics-out JSON snapshot "
                         "(and its .prom sibling)")
    ap.add_argument("--coldstart", default=None,
                    help="validate this BENCH_coldstart.json instead of "
                         "the query-bench files")
    ap.add_argument("--walkbuild", default=None,
                    help="validate this BENCH_walkbuild.json instead of "
                         "the query-bench files")
    args = ap.parse_args()

    if args.walkbuild is not None:
        failures, doc = check_walkbuild(args.walkbuild)
        print(f"walkbuild ({args.walkbuild})")
        if "alias_walks_per_sec" in doc:
            print(f"  weighted build throughput: "
                  f"{doc['alias_walks_per_sec']:.0f} walks/s")
            print(f"  sampler tables: {doc.get('sampler_table_bytes', 0)} "
                  f"bytes, {doc.get('sampler_uniform_nodes', 0)} uniform "
                  f"node(s)")
        for failure in failures:
            print(f"FAIL: walkbuild: {failure}", file=sys.stderr)
        if failures:
            return 1
        print("OK: alias-sampled walk build is thread-count deterministic "
              "and its sampler tables are materialized")
        return 0

    if args.coldstart is not None:
        failures, doc = check_coldstart(args.coldstart)
        print(f"coldstart ({args.coldstart})")
        if "load_ms" in doc and "map_ms" in doc:
            print(f"  open latency: Load {doc['load_ms']:.3f} ms, "
                  f"Map {doc['map_ms']:.3f} ms  ->  "
                  f"{doc.get('map_speedup', 0):.1f}x")
            print(f"  memory: mapped {doc.get('mapped_mapped_bytes', 0)} "
                  f"bytes, owned {doc.get('mapped_owned_bytes', 0)} bytes")
        for failure in failures:
            print(f"FAIL: coldstart: {failure}", file=sys.stderr)
        if failures:
            return 1
        print("OK: mapped serving is bit-identical and zero-copy")
        return 0

    path = os.path.join(args.dir, "BENCH_queries.json")
    if not os.path.exists(path):
        print(f"error: no bench output found in {args.dir!r}; run "
              "bench_fig4_query_times first", file=sys.stderr)
        return 2
    doc = load_json(path)

    print(f"bench summary ({path})")
    print(f"  1-thread qps: cold "
          f"{doc.get('cold_queries_per_sec_1thread', 0):.0f}, warm "
          f"{doc.get('warm_queries_per_sec_1thread', 0):.0f}")
    identical = doc.get("results_identical_across_thread_counts")
    print(f"  results bit-identical across thread counts: "
          f"{'yes' if identical == 1 else 'NO'}")

    failed = False
    if identical != 1:
        print("FAIL: batch results differ between 1 and N threads (or the "
              "bench did not compare them)", file=sys.stderr)
        failed = True

    if args.metrics is not None:
        metric_failures = check_metrics(args.metrics)
        doc = load_json(args.metrics)
        print(f"metrics snapshot ({args.metrics}): "
              f"{len(doc['counters'])} counters, {len(doc['gauges'])} gauges, "
              f"{len(doc['histograms'])} histograms")
        for failure in metric_failures:
            print(f"FAIL: metrics: {failure}", file=sys.stderr)
            failed = True
        if not metric_failures:
            print("  required series present, histograms coherent, "
                  "JSON == Prometheus")

    if failed:
        return 1
    print("OK: batch results agree across thread counts")
    return 0


if __name__ == "__main__":
    sys.exit(main())
