"""Turns a lakebench trace into the per-layer metric table.

A trace (written by `lakebench_driver --trace-out`) holds spans around every
layer call of a serial replay, counts recorded at the same boundaries, and
run-level registry samples from the loaded phase. `per_layer()` derives each
per-layer metric named in BENCHMARK.json from them and flags every metric it
could not produce, with the reason.

Self times are estimates: a span's children are separate calls on the same
input (for example EncodeTable replayed under a Starmie query), not calls
made from inside it, so "duration minus children" approximates the parent's
own work.

    python3 lakebench/trace_report.py TRACE.jsonl    # prints the table
"""

import json
import math
import sys
from collections import defaultdict


def quantile(values, q):
    """Nearest-rank quantile (the driver uses the same rule)."""
    if not values:
        return None
    v = sorted(values)
    rank = max(1, math.ceil(q * len(v)))
    return v[min(rank, len(v)) - 1]


def load(path):
    meta, spans, counts = {}, [], []
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            kind = rec.pop("t")
            if kind == "meta":
                meta = rec
            elif kind == "span":
                rec["ms"] = (rec["end_ns"] - rec["start_ns"]) / 1e6
                spans.append(rec)
            elif kind == "count":
                counts.append(rec)
    return meta, spans, counts


class Trace:
    def __init__(self, spans, counts):
        self.spans = spans
        self.children = defaultdict(list)
        for s in spans:
            self.children[s["parent"]].append(s)
        self.span_counts = defaultdict(dict)  # span id -> name -> value
        self.run = {}
        for c in counts:
            if c["span"] == 0:
                self.run[c["name"]] = c["value"]
            else:
                self.span_counts[c["span"]][c["name"]] = c["value"]

    def durations(self, name):
        return [s["ms"] for s in self.spans if s["name"] == name]

    def named(self, name):
        return [s for s in self.spans if s["name"] == name]

    def count(self, span, name):
        return self.span_counts[span["id"]].get(name)

    def self_ms(self, span):
        kids = sum(c["ms"] for c in self.children[span["id"]])
        return max(0.0, span["ms"] - kids)

    def requests(self):
        """Root spans, one per replayed operation ("request.<family>")."""
        return [s for s in self.spans if s["parent"] == 0]


# Spans that call a layer directly, in the order a request's "engine call"
# is looked for when the service overhead is computed.
DIRECT_PREFIXES = ("cluster.scatter", "ingest.merged.", "search.")


def direct_call(trace, request):
    kids = trace.children[request["id"]]
    for prefix in DIRECT_PREFIXES:
        for k in kids:
            if k["name"].startswith(prefix):
                return k
    return None


def ratio(num, den):
    return None if not den else num / den


def per_layer(trace):
    """Returns ({name: (value, unit)}, {name: reason}) for every metric the
    trace supports; names it cannot support are absent from the first dict
    and present in the second."""
    out, why = {}, {}

    def put(name, value, unit, reason):
        if value is None:
            why[name] = reason
        else:
            out[name] = (float(value), unit)

    run = trace.run
    q = lambda name, p: quantile(trace.durations(name), p)

    # serve
    put("serve.queue_wait_p50_ms",
        None if run.get("serve.queue_wait_samples", 0) == 0
        else run["serve.queue_wait_p50_us"] / 1000, "ms", "no queue-wait samples")
    put("serve.queue_wait_p99_ms",
        None if run.get("serve.queue_wait_samples", 0) == 0
        else run["serve.queue_wait_p99_us"] / 1000, "ms", "no queue-wait samples")
    overhead, kw_service, kw_engine = [], [], []
    for req in trace.requests():
        kids = {k["name"]: k for k in trace.children[req["id"]]}
        execute = kids.get("serve.execute")
        direct = direct_call(trace, req)
        if execute is None or direct is None:
            continue
        overhead.append(execute["ms"] - direct["ms"])
        if req["name"] == "request.keyword":
            kw_service.append(execute["ms"])
            kw_engine.append(direct["ms"])
    put("serve.overhead_p50_ms", quantile(overhead, 0.5), "ms",
        "no request replayed through both the service and the engine")
    put("serve.keyword_over_engine",
        ratio(quantile(kw_service, 0.5), quantile(kw_engine, 0.5)), "ratio",
        "no keyword request replayed")
    hits, misses = run.get("serve.cache.hits", 0), run.get("serve.cache.misses", 0)
    put("serve.cache_hit_ratio", ratio(hits, hits + misses), "ratio",
        "no cache lookups")
    admitted = run.get("serve.queries.admitted", 0)
    attempts = admitted + run.get("serve.queries.rejected", 0)
    shed = sum(run.get(k, 0) for k in ("serve.shed.limit", "serve.shed.batch",
                                       "serve.shed.codel"))
    put("serve.shed_ratio", ratio(shed, attempts), "ratio", "no queries admitted")
    put("serve.brownout_ratio", ratio(run.get("serve.brownout", 0), admitted),
        "ratio", "no queries admitted")

    # cluster
    scatters = trace.named("cluster.scatter")
    put("cluster.scatter_p50_ms", q("cluster.scatter", 0.5), "ms",
        "no cluster in this workload")
    put("cluster.scatter_p99_ms", q("cluster.scatter", 0.99), "ms",
        "no cluster in this workload")
    gather = [s["ms"] - trace.count(s, "cluster.shard_max_ms") for s in scatters]
    skew = [trace.count(s, "cluster.shard_max_ms") - trace.count(s, "cluster.shard_min_ms")
            for s in scatters]
    put("cluster.gather_overhead_p50_ms", quantile(gather, 0.5), "ms",
        "no cluster in this workload")
    put("cluster.shard_skew_p99_ms", quantile(skew, 0.99), "ms",
        "no cluster in this workload")
    shards = sum(trace.count(s, "cluster.shards") for s in scatters)
    hedged = sum(trace.count(s, "cluster.hedged") for s in scatters)
    won = sum(trace.count(s, "cluster.hedge_won") for s in scatters)
    failover = sum(trace.count(s, "cluster.failover") for s in scatters)
    put("cluster.hedge_ratio", ratio(hedged, shards), "ratio", "no cluster in this workload")
    put("cluster.hedge_win_ratio", ratio(won, hedged) if shards else None, "ratio",
        "no cluster in this workload")
    if shards and not hedged:
        out["cluster.hedge_win_ratio"] = (0.0, "ratio")
        why["cluster.hedge_win_ratio"] = "no shard call was hedged in the replay"
    put("cluster.failover_ratio", ratio(failover, shards), "ratio",
        "no cluster in this workload")
    kw_cluster = [s["ms"] for req in trace.requests() if req["name"] == "request.keyword"
                  for s in trace.children[req["id"]] if s["name"] == "cluster.scatter"]
    kw_single = [s["ms"] for req in trace.requests() if req["name"] == "request.keyword"
                 for s in trace.children[req["id"]] if s["name"] == "search.keyword"]
    put("cluster.keyword_over_engine",
        ratio(quantile(kw_cluster, 0.5), quantile(kw_single, 0.5)) if kw_cluster else None,
        "ratio", "no cluster in this workload")

    # search
    for method in ("keyword", "josie", "approx", "lsh_ensemble", "correlated",
                   "starmie", "tus"):
        for p, tag in ((0.5, "p50"), (0.99, "p99")):
            put(f"search.{method}_{tag}_ms", q(f"search.{method}", p), "ms",
                f"this workload issues no {method} queries")

    # embed
    put("embed.encode_table_p50_ms", q("embed.encode_table", 0.5), "ms",
        "this workload encodes no query tables")
    starmie = trace.named("search.starmie")
    enc = sum(c["ms"] for s in starmie for c in trace.children[s["id"]]
              if c["name"] == "embed.encode_table")
    put("embed.encode_share", ratio(enc, sum(s["ms"] for s in starmie)), "ratio",
        "this workload issues no starmie queries")

    # index
    josie = trace.named("index.josie.search")
    put("index.josie.search_p50_ms", q("index.josie.search", 0.5), "ms",
        "this workload issues no josie queries")
    n = len(josie)
    for counter, metric in (("index.josie.postings", "index.josie.postings_per_query"),
                            ("index.josie.lists", "index.josie.lists_per_query"),
                            ("index.josie.verified", "index.josie.verified_per_query")):
        put(metric, ratio(sum(trace.count(s, counter) for s in josie), n), "count",
            "this workload issues no josie queries")
    put("index.josie.verify_yield",
        ratio(sum(trace.count(s, "index.josie.hits") for s in josie),
              sum(trace.count(s, "index.josie.verified") for s in josie)),
        "ratio", "no josie candidate was verified")
    hnsw = trace.durations("index.hnsw.search")
    put("index.hnsw.search_p50_us", None if not hnsw else quantile(hnsw, 0.5) * 1000,
        "us", "this workload issues no starmie queries")

    # approx
    approx = trace.named("search.approx")
    put("approx.estimates_per_query",
        ratio(sum(trace.count(s, "approx.estimates") for s in approx), len(approx)),
        "count", "this workload issues no approx queries")
    fallbacks = sum(trace.count(s, "approx.exact_fallbacks") for s in approx)
    decisions = fallbacks + sum(trace.count(s, "approx.interval_decisions") for s in approx)
    put("approx.fallback_ratio", ratio(fallbacks, decisions), "ratio",
        "this workload issues no approx queries")

    # sketch
    mh = trace.durations("sketch.minhash")
    put("sketch.minhash_p50_us", None if not mh else quantile(mh, 0.5) * 1000, "us",
        "this workload issues no lsh_ensemble queries")

    # table
    put("table.csv_parse_p50_ms", q("table.csv_parse", 0.5), "ms",
        "this workload writes no CSVs")

    # ingest
    live = "ingest.publishes" in run
    put("ingest.publish_p50_ms", run["ingest.publish_p50_us"] / 1000 if live else None,
        "ms", "no live engine in this workload")
    put("ingest.publish_p99_ms", run["ingest.publish_p99_us"] / 1000 if live else None,
        "ms", "no live engine in this workload")
    put("ingest.batch_tables_mean",
        ratio(run.get("ingest.tables.added", 0) + run.get("ingest.tables.removed", 0),
              run.get("ingest.publishes", 0)) if live else None,
        "count", "no live engine in this workload")
    put("ingest.delta_tables_max", run.get("ingest.delta_tables_max") if live else None,
        "count", "no live engine in this workload")
    put("ingest.compaction_p50_ms",
        run["ingest.compaction_p50_us"] / 1000
        if live and run.get("ingest.compaction_samples", 0) else None,
        "ms", "no compaction ran" if live else "no live engine in this workload")
    put("ingest.compactions", run.get("ingest.compactions") if live else None, "count",
        "no live engine in this workload")
    merge = []
    for req in trace.requests():
        kids = trace.children[req["id"]]
        merged = [k for k in kids if k["name"].startswith("ingest.merged.")]
        base = [k for k in kids if k["name"].startswith("search.")]
        if merged and base:
            merge.append(merged[0]["ms"] - base[0]["ms"])
    put("ingest.merge_overhead_p50_ms", quantile(merge, 0.5), "ms",
        "no live engine in this workload")
    base_hits = run.get("serve.ingest.base_hits", 0)
    delta_hits = run.get("serve.ingest.delta_hits", 0)
    put("ingest.delta_hit_ratio", ratio(delta_hits, base_hits + delta_hits) if live else None,
        "ratio", "no live engine in this workload")

    # store
    put("store.wal_fsyncs_per_batch",
        ratio(run.get("ingest.wal.fsyncs", 0), run.get("ingest.wal.appends", 0))
        if live else None, "ratio", "no write-ahead log in this workload")
    put("store.write_amplification",
        ratio(run.get("store.disk_bytes", 0), run.get("store.csv_bytes_submitted", 0))
        if live else None, "ratio", "no write-ahead log in this workload")
    put("store.checkpoint_ms", q("store.checkpoint", 0.5), "ms",
        "no live engine in this workload")

    # loadgen
    put("loadgen.lag_p99_ms", run.get("loadgen.lag_p99_ms"), "ms",
        "closed-loop workload: operations have no schedule to lag behind")
    return out, why


def self_time_table(trace):
    """Per span name: calls, p50 duration and p50 self time (estimate)."""
    rows = defaultdict(lambda: ([], []))
    for s in trace.spans:
        if s["parent"] == 0:
            continue
        rows[s["name"]][0].append(s["ms"])
        rows[s["name"]][1].append(trace.self_ms(s))
    return {name: (len(d), quantile(d, 0.5), quantile(st, 0.5))
            for name, (d, st) in sorted(rows.items())}


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    meta, spans, counts = load(argv[1])
    trace = Trace(spans, counts)
    metrics, flagged = per_layer(trace)
    print(f"trace of {meta.get('workload')} seed {meta.get('seed')}: "
          f"{len(spans)} spans")
    for name in sorted(set(metrics) | set(flagged)):
        if name in metrics:
            value, unit = metrics[name]
            note = f"  ({flagged[name]})" if name in flagged else ""
            print(f"  {name:36s} {value:14.6g} {unit}{note}")
        else:
            print(f"  {name:36s} {'-':>14s}   not measured: {flagged[name]}")
    print("span self times (p50; self = duration minus children, an estimate):")
    for name, (calls, dur, self_ms) in self_time_table(trace).items():
        print(f"  {name:36s} calls={calls:5d} p50={dur:10.4f} ms self~{self_ms:10.4f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
