"""Turns the driver's raw measurement document into benchmark metrics.

The driver (driver.cpp) records per-iteration wall times, request
latencies, spans and the program's own counters; everything computed from
them lives here so that the arithmetic is unit-tested (test_report.py):
medians, the tail percentile, span self time, ratios and their bases, and
the metric-name rules of BENCHMARK.json.
"""

import math
import re

DEFAULT_SEED = 0x7B90147

_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
_UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

# Metrics the untraced run reports.  Every workload reports each of them
# (see README.md for why the workload-specific ones are printed instead).
END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]

# Metrics the traced run reports, by layer.  A metric a workload does not
# exercise reads 0 (README.md has the layer -> metric -> workload map).
PER_LAYER = [
    ("workloads.make_workload_s", "s"),
    ("profile.profile_launch_s", "s"),
    ("profile.calls", "count"),
    ("profile.warp_insts", "count"),
    ("core.cluster_launches_s", "s"),
    ("core.clusters", "count"),
    ("core.identify_regions_s", "s"),
    ("core.regions", "count"),
    ("core.region_block_share", "ratio"),
    ("core.predict_s", "s"),
    ("core.sampler.skipped_warp_insts", "count"),
    ("core.sampler.warm_units", "count"),
    ("core.sampler.regions_fast_forwarded", "count"),
    ("core.sampler.skip_ratio", "ratio"),
    ("sim.full.run_launch_s", "s"),
    ("sim.full.cycles", "count"),
    ("sim.full.warp_insts", "count"),
    ("sim.full.ns_per_cycle", "ns"),
    ("sim.sampled.run_launch_s", "s"),
    ("sim.sampled.cycles", "count"),
    ("sim.sampled.warp_insts", "count"),
    ("sim.issued_cycles", "count"),
    ("sim.stall.memory", "count"),
    ("sim.stall.idle", "count"),
    ("sim.stall.scoreboard", "count"),
    ("sim.issue_ratio", "ratio"),
    ("sim.l1.hits", "count"),
    ("sim.l1.misses", "count"),
    ("sim.l1.mshr_stalls", "count"),
    ("sim.l2.hits", "count"),
    ("sim.l2.misses", "count"),
    ("sim.l2.mshr_stalls", "count"),
    ("sim.dram.scheduling_decisions", "count"),
    ("sim.dram.decision_ratio", "ratio"),
    ("sim.dram.row_hit_ratio", "ratio"),
    ("sim.shard.rounds", "count"),
    ("sim.shard.busy_s", "s"),
    ("sim.shard.wait_ratio", "ratio"),
    ("sim.shard.imbalance_ratio", "ratio"),
    ("baselines.random_sampling_s", "s"),
    ("baselines.systematic_sampling_s", "s"),
    ("baselines.ideal_simpoint_s", "s"),
    ("baselines.simpoint_k", "count"),
    ("service.submit_s", "s"),
    ("service.drain_once_s", "s"),
    ("service.read_response_s", "s"),
    ("service.claimed", "count"),
    ("service.deduped", "count"),
    ("service.simulations", "count"),
    ("service.dedup_ratio", "ratio"),
    ("service.probe_s", "s"),
    ("service.simulate_s", "s"),
    ("service.store_write_s", "s"),
    ("store.hits", "count"),
    ("store.misses", "count"),
    ("store.puts", "count"),
    ("store.hit_ratio", "ratio"),
    ("bench.trace_overhead_s", "s"),
    ("bench.unattributed_s", "s"),
]

# Layer time metrics: metric name -> the span name the driver records.
SPAN_TIMES = {
    "workloads.make_workload_s": "workloads.make_workload",
    "profile.profile_launch_s": "profile.profile_launch",
    "core.cluster_launches_s": "core.cluster_launches",
    "core.identify_regions_s": "core.identify_regions",
    "core.predict_s": "core.predict",
    "sim.full.run_launch_s": "sim.full.run_launch",
    "sim.sampled.run_launch_s": "sim.sampled.run_launch",
    "baselines.random_sampling_s": "baselines.random_sampling",
    "baselines.systematic_sampling_s": "baselines.systematic_sampling",
    "baselines.ideal_simpoint_s": "baselines.ideal_simpoint",
    "service.submit_s": "service.submit",
    "service.drain_once_s": "service.drain_once",
    "service.read_response_s": "service.read_response",
    "bench.unattributed_s": "bench.iteration",
}

# Counters copied as they are (median over traced iterations).
COPIED = [
    "profile.warp_insts", "core.clusters", "core.regions",
    "core.sampler.skipped_warp_insts", "core.sampler.warm_units",
    "core.sampler.regions_fast_forwarded", "sim.full.cycles",
    "sim.full.warp_insts", "sim.sampled.cycles", "sim.sampled.warp_insts",
    "sim.issued_cycles", "sim.stall.memory", "sim.stall.idle",
    "sim.stall.scoreboard", "sim.l1.hits", "sim.l1.misses",
    "sim.l1.mshr_stalls", "sim.l2.hits", "sim.l2.misses",
    "sim.l2.mshr_stalls", "sim.dram.scheduling_decisions",
    "sim.shard.rounds", "sim.shard.busy_s", "sim.shard.imbalance_ratio",
    "baselines.simpoint_k", "service.claimed", "service.deduped",
    "service.simulations", "service.probe_s", "service.simulate_s",
    "service.store_write_s", "store.hits", "store.misses", "store.puts",
]

# Every SM-cycle is either an issue cycle or exactly one stall cause.
SM_CYCLE_PARTS = [
    "sim.issued_cycles", "sim.stall.memory", "sim.stall.scoreboard",
    "sim.stall.barrier", "sim.stall.idle", "sim.stall.wedged",
    "sim.stall.other",
]


def valid_name(name):
    return _NAME.fullmatch(name) is not None


def valid_unit(unit):
    return _UNIT.fullmatch(unit) is not None


def median(values):
    """The median; the mean of the two middle values for an even count."""
    if not values:
        raise ValueError("median of no values")
    s = sorted(values)
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2


def tail_percentile(n, candidates=(99.9, 99, 95, 90, 75, 50), beyond=10):
    """The highest candidate percentile with at least `beyond` of `n`
    samples above it, or None when even the median has fewer."""
    for p in candidates:
        if math.floor(n * (100 - p) / 100 + 1e-9) >= beyond:
            return p
    return None


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of
    the samples at or below it."""
    if not values:
        raise ValueError("percentile of no values")
    s = sorted(values)
    rank = max(1, math.ceil(p / 100 * len(s) - 1e-9))
    return s[rank - 1]


def ratio(numerator, base):
    """numerator / base, 0 when the base is 0 (nothing to compare against)."""
    return numerator / base if base else 0.0


def covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of `intervals`."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Span id -> duration minus the part of its interval that its child
    spans cover (children may overlap when they ran in parallel)."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"])
        - covered(children.get(s["id"], []), s["start"], s["end"])
        for s in spans
    }


def layer_self_times(spans):
    """Span name -> median over runs of the summed self time of that
    name's spans in the run (only runs where the name occurs)."""
    selfs = self_times(spans)
    per_run = {}
    for s in spans:
        key = (s["name"], s["run"])
        per_run[key] = per_run.get(key, 0.0) + selfs[s["id"]]
    by_name = {}
    for (name, _run), value in per_run.items():
        by_name.setdefault(name, []).append(value)
    return {name: median(values) for name, values in by_name.items()}


def span_counts(spans, name):
    """Median over runs of how many `name` spans a run holds."""
    counts = {}
    for s in spans:
        if s["name"] == name:
            counts[s["run"]] = counts.get(s["run"], 0) + 1
    return median(list(counts.values())) if counts else 0


def variant_median(counters, name):
    """Median over input variants of each variant's median `name` count, so
    that the result does not depend on how often each variant was traced."""
    by_variant = {}
    for c in counters:
        by_variant.setdefault(c["variant"], []).append(c["values"].get(name, 0.0))
    return median([median(v) for v in by_variant.values()]) if by_variant else 0.0


def _timed(doc):
    return [it for it in doc["iterations"] if not it["traced"]]


def end_to_end(doc):
    timed = _timed(doc)
    return {
        "setup_s": median(doc["setup_s"]),
        "wall_s": median([it["wall_s"] for it in timed]),
        "ops_per_s": doc["timed_ops"] / doc["timed_s"],
        "peak_rss_mb": doc["peak_rss_kb"] / 1024,
    }


def workload_metrics(doc):
    """The workload-specific numbers printed next to the end-to-end metrics
    (name -> (value, unit)); only those the workload produces."""
    timed = _timed(doc)
    out = {}
    if "full_sim_s" in timed[0]:
        full = median([it["full_sim_s"] for it in timed])
        out["full_sim_s"] = (full, "s")
        winsts = median([it["sim_winsts"] / it["full_sim_s"] for it in timed])
        out["sim_winsts_per_s"] = (winsts, "1/s")
    if "tbpoint_s" in timed[0]:
        tbp = median([it["tbpoint_s"] for it in timed])
        out["tbpoint_s"] = (tbp, "s")
        out["tbpoint_speedup"] = (ratio(out["full_sim_s"][0], tbp), "x")
        rows = doc["outputs"].values()
        out["tbpoint_err_pct"] = (geomean([r["tbpoint_err_pct"] for r in rows]), "%")
        out["tbpoint_sample_pct"] = (sample_pct(rows), "%")
    latencies = doc.get("request_latency_s")
    if latencies:
        p = tail_percentile(len(latencies))
        out["request_p50_ms"] = (1000 * percentile(latencies, 50), "ms")
        if p is not None:
            out["request_p%s_ms" % _pct_label(p)] = (1000 * percentile(latencies, p), "ms")
        out["requests_per_s"] = (doc["timed_ops"] / doc["timed_s"], "1/s")
    out["error_rate"] = (ratio(doc["ops_failed"], doc["ops_attempted"]), "ratio")
    return out


def _pct_label(p):
    return ("%g" % p).replace(".", "")


def geomean(values):
    """Geometric mean; a zero value (an exact estimate) is floored at 1e-6
    so one perfect row does not zero the whole mean."""
    values = [max(v, 1e-6) for v in values]
    return math.exp(sum(math.log(v) for v in values) / len(values))


def sample_pct(rows):
    """Share of all rows' warp instructions that were simulated."""
    total = sum(r["total_warp_insts"] for r in rows)
    simulated = sum(r["total_warp_insts"] * r["tbpoint_sample_pct"] / 100 for r in rows)
    return 100 * ratio(simulated, total)


def per_layer(doc):
    traced = [it for it in doc["iterations"] if it["traced"]]
    untraced = _timed(doc)
    counters = doc["counters"]

    def counter(name):
        return variant_median(counters, name)

    out = {name: 0.0 for name, _ in PER_LAYER}
    spans = doc["spans"]
    selfs = layer_self_times(spans)
    for metric, span in SPAN_TIMES.items():
        out[metric] = selfs.get(span, 0.0)
    out["profile.calls"] = span_counts(spans, "profile.profile_launch")
    for name in COPIED:
        out[name] = counter(name)

    out["core.region_block_share"] = ratio(counter("core.region_blocks"), counter("core.rep_blocks"))
    out["core.sampler.skip_ratio"] = ratio(
        counter("core.sampler.skipped_warp_insts"), counter("core.rep_warp_insts"))
    out["sim.full.ns_per_cycle"] = 1e9 * ratio(
        out["sim.full.run_launch_s"], counter("sim.full.cycles"))
    out["sim.issue_ratio"] = ratio(
        counter("sim.issued_cycles"), sum(counter(n) for n in SM_CYCLE_PARTS))
    out["sim.dram.decision_ratio"] = ratio(
        counter("sim.dram.scheduling_decisions"), counter("sim.full.dram_channel_cycles"))
    out["sim.dram.row_hit_ratio"] = ratio(
        counter("sim.dram.row_hits"), counter("sim.dram.row_hits") + counter("sim.dram.row_misses"))
    out["sim.shard.wait_ratio"] = ratio(
        counter("sim.shard.wait_s"), counter("sim.shard.busy_s") + counter("sim.shard.wait_s"))
    out["service.dedup_ratio"] = ratio(counter("service.deduped"), counter("service.claimed"))
    out["store.hit_ratio"] = ratio(counter("store.hits"), counter("store.hits") + counter("store.misses"))
    if traced and untraced:
        out["bench.trace_overhead_s"] = (median([it["wall_s"] for it in traced])
                                         - median([it["wall_s"] for it in untraced]))
    return out


def check_pinned(doc, pinned):
    """Labels whose outputs differ from the pinned values (exact match)."""
    expected = pinned.get(doc["workload"], {})
    outputs = doc.get("outputs", {})
    bad = []
    for label, fields in sorted(expected.items()):
        got = outputs.get(label)
        if got is None or any(got.get(k) != v for k, v in fields.items()):
            bad.append(label)
    return bad
