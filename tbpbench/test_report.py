"""Unit tests for report.py's arithmetic.

    python3 -m unittest discover -s tbpbench -p 'test_*.py'
"""

import json
import os
import unittest

import report

HERE = os.path.dirname(os.path.abspath(__file__))


def span(id, name, start, end, parent=-1, run=0):
    return {"id": id, "name": name, "start": start, "end": end,
            "parent": parent, "run": run}


class Percentiles(unittest.TestCase):
    def test_tail_percentile_keeps_ten_samples_beyond(self):
        self.assertIsNone(report.tail_percentile(19))
        self.assertEqual(report.tail_percentile(20), 50)
        self.assertEqual(report.tail_percentile(40), 75)
        self.assertEqual(report.tail_percentile(100), 90)
        self.assertEqual(report.tail_percentile(199), 90)
        self.assertEqual(report.tail_percentile(200), 95)
        self.assertEqual(report.tail_percentile(1000), 99)
        self.assertEqual(report.tail_percentile(10000), 99.9)

    def test_chosen_percentile_has_ten_samples_above_it(self):
        for n in (20, 57, 100, 200, 333, 1000, 4321):
            p = report.tail_percentile(n)
            values = list(range(n))
            above = [v for v in values if v > report.percentile(values, p)]
            self.assertGreaterEqual(len(above), 10, (n, p))

    def test_nearest_rank_percentile(self):
        values = [5, 1, 4, 2, 3]
        self.assertEqual(report.percentile(values, 50), 3)
        self.assertEqual(report.percentile(values, 100), 5)
        self.assertEqual(report.percentile(values, 1), 1)
        self.assertEqual(report.percentile(list(range(1, 201)), 95), 190)

    def test_median(self):
        self.assertEqual(report.median([3, 1, 2]), 2)
        self.assertEqual(report.median([4, 1, 3, 2]), 2.5)
        with self.assertRaises(ValueError):
            report.median([])


class SelfTime(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        selfs = report.self_times([span(0, "a", 1.0, 3.5)])
        self.assertAlmostEqual(selfs[0], 2.5)

    def test_nested_children_are_subtracted_once(self):
        spans = [
            span(0, "root", 0.0, 10.0),
            span(1, "child", 1.0, 4.0, parent=0),
            span(2, "child", 5.0, 6.0, parent=0),
            span(3, "grandchild", 2.0, 3.0, parent=1),
        ]
        selfs = report.self_times(spans)
        self.assertAlmostEqual(selfs[0], 6.0)  # 10 - 3 - 1
        self.assertAlmostEqual(selfs[1], 2.0)  # 3 - 1; the grandchild is its own
        self.assertAlmostEqual(selfs[3], 1.0)

    def test_overlapping_parallel_children_count_their_union(self):
        spans = [
            span(0, "root", 0.0, 10.0),
            span(1, "work", 1.0, 5.0, parent=0),
            span(2, "work", 3.0, 7.0, parent=0),
            span(3, "work", 9.0, 12.0, parent=0),  # clipped to the parent
        ]
        selfs = report.self_times(spans)
        self.assertAlmostEqual(selfs[0], 10.0 - 6.0 - 1.0)
        layers = report.layer_self_times(spans)
        self.assertAlmostEqual(layers["work"], 4.0 + 4.0 + 3.0)

    def test_layer_time_is_median_over_runs(self):
        spans = [span(0, "a", 0, 1, run=0), span(1, "a", 0, 3, run=1),
                 span(2, "a", 5, 7, run=1), span(3, "a", 0, 2, run=2)]
        self.assertAlmostEqual(report.layer_self_times(spans)["a"], 2.0)
        self.assertEqual(report.span_counts(spans, "a"), 1)
        self.assertEqual(report.span_counts(spans, "b"), 0)


class Ratios(unittest.TestCase):
    def doc(self, counters, spans=()):
        return {"workload": "w", "iterations": [
                    {"wall_s": 1.0, "ops": 1, "traced": False},
                    {"wall_s": 1.5, "ops": 1, "traced": True}],
                "counters": [{"variant": 0, "values": counters}],
                "spans": list(spans)}

    def test_counters_weigh_every_variant_once(self):
        def entry(variant, value):
            return {"variant": variant, "values": {"sim.full.cycles": value}}
        one_round = [entry(0, 10), entry(1, 20), entry(2, 30), entry(3, 100)]
        extra = [entry(0, 10), entry(1, 20), entry(2, 30)]
        self.assertEqual(report.variant_median(one_round, "sim.full.cycles"), 25)
        self.assertEqual(report.variant_median(one_round + extra, "sim.full.cycles"), 25)
        self.assertEqual(report.variant_median(one_round, "sim.l1.hits"), 0.0)
        self.assertEqual(report.variant_median([], "sim.full.cycles"), 0.0)

    def test_zero_base_reads_zero(self):
        self.assertEqual(report.ratio(5, 0), 0.0)
        self.assertEqual(report.ratio(1, 4), 0.25)

    def test_issue_ratio_base_is_every_sm_cycle(self):
        c = {"sim.issued_cycles": 20, "sim.stall.memory": 60, "sim.stall.idle": 10,
             "sim.stall.scoreboard": 5, "sim.stall.barrier": 3, "sim.stall.wedged": 0,
             "sim.stall.other": 2}
        self.assertAlmostEqual(report.per_layer(self.doc(c))["sim.issue_ratio"], 0.2)

    def test_dram_ratios(self):
        c = {"sim.dram.scheduling_decisions": 30, "sim.full.dram_channel_cycles": 600,
             "sim.dram.row_hits": 3, "sim.dram.row_misses": 1}
        out = report.per_layer(self.doc(c))
        self.assertAlmostEqual(out["sim.dram.decision_ratio"], 0.05)
        self.assertAlmostEqual(out["sim.dram.row_hit_ratio"], 0.75)

    def test_service_store_shard_and_core_bases(self):
        c = {"service.deduped": 4, "service.claimed": 16, "store.hits": 12,
             "store.misses": 4, "sim.shard.busy_s": 3.0, "sim.shard.wait_s": 1.0,
             "core.region_blocks": 90, "core.rep_blocks": 120,
             "core.sampler.skipped_warp_insts": 250, "core.rep_warp_insts": 1000}
        out = report.per_layer(self.doc(c))
        self.assertAlmostEqual(out["service.dedup_ratio"], 0.25)
        self.assertAlmostEqual(out["store.hit_ratio"], 0.75)
        self.assertAlmostEqual(out["sim.shard.wait_ratio"], 0.25)
        self.assertAlmostEqual(out["core.region_block_share"], 0.75)
        self.assertAlmostEqual(out["core.sampler.skip_ratio"], 0.25)

    def test_ns_per_cycle_and_trace_overhead(self):
        c = {"sim.full.cycles": 2e6}
        spans = [span(0, "bench.iteration", 0.0, 1.5),
                 span(1, "sim.full.run_launch", 0.25, 1.25, parent=0)]
        out = report.per_layer(self.doc(c, spans))
        self.assertAlmostEqual(out["sim.full.ns_per_cycle"], 500.0)
        self.assertAlmostEqual(out["bench.unattributed_s"], 0.5)
        self.assertAlmostEqual(out["bench.trace_overhead_s"], 0.5)

    def test_every_per_layer_metric_is_reported(self):
        out = report.per_layer(self.doc({}))
        self.assertEqual(sorted(out), sorted(n for n, _ in report.PER_LAYER))

    def test_geomean_and_sample_share(self):
        self.assertAlmostEqual(report.geomean([1.0, 4.0]), 2.0)
        rows = [{"total_warp_insts": 100, "tbpoint_sample_pct": 50.0},
                {"total_warp_insts": 300, "tbpoint_sample_pct": 10.0}]
        self.assertAlmostEqual(report.sample_pct(rows), 20.0)


class Names(unittest.TestCase):
    def test_metric_name_character_set(self):
        for good in ("wall_s", "sim.l1.hits", "core.sampler.skip_ratio", "a-b", "9x"):
            self.assertTrue(report.valid_name(good), good)
        for bad in ("", "_x", ".x", "a b", "a/b", "a:b", "x" * 65, "é"):
            self.assertFalse(report.valid_name(bad), bad)
        for good in ("s", "ms", "1/s", "%", "count", "MB"):
            self.assertTrue(report.valid_unit(good), good)
        self.assertFalse(report.valid_unit("x" * 17))

    def test_declared_metrics_are_valid_and_unique(self):
        names = [n for n, _ in report.END_TO_END + report.PER_LAYER]
        self.assertEqual(len(names), len(set(names)))
        for name, unit in report.END_TO_END + report.PER_LAYER:
            self.assertTrue(report.valid_name(name), name)
            self.assertTrue(report.valid_unit(unit), unit)

    def test_benchmark_json_matches_the_report(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
            bench = json.load(f)
        self.assertEqual([(m["name"], m["unit"]) for m in bench["end_to_end"]],
                         report.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in bench["per_layer"]],
                         report.PER_LAYER)


class Pinned(unittest.TestCase):
    def test_exact_match_required(self):
        doc = {"workload": "w", "outputs": {"a": {"x": 1.5}, "b": {"x": 2.0}}}
        self.assertEqual(report.check_pinned(doc, {"w": {"a": {"x": 1.5}}}), [])
        self.assertEqual(report.check_pinned(doc, {"w": {"a": {"x": 1.5000001}}}), ["a"])
        self.assertEqual(report.check_pinned(doc, {"w": {"c": {"x": 1}}}), ["c"])


if __name__ == "__main__":
    unittest.main()
