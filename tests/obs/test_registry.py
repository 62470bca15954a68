"""Counter/gauge/histogram semantics of the metrics registry."""

import math

from repro.obs.registry import Histogram, MetricsRegistry, label_key, label_str


class TestLabels:
    def test_label_order_is_irrelevant(self):
        assert label_key({"a": 1, "b": 2}) == label_key({"b": 2, "a": 1})

    def test_label_str_round_trip(self):
        assert label_str(label_key({"endpoint": "grm"})) == "endpoint=grm"
        assert label_str(label_key({})) == ""


class TestCounters:
    def test_increment_accumulates(self):
        reg = MetricsRegistry()
        reg.counter_inc("m")
        reg.counter_inc("m", 4)
        assert reg.counter_value("m") == 5

    def test_labels_split_series(self):
        reg = MetricsRegistry()
        reg.counter_inc("sent", endpoint="grm")
        reg.counter_inc("sent", 2, endpoint="isp0")
        assert reg.counter_value("sent", endpoint="grm") == 1
        assert reg.counter_value("sent", endpoint="isp0") == 2
        assert reg.counter_total("sent") == 3

    def test_missing_counter_is_zero(self):
        assert MetricsRegistry().counter_value("nope") == 0.0


class TestGauges:
    def test_set_overwrites(self):
        reg = MetricsRegistry()
        reg.gauge_set("ratio", 1.5)
        reg.gauge_set("ratio", 2.5)
        assert reg.gauge_value("ratio") == 2.5

    def test_missing_gauge_is_none(self):
        assert MetricsRegistry().gauge_value("nope") is None


class TestHistograms:
    def test_summary_stats(self):
        h = Histogram()
        for v in (1.0, 2.0, 3.0):
            h.observe(v)
        assert h.count == 3
        assert h.total == 6.0
        assert h.mean == 2.0
        assert h.min == 1.0
        assert h.max == 3.0

    def test_empty_histogram_summary(self):
        s = Histogram().summary()
        assert s["count"] == 0
        assert s["mean"] == 0.0
        assert s["min"] == 0.0 and s["max"] == 0.0

    def test_registry_observe(self):
        reg = MetricsRegistry()
        reg.observe("lat", 0.5, endpoint="grm")
        reg.observe("lat", 1.5, endpoint="grm")
        h = reg.get_histogram("lat", endpoint="grm")
        assert h.count == 2 and h.mean == 1.0
        assert reg.get_histogram("lat", endpoint="other") is None


class TestSnapshot:
    def test_snapshot_is_plain_data(self):
        reg = MetricsRegistry()
        reg.counter_inc("c", 2, kind="x")
        reg.gauge_set("g", 0.25)
        reg.observe("h", 3.0)
        snap = reg.snapshot()
        assert snap["counters"]["c"]["kind=x"] == 2
        assert snap["gauges"]["g"][""] == 0.25
        assert snap["histograms"]["h"][""]["count"] == 1
        assert math.isclose(snap["histograms"]["h"][""]["mean"], 3.0)

    def test_reset_clears_everything(self):
        reg = MetricsRegistry()
        reg.counter_inc("c")
        reg.reset()
        assert reg.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}
