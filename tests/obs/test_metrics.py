"""repro.obs.metrics — registry semantics, snapshot algebra, exposition."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import metrics as M


def fresh_meter(enabled=True):
    return M.Meter(enabled=enabled)


class TestCounter:
    def test_inc_accumulates_per_labelset(self):
        meter = fresh_meter()
        calls = meter.counter("calls_total", "calls", ("op",))
        calls.inc(op="read")
        calls.inc(2.0, op="read")
        calls.inc(op="write")
        values = meter.snapshot()["calls_total"]["values"]
        assert values[json.dumps({"op": "read"})] == 3.0
        assert values[json.dumps({"op": "write"})] == 1.0

    def test_prebound_handle_hits_same_cell(self):
        meter = fresh_meter()
        calls = meter.counter("calls_total", "", ("op",))
        handle = calls.labels(op="read")
        handle.inc()
        calls.inc(op="read")
        assert meter.snapshot()["calls_total"]["values"][
            json.dumps({"op": "read"})] == 2.0

    def test_unlabeled_key_is_empty_object(self):
        meter = fresh_meter()
        meter.counter("n_total").inc()
        assert meter.snapshot()["n_total"]["values"] == {"{}": 1.0}

    def test_undeclared_label_raises(self):
        meter = fresh_meter()
        calls = meter.counter("calls_total", "", ("op",))
        with pytest.raises(ValueError):
            calls.labels(kind="read")

    def test_disabled_meter_records_nothing(self):
        meter = fresh_meter(enabled=False)
        calls = meter.counter("calls_total")
        calls.labels().inc()
        calls.inc()
        assert meter.snapshot()["calls_total"]["values"] == {}


class TestMeterRegistry:
    def test_redeclare_same_kind_returns_same_family(self):
        meter = fresh_meter()
        assert meter.counter("x_total") is meter.counter("x_total")

    def test_redeclare_different_kind_raises(self):
        meter = fresh_meter()
        meter.counter("x_total")
        with pytest.raises(ValueError):
            meter.gauge("x_total")

    def test_reset_zeroes_but_keeps_declarations_and_handles(self):
        meter = fresh_meter()
        calls = meter.counter("x_total")
        handle = calls.labels()
        handle.inc()
        meter.reset()
        assert meter.snapshot()["x_total"]["values"] == {}
        handle.inc()  # pre-bound handles must survive a reset
        assert meter.snapshot()["x_total"]["values"] == {"{}": 1.0}

    def test_empty_families_still_appear_in_snapshot(self):
        meter = fresh_meter()
        meter.counter("idle_total", "never incremented")
        family = meter.snapshot()["idle_total"]
        assert family["type"] == "counter" and family["values"] == {}

    def test_enabled_from_env(self):
        assert M.enabled_from_env({}) is True
        assert M.enabled_from_env({"REPRO_OBS": "1"}) is True
        for off in ("0", "off", "false", "no", " OFF "):
            assert M.enabled_from_env({"REPRO_OBS": off}) is False


class TestGauge:
    def test_set_overwrites(self):
        meter = fresh_meter()
        depth = meter.gauge("depth")
        depth.set(5.0)
        depth.set(2.0)
        assert meter.snapshot()["depth"]["values"]["{}"] == 2.0

    def test_set_max_keeps_high_water(self):
        meter = fresh_meter()
        handle = meter.gauge("depth").labels()
        handle.set_max(3.0)
        handle.set_max(1.0)
        assert meter.snapshot()["depth"]["values"]["{}"] == 3.0


class TestHistogram:
    def test_bucket_placement_is_le_inclusive(self):
        meter = fresh_meter()
        hist = meter.histogram("lat", buckets=(0.1, 1.0))
        for value in (0.1, 0.5, 50.0):
            hist.observe(value)
        cell = meter.snapshot()["lat"]["values"]["{}"]
        # 0.1 lands in le=0.1, 0.5 in le=1.0, 50 in the +Inf overflow
        assert cell["buckets"] == [1, 1, 1]
        assert cell["count"] == 3 and cell["sum"] == pytest.approx(50.6)

    def test_bounds_are_sorted_and_recorded(self):
        meter = fresh_meter()
        meter.histogram("lat", buckets=(1.0, 0.1)).observe(0.05)
        assert meter.snapshot()["lat"]["bounds"] == [0.1, 1.0]

    def test_empty_buckets_raises(self):
        with pytest.raises(ValueError):
            fresh_meter().histogram("lat", buckets=())


def snap_of(build):
    meter = fresh_meter()
    build(meter)
    return meter.snapshot()


class TestMergeSnapshots:
    def test_counters_add_gauges_max_histograms_elementwise(self):
        def a(m):
            m.counter("c_total").inc(2)
            m.gauge("g").set(5)
            m.histogram("h", buckets=(1.0,)).observe(0.5)

        def b(m):
            m.counter("c_total").inc(3)
            m.gauge("g").set(7)
            m.histogram("h", buckets=(1.0,)).observe(2.0)

        merged = M.merge_snapshots(snap_of(a), snap_of(b))
        assert merged["c_total"]["values"]["{}"] == 5.0
        assert merged["g"]["values"]["{}"] == 7.0
        cell = merged["h"]["values"]["{}"]
        assert cell["count"] == 2 and cell["buckets"] == [1, 1]

    def test_one_sided_families_are_deep_copied(self):
        a = snap_of(lambda m: m.counter("only_in_a_total").inc())
        merged = M.merge_snapshots(a, {})
        merged["only_in_a_total"]["values"]["{}"] = 99.0
        assert a["only_in_a_total"]["values"]["{}"] == 1.0

    def test_type_mismatch_raises(self):
        a = snap_of(lambda m: m.counter("x").inc())
        b = snap_of(lambda m: m.gauge("x").set(1))
        with pytest.raises(ValueError):
            M.merge_snapshots(a, b)

    def test_histogram_bounds_mismatch_raises(self):
        a = snap_of(lambda m: m.histogram("h", buckets=(1.0,)).observe(0.5))
        b = snap_of(lambda m: m.histogram("h", buckets=(2.0,)).observe(0.5))
        with pytest.raises(ValueError):
            M.merge_snapshots(a, b)


class TestDiffSnapshots:
    def test_counter_delta_is_what_happened_between(self):
        meter = fresh_meter()
        calls = meter.counter("calls_total")
        calls.inc(4)
        before = meter.snapshot()
        calls.inc(3)
        delta = M.diff_snapshots(meter.snapshot(), before)
        assert delta["calls_total"]["values"]["{}"] == 3.0

    def test_gauge_keeps_the_after_reading(self):
        meter = fresh_meter()
        depth = meter.gauge("depth")
        depth.set(9)
        before = meter.snapshot()
        depth.set(2)
        delta = M.diff_snapshots(meter.snapshot(), before)
        assert delta["depth"]["values"]["{}"] == 2.0

    def test_histogram_delta_subtracts_buckets(self):
        meter = fresh_meter()
        hist = meter.histogram("lat", buckets=(1.0,))
        hist.observe(0.5)
        before = meter.snapshot()
        hist.observe(0.5)
        hist.observe(5.0)
        cell = M.diff_snapshots(meter.snapshot(), before)["lat"]["values"]["{}"]
        assert cell["count"] == 2 and cell["buckets"] == [1, 1]

    def test_merge_of_entry_and_delta_recovers_exit(self):
        meter = fresh_meter()
        calls = meter.counter("calls_total")
        calls.inc(4)
        entry = meter.snapshot()
        calls.inc(6)
        exit_ = meter.snapshot()
        delta = M.diff_snapshots(exit_, entry)
        assert M.merge_snapshots(entry, delta)["calls_total"]["values"] == \
            exit_["calls_total"]["values"]


class TestSnapshotFiles:
    def test_round_trip(self, tmp_path):
        meter = fresh_meter()
        meter.counter("x_total").inc(7)
        path = tmp_path / "deep" / "snap.json"
        M.write_snapshot_file(path, meter)
        assert M.read_snapshot_file(path)["x_total"]["values"]["{}"] == 7.0

    def test_precomputed_snapshot_kwarg(self, tmp_path):
        snap = snap_of(lambda m: m.gauge("g").set(3))
        path = tmp_path / "snap.json"
        M.write_snapshot_file(path, snapshot=snap)
        assert M.read_snapshot_file(path) == snap


class TestPrometheusEncoding:
    def test_counter_and_gauge_lines(self):
        def build(m):
            m.counter("c_total", "a counter", ("op",)).inc(op="read")
            m.gauge("g", "a gauge").set(2.5)

        text = M.encode_prometheus(snap_of(build))
        assert "# HELP c_total a counter\n# TYPE c_total counter" in text
        assert 'c_total{op="read"} 1' in text
        assert "g 2.5" in text

    def test_histogram_buckets_are_cumulative_with_inf(self):
        def build(m):
            hist = m.histogram("lat", "latency", buckets=(0.1, 1.0))
            for value in (0.05, 0.5, 9.0):
                hist.observe(value)

        text = M.encode_prometheus(snap_of(build))
        assert 'lat_bucket{le="0.1"} 1' in text
        assert 'lat_bucket{le="1"} 2' in text
        assert 'lat_bucket{le="+Inf"} 3' in text
        assert "lat_sum 9.55" in text and "lat_count 3" in text

    def test_idle_unlabeled_family_exposes_a_zero(self):
        text = M.encode_prometheus(
            snap_of(lambda m: m.counter("idle_total", "idle")))
        assert "\nidle_total 0\n" in text

    def test_label_values_are_escaped(self):
        def build(m):
            m.counter("c_total", "", ("k",)).inc(k='sa"y\nhi')

        text = M.encode_prometheus(snap_of(build))
        assert 'c_total{k="sa\\"y\\nhi"} 1' in text

    def test_ends_with_newline(self):
        assert M.encode_prometheus({}).endswith("\n")


# ---------------------------------------------------------------------------
# satellite 4: the merge is a commutative, associative fold
# ---------------------------------------------------------------------------

_LABELSTRS = st.sampled_from(
    ["{}", json.dumps({"k": "a"}), json.dumps({"k": "b"})])
_COUNTS = st.integers(min_value=0, max_value=10**6).map(float)
_BOUNDS = [0.1, 1.0]


def _hist_cell():
    return st.lists(st.integers(0, 1000), min_size=len(_BOUNDS) + 1,
                    max_size=len(_BOUNDS) + 1).map(
        lambda buckets: {"sum": float(sum(buckets)), "count": sum(buckets),
                         "buckets": buckets})


def _family(kind, cells, **extra):
    return st.dictionaries(_LABELSTRS, cells, max_size=3).map(
        lambda values: {"type": kind, "help": "", "labels": ["k"],
                        "values": values, **extra})


snapshots = st.fixed_dictionaries({}, optional={
    "c_total": _family("counter", _COUNTS),
    "g": _family("gauge", _COUNTS),
    "h": _family("histogram", _hist_cell(), bounds=_BOUNDS),
})


@settings(max_examples=60, deadline=None)
@given(a=snapshots, b=snapshots)
def test_merge_is_commutative(a, b):
    assert M.merge_snapshots(a, b) == M.merge_snapshots(b, a)


@settings(max_examples=60, deadline=None)
@given(a=snapshots, b=snapshots, c=snapshots)
def test_merge_is_associative(a, b, c):
    # integer-valued samples: float rounding cannot hide a real failure
    left = M.merge_snapshots(M.merge_snapshots(a, b), c)
    right = M.merge_snapshots(a, M.merge_snapshots(b, c))
    assert left == right


@settings(max_examples=60, deadline=None)
@given(a=snapshots)
def test_empty_snapshot_is_the_identity(a):
    assert M.merge_snapshots(a, {}) == M.merge_snapshots({}, a)
    assert M.merge_snapshots(a, {}).keys() == a.keys()


def test_sliced_campaign_snapshots_fold_to_the_single_pass(tmp_path):
    """Per-slice meter deltas merged == one straight run's delta.

    The campaign satellite of the snapshot algebra: run the same tiny
    grid as two ``max_new_trials`` slices of one store and as one
    straight pass, and check every counter family folds to identical
    totals (gauges are point-in-time readings and histograms time
    wall-clock, so counters are the deterministic part).
    """
    from repro.experiments.asg_budget import figure7_spec
    from repro.experiments.campaign import run_campaign

    spec = figure7_spec()

    def run(root, cap=None):
        M.DEFAULT.reset()
        run_campaign(spec, root, seed=3, trials=2, n_values=[10],
                     n_jobs=1, max_new_trials=cap)
        return M.DEFAULT.snapshot()

    first = run(tmp_path / "sliced", 5)
    rest = run(tmp_path / "sliced")
    whole = run(tmp_path / "all")
    folded = M.merge_snapshots(first, rest)

    counters = [name for name, fam in whole.items()
                if fam["type"] == "counter" and fam["values"]]
    assert counters, "the campaign should exercise counter seams"
    for name in counters:
        assert folded[name]["values"] == whole[name]["values"], name
