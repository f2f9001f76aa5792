"""The streaming quantile sketch: error bounds and exact merges."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.obs.sketch import LatencySketch, merge_sketches

QS = (0.1, 0.25, 0.5, 0.75, 0.9, 0.99)


def _exact_quantile(values, q: float) -> float:
    """The ceil(q*n)-th smallest value — the sketch's rank rule."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def _lognormal(n: int, seed: int = 42):
    rng = np.random.default_rng(seed)
    # Latency-shaped: median ~1ms with a heavy right tail.
    return np.exp(rng.normal(math.log(1e-3), 1.2, size=n)).tolist()


class TestLatencySketchAccuracy:
    def test_quantile_within_relative_error_bound(self):
        values = _lognormal(5000)
        sketch = LatencySketch()
        sketch.observe_many(values)
        bound = sketch.relative_error_bound
        for q in QS:
            exact = _exact_quantile(values, q)
            estimate = sketch.quantile(q)
            assert abs(estimate - exact) / exact <= bound, (
                f"q={q}: estimate {estimate} vs exact {exact} "
                f"outside bound {bound}"
            )

    def test_error_bound_formula(self):
        assert LatencySketch(
            buckets_per_decade=32
        ).relative_error_bound == pytest.approx(10 ** (1 / 32) - 1)
        # More buckets -> tighter bound.
        assert (
            LatencySketch(buckets_per_decade=64).relative_error_bound
            < LatencySketch(buckets_per_decade=16).relative_error_bound
        )

    def test_extreme_quantiles_clamp_to_observed_range(self):
        sketch = LatencySketch()
        values = [0.001, 0.002, 0.004, 0.008]
        sketch.observe_many(values)
        assert sketch.quantile(0.0) >= min(values)
        assert sketch.quantile(1.0) <= max(values)

    def test_out_of_range_values_land_in_overflow_buckets(self):
        sketch = LatencySketch(min_value=1e-3, max_value=1e0)
        sketch.observe(1e-6)   # underflow
        sketch.observe(1e3)    # overflow
        assert sketch.count == 2
        assert sketch.quantile(0.0) <= sketch.min_value
        assert sketch.quantile(1.0) == sketch.max_value

    def test_single_observation(self):
        sketch = LatencySketch()
        sketch.observe(0.5)
        for q in QS:
            assert sketch.quantile(q) == pytest.approx(
                0.5, rel=sketch.relative_error_bound
            )

    def test_empty_sketch_reads_zero(self):
        sketch = LatencySketch()
        assert sketch.count == 0
        assert sketch.quantile(0.5) == 0.0
        assert sketch.mean == 0.0

    def test_mean_is_exact(self):
        values = _lognormal(500)
        sketch = LatencySketch()
        sketch.observe_many(values)
        assert sketch.mean == pytest.approx(sum(values) / len(values))


class TestLatencySketchMerge:
    def test_merge_equals_single_stream(self):
        values = _lognormal(3000)
        parts = [values[i::4] for i in range(4)]
        sketches = []
        for part in parts:
            s = LatencySketch()
            s.observe_many(part)
            sketches.append(s)
        single = LatencySketch()
        single.observe_many(values)
        assert merge_sketches(sketches) == single

    def test_merge_associative_and_commutative(self):
        a, b, c = (LatencySketch() for _ in range(3))
        a.observe_many(_lognormal(200, seed=1))
        b.observe_many(_lognormal(300, seed=2))
        c.observe_many(_lognormal(400, seed=3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a

    def test_empty_is_identity(self):
        a = LatencySketch()
        a.observe_many(_lognormal(100))
        assert a + LatencySketch() == a
        assert merge_sketches([]) == LatencySketch()

    def test_update_in_place(self):
        a, b = LatencySketch(), LatencySketch()
        a.observe(0.1)
        b.observe(0.2)
        result = a.update(b)
        assert result is a
        assert a.count == 2

    def test_mismatched_configs_refuse_to_merge(self):
        with pytest.raises(ConfigurationError, match="configs differ"):
            LatencySketch(buckets_per_decade=16).update(
                LatencySketch(buckets_per_decade=32)
            )
        with pytest.raises(ConfigurationError, match="cannot merge"):
            LatencySketch().update(object())  # type: ignore[arg-type]


class TestLatencySketchSerialization:
    def test_round_trip(self):
        sketch = LatencySketch()
        sketch.observe_many(_lognormal(250))
        restored = LatencySketch.from_dict(sketch.to_dict())
        assert restored == sketch
        assert restored.total == sketch.total
        assert restored.vmin == sketch.vmin
        assert restored.vmax == sketch.vmax

    def test_round_trip_survives_json(self):
        import json

        sketch = LatencySketch()
        sketch.observe_many([1e-4, 3e-3, 0.2])
        data = json.loads(json.dumps(sketch.to_dict()))
        assert LatencySketch.from_dict(data) == sketch

    def test_empty_round_trip(self):
        assert LatencySketch.from_dict(LatencySketch().to_dict()) == (
            LatencySketch()
        )

    def test_bad_bucket_index_rejected(self):
        data = LatencySketch().to_dict()
        data["buckets"] = {"999999": 1}
        with pytest.raises(ConfigurationError, match="bucket index"):
            LatencySketch.from_dict(data)


class TestLatencySketchValidation:
    def test_bad_range(self):
        with pytest.raises(ConfigurationError):
            LatencySketch(min_value=1.0, max_value=0.5)
        with pytest.raises(ConfigurationError):
            LatencySketch(min_value=0.0)

    def test_bad_buckets_per_decade(self):
        with pytest.raises(ConfigurationError):
            LatencySketch(buckets_per_decade=0)

    def test_negative_or_nan_observation(self):
        sketch = LatencySketch()
        with pytest.raises(ConfigurationError):
            sketch.observe(-1.0)
        with pytest.raises(ConfigurationError):
            sketch.observe(float("nan"))

    def test_bad_quantile(self):
        sketch = LatencySketch()
        sketch.observe(1.0)
        with pytest.raises(ConfigurationError):
            sketch.quantile(1.5)

