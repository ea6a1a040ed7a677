"""Tests of the benchmark's own rules (run: python3 -m pytest gpbench/tests -q)."""

from __future__ import annotations

import pathlib
import sys

import numpy as np
import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from gpbench import fixture  # noqa: E402
from gpbench.stats import (  # noqa: E402
    GateError,
    check_identical,
    percentile,
    poisson_schedule,
    posterior_bytes,
    stage_split,
)


# -- nearest-rank percentile -------------------------------------------
def test_percentile_is_nearest_rank():
    values = [15, 20, 35, 40, 50]
    assert percentile(values, 5) == 15
    assert percentile(values, 30) == 20
    assert percentile(values, 40) == 20
    assert percentile(values, 50) == 35
    assert percentile(values, 100) == 50
    assert percentile([3, 1, 4, 2], 50) == 2  # lower middle, never interpolated
    assert percentile(range(1, 101), 99) == 99


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)


# -- schedules and inputs repeat per seed ------------------------------
def _schedule(seed: int):
    return poisson_schedule(np.random.default_rng(seed), rate_per_s=50.0,
                            duration_s=4.0, mix=(0.2, 0.3, 0.5), pool_size=64)


def test_poisson_schedule_repeats_exactly_for_a_seed():
    first, again, other = _schedule(7), _schedule(7), _schedule(8)
    for a, b in zip(first, again):
        np.testing.assert_array_equal(a, b)
    assert not np.array_equal(first[0], other[0])
    due, tenants, samples = first
    assert due.size == 200  # rate x duration, for every seed
    assert np.all(np.diff(due) >= 0) and 0 <= due[0] and due[-1] < 4.0
    assert np.bincount(tenants).tolist() == [40, 60, 100]  # exact shares, every seed
    assert samples.max() < 64


def test_stream_inputs_repeat_exactly_and_keep_dbscan_work(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    first, digest = fixture.write_stream_inputs(tmp_path / "a", fixture.stream_recordings(3))
    again, digest_again = fixture.write_stream_inputs(tmp_path / "b", fixture.stream_recordings(3))
    assert digest == digest_again
    assert first.keys() == again.keys()
    for stream_id in first:
        assert first[stream_id]["lead_in"] == again[stream_id]["lead_in"]
        for x, y in zip(first[stream_id]["frames"], again[stream_id]["frames"]):
            np.testing.assert_array_equal(x.points, y.points)
    # Another seed reorders and jitters, but hands DBSCAN as many points.
    points = sorted(len(d["points"]) for d in fixture.stream_recordings(3).values())
    assert points != [] and sum(points) == sum(
        len(d["points"]) for d in fixture.stream_recordings(4).values())


def test_gateway_inputs_repeat_exactly(tmp_path):
    pool = fixture.gateway_pool(5)
    np.testing.assert_array_equal(pool, fixture.gateway_pool(5))
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    _, first = fixture.write_gateway_inputs(tmp_path / "a", pool, _schedule(5))
    back, again = fixture.write_gateway_inputs(tmp_path / "b", pool, _schedule(5))
    assert first == again
    np.testing.assert_array_equal(back["pool"], pool)


# -- the byte-identity gate --------------------------------------------
def test_identity_gate_fails_on_a_perturbed_posterior():
    gesture_probs = np.array([0.1, 0.7, 0.2])
    user_probs = np.array([0.25, 0.75])
    expected = posterior_bytes(1, 1, gesture_probs, user_probs)
    check_identical(posterior_bytes(1, 1, gesture_probs.copy(), user_probs.copy()),
                    expected, what="same")
    nudged = user_probs.copy()
    nudged[0] = np.nextafter(nudged[0], 1.0)  # one ulp
    with pytest.raises(GateError):
        check_identical(posterior_bytes(1, 1, gesture_probs, nudged), expected, what="ulp")
    with pytest.raises(GateError):
        check_identical(posterior_bytes(1, 0, gesture_probs, user_probs), expected, what="label")


# -- the stage-sum check -----------------------------------------------
RECORD = {"trace_id": 1, "admission_wait_ms": 0.0, "queue_wait_ms": 40.0,
          "exec_ms": 5.0, "total_ms": 45.5}


def test_stage_split_adds_up_to_the_client_latency():
    split = stage_split(RECORD, client_ms=48.0, roundtrip_ms=47.0)
    assert split["egress"] == pytest.approx(0.5)
    assert split["wire"] == pytest.approx(1.5)
    assert split["unattributed"] == pytest.approx(1.0)  # sent 1 ms after due
    assert sum(split.values()) == pytest.approx(48.0)


@pytest.mark.parametrize("stage", ["admission_wait_ms", "queue_wait_ms", "exec_ms", "total_ms"])
def test_stage_split_catches_a_missing_stage(stage):
    record = dict(RECORD)
    record[stage] = None
    with pytest.raises(GateError, match="missing"):
        stage_split(record, client_ms=48.0, roundtrip_ms=47.0)
    del record[stage]
    with pytest.raises(GateError, match="missing"):
        stage_split(record, client_ms=48.0, roundtrip_ms=47.0)


def test_stage_split_catches_stages_overrunning_the_total():
    record = dict(RECORD, exec_ms=9.0)
    with pytest.raises(GateError, match="do not fit"):
        stage_split(record, client_ms=48.0, roundtrip_ms=47.0)
