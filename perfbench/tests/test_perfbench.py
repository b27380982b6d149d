"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import harness  # noqa: E402
import workloads  # noqa: E402
from intentguard import engine  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("name", WORKLOADS)
@pytest.mark.parametrize("traced", [False, True])
def test_tiny_workload_runs_correctly(name, traced, tmp_path):
    workload = harness.make_workload(name, seed=7, workdir=tmp_path, small=True)
    result = harness.run(workload, seconds=0, traced=traced)
    assert result["info"]["failures"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) >= set(PER_LAYER if traced else END_TO_END)
    if not traced:
        assert all(value > 0 for value, _ in result["metrics"].values())
    # spans are removed again after a traced run
    assert not hasattr(engine.Session.submit_action, "__wrapped__")


@pytest.mark.parametrize("name", WORKLOADS)
def test_wrong_expected_verdict_fails_the_run(name, tmp_path):
    workload = harness.make_workload(name, seed=7, workdir=tmp_path, small=True)
    task = workload.tasks[0]
    task.expected[0] = workloads.TASK_DONE if task.expected[0] != workloads.TASK_DONE else workloads.ALLOW
    result = harness.run(workload, seconds=0, traced=False)
    assert not result["correct"]
    assert result["failed"] >= 1


def test_generated_programs_are_canonical_and_seeded():
    import intentguard as ig

    a = workloads.fuzzy_text(random.Random(3), 5, 8, rounds=2)
    b = workloads.fuzzy_text(random.Random(3), 5, 8, rounds=2)
    assert a.trace_text() == b.trace_text() and a.spec_text == b.spec_text
    spec = ig.parse_specification(a.spec_text)
    assert ig.render_specification(spec) == a.spec_text
    assert a.expected[-1] == workloads.TASK_DONE
    assert workloads.TASK_DONE not in a.expected[:-1]
    assert {workloads.SOFT_BLOCK, workloads.HARD_BLOCK} <= set(a.expected)


def test_speed_gauge_scales_each_block_and_leaves_out_slices():
    import speed

    ref = speed.REFERENCE_SLICE_NS
    gauge = speed.SpeedGauge()
    # a slice at reference speed, then one at half speed
    gauge.starts = [0, ref + 1000]
    gauge.ends = [ref, 3 * ref + 1000]
    assert gauge.factors() == pytest.approx([1.0, 2 / 3, 0.5])
    assert gauge.scale(ref, ref + 1000) == pytest.approx(1000 * 2 / 3)
    assert gauge.scale(ref + 500, 3 * ref + 1600) == pytest.approx(500 * 2 / 3 + 600 * 0.5)
    assert gauge.mean_factor(ref, ref + 1000) == pytest.approx(2 / 3)
