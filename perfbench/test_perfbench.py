"""Self-tests of the benchmark at toy size.

    PYTHONPATH=src python3 -m pytest -q perfbench

They check that every named metric is emitted with its unit, and that a
wrong output injected from the benchmark side (NaN logits) is counted as a
failed operation instead of passing.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from sakit import ops  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def toy(name):
    if name == "pipeline-desk":
        return workloads.PipelineWorkload(per_class=2, val_per_class=1, epochs=1)
    return workloads.InferWorkload(name.split("-")[1], size=32, pass_batches=2)


def units(result):
    return {k: m["unit"] for k, m in result["metrics"].items()}


@pytest.fixture
def nan_logits(monkeypatch):
    real = ops.dense_forward

    def fake(x, w, b):
        y, cache = real(x, w, b)
        return np.full_like(y, np.nan), cache

    monkeypatch.setattr(ops, "dense_forward", fake)


def test_benchmark_json_matches_runner():
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]] == \
        [tuple(row) for row in tracing.PER_LAYER]
    assert sorted(w["name"] for w in BENCH["workloads"]) == sorted(workloads.WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in BENCH["end_to_end"])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_end_to_end_metric_is_emitted(name):
    result, details = run.measure(toy(name), seed=3, seconds=0.01, setup_repeats=1)
    assert units(result) == run.END_TO_END
    # one sample before and one after the set-up, one after every unit
    probes = 2 + len(details["unit_raw_s"])
    if name == "pipeline-desk":  # and one at the final stage's first epoch
        probes += len(details["unit_raw_s"])
    assert len(details["probe_s"]) == probes
    assert result["attempted"] >= 1
    assert all(m["value"] > 0 for m in result["metrics"].values())
    if name != "pipeline-desk":  # a one-step toy pipeline may sit below chance
        assert result["correct"] and result["failed"] == 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_nan_logits_count_as_failed(name, nan_logits):
    result, _ = run.measure(toy(name), seed=3, seconds=0.01, setup_repeats=1)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


@pytest.mark.parametrize("name", ["infer-scalenet50", "pipeline-desk"])
def test_traced_run_emits_every_per_layer_metric(name, tmp_path):
    result, details, tracer = run.measure_traced(name, toy(name), seed=3)
    assert units(result) == tracing.UNITS
    calls = tracer.calls()
    assert all(calls[label] for label in workloads.REQUIRED_SPANS[name])
    assert details["nodes"] and details["op_shares"]["conv"] > 0
    # a second traced run of the same seed must count exactly the same
    counts = tmp_path / "counts.json"
    run.check_counts(counts, result)
    run.check_counts(counts, run.measure_traced(name, toy(name), seed=3)[0])
    result["metrics"]["ops.conv2d_forward.calls"]["value"] += 1
    with pytest.raises(RuntimeError, match="exact counts differ"):
        run.check_counts(counts, result)


def test_source_digest_follows_sources(tmp_path):
    (tmp_path / "src" / "sakit" / "plans").mkdir(parents=True)
    (tmp_path / "perfbench").mkdir()
    kernel = tmp_path / "src" / "sakit" / "ops.py"
    kernel.write_text("a = 1\n")
    (tmp_path / "src" / "sakit" / "plans" / "p.json").write_text("{}")
    (tmp_path / "perfbench" / "workloads.py").write_text("b = 2\n")
    before = run.source_digest(tmp_path)
    (tmp_path / "perfbench" / "test_x.py").write_text("c = 3\n")
    assert run.source_digest(tmp_path) == before  # self-tests count no work
    kernel.write_text("a = 2\n")
    assert run.source_digest(tmp_path) != before


def test_probe_scales_a_timing_by_the_samples_around_it():
    from speed import NOMINAL_S, SpeedProbe
    probe = SpeedProbe()
    probe.samples, probe.at = [1.0, 2.0, 4.0, 8.0], [0.0, 1.0, 2.0, 3.0]
    assert probe.slowdown(1.5, 1.8) == 3.0 / NOMINAL_S  # the samples at 1 and 2
    assert probe.slowdown(0.5, 2.5) == 3.75 / NOMINAL_S  # and the two taken inside
