"""Smoke tests of the benchmark itself:  python3 -m pytest -q bench

They run every workload at a tiny ensemble, check the reported metric names
and units against BENCHMARK.json, check that traced and untraced runs give
the same CSV, and check that the tracer restores what it wraps.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workload  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _continuized_attributes() -> dict:
    """Every attribute of every loaded continuized module and wrapped class."""
    import continuized.dual
    import continuized.trace

    snapshot = {
        name: dict(vars(module))
        for name, module in sys.modules.items()
        if name.startswith("continuized")
    }
    for cls in (continuized.trace.Trace, continuized.dual.DualParams):
        snapshot[cls.__qualname__] = dict(vars(cls))
    return snapshot


def test_metric_names_units_and_workloads_match_benchmark_json():
    def table(section):
        return {m["name"]: (m["unit"], m["better"]) for m in SPEC[section]}

    assert table("end_to_end") == run.END_TO_END
    assert table("per_layer") == run.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert SPEC["paths"] == ["bench"]


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_every_workload_smoke(name):
    result = run.run_workload(name, seed=7, seconds=0, trace=True, runs=2)
    assert result["failures"] == [] and result["failed"] == 0
    end_to_end = run.metrics_of(result, trace=False)
    per_layer = run.metrics_of(result, trace=True)
    assert {k: v["unit"] for k, v in end_to_end.items()} == {
        k: unit for k, (unit, _) in run.END_TO_END.items()
    }
    assert all(v["value"] > 0 for v in end_to_end.values())
    assert {k: v["unit"] for k, v in per_layer.items()} == {
        k: unit for k, (unit, _) in run.PER_LAYER.items()
    }
    assert per_layer["engine.events"]["value"] > 0
    assert per_layer["bench.absent_targets"]["value"] == 0
    coverage = per_layer["bench.self_time_coverage"]["value"]
    assert abs(coverage - 1.0) <= run.COVERAGE_TOLERANCE


def test_traced_csv_equals_untraced_and_wrappers_are_restored():
    preset, _ = run.WORKLOADS["decentralized-line10"]
    plain = workload.measure(preset, 3, 2, trace=False)
    before = _continuized_attributes()
    traced = workload.measure(preset, 3, 2, trace=True)
    assert _continuized_attributes() == before
    assert traced["csv_sha256"] == plain["csv_sha256"]
    assert traced["layers"]["gossip.sample_event_stream.calls"] == 2
    assert traced["layers"]["dual.dual_update.calls"] == traced["events"]


def test_rebound_names_are_wrapped_by_identity():
    import continuized.dual as dual
    import continuized.dynamics as dynamics
    import continuized.gossip as gossip
    import continuized.harness.runner as runner

    originals = (gossip.sample_event_stream, dynamics.run_continuized)
    t = tracer.Tracer()
    t.install()
    try:
        assert dual.sample_event_stream is gossip.sample_event_stream
        assert dual.sample_event_stream is not originals[0]
        assert runner.run_continuized is dynamics.run_continuized
        assert runner.run_continuized is not originals[1]
    finally:
        t.uninstall()
    assert (gossip.sample_event_stream, dynamics.run_continuized) == originals
    assert dual.sample_event_stream is originals[0]
    assert runner.run_continuized is originals[1]


def test_missing_target_is_reported_absent(monkeypatch):
    gone = ("gossip.no_such_kernel", "continuized.gossip", "no_such_kernel")
    monkeypatch.setattr(tracer, "COUNT_TARGETS", tracer.COUNT_TARGETS + (gone,))
    t = tracer.Tracer()
    t.install()
    t.uninstall()
    assert t.absent == ["gossip.no_such_kernel"]


def test_non_finite_csv_fails_the_check():
    assert workload.check_csv("t,metric,mean\n1,gap,0.5\n") == (True, None)
    assert workload.check_csv("t,metric,mean\n1,gap,nan\n")[0] is False
    assert workload.check_csv("t,metric,mean,bound\n1,gap,0.5,2\n") == (True, 0.25)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "a1-convex", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
