"""Tests of the benchmark's own machinery: spans, counts, digests.

Run from the root of the repository: python3 -m pytest perfbench -q
The traced processes use small invocations so that the tests stay fast.
"""

import json
import os
import subprocess
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import layers  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402


def _traced(tmp_path: Path, name: str, args: list[str]) -> tuple[layers.Trace, float]:
    """Run one CLI invocation under the tracer; return its trace and measured wall time."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    spans = tmp_path / f"{name}.npz"
    launch = time.monotonic_ns()
    env["PERFBENCH_LAUNCH_NS"] = str(launch)
    subprocess.run(
        [sys.executable, str(HERE / "tracer.py"), str(spans), *args],
        cwd=tmp_path,
        env=env,
        check=True,
        timeout=120,
    )
    wall = (time.monotonic_ns() - launch) / 1e9
    return layers.Trace.load(spans), wall


def _small_workloads(tmp_path: Path, tag: str) -> dict[str, list[layers.Trace]]:
    """A coarse mission and a four-trace calibration, traced."""
    (tmp_path / "scout.mission").write_text(wl.SCOUT_MISSION, encoding="utf-8")
    temps = ["60", "80", "100", "120"]
    synth = ["synth", "--noise", "0.02", "--seed", "7", "--out", f"synth-{tag}"]
    for t in temps:
        synth += ["--temperature-c", t]
    traces = sorted(f"synth-{tag}/trace_synth-{t}C.csv" for t in temps)
    mission, _ = _traced(
        tmp_path, f"sim-{tag}", ["simulate", "scout.mission", "--seed", "11", "--dt", "1", "--out", f"sim-{tag}"]
    )
    calibration = [
        _traced(tmp_path, f"synth-{tag}", synth)[0],
        _traced(tmp_path, f"fit-{tag}", ["fit-dsc", *traces, "--out", f"fit-{tag}"])[0],
    ]
    return {"mission": [mission], "calibration": calibration}


@pytest.fixture(scope="module")
def two_runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("traced")
    return _small_workloads(tmp, "a"), _small_workloads(tmp, "b")


def test_spans_nest_and_self_times_sum_to_wall(tmp_path):
    (tmp_path / "scout.mission").write_text(wl.SCOUT_MISSION, encoding="utf-8")
    trace, wall = _traced(
        tmp_path, "sim", ["simulate", "scout.mission", "--seed", "11", "--dt", "1", "--out", "out"]
    )
    assert trace.meta["exit_code"] == 0
    has_parent = trace.parent >= 0
    assert np.count_nonzero(~has_parent) == 1  # one root: the process span
    parent = trace.parent[has_parent]
    assert np.all(trace.start[has_parent] >= trace.start[parent])
    assert np.all(trace.end[has_parent] <= trace.end[parent])
    assert np.all(trace.duration >= 0)
    self_time = trace.self_time()
    assert np.all(self_time >= -1e-9)
    assert self_time.sum() == pytest.approx(trace.wall(), rel=1e-9)
    # the root span ends when cli.main returns; writing the spans and
    # interpreter shutdown come after it
    assert trace.wall() <= wall
    assert trace.wall() > 0.8 * wall - 0.2


def test_exact_counts_repeat_between_runs(two_runs):
    first, second = ({k: layers.layer_metrics(v) for k, v in run.items()} for run in two_runs)
    for workload, name in (
        ("mission", "mission.steps"),
        ("mission", "kinetics.arrhenius_calls"),
        ("mission", "sensors.noise_draws"),
        ("calibration", "dscfit.fit_iterations"),
    ):
        assert first[workload][name] > 0, name
        assert first[workload][name] == second[workload][name], name
    for workload in first:
        for name in layers.EXACT_COUNTS:
            assert first[workload][name] == second[workload][name], (workload, name)


def test_layers_the_workload_does_not_reach_read_zero(two_runs):
    metrics = {k: layers.layer_metrics(v) for k, v in two_runs[0].items()}
    assert metrics["mission"]["dscfit.fit_s"] == 0.0
    assert metrics["mission"]["dscfit.fit_us_per_iter"] == 0.0
    assert metrics["calibration"]["mission.steps"] == 0
    assert metrics["calibration"]["dscfit.converged_ratio"] == 1.0
    assert set(metrics["mission"]) == set(layers.PER_LAYER_UNITS)


def test_missing_boundary_is_reported_not_fatal(two_runs):
    t = tracer.Tracer()
    module = types.SimpleNamespace(__name__="transient_kinetics.cli")
    t.wrap(module, "_atomic_write", "cli.write")
    assert t.missing == ["cli._atomic_write"]

    traces = two_runs[0]["mission"]
    renamed = [
        layers.Trace(tr.names, tr.name_id, tr.start, tr.end, tr.parent, dict(tr.meta, wrapped=[
            w for w in tr.meta["wrapped"] if w != "cli.write"
        ]))
        for tr in traces
    ]
    metrics = layers.layer_metrics(renamed)
    assert metrics["cli.write_s"] is None
    assert metrics["cli.write_bytes"] is None
    assert metrics["mission.steps"] > 0


def test_canonical_summary_drops_only_volatile_fields():
    summary = {
        "command": "simulate",
        "generated_at": "2026-01-01T00:00:00+00:00",
        "results": {"mission": "/somewhere/else/scout.mission", "steps": 3},
    }
    canonical = json.loads(wl.canonical_summary(summary))
    assert canonical == {"command": "simulate", "results": {"mission": "scout.mission", "steps": 3}}
    assert summary["results"]["mission"] == "/somewhere/else/scout.mission"


def test_default_seed_gives_the_reference_schedule():
    rows = wl.predict_schedule(wl.DEFAULT_SEED)
    assert sum(d for d, _, _ in rows) == wl.PREDICT_STEPS
    assert {t for _, t, _ in rows} == {25.0, 60.0, 120.0}
    jittered = wl.predict_schedule(3)
    assert [d for d, _, _ in jittered] == [d for d, _, _ in rows]
    assert jittered == wl.predict_schedule(3)
    assert all(abs(a[1] - b[1]) <= 2.0 for a, b in zip(rows, jittered))


def test_timings_are_rescaled_by_the_references_timed_with_them():
    def proc(wall_s: float) -> run.Proc:
        return run.Proc(exit_code=0, wall_s=wall_s, cpu_s=wall_s, rss_mb=1.0)

    nominal = run.REFERENCE_NOMINAL_S
    # a machine twice as slow as nominal while the set-up sample ran, 3x later
    refs = [proc(2 * nominal), proc(2 * nominal), proc(3 * nominal), proc(5 * nominal)]
    rep = run.Rep([proc(1.0), proc(2.0), proc(3.0)], [[], [], []], {}, [], refs, proc(0.4))
    assert rep.scale == pytest.approx(1 / 3)
    assert rep.wall_s * rep.scale == pytest.approx(2.0)
    assert rep.setup.wall_s * rep.setup_scale == pytest.approx(0.2)
