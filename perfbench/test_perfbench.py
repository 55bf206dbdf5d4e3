"""Checks of the benchmark harness itself.

    python3 -m pytest perfbench -q

One untraced and one traced pass per workload: both must give the same
steps, trace hashes and exact counts, and every layer the workload is meant
to exercise must record calls.  A wrapper that missed an import binding
would otherwise read as a silent zero.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SEED = 3

_GEOMETRY = ["geometry.duality_map", "geometry.inverse_duality_map", "geometry.norm", "geometry.check"]
_DRIVER = _GEOMETRY + [
    "geometry.lyapunov",
    "operators.resolvent",
    "operators.duality_map_jacobian",
    "mappings.apply",
    "driver.halpern_step",
    "experiments.write_trace_csv",
]
SOLVE_LAYERS = {
    "shipped": _DRIVER + ["geometry.dual_norm", "sets.contains", "sequences"],
    "wide": _DRIVER,
    "calls": _GEOMETRY + [
        "operators.resolvent",
        "operators.duality_map_jacobian",
        "sets.generalized_projection",
        "sets.euclidean_project",
        "sets.contains",
    ],
}
SETUP_LAYERS = {
    "shipped": ["schedules.validate", "experiments.parse"],
    "wide": ["schedules.validate", "experiments.parse"],
    "calls": [],
}


@pytest.mark.parametrize("workload", list(workloads.PASS))
def test_traced_pass_repeats_untraced_pass(workload, tmp_path):
    t = tracer.Tracer()
    with t.installed():
        state = workloads.SETUP[workload](SEED)
    setup = tracer.layer_metrics(t.spans())
    plain = workloads.PASS[workload](state, tmp_path)

    t.reset()
    with t.installed():
        traced = workloads.PASS[workload](state, tmp_path, timed_clock=False)
    layers = tracer.layer_metrics(t.spans())

    assert plain.failures == [] and traced.failures == []
    assert traced.steps == plain.steps > 0
    assert traced.fingerprint == plain.fingerprint
    assert len(plain.op_s) == plain.steps
    for name in SETUP_LAYERS[workload]:
        assert setup[f"{name}.calls"] > 0, name
    for name in SOLVE_LAYERS[workload]:
        assert layers[f"{name}.calls"] > 0, name
    if workload == "calls":
        assert layers["driver.halpern_step.calls"] == 0
    else:
        assert layers["sets.generalized_projection.calls"] == 0
        assert layers["driver.halpern_step.calls"] == plain.steps
        assert layers["operators.resolvent.calls"] >= plain.steps


def test_tracer_restores_every_binding():
    import halpernlp
    import halpernlp.mappings

    before = (halpernlp.resolvent, halpernlp.mappings.resolvent, halpernlp.LpSpace.duality_map)
    with tracer.Tracer().installed():
        assert halpernlp.mappings.resolvent is not before[1]
        assert halpernlp.resolvent is halpernlp.mappings.resolvent
    assert (halpernlp.resolvent, halpernlp.mappings.resolvent, halpernlp.LpSpace.duality_map) == before


def test_self_time_excludes_children():
    spans = {
        "name": tracer.np.array([tracer.NAMES.index("operators.resolvent"),
                                 tracer.NAMES.index("geometry.duality_map"),
                                 tracer.NAMES.index("geometry.duality_map")], dtype=tracer.np.int32),
        "parent": tracer.np.array([-1, 0, 0], dtype=tracer.np.int32),
        "dur": tracer.np.array([1.0, 0.25, 0.5]),
        "count_a": tracer.np.array([7.0, 0.0, 0.0]),
        "count_b": tracer.np.array([1.0, 0.0, 0.0]),
    }
    m = tracer.layer_metrics(spans)
    assert m["operators.resolvent.self_s"] == pytest.approx(0.25)
    assert m["operators.resolvent.total_s"] == pytest.approx(1.0)
    assert m["geometry.duality_map.calls"] == 2
    assert m["operators.resolvent.inner_iters"] == 7.0
    assert m["operators.resolvent.failed"] == 1.0


def test_mismatched_rerun_is_rejected():
    a = workloads.PassResult(1.0, [], 5, 1.0, 1, fingerprint={"p1": {"steps": 5}})
    b = workloads.PassResult(1.0, [], 5, 1.0, 1, fingerprint={"p1": {"steps": 6}})
    run.check_repeats([a, a])
    with pytest.raises(run.NotRepeated):
        run.check_repeats([a, b])
    with pytest.raises(run.NotRepeated):
        run.check_repeats([a, a], counts=[{"x.calls": 1}, {"x.calls": 2}])


def test_tail_percentile_leaves_ten_samples_beyond():
    assert [run.tail_percentile(n) for n in (12, 118, 4053, 8609, 20000)] == [50.0, 90.0, 99.0, 99.0, 99.9]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = subprocess.run(
        spec["command"] + ["--workload", "shipped", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""
