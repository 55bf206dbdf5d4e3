"""Config parsing, exit codes, trace files, suites, determinism."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml

import halpernlp.driver as driver
from halpernlp.experiments import (
    EXIT_INNER_FAILURE,
    EXIT_IO_ERROR,
    EXIT_MAX_ITER,
    EXIT_OK,
    EXIT_SLACK_VIOLATION,
    CSV_COLUMNS,
    ConfigError,
    config_from_dict,
    exit_code_for,
    parse_config,
    run_experiment,
    run_suite,
)

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def small_config(**over):
    """A 3-dimensional proximal-point problem that converges in a few steps."""
    raw = {
        "id": "small",
        "seed": 3,
        "space": {"dim": 3, "p": 3.0},
        "scheme": "proximal_point",
        "operator": {
            "variant": "gradient_of_quadratic",
            "q_diag": [1.0, 0.5, 2.0],
            "c": [0.2, -0.1, 0.4],
        },
        "constraint": {"variant": "whole_space"},
        "schedules": {
            "alpha": {"kind": "power", "c": 1.0, "s": 1.0},
            "r": {"kind": "constant", "value": 1.0},
        },
        "start": {"u": [1.0, 1.0, 1.0], "x1": [0.0, 0.0, 0.0]},
        "budgets": {"max_iter": 50000, "stop_tol": 1e-2},
    }
    for key, value in over.items():
        node = raw
        *head, last = key.split(".")
        for part in head:
            node = node.setdefault(part, {})
        node[last] = value
    return raw


def test_parse_p1_config():
    cfg = parse_config(f"{CONFIG_DIR}/p1.yaml")
    assert cfg.experiment_id == "p1"
    assert cfg.scheme == "proximal_point"
    assert cfg.halpern.space.dim == 10
    assert cfg.halpern.space.p == 3.0


@pytest.mark.parametrize("lam", [2.0**7, 2.0**10])
def test_scaled_line_config_is_accepted(lam):
    # the reference w is Q_F(u) onto a line of zeros; projected gradient
    # stopped at VI residuals 1.4e-6 and 9.3e-5 here, so the config was rejected
    raw = yaml.safe_load((CONFIG_DIR / "p4_line.yaml").read_text())
    w = config_from_dict(raw).halpern.reference
    for section, key in [("operator", "c"), ("start", "u"), ("start", "x1")]:
        raw[section][key] = [lam * v for v in raw[section][key]]
    raw["budgets"]["stop_tol"] *= lam
    np.testing.assert_allclose(config_from_dict(raw).halpern.reference, lam * w, rtol=1e-12)


def test_a_diagonal_operator_config_builds_in_o_dim_memory():
    # at dim 1e4 one dense B is 800 MB; q_diag stays a vector through the
    # zero set, a box, and the reference projection onto it
    dim = 10_000
    raw = yaml.safe_load((CONFIG_DIR / "p1.yaml").read_text())
    raw["space"]["dim"] = dim
    raw["operator"]["q_diag"] = np.linspace(0.1, 1.0, dim).tolist()
    raw["operator"]["c"] = np.random.default_rng(0).standard_normal(dim).tolist()
    tracemalloc.start()
    try:
        config_from_dict(raw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000_000


def test_seed_override_changes_seeded_points():
    a = parse_config(f"{CONFIG_DIR}/p1.yaml", seed_override=1)
    b = parse_config(f"{CONFIG_DIR}/p1.yaml", seed_override=2)
    assert not np.allclose(a.halpern.anchor, b.halpern.anchor)


def test_rejects_invalid_exponent():
    raw = small_config(**{"space.p": 1.0})
    with pytest.raises(ConfigError, match="space"):
        config_from_dict(raw)


def test_rejects_constant_anchor_weights():
    raw = small_config(**{"schedules.alpha": {"kind": "constant", "value": 0.5}})
    with pytest.raises(ConfigError, match="anchor weight"):
        config_from_dict(raw)


def test_rejects_blend_weights_tending_to_one():
    raw = small_config(
        scheme="halpern_mann",
        mapping={"variant": "resolvent", "r": 1.0},
        **{"schedules.beta": {"kind": "constant", "value": 1.0}},
    )
    with pytest.raises(ConfigError, match="blend weight"):
        config_from_dict(raw)


def test_rejects_unknown_scheme_and_operator():
    for scheme in ("midpoint", "halpern_generic"):
        raw = small_config(scheme=scheme, operator={"variant": "nope"})
        with pytest.raises(ConfigError) as exc:
            config_from_dict(raw)
        joined = "\n".join(exc.value.problems)
        assert "scheme" in joined
        assert "operator" in joined


BLEND = {"scheme": "halpern_mann", "mapping": {"variant": "resolvent", "r": 1.0}}


def test_sequence_problems_listed_with_other_problems():
    for over, match in (
        ({"schedules.r": {"kind": "power"}}, "lower bound"),
        ({**BLEND, "schedules.beta": {"kind": "constant", "value": 1.0}}, "blend weight"),
        ({**BLEND, "mapping": {"variant": "resolvent", "r": 0.0}}, "resolvent parameter"),
    ):
        with pytest.raises(ConfigError) as exc:
            config_from_dict(small_config(**over, **{"budgets.max_iter": "lots"}))
        joined = "\n".join(exc.value.problems)
        assert match in joined
        assert "budgets.max_iter" in joined


def test_rejects_non_numeric_fields():
    for over, match in (
        ({"budgets.max_iter": "lots"}, "budgets"),
        ({"budgets.stop_tol": "lots"}, "budgets"),
        ({"seed": "lots"}, "seed"),
        ({"debug.perturb_step": "lots"}, "perturb_step"),
        ({"schedules.alpha.c": "lots"}, "schedule"),
        # sections that are not mappings
        ({"budgets": 5}, "budgets"),
        ({"operator": 3}, "operator"),
        ({"debug": "x"}, "debug"),
        ({"schedules": 5}, "schedules"),
        ({"schedules.alpha": 5}, "schedules.alpha"),
        ({"schedules.r": "x"}, "schedules.r"),
        ({"start": 5}, "start"),
        ({"constraint": 7}, "constraint"),
        ({**BLEND, "mapping": 5}, "mapping"),
        # scalars given as lists
        ({**BLEND, "constraint": {"variant": "half_space", "a": [1.0, 1.0, 1.0], "b": [1, 2]}}, "constraint.b"),
        ({**BLEND, "constraint": {"variant": "ball", "center": [0.0, 0.0, 0.0], "radius": [1]}}, "constraint.radius"),
        ({**BLEND, "mapping": {"variant": "resolvent", "r": [1]}}, "mapping.r"),
        # vectors of the wrong length
        ({**BLEND, "constraint": {"variant": "half_space", "a": [1.0, 1.0], "b": 1.0}}, "constraint.a"),
        ({**BLEND, "constraint": {"variant": "box", "lo": [-1.0, -1.0], "hi": [1.0, 1.0]}}, "constraint.lo"),
        ({**BLEND, "constraint": {"variant": "box", "lo": [-1.0, -1.0, -1.0], "hi": [1.0]}}, "constraint.hi"),
        ({**BLEND, "constraint": {"variant": "ball", "center": [0.0, 0.0], "radius": 1.0}}, "constraint.center"),
        # integer fields that are not integral
        ({"space.dim": 3.7}, "space.dim"),
        ({"seed": 3.9}, "seed"),
        ({"budgets.max_iter": 2.5}, "budgets.max_iter"),
        # non-finite floats where they have no meaning
        ({"budgets.stop_tol": float("nan")}, "budgets.stop_tol"),
        ({"debug.perturb_step": float("inf")}, "debug.perturb_step"),
        ({"schedules.r.value": float("inf")}, "schedules.r.value"),
        ({"start.u": [0.0, float("nan"), 1.0]}, "start.u"),
        ({**BLEND, "constraint": {"variant": "box", "lo": [float("nan")] * 3, "hi": [1.0] * 3}}, "constraint.lo"),
        ({**BLEND, "constraint": {"variant": "half_space", "a": [1.0, 1.0, 1.0], "b": float("inf")}}, "constraint.b"),
    ):
        with pytest.raises(ConfigError, match=match):
            config_from_dict(small_config(**over))


def test_accepts_infinite_box_bounds_and_ball_radius():
    inf = float("inf")
    for constraint in (
        {"variant": "box", "lo": [-inf, -1.0, -inf], "hi": [inf, 1.0, inf]},
        {"variant": "ball", "center": [0.0, 0.0, 0.0], "radius": inf},
    ):
        cfg = config_from_dict(small_config(**BLEND, constraint=constraint))
        assert cfg.halpern.constraint.contains(np.array([5.0, 0.5, -7.0]))


def test_rejects_constrained_proximal_point():
    for constraint in (
        {"variant": "box", "lo": [-1.0, -1.0, -1.0], "hi": [1.0, 1.0, 1.0]},
        {"variant": "half_space", "a": [1.0, 0.0, 0.0], "b": 5.0},
    ):
        with pytest.raises(ConfigError, match="whole_space"):
            config_from_dict(small_config(constraint=constraint))


def test_rejects_wrong_start_shape():
    raw = small_config(**{"start.x1": [1.0, 2.0]})
    with pytest.raises(ConfigError, match="x1"):
        config_from_dict(raw)


def test_converged_run_exit_zero(tmp_path):
    cfg = config_from_dict(small_config())
    summary, trace = run_experiment(cfg, tmp_path)
    assert summary.exit_code == EXIT_OK
    assert summary.status == "Converged"
    assert summary.final_error <= cfg.halpern.stop_tol
    assert (tmp_path / "small_trace.csv").exists()
    assert (tmp_path / "small_summary.tsv").exists()


def test_budget_exhaustion_exit_two(tmp_path):
    cfg = config_from_dict(small_config(**{"budgets.max_iter": 5}))
    summary, _ = run_experiment(cfg, tmp_path)
    assert summary.exit_code == EXIT_MAX_ITER
    assert summary.iterations == 5


def test_corrupted_step_exit_three(tmp_path):
    # Fault injection: a constant offset added to every intermediate point
    # breaks the per-step inequalities, which should dominate the exit code.
    cfg = config_from_dict(small_config(debug={"perturb_step": 0.5}))
    summary, trace = run_experiment(cfg, tmp_path)
    assert summary.exit_code == EXIT_SLACK_VIOLATION
    assert trace.min_slack < -1e-7 or trace.boundedness_violation > 1e-7


def test_nan_slack_is_a_violation(tmp_path):
    # min() over the two slack columns could drop a NaN in the second one
    _, trace = run_experiment(config_from_dict(small_config(**{"budgets.max_iter": 3})), tmp_path)
    assert exit_code_for(trace) == EXIT_MAX_ITER
    trace.slack_c[1] = np.nan
    assert exit_code_for(trace) == EXIT_SLACK_VIOLATION


def test_run_stops_at_a_nan_slack(monkeypatch):
    step = driver.halpern_step

    def nan_at_step_two(cfg, n, x, prev=None):
        x_next, y, diag = step(cfg, n, x, prev=prev)
        if n == 2:
            diag["slack_c"] = np.nan
        return x_next, y, diag

    monkeypatch.setattr(driver, "halpern_step", nan_at_step_two)
    trace = driver.run_halpern(config_from_dict(small_config()).halpern)
    assert trace.status is driver.RunStatus.SLACK_VIOLATION
    assert trace.iterations == 2 and np.isnan(trace.slack_c[-1])


TRACE_ATTRS = {  # CSV header -> (IterationTrace attribute, cell type)
    "n": ("n", int),
    "alpha_n": ("alpha", float),
    "phi_w_xn": ("phi_w_x", float),
    "res_fixed_point": ("res_fixed_point", float),
    "res_y_minus_Sx": ("res_y_vs_sx", float),
    "slack_b": ("slack_b", float),
    "slack_c": ("slack_c", float),
    "inner_iters": ("inner_iters", int),
}


def test_trace_csv_schema(tmp_path):
    blend = {
        "scheme": "halpern_mann",
        "mapping": {"variant": "resolvent", "r": 1.0},
        "schedules.beta": {"kind": "constant", "value": 0.5},
    }
    assert set(CSV_COLUMNS) == set(TRACE_ATTRS)
    for name, over in (("proximal_point", {}), ("halpern_mann", blend)):
        cfg = config_from_dict(small_config(**over))
        summary, trace = run_experiment(cfg, tmp_path / name)
        lines = (tmp_path / name / "small_trace.csv").read_text().splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == ",".join(CSV_COLUMNS)
        rows = [line.split(",") for line in lines[2:]]
        assert len(rows) == trace.n.size
        first = rows[0]
        assert int(first[0]) == 1
        assert float(first[1]) == 1.0  # alpha_1 = 1/1
        for i, row in enumerate(rows):
            assert len(row) == len(CSV_COLUMNS)
            assert float(row[5]) >= -1e-7  # slack_b
            assert float(row[6]) >= -1e-7  # slack_c
            # every cell parses back to exactly the traced value
            for header, cell in zip(CSV_COLUMNS, row):
                attr, kind = TRACE_ATTRS[header]
                assert kind(cell) == getattr(trace, attr)[i], (name, header, i)


def test_trace_rows_match_the_per_cell_formatter(tmp_path):
    # the one-format-per-row writer against str(int(.)) / f"{.:.17g}" per
    # cell, on values whose text is easy to get wrong
    from halpernlp.driver import TRACE_COLUMNS, IterationTrace, RunStatus
    from halpernlp.experiments import write_trace_csv

    floats = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -1.7976931348623157e308,
                       0.1, 1.0 / 3.0, 1e16, 123456789.0, -2.5e-300])
    ints = np.array([1, 0, -1, 2**53 + 1, 2**62, -(2**63), 2**63 - 1, 7, 8, 9, 10, 11])
    cols = {attr: (ints if kind is int else np.roll(floats, k))
            for k, (attr, _, kind) in enumerate(TRACE_COLUMNS)}
    trace = IterationTrace(
        status=RunStatus.MAX_ITER, iterations=ints.size, final_x=np.zeros(2),
        reference=np.zeros(2), uc_ft_gap=None, j_gap=None, boundedness_violation=0.0,
        **cols,
    )
    write_trace_csv(trace, tmp_path / "t.csv")
    expected = ["# halpernlp trace schema v1", ",".join(CSV_COLUMNS)]
    for i in range(ints.size):
        expected.append(",".join(
            str(int(cols[attr][i])) if kind is int else f"{cols[attr][i]:.17g}"
            for attr, _, kind in TRACE_COLUMNS
        ))
    assert (tmp_path / "t.csv").read_text() == "\n".join(expected) + "\n"
    cells = {c for row in expected[2:] for c in row.split(",")}
    assert {"nan", "inf", "-inf", "-0", str(-(2**63))} <= cells


def test_summary_fields_match_trace(tmp_path):
    cfg = config_from_dict(small_config())
    summary, trace = run_experiment(cfg, tmp_path)
    assert summary.iterations == trace.iterations
    assert abs(summary.final_error - trace.final_error) < 1e-12
    assert abs(summary.min_slack - trace.min_slack) < 1e-12


def test_suite_aggregates_and_sorts(tmp_path):
    summaries = run_suite(
        [f"{CONFIG_DIR}/p1.yaml", f"{CONFIG_DIR}/p4_line.yaml"], tmp_path
    )
    ids = [s.experiment_id for s in summaries]
    assert ids == sorted(ids) == ["p1", "p4_line"]
    assert all(s.exit_code == EXIT_OK for s in summaries)
    text = (tmp_path / "suite_summary.tsv").read_text().splitlines()
    assert len(text) == 3 and text[0].startswith("id\t")


def test_suite_isolates_broken_config(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("scheme: nope\n")
    summaries = run_suite([f"{CONFIG_DIR}/p4_line.yaml", str(bad)], tmp_path / "out")
    by_id = {s.experiment_id: s for s in summaries}
    assert by_id["p4_line"].exit_code == EXIT_OK
    assert by_id["bad"].exit_code == EXIT_IO_ERROR
    assert by_id["bad"].status.startswith("ConfigError")


def test_suite_parallel_matches_serial(tmp_path):
    paths = [f"{CONFIG_DIR}/p1.yaml", f"{CONFIG_DIR}/p4_line.yaml"]
    serial = run_suite(paths, tmp_path / "s", parallelism=1)
    parallel = run_suite(paths, tmp_path / "p", parallelism=2)
    for a, b in zip(serial, parallel):
        assert a.experiment_id == b.experiment_id
        assert a.iterations == b.iterations
        assert a.final_error == b.final_error
    a = (tmp_path / "s" / "p1_trace.csv").read_bytes()
    b = (tmp_path / "p" / "p1_trace.csv").read_bytes()
    assert a == b


def test_reruns_are_bit_identical(tmp_path):
    cfg1 = config_from_dict(small_config())
    cfg2 = config_from_dict(small_config())
    run_experiment(cfg1, tmp_path / "a")
    run_experiment(cfg2, tmp_path / "b")
    assert (tmp_path / "a" / "small_trace.csv").read_bytes() == (
        tmp_path / "b" / "small_trace.csv"
    ).read_bytes()


def test_divergent_radii_reach_same_limit(tmp_path):
    bounded = parse_config(f"{CONFIG_DIR}/p1.yaml")
    divergent = parse_config(f"{CONFIG_DIR}/p2_divergent.yaml")
    _, tr_b = run_experiment(bounded, tmp_path / "b")
    _, tr_d = run_experiment(divergent, tmp_path / "d")
    gap = bounded.halpern.space.norm(tr_b.final_x - tr_d.final_x)
    assert gap <= 2e-2
