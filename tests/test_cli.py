"""End-to-end checks of the command-line interface."""

import time
from pathlib import Path

import numpy as np
import pytest

from halpernlp.cli import main
from halpernlp.experiments import parse_config, run_experiment
from halpernlp.geometry import NormedPoint
from halpernlp.mappings import ResolventMap

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def test_run_subcommand(tmp_path, capsys):
    code = main(["run", str(CONFIG_DIR / "p4_line.yaml"), "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("id\t")
    fields = out[1].split("\t")
    assert fields[0] == "p4_line"
    assert fields[1] == "Converged"
    assert (tmp_path / "p4_line_trace.csv").exists()


def test_run_reports_config_errors(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("space: {dim: 3, p: 0.5}\nscheme: proximal_point\n")
    code = main(["run", str(bad), "--out", str(tmp_path)])
    assert code == 5
    assert "invalid experiment config" in capsys.readouterr().err


def test_run_missing_file(tmp_path, capsys):
    code = main(["run", str(tmp_path / "absent.yaml"), "--out", str(tmp_path)])
    assert code == 5


def test_suite_subcommand(tmp_path, capsys):
    cfg_dir = tmp_path / "cfgs"
    cfg_dir.mkdir()
    (cfg_dir / "a.yaml").write_text((CONFIG_DIR / "p4_line.yaml").read_text())
    code = main(["suite", str(cfg_dir), "--out", str(tmp_path / "out")])
    assert code == 0
    assert (tmp_path / "out" / "suite_summary.tsv").exists()


def test_suite_reports_non_numeric_budget(tmp_path, capsys):
    cfg_dir = tmp_path / "cfgs"
    cfg_dir.mkdir()
    text = (CONFIG_DIR / "p4_line.yaml").read_text()
    (cfg_dir / "a.yaml").write_text(text)
    (cfg_dir / "b.yaml").write_text(text.replace("max_iter: 100000", "max_iter: lots"))
    budgets = "budgets: {max_iter: 100000, stop_tol: 1.0e-2}"
    (cfg_dir / "c.yaml").write_text(text.replace(budgets, "budgets: 5"))
    code = main(["suite", str(cfg_dir), "--out", str(tmp_path / "out")])
    assert code == 5
    rows = (tmp_path / "out" / "suite_summary.tsv").read_text().splitlines()
    by_id = {row.split("\t")[0]: row.split("\t") for row in rows[1:]}
    assert sorted(by_id) == ["b", "c", "p4_line"]
    assert by_id["p4_line"][-1] == "0"
    assert by_id["b"][-1] == "5"
    assert "budgets.max_iter" in by_id["b"][1]
    assert by_id["c"][-1] == "5"
    assert "budgets" in by_id["c"][1]


def _perturbed_p3(directory: Path, perturb: str) -> Path:
    """p3 with every step pushed by ``perturb``: at 1e308 the driver's
    checked inverse duality map rejects a non-finite vector (ValueError)."""
    path = directory / "p3_perturbed.yaml"
    text = (CONFIG_DIR / "p3.yaml").read_text()
    path.write_text(text + f"debug: {{perturb_step: {perturb}}}\n")
    return path


def _overflowing_resolvent(directory: Path) -> Path:
    """Proximal point at p = 10 with r = 1e20 and the zero of A at 0: at
    step 1 Newton's iterate falls below ||z|| = 1e-17, where the Python float
    ||z||^{2-2p} in the Jacobian of J overflows (OverflowError)."""
    path = directory / "r_overflow.yaml"
    text = (CONFIG_DIR / "p4_line.yaml").read_text()
    for old, new in [
        ("id: p4_line", "id: r_overflow"),
        ("p: 3.0", "p: 10.0"),
        ("q_diag: [1.0, 0.5, 0.0]", "q_diag: [1.0, 0.5, 0.25]"),
        ("c: [1.0, 1.0, 0.0]", "c: [0.0, 0.0, 0.0]"),
        ("value: 1.0}", "value: 1.0e+20}"),
    ]:
        assert old in text
        text = text.replace(old, new)
    path.write_text(text)
    return path


# the injected overflow also makes numpy warn on the way to the error
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "make, run_id, error",
    [
        pytest.param(_overflowing_resolvent, "r_overflow", "OverflowError", id="r1e20-p10-OverflowError"),
        pytest.param(lambda d: _perturbed_p3(d, "1.0e+308"), "p3", "ValueError", id="1.0e+308-ValueError"),
    ],
)
def test_run_contains_numerical_errors(tmp_path, capsys, make, run_id, error):
    path = make(tmp_path)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 4
    fields = capsys.readouterr().out.splitlines()[1].split("\t")
    assert fields[0] == run_id
    assert fields[1].startswith(f"{error}: ")
    assert fields[-1] == "4"
    # library callers still get the exception
    with pytest.raises((ArithmeticError, ValueError)):
        run_experiment(parse_config(path), tmp_path / "lib")


def test_run_rejects_an_anchor_whose_norm_overflows(tmp_path, capsys):
    # ||u||_3 overflows, so J u is not finite.  The reference w = Q_F(u) is a
    # projection also onto a unique zero, and it checks u at set-up: the config
    # is rejected (exit 5) before any step runs
    path = tmp_path / "u_overflow.yaml"
    text = (CONFIG_DIR / "p4_line.yaml").read_text()
    for old, new in [
        ("q_diag: [1.0, 0.5, 0.0]", "q_diag: [1.0, 0.5, 0.25]"),
        ("u: [0.0, 0.0, 2.0]", "u: [1.5e+308, 1.5e+308, 1.0]"),
    ]:
        assert old in text
        text = text.replace(old, new)
    path.write_text(text)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 5
    assert "the p-norm of the point overflows" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_rejects_an_operator_without_a_zero(tmp_path, capsys):
    # q_3 = 0 with c_3 = 1e-9 has no zero; a least-squares fit once took it as
    # a line of zeros, within its 1e-8 tolerance
    path = tmp_path / "no_zero.yaml"
    text = (CONFIG_DIR / "p4_line.yaml").read_text()
    assert "c: [1.0, 1.0, 0.0]" in text
    path.write_text(text.replace("c: [1.0, 1.0, 0.0]", "c: [1.0, 1.0, 1.0e-9]"))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 5
    assert "operator has no zero" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf / inf in the norms
def test_run_contains_a_non_finite_blend_after_the_first_step(tmp_path, capsys, monkeypatch):
    # from step 2 on the driver takes y_n = J^{-1} jy from the anchor blend jy
    # without the public map; a non-finite jy must still end the run as a
    # numerical error (exit 4)
    apply, calls = ResolventMap.apply, []

    def blowing_up(self, space, x, warm=None, jx=None):
        res = apply(self, space, x, warm=warm, jx=jx)
        calls.append(x)
        if len(calls) == 3:  # S_3 x_3, and with it the blend of step 3
            inf = np.full_like(res.point, np.inf)
            res.point, res.normed = inf, NormedPoint(inf, np.inf, inf)
        return res

    monkeypatch.setattr(ResolventMap, "apply", blowing_up)
    assert main(["run", str(CONFIG_DIR / "p1.yaml"), "--out", str(tmp_path)]) == 4
    fields = capsys.readouterr().out.splitlines()[1].split("\t")
    assert fields[:2] == ["p1", "ValueError: vector has non-finite coordinates"]
    assert fields[-1] == "4"
    assert len(calls) == 3


def test_run_stops_at_first_violated_inequality(tmp_path, capsys):
    # pushed by 1.0, p3's slack b first falls below -1e-7 at step 2; the
    # run ends there instead of using its 100,000-step budget
    path = _perturbed_p3(tmp_path, "1.0")
    t0 = time.perf_counter()
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
    assert time.perf_counter() - t0 < 1.0
    fields = capsys.readouterr().out.splitlines()[1].split("\t")
    assert fields[1] == "SlackViolation"
    rows = (tmp_path / "out" / "p3_trace.csv").read_text().splitlines()[2:]
    assert len(rows) == 2


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_run_fails_where_projection_probes_overflow(tmp_path, capsys):
    # pushed by 1e200, y_1 is so far out that the projection's VI probes
    # overflow to NaN; that proves nothing, so the projection has not
    # converged and the run ends at step 1 as an inner-solver failure
    path = _perturbed_p3(tmp_path, "1.0e+200")
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 4
    fields = capsys.readouterr().out.splitlines()[1].split("\t")
    assert fields[1] == "InnerSolverFailure"
    rows = (tmp_path / "out" / "p3_trace.csv").read_text().splitlines()[2:]
    assert len(rows) == 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("parallel", ["1", "2"])
def test_suite_contains_numerical_errors(tmp_path, capsys, parallel):
    cfg_dir = tmp_path / "cfgs"
    cfg_dir.mkdir()
    _overflowing_resolvent(cfg_dir)
    (cfg_dir / "p1.yaml").write_text((CONFIG_DIR / "p1.yaml").read_text())
    out = tmp_path / "out"
    code = main(["suite", str(cfg_dir), "--parallel", parallel, "--out", str(out)])
    assert code == 4
    rows = (out / "suite_summary.tsv").read_text().splitlines()
    by_id = {row.split("\t")[0]: row.split("\t") for row in rows[1:]}
    assert sorted(by_id) == ["p1", "r_overflow"]
    assert by_id["p1"][-1] == "0"
    assert by_id["r_overflow"][-1] == "4"
    assert by_id["r_overflow"][1].startswith("OverflowError: ")
    assert (out / "p1_trace.csv").exists()


def test_suite_empty_directory(tmp_path, capsys):
    code = main(["suite", str(tmp_path), "--out", str(tmp_path / "out")])
    assert code == 0


def test_suite_missing_directory(tmp_path, capsys):
    code = main(["suite", str(tmp_path / "missing"), "--out", str(tmp_path / "out")])
    assert code == 5
    assert "not a directory" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("args", [["--fuzz", "-1"], ["--nmax", "3"]])
def test_verify_lemmas_rejects_arguments_it_cannot_honour(capsys, args):
    # as argparse rejects any other bad argument: usage, the error, exit 2
    with pytest.raises(SystemExit) as exc:
        main(["verify-lemmas", *args])
    assert exc.value.code == 2
    assert "needs --nmax at least 4 and --fuzz at least 0" in capsys.readouterr().err


def test_verify_lemmas_rejects_a_negative_seed(capsys):
    # np.random.default_rng cannot take it: a usage error, not a traceback
    with pytest.raises(SystemExit) as exc:
        main(["--seed", "-1", "verify-lemmas"])
    assert exc.value.code == 2
    assert "needs a nonnegative --seed" in capsys.readouterr().err


def test_run_keeps_its_config_error_for_a_negative_seed(tmp_path, capsys):
    code = main(["--seed", "-1", "run", str(CONFIG_DIR / "p4_line.yaml"), "--out", str(tmp_path)])
    assert code == 5
    assert "seed" in capsys.readouterr().err


@pytest.mark.parametrize("parallel", ["0", "-2"])
def test_suite_rejects_parallel_below_one(tmp_path, capsys, parallel):
    with pytest.raises(SystemExit) as exc:
        main(["suite", str(CONFIG_DIR), "--parallel", parallel, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "needs --parallel at least 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_verify_lemmas(capsys):
    code = main(["verify-lemmas", "--nmax", "1000", "--fuzz", "50"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("PASS") == 3
    assert "FAIL" not in out


def test_seed_override_flag(tmp_path, capsys):
    code = main(
        ["--seed", "99", "run", str(CONFIG_DIR / "p4_line.yaml"), "--out", str(tmp_path)]
    )
    assert code == 0
    assert capsys.readouterr().out.splitlines()[1].split("\t")[7] == "99"


@pytest.mark.parametrize(
    "old, new",
    [
        ("stop_tol: 1.0e-2", "stop_tol: .nan"),
        ("r: {kind: constant, value: 1.0}", "r: {kind: constant, value: .inf}"),
        ("stop_tol: 1.0e-2}", "stop_tol: 1.0e-2}\ndebug: {perturb_step: .inf}"),
    ],
)
def test_run_rejects_non_finite_float(tmp_path, capsys, old, new):
    text = (CONFIG_DIR / "p4_line.yaml").read_text()
    assert old in text
    path = tmp_path / "bad.yaml"
    path.write_text(text.replace(old, new))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 5
