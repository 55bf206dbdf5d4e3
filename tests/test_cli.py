"""End-to-end checks of the command-line interface."""

from pathlib import Path

import pytest

from halpernlp.cli import main

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


def test_suite_empty_directory(tmp_path, capsys):
    code = main(["suite", str(tmp_path), "--out", str(tmp_path / "out")])
    assert code == 0


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
