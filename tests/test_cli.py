import json

import pytest

from datareach import harness, sets
from datareach.cli import cli_main
from datareach.harness import bundled_config
from datareach.linalg import NumericalError
from datareach.rightinv import RightInverseError
from tests.test_harness import flat_x0_config, tiny_lti_config


@pytest.fixture()
def tiny_config_file(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(tiny_lti_config().to_dict()))
    return str(path)


def test_selftest_subcommand(capsys):
    assert cli_main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "all passed" in out


@pytest.mark.parametrize("argv", [["selftest", "--config", "cfg.json"], ["lti", "--format", "csv"]])
def test_options_a_subcommand_does_not_read_are_rejected(argv, capsys):
    # the self-test runs no config, and tables are always CSV
    with pytest.raises(SystemExit) as exit_info:
        cli_main(argv)
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_lti_run_writes_layout(tiny_config_file, tmp_path, capsys):
    out_dir = tmp_path / "run"
    code = cli_main(["lti", "--config", tiny_config_file, "--out", str(out_dir)])
    assert code == 0
    assert (out_dir / "report.json").is_file()
    assert (out_dir / "volume_table.csv").is_file()
    assert "status" not in capsys.readouterr().err


def test_volume_table_trims_combinations(tiny_config_file, tmp_path):
    out_dir = tmp_path / "vt"
    assert cli_main(["volume-table", "--config", tiny_config_file, "--out", str(out_dir)]) == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert all(c.startswith("mz_") or c == "model" for c in report["combos"])
    rows = (out_dir / "volume_table.csv").read_text().splitlines()
    assert rows[0] == "method,volume,ratio"
    assert [row.split(",")[0] for row in rows[1:]] == [r["method"] for r in report["volume_table"]]


def test_seed_override_lands_in_report(tiny_config_file, tmp_path):
    out_dir = tmp_path / "seeded"
    assert cli_main(["lti", "--config", tiny_config_file, "--seed", "9",
                     "--out", str(out_dir)]) == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["config"]["rng_seed"] == 9


def test_bad_config_exits_nonzero(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema_version": 1, "bogus": true}')
    assert cli_main(["lti", "--config", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


def test_missing_config_file_exits_nonzero(capsys):
    assert cli_main(["lti", "--config", "/no/such/file.json"]) == 1
    assert "error:" in capsys.readouterr().err


def test_row_norm_solver_failure_exits_cleanly(capsys):
    # the row-norm ADMM stops at its iteration cap on the designed-mode
    # regressor of this seed and raises RightInverseError
    assert cli_main(["lti", "--seed", "1746"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ADMM did not reach tolerance")


def test_lp_solver_failure_exits_cleanly(tiny_config_file, monkeypatch, capsys):
    def fail(problem):
        raise NumericalError("LP solver failed: Solve error")

    monkeypatch.setattr(sets, "lp_solve", fail)
    assert cli_main(["lti", "--config", tiny_config_file]) == 1
    assert capsys.readouterr().err == "error: LP solver failed: Solve error\n"


def test_lp_solver_failure_writes_the_partial_report(tiny_config_file, tmp_path, monkeypatch,
                                                     capsys):
    def fail(problem):
        raise NumericalError("LP solver failed: Solve error")

    monkeypatch.setattr(sets, "lp_solve", fail)
    out_dir = tmp_path / "failed"
    assert cli_main(["lti", "--config", tiny_config_file, "--out", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: LP solver failed: Solve error\n")
    assert "partial report written" in err
    report = json.loads((out_dir / "report.json").read_text())
    # propagation asks no LP in a linear study: the first one is a support
    assert report["status"] == "lp_failed"
    assert "generator_counts" in report and "supports" not in report


def test_right_inverse_failure_writes_the_partial_report(tiny_config_file, tmp_path,
                                                         monkeypatch, capsys):
    def fail(phi):
        raise RightInverseError("ADMM did not reach tolerance")

    monkeypatch.setitem(harness._RIGHT_INVERSES, "row_norm", fail)
    out_dir = tmp_path / "failed"
    assert cli_main(["lti", "--config", tiny_config_file, "--out", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ADMM did not reach tolerance\n")
    assert "partial report written" in err
    report = json.loads((out_dir / "report.json").read_text())
    # the right inverses are fitted first: no data summary is in yet
    assert report["status"] == "right_inverse_failed"
    assert report["kind"] == "lti" and "data" not in report


def test_bad_triplet_in_config_exits_cleanly(tmp_path, capsys):
    cfg = bundled_config("pwa_2mode").to_dict()
    cfg["x0"]["G"] = {"shape": [2, 2], "rows": [0, 5], "cols": [0, 1], "vals": [0.3, 0.3]}
    path = tmp_path / "bad_triplet.json"
    path.write_text(json.dumps(cfg))
    assert cli_main(["pwa", "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: triplet rows must be ints in 0..1")


def test_zero_reference_volume_writes_the_partial_report(tmp_path, capsys):
    path = tmp_path / "flat.json"
    path.write_text(json.dumps(flat_x0_config().to_dict()))
    out_dir = tmp_path / "flat"
    assert cli_main(["lti", "--config", str(path), "--out", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: the model-based set has volume 0 at step 0")
    assert "partial report written" in err
    report = json.loads((out_dir / "report.json").read_text())
    assert report["status"] == "zero_reference_volume" and report["volume_step"] == 0


def test_unknown_subcommand_is_rejected():
    with pytest.raises(SystemExit):
        cli_main(["plot"])
