import hashlib
import json

import numpy as np
import pytest

from qmetro import cli
from qmetro.cli import (EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, ConfigError,
                        format_csv, main, parse_grid)


def read_rows(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    return header, [dict(zip(header, (float(x) for x in ln.split(","))))
                    for ln in lines[1:]]


# ------------------------------------------------------------------- parsing

def test_parse_grid_forms():
    assert np.allclose(parse_grid("0:0.9:0.1"), np.arange(0, 0.95, 0.1))
    assert parse_grid("0.5").tolist() == [0.5]
    assert parse_grid("0.1,0.7,0.3").tolist() == [0.1, 0.7, 0.3]
    assert len(parse_grid("0:0.95:0.05")) == 20


def test_parse_grid_errors():
    for bad in ("0.9:0.1:0.1", "0:1:-0.1", "0:1:0", "abc", "0.1,,0.2", "",
                "nan", "inf", "0.1,-inf", "0:nan:0.1", "0:1:inf",
                # more points than MAX_GRID_POINTS, down to a step whose
                # quotient overflows to inf
                "0:1:1e-7", "0:1:1e-300", "0:1:5e-324"):
        with pytest.raises(ConfigError):
            parse_grid(bad)


def test_parse_grid_length_cap():
    top = (cli.MAX_GRID_POINTS - 1) / 1000
    assert len(parse_grid(f"0:{top}:0.001")) == cli.MAX_GRID_POINTS
    with pytest.raises(ConfigError):
        parse_grid(f"0:{top + 0.001}:0.001")


def test_oversized_grid_is_config_error(capsys):
    for grid in ("0:1:1e-300", "0:1:5e-324"):
        assert main(["qfi-curve", "--channel", "ad", "--grid", grid]) == EXIT_CONFIG
    assert "more than 10000 points" in capsys.readouterr().err


def test_format_csv_six_significant_digits():
    text = format_csv(["a", "b"], [{"a": 1 / 3, "b": 12345678.0}])
    assert text == "a,b\n0.333333,1.23457e+07\n"


# ----------------------------------------------------------------- qfi-curve

def test_qfi_curve_stdout(capsys):
    assert main(["qfi-curve", "--channel", "ad", "--grid", "0.5"]) == EXIT_OK
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0] == "noise,qfi_assisted_closed,qfi_bare_closed"
    noise, assisted, bare = (float(x) for x in lines[1].split(","))
    assert round(assisted, 4) == 0.6667
    assert round(bare, 4) == 0.5


def test_qfi_curve_minimax_columns(tmp_path):
    out = tmp_path / "curve.csv"
    code = main(["qfi-curve", "--channel", "depol", "--grid", "0.4",
                 "--minimax", "--out", str(out)])
    assert code == EXIT_OK
    header, rows = read_rows(out)
    assert header == ["noise", "qfi_assisted_closed", "qfi_bare_closed",
                      "qfi_assisted_minimax", "qfi_bare_minimax"]
    row = rows[0]
    assert round(row["qfi_assisted_closed"], 4) == 0.45
    assert round(row["qfi_bare_closed"], 4) == 0.36
    assert abs(row["qfi_assisted_minimax"] - 0.45) < 1e-4
    assert abs(row["qfi_bare_minimax"] - 0.36) < 1e-4


def test_qfi_curve_json_format(tmp_path):
    out = tmp_path / "curve.json"
    assert main(["qfi-curve", "--channel", "ad", "--grid", "0.2,0.6",
                 "--format", "json", "--out", str(out)]) == EXIT_OK
    obj = json.loads(out.read_text())
    assert [r["noise"] for r in obj["rows"]] == [0.2, 0.6]


def test_qfi_curve_rejects_bad_noise():
    assert main(["qfi-curve", "--channel", "ad", "--grid", "0.5,1.5"]) == EXIT_CONFIG
    assert main(["qfi-curve", "--channel", "ad", "--grid", "nope"]) == EXIT_CONFIG
    assert main(["qfi-curve", "--channel", "ad", "--grid", "nan"]) == EXIT_CONFIG


def test_unknown_channel_is_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["qfi-curve", "--channel", "bogus", "--grid", "0.5"])
    assert err.value.code == 2


# --------------------------------------------------------------- error-curve

def test_error_curve_columns_and_theory(tmp_path):
    out = tmp_path / "err.csv"
    code = main(["error-curve", "--scheme", "ad_single_assisted",
                 "--grid", "0,0.5", "--visibility", "1", "--events", "2000",
                 "--reps", "40", "--seed", "3", "--out", str(out)])
    assert code == EXIT_OK
    header, rows = read_rows(out)
    assert header == ["noise", "sqrt_nu_dphi", "bootstrap_std", "cr_bound",
                      "theory_assisted", "theory_bare", "shot_noise"]
    assert rows[0]["theory_assisted"] == pytest.approx(1.0, abs=1e-6)
    assert rows[0]["theory_bare"] == pytest.approx(1.0, abs=1e-6)
    eta = 0.5
    assert rows[1]["theory_assisted"] == pytest.approx(
        1 / np.sqrt(2 * (1 - eta) / (2 - eta)), rel=1e-5)
    assert rows[1]["theory_bare"] == pytest.approx(1 / np.sqrt(1 - eta), rel=1e-5)
    assert rows[0]["shot_noise"] == 1.0


def test_error_curve_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["error-curve", "--scheme", "depol_single_bare", "--grid", "0.3",
            "--events", "500", "--reps", "20", "--seed", "9"]
    assert main(argv + ["--out", str(a)]) == EXIT_OK
    assert main(argv + ["--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_error_curve_validation():
    base = ["error-curve", "--scheme", "ad_single_bare", "--grid", "0.2"]
    assert main(base + ["--reps", "1"]) == EXIT_CONFIG
    assert main(base + ["--events", "0"]) == EXIT_CONFIG
    assert main(base + ["--visibility", "1.4"]) == EXIT_CONFIG
    for phi in ("nan", "inf", "-inf"):
        assert main(base + [f"--phi={phi}"]) == EXIT_CONFIG


# ----------------------------------------------------------------------- qpt

def test_qpt_writes_summary_and_chi_files(tmp_path):
    out = tmp_path / "qpt.csv"
    code = main(["qpt", "--channel", "ad", "--grid", "0.5", "--shots", "2000",
                 "--seed", "1", "--resamples", "10", "--out", str(out)])
    assert code == EXIT_OK
    header, rows = read_rows(out)
    assert header == ["noise", "fidelity", "fidelity_std"]
    assert rows[0]["fidelity"] > 0.99
    assert rows[0]["fidelity_std"] > 0
    for suffix in ("_chi_exp.json", "_chi_th.json"):
        obj = json.loads((tmp_path / f"qpt_noise0.5{suffix}").read_text())
        assert obj["dim_basis"] == 16
        assert len(obj["re"]) == 256


def test_qpt_exact_mode(tmp_path):
    out = tmp_path / "exact.csv"
    code = main(["qpt", "--channel", "depol", "--grid", "0.2,0.8", "--exact",
                 "--out", str(out)])
    assert code == EXIT_OK
    _, rows = read_rows(out)
    for row in rows:
        assert 1 - row["fidelity"] <= 1e-10
        assert row["fidelity_std"] == 0


def test_qpt_single_probe(tmp_path):
    out = tmp_path / "single.csv"
    code = main(["qpt", "--channel", "ad", "--grid", "0.3", "--single",
                 "--exact", "--out", str(out)])
    assert code == EXIT_OK
    obj = json.loads((tmp_path / "single_noise0.3_chi_th.json").read_text())
    assert obj["dim_basis"] == 4


def test_qpt_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["qpt", "--channel", "depol", "--grid", "0.4", "--shots", "1000",
            "--seed", "5", "--resamples", "8"]
    assert main(argv + ["--out", str(a)]) == EXIT_OK
    assert main(argv + ["--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_qpt_rejects_bad_shots():
    assert main(["qpt", "--channel", "ad", "--grid", "0.5", "--shots", "0",
                 "--out", "/tmp/unused.csv"]) == EXIT_CONFIG


def test_qpt_rejects_single_resample(tmp_path, capsys):
    assert main(["qpt", "--channel", "ad", "--grid", "0.5", "--resamples", "1",
                 "--out", str(tmp_path / "qpt.csv")]) == EXIT_CONFIG
    assert "resamples must be at least 2" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["qfi-curve", "--channel", "ad", "--grid", "0.5"],
    ["qpt", "--channel", "ad", "--grid", "0.5", "--exact"],
    ["optics-verify", "--channel", "ad", "--eta", "0.5"],
    ["supplement-verify", "--grid", "0.5"],
], ids=lambda argv: argv[0])
def test_missing_output_directory_is_config_error(argv, tmp_path, capsys):
    assert main(argv + ["--out", str(tmp_path / "missing" / "out.csv")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write output:")
    assert err.count("\n") == 1


# -------------------------------------------------------------- optics-verify

def test_optics_verify_damping(tmp_path):
    out = tmp_path / "optics.json"
    code = main(["optics-verify", "--channel", "ad", "--eta", "0.5",
                 "--out", str(out)])
    assert code == EXIT_OK
    obj = json.loads(out.read_text())
    assert set(obj) == {"angles", "channel", "equation_residuals", "fidelity",
                        "passed", "success_probability"}
    assert obj["passed"] is True
    assert obj["fidelity"] >= 1 - 1e-9
    assert abs(obj["success_probability"] - 0.5) < 1e-10


def test_optics_verify_pauli(tmp_path):
    out = tmp_path / "pauli.json"
    code = main(["optics-verify", "--channel", "pauli", "--p0", "0.7",
                 "--p1", "0.1", "--p2", "0.1", "--p3", "0.1",
                 "--out", str(out)])
    assert code == EXIT_OK
    obj = json.loads(out.read_text())
    assert len(obj["angles"]) == 6
    assert max(abs(r) for r in obj["equation_residuals"]) <= 1e-10
    assert obj["passed"] is True


def test_optics_verify_config_errors():
    assert main(["optics-verify", "--channel", "ad"]) == EXIT_CONFIG
    assert main(["optics-verify", "--channel", "ad", "--eta", "1.5"]) == EXIT_CONFIG
    assert main(["optics-verify", "--channel", "pauli", "--p0", "0.3",
                 "--p1", "0.3", "--p2", "0.3", "--p3", "0.3"]) == EXIT_CONFIG


@pytest.mark.parametrize("flag,value", [("--p0", "nan"), ("--p2", "inf"),
                                        ("--p3", "-inf")])
def test_optics_verify_rejects_non_finite_weights(flag, value, capsys):
    weights = {"--p0": "0.7", "--p1": "0.1", "--p2": "0.1", "--p3": "0.1", flag: value}
    # --flag=value, so that "-inf" is not read as an option
    argv = ["optics-verify", "--channel", "pauli"] + [f"{k}={w}" for k, w in weights.items()]
    assert main(argv) == EXIT_CONFIG
    assert f"{flag} must be finite" in capsys.readouterr().err


# ---------------------------------------------------------- supplement-verify

def test_supplement_verify(tmp_path):
    out = tmp_path / "supp.csv"
    code = main(["supplement-verify", "--grid", "0:0.9:0.1", "--out", str(out)])
    assert code == EXIT_OK
    header, rows = read_rows(out)
    assert header == ["noise", "conjugation_residual", "flag_weight_0",
                      "flag_weight_1", "block_residual", "flagged_variance",
                      "unflagged_variance", "consistency_residual"]
    assert len(rows) == 10
    mid = rows[5]  # p = 0.5
    assert mid["flag_weight_0"] == pytest.approx(0.75)
    assert mid["flagged_variance"] == pytest.approx(3.0)
    assert mid["unflagged_variance"] == pytest.approx(4.0)
    assert max(r["consistency_residual"] for r in rows) <= 1e-10


def test_supplement_verify_rejects_unit_noise():
    assert main(["supplement-verify", "--grid", "0.5,1.0"]) == EXIT_CONFIG
    assert main(["supplement-verify", "--grid", "nan"]) == EXIT_CONFIG


def test_supplement_verify_numeric_failure(monkeypatch, capsys):
    # exit 3 is wired to a tolerance failure, not to bad input
    monkeypatch.setattr(cli, "conjugation_residual", lambda p: 1.0)
    code = main(["supplement-verify", "--grid", "0.2"])
    capsys.readouterr()
    assert code == EXIT_NUMERIC


# ------------------------------------------------------------- golden output

# sha256 of the CSV each command writes, recorded before the Kraus-evolution
# kernel was shared between channels, qfi and estimation (the qfi-curve CSV
# cases: before the inner minimum over Kraus representations became one
# closed-form solve); a refactor that changes a printed digit changes the
# digest. The JSON prints the minimax values at full precision, so its two
# digests were re-recorded with that solve (no value moved by more than
# 3.4e-16).
GOLDEN_CSV = {
    ("qfi-curve", "--channel", "ad", "--minimax", "--grid", "0.1,0.45,0.9"):
        "1dc76f674d88812b2cad3a1bb99a1459d7dbac743477ab971c13723fe935ef44",
    ("qfi-curve", "--channel", "depol", "--minimax", "--grid", "0.1,0.45,0.9"):
        "5409c6ec891ae7facfae31b2aeabac88d708ff0c5da99f4d3ccb28f8e3bb3aaa",
    ("qfi-curve", "--channel", "ad", "--minimax", "--format", "json",
     "--grid", "0.1,0.45,0.9"):
        "1e2029ea000150be08210ba9ac7434c1c43215e0ac68d4fdf7e24071fd412217",
    ("qfi-curve", "--channel", "depol", "--minimax", "--format", "json",
     "--grid", "0.1,0.45,0.9"):
        "bae26636bed9f10058154c3cfa77fec4df29687d0d3891f269ecfc563a252e96",
    ("error-curve", "--scheme", "ad_single_bare"):
        "168beb2d3cd87dcb04e6af6ffb2f2d7fb07b787b23cc7fb1d626b5dacdacca2d",
    ("error-curve", "--scheme", "depol_single_bare"):
        "8b0713c6eb823010b23bf624a93bbb81110119c64ba14adc6c24b9c68cdf52f7",
    ("error-curve", "--scheme", "ad_two_probe_bare"):
        "bda32c5dc3f516b9bf1c5d7f618517e3a69dd01baecb114dd951030d2d1951ee",
    ("qpt", "--channel", "ad", "--grid", "0.3,0.6"):
        "274db5ef0219676dbc7f2e2bc2055531ce805f585846f625a7ff28c9ea8d1491",
    ("qpt", "--channel", "depol", "--grid", "0.3,0.6"):
        "3c5bb4bacd3d54264cbbfdc422ffb1d6b9c7f86c2cb7b56c33ad6fc6db56d439",
    ("qpt", "--channel", "ad", "--grid", "0.3,0.6", "--exact"):
        "aef89670b52106e4a97294e9f0ac4cca4b7c6d6352e2699ad895185cb8ec0887",
    ("qpt", "--channel", "depol", "--grid", "0.3,0.6", "--exact"):
        "aef89670b52106e4a97294e9f0ac4cca4b7c6d6352e2699ad895185cb8ec0887",
}


@pytest.mark.parametrize("argv", list(GOLDEN_CSV), ids=" ".join)
def test_csv_matches_recorded_digest(argv, tmp_path):
    out = tmp_path / "out.csv"
    assert main(list(argv) + ["--out", str(out)]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_CSV[argv]
