import contextlib
import hashlib
import io
import json
import pathlib
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmetro import cli
from qmetro.cli import (EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, ConfigError,
                        format_csv, main, parse_grid)
from qmetro.channels import amplitude_damping, extend_with_ancilla
from qmetro.estimation import SCHEMES
from qmetro.tomography import (chi_theory, poisson_uncertainty, process_fidelity,
                               reconstruct_chi, simulate_qpt)


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


def test_cached_parser_keeps_no_state_between_calls(tmp_path, capsys):
    assert cli.build_parser() is cli.build_parser()
    curve = ["qfi-curve", "--channel", "ad", "--grid", "0.5"]
    assert main(curve + ["--format", "json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["rows"][0]["noise"] == 0.5
    assert main(curve) == EXIT_OK
    assert capsys.readouterr().out.startswith("noise,qfi_assisted_closed,qfi_bare_closed\n")
    for argv in (["--single", "--exact"], ["--exact"]):
        out = tmp_path / "qpt.csv"
        assert main(["qpt", "--channel", "ad", "--out", str(out)] + argv) == EXIT_OK
    chi = json.loads((tmp_path / "qpt_noise0.5_chi_exp.json").read_text())
    assert chi["dim_basis"] == 16 and len(chi["re"]) == 256
    with pytest.raises(SystemExit) as err:
        main(curve + ["--reps", "3"])
    assert err.value.code == 2
    capsys.readouterr()
    assert main(curve) == EXIT_OK


def test_commands_are_looked_up_per_call(monkeypatch):
    # the cached parser must not pin the command functions it was built with
    cli.build_parser()
    monkeypatch.setattr(cli, "cmd_supplement_verify", lambda args: 7)
    assert main(["supplement-verify"]) == 7


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


@pytest.mark.parametrize("channel", ["ad", "depol"])
def test_qfi_curve_prints_exact_zeros_at_full_noise(channel, capsys):
    # the channel no longer depends on the phase; round-off prints as 0
    assert main(["qfi-curve", "--channel", channel, "--minimax", "--grid", "1"]) == EXIT_OK
    row = capsys.readouterr().out.strip().split("\n")[1]
    assert row == "1,0,0,0,0"


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


def test_error_curve_repetition_cap(monkeypatch, capsys):
    # the Monte-Carlo is replaced, so neither call allocates any counts
    seen = []
    monkeypatch.setattr(cli, "error_curve",
                        lambda *a, repetitions, **kw: seen.append(repetitions) or [])
    base = ["error-curve", "--scheme", "ad_single_bare", "--grid", "0.5"]
    assert main(base + ["--reps", str(cli.MAX_REPETITIONS)]) == EXIT_OK
    assert main(base + ["--reps", "1000000000000"]) == EXIT_CONFIG
    assert seen == [cli.MAX_REPETITIONS]
    assert capsys.readouterr().err == ("error: invalid configuration: repetitions "
                                       "must be at most 1000000\n")


def test_error_curve_event_cap(monkeypatch, capsys):
    # the Monte-Carlo is replaced, so no call draws any counts
    seen = []
    monkeypatch.setattr(cli, "error_curve",
                        lambda *a, events, **kw: seen.append(events) or [])
    base = ["error-curve", "--scheme", "ad_single_bare", "--grid", "0.5"]
    assert main(base + ["--events", str(cli.MAX_COUNTS)]) == EXIT_OK
    assert main(base + ["--events", "100000000000000000000"]) == EXIT_CONFIG
    assert seen == [cli.MAX_COUNTS]
    assert capsys.readouterr().err == ("error: invalid configuration: events "
                                       "must be at most 1000000000000000000\n")


def test_error_curve_at_subnormal_visibility_is_silent(capsys):
    # every estimate clamps; the ratio past +/-1 must not overflow on the way
    assert main(["error-curve", "--scheme", "ad_single_bare", "--grid", "0.3", "--reps", "2",
                 "--visibility", "1e-320"]) == EXIT_OK
    assert capsys.readouterr().err == ""


def test_error_curve_rejects_negative_seed(capsys):
    argv = ["error-curve", "--scheme", "ad_single_bare", "--grid", "0.2",
            "--seed", "-1"]
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err == "error: invalid configuration: seed must be non-negative, got -1\n"
    assert captured.out == ""


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


def test_qpt_points_draw_from_their_own_streams(tmp_path):
    # point i of the grid draws from the seed [seed, i], as error-curve's do
    out = tmp_path / "qpt.csv"
    assert main(["qpt", "--channel", "ad", "--grid", "0.3,0.6", "--shots", "2000",
                 "--seed", "4", "--resamples", "10", "--out", str(out)]) == EXIT_OK
    ch = extend_with_ancilla(amplitude_damping(0.6))
    chi_th = chi_theory(ch)
    data = simulate_qpt(ch, shots=2000, seed=[4, 1])
    chi_exp = reconstruct_chi(data)
    row = {"noise": 0.6, "fidelity": process_fidelity(chi_exp, chi_th).value,
           "fidelity_std": poisson_uncertainty(data, chi_th, resamples=10, seed=[4, 1])}
    header = ["noise", "fidelity", "fidelity_std"]
    assert out.read_text().split("\n")[2] == format_csv(header, [row]).split("\n")[1]
    assert (tmp_path / "qpt_noise0.6_chi_exp.json").read_text() == chi_exp.json_text()


def test_qpt_rejects_bad_shots():
    assert main(["qpt", "--channel", "ad", "--grid", "0.5", "--shots", "0",
                 "--out", "/tmp/unused.csv"]) == EXIT_CONFIG


def test_qpt_shot_cap(tmp_path, capsys):
    # numpy's Poisson redraw refuses a mean above about 9.2e18, so the cap
    # sits below it: at the cap the sampled run completes
    argv = ["qpt", "--channel", "ad", "--grid", "0.5", "--single", "--resamples", "2",
            "--out", str(tmp_path / "qpt.csv")]
    assert main(argv + ["--shots", str(cli.MAX_COUNTS)]) == EXIT_OK
    for shots in ("9223372036854775807", "100000000000000000000"):
        assert main(argv + ["--shots", shots]) == EXIT_CONFIG
        assert capsys.readouterr().err == ("error: invalid configuration: shots "
                                           "must be at most 1000000000000000000\n")


def test_qpt_resample_cap(monkeypatch, tmp_path, capsys):
    # the bootstrap is replaced, so no call allocates its fidelities
    seen = []
    monkeypatch.setattr(cli, "poisson_uncertainty",
                        lambda data, chi_ref, resamples, seed: seen.append(resamples) or 0.0)
    argv = ["qpt", "--channel", "ad", "--grid", "0.5", "--single", "--shots", "100",
            "--out", str(tmp_path / "qpt.csv")]
    assert main(argv + ["--resamples", str(cli.MAX_REPETITIONS)]) == EXIT_OK
    assert main(argv + ["--resamples", "100000000000"]) == EXIT_CONFIG
    assert seen == [cli.MAX_REPETITIONS]
    assert capsys.readouterr().err == ("error: invalid configuration: resamples "
                                       "must be at most 1000000\n")


def test_qpt_rejects_negative_seed(tmp_path, capsys):
    for mode in ([], ["--exact"]):
        assert main(["qpt", "--channel", "ad", "--grid", "0.5", "--seed", "-1",
                     "--out", str(tmp_path / "qpt.csv")] + mode) == EXIT_CONFIG
        assert "seed must be non-negative" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_qpt_rejects_single_resample(tmp_path, capsys):
    assert main(["qpt", "--channel", "ad", "--grid", "0.5", "--resamples", "1",
                 "--out", str(tmp_path / "qpt.csv")]) == EXIT_CONFIG
    assert "resamples must be at least 2" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_qpt_rejects_grid_with_colliding_chi_names(tmp_path, capsys):
    # both points print as 0.123456, so their chi files would share a name
    assert main(["qpt", "--channel", "ad", "--exact", "--grid", "0.1234561,0.1234562",
                 "--out", str(tmp_path / "q.csv")]) == EXIT_CONFIG
    assert "chi files would share a name" in capsys.readouterr().err
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
    err = capsys.readouterr().err
    assert err.startswith("error: invalid channel: invalid probability vector") and value in err


@pytest.mark.parametrize("weights,code", [
    # the sum is 1 + 5e-10: outside the channel's tolerance of 1e-12
    (("0.7", "0.1", "0.1", "0.1000000005"), EXIT_CONFIG),
    # a round-off negative weight that the channel accepts and drops
    (("1", "0", "0", "-5e-13"), EXIT_OK),
])
def test_optics_verify_accepts_what_the_target_channel_accepts(weights, code, tmp_path, capsys):
    out = tmp_path / "pauli.json"
    argv = ["optics-verify", "--channel", "pauli", "--out", str(out)]
    assert main(argv + [f"--p{j}={w}" for j, w in enumerate(weights)]) == code
    if code == EXIT_CONFIG:
        assert capsys.readouterr().err.startswith("error: invalid channel:")
        assert not out.exists()
    else:
        obj = json.loads(out.read_text())
        assert obj["passed"] is True
        assert max(abs(r) for r in obj["equation_residuals"]) <= 1e-10


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

# sha256 of the CSV or JSON each command writes; a refactor that changes a
# printed digit changes the digest. The deterministic cases (qfi-curve,
# qpt --exact, optics-verify, supplement-verify) were recorded before the
# code they exercise was rewritten and still pin its bytes. The qfi-curve JSON
# prints the minimax values at full precision, so its two digests were
# re-recorded with the closed-form inner solve, with the Newton polish of the
# bare search and with its central-difference derivatives, each time with no
# value moved by more than 5.6e-16. The sampled cases follow the stage
# contract: stage s of point i draws from default_rng([seed, i, s]), with
# s = 0 for the data and s = 1 for the resamples, in error-curve and qpt
# alike; they were re-recorded when each
# Monte-Carlo scheme's law became one closed form and qpt's points got streams
# of their own (numpy's SeedSequence pads short entropy with zero words, so
# [seed, 0, 0] draws what [seed, 0] drew, and qpt's point 0 kept its counts
# and its chi file).
GOLDEN_CSV = {
    ("qfi-curve", "--channel", "ad", "--minimax", "--grid", "0.1,0.45,0.9"):
        "1dc76f674d88812b2cad3a1bb99a1459d7dbac743477ab971c13723fe935ef44",
    ("qfi-curve", "--channel", "depol", "--minimax", "--grid", "0.1,0.45,0.9"):
        "5409c6ec891ae7facfae31b2aeabac88d708ff0c5da99f4d3ccb28f8e3bb3aaa",
    ("qfi-curve", "--channel", "ad", "--minimax", "--format", "json",
     "--grid", "0.1,0.45,0.9"):
        "d1323b9cbed44a5c1b078b7ffb05dd85306fb383a0b109e3898130745798cabe",
    ("qfi-curve", "--channel", "depol", "--minimax", "--format", "json",
     "--grid", "0.1,0.45,0.9"):
        "b5338f8a21607af0bec1888bc172b2f3560d489fb359096efe8f0e11717b37f1",
    ("error-curve", "--scheme", "ad_single_assisted"):
        "6a5521ca7267e5378ad5b22ae510a0faea54662a4fe9bb4bf7c32153d9c839ed",
    ("error-curve", "--scheme", "depol_single_assisted"):
        "cffe3b5ee2b6ac8edefd26774bfef409628b098392ca99431ff13edfdd8523cc",
    ("error-curve", "--scheme", "ad_two_probe_assisted"):
        "f90e5f54afdc46689b26d640f3b7a10b0576e80c068f005da12f20410949505b",
    ("error-curve", "--scheme", "ad_single_bare"):
        "47f7310e90d5b57808483bcfb5b23255517c2980c1179483daa0bbd08792545e",
    ("error-curve", "--scheme", "depol_single_bare"):
        "72e15f5bfa2fc2a3765a38aae2932d08388fed6d008068820e0ed36d52470a1b",
    ("error-curve", "--scheme", "ad_two_probe_bare"):
        "050346f141020c61a8d669b2f9229c6fffd04a7db2493403228d9e5dba7cdccd",
    ("qpt", "--channel", "ad", "--grid", "0.3,0.6"):
        "c67b4ea7335c460dac502d3887c127e4f87026638a07f6b1f95e134644e7a22d",
    ("qpt", "--channel", "depol", "--grid", "0.3,0.6"):
        "698816f06969a40e3e3ef4b1baddb0abf230bf608c50172c5fe0cd4c30ce799e",
    ("qpt", "--channel", "ad", "--grid", "0.25,0.7", "--single", "--shots", "3000",
     "--seed", "12345", "--resamples", "20"):
        "dfb685c191d3cae40e0496f0b00327c6d21dfb3a090d31dc9719fcc6dcd1b99a",
    ("qpt", "--channel", "ad", "--grid", "0.3,0.6", "--exact"):
        "aef89670b52106e4a97294e9f0ac4cca4b7c6d6352e2699ad895185cb8ec0887",
    ("qpt", "--channel", "depol", "--grid", "0.3,0.6", "--exact"):
        "aef89670b52106e4a97294e9f0ac4cca4b7c6d6352e2699ad895185cb8ec0887",
    ("optics-verify", "--channel", "ad", "--eta", "0.5"):
        "8e5bcf30b667759dcabaca0ba1e81b63e8d32af6155de5974e4f6ce100f43975",
    ("optics-verify", "--channel", "pauli", "--p0", "0.7", "--p1", "0.1",
     "--p2", "0.1", "--p3", "0.1"):
        "37109e0cecd2b598764f2b9673e82bdd294cdda950454322917e4bd4c2d8d536",
    ("supplement-verify",):
        "39b3c0d7136fc03ab1dbbeff3189017188890d197ae40ab7e1da705a49b9348c",
}


@pytest.mark.parametrize("argv", list(GOLDEN_CSV), ids=" ".join)
def test_csv_matches_recorded_digest(argv, tmp_path):
    out = tmp_path / "out.csv"
    assert main(list(argv) + ["--out", str(out)]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_CSV[argv]


# sha256 of the chi files the qpt cases above write; each file is the exact
# text of json.dump(..., indent=2, sort_keys=True), with no trailing newline.
# The *_chi_th.json and --exact files are deterministic; the sampled
# *_chi_exp.json files follow the stage contract above
GOLDEN_CHI = {
    ("qpt", "--channel", "ad", "--grid", "0.3,0.6"): {
        "out_noise0.3_chi_exp.json": "f8facb822d82dba16d7b7d4b7c2dadf7dcad85ae3ac9d42ca65eb7754c2c00ca",
        "out_noise0.3_chi_th.json": "e549a7b660b8b428b4a74a7b60dd7de38158d9e3bb4b7db9f426204837183ba6",
        "out_noise0.6_chi_exp.json": "10182083cb29c058c903b820e72f0176fa1c2d92cb73924e971b558d76e38981",
        "out_noise0.6_chi_th.json": "3e7e82a6bb6e66def246c6e1e66e037d1e7a718923d4d1de910e8b2865a4f628",
    },
    ("qpt", "--channel", "depol", "--grid", "0.3,0.6"): {
        "out_noise0.3_chi_exp.json": "29dd68ee13684b43a0f4f68187f09eec4dc8d29876c4cd69f5e1c725db328a72",
        "out_noise0.3_chi_th.json": "53de9bed98cf2f48c1eea341ebcde5649f75fc3d5fb72682951675916e7a03b8",
        "out_noise0.6_chi_exp.json": "7bdb613b85e7b16f1d85301a5314ea8ff06a26f14bd8d04c836fbd7240e88fdf",
        "out_noise0.6_chi_th.json": "8e1048d91102f984f772c73c81c83da2c9ef3285c7edc5d06bc2c8b773c6e280",
    },
    ("qpt", "--channel", "ad", "--grid", "0.25,0.7", "--single", "--shots", "3000",
     "--seed", "12345", "--resamples", "20"): {
        "out_noise0.25_chi_exp.json": "2f76375253a0e80ca9309b913da1953f59be453fc3ea7b20b9a26b8fa6230d1a",
        "out_noise0.25_chi_th.json": "c99614392e43edc9833910ca0c4958c6faaf3d34dc03b7e6255f724a02537a79",
        "out_noise0.7_chi_exp.json": "0ce6f7a35dbb1d036a2f207c8b0262016e8d2c25ef12867b0605b66d16fc654b",
        "out_noise0.7_chi_th.json": "7f68839c84008ceed4bc068ba777dea81433974cc3ecd1818ec77e7b4d188ad9",
    },
    ("qpt", "--channel", "ad", "--grid", "0.3,0.6", "--exact"): {
        "out_noise0.3_chi_exp.json": "24da3e1beaabf9ac1b1cd22b65c68ad18b8b95169110311dd1ecebe67a486c1d",
        "out_noise0.3_chi_th.json": "e549a7b660b8b428b4a74a7b60dd7de38158d9e3bb4b7db9f426204837183ba6",
        "out_noise0.6_chi_exp.json": "082886b61ca83c62579e013f4ef44b72bf0a7d654bc4589c69d9e7ecec27d28c",
        "out_noise0.6_chi_th.json": "3e7e82a6bb6e66def246c6e1e66e037d1e7a718923d4d1de910e8b2865a4f628",
    },
    ("qpt", "--channel", "depol", "--grid", "0.3,0.6", "--exact"): {
        "out_noise0.3_chi_exp.json": "e984d98843b455901e92586312fcca18f1281d8405b8a349c05aaf2501361328",
        "out_noise0.3_chi_th.json": "53de9bed98cf2f48c1eea341ebcde5649f75fc3d5fb72682951675916e7a03b8",
        "out_noise0.6_chi_exp.json": "f13a0c9bb85cf8c55604c0d6bd2b7900f1d53533c0e5c560eae7a94d3434a520",
        "out_noise0.6_chi_th.json": "8e1048d91102f984f772c73c81c83da2c9ef3285c7edc5d06bc2c8b773c6e280",
    },
}


@pytest.mark.parametrize("argv", list(GOLDEN_CHI), ids=" ".join)
def test_chi_files_match_recorded_digest(argv, tmp_path):
    assert main(list(argv) + ["--out", str(tmp_path / "out.csv")]) == EXIT_OK
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.glob("*.json")}
    assert written == GOLDEN_CHI[argv]


# error-curve stdout under the stage contract above: a seed of 2**40 is two
# 32-bit words of entropy, and phi near the edge of the arcsine range makes
# many estimates clamp
GOLDEN_STDOUT = {
    "ad_single_assisted": ("1.5", "5be1ddce58b15362a6e36645426c0b8f6f0a8443ec657e920a03be3be50d8385"),
    "depol_single_assisted": ("1.5", "996f581d8aed3c89c7d5111d0d336237a474ef37be591ee900b435a2238a5d0e"),
    "ad_two_probe_assisted": ("0.77", "a80a518930709f4cccc34bfae9e3ddbcaea08f77a60f0d765a2718a43827155f"),
    "ad_single_bare": ("1.5", "354140f9ceb753573497c5411a2920ad712ee4c1385fbab843a51bd524ba8e5b"),
    "depol_single_bare": ("1.5", "f5f8b727554b97dea7f2fa10ca540e6359f641dbf7e0f7d5c75efca28ce2e5ea"),
    "ad_two_probe_bare": ("0.77", "c6578bae709734b9324efea56dc3d262ad06f000376ec51658876bd91856c876"),
}


@pytest.mark.parametrize("scheme", list(GOLDEN_STDOUT))
def test_error_curve_stdout_matches_recorded_digest(scheme, capsys):
    phi, digest = GOLDEN_STDOUT[scheme]
    assert main(["error-curve", "--scheme", scheme, "--grid", "0.15,0.55",
                 "--reps", "300", "--seed", str(2 ** 40), "--phi", phi]) == EXIT_OK
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# ------------------------------------------------------------ argv contract

def _option(flag, good, edge):
    """Strategies of the words [flag, value]: with a value the command accepts,
    and with an edge value it may reject."""
    return tuple((v if isinstance(v, st.SearchStrategy) else st.sampled_from(v))
                 .map(lambda value: [flag, value]) for v in (good, edge))


COUNT_EDGES = ["0", "1", str(cli.MAX_REPETITIONS + 1), "1e-320"]
# the accepted values hold the edge values 0, 1, 1e-320 and -0.0 where the
# option allows them, and each count cap; the edge values hold nan, inf, the
# value one past each cap, a grid one point past its cap, and ill-formed text
OPTIONS = {
    "--grid": _option(
        "--grid",
        st.one_of(st.lists(st.sampled_from(["0.3", "0.55", "0", "1", "1e-320", "-0.0"]),
                           min_size=1, max_size=3).map(",".join),
                  st.sampled_from(["0:0.5:0.25", "0.1:0.2:0.1"])),
        ["nan", "0.3,inf", "0:inf:0.5", "0:1:0", "0:1:-0.5", "1:0:0.5", "0:1", "0.3,x",
         f"0:1:{1 / cli.MAX_GRID_POINTS}"]),
    "--reps": _option("--reps", ["2", "3"], COUNT_EDGES),
    "--resamples": _option("--resamples", ["2", "3"], COUNT_EDGES),
    "--events": _option("--events", ["400", "1", str(cli.MAX_COUNTS)],
                        ["0", str(cli.MAX_COUNTS + 1), "nan"]),
    "--shots": _option("--shots", ["400", "1", str(cli.MAX_COUNTS)],
                       ["0", str(cli.MAX_COUNTS + 1), "inf"]),
    "--seed": _option("--seed", ["0", "1", str(2 ** 64)], ["-1", "-0.0"]),
    "--visibility": _option("--visibility", ["0.9", "1"], ["0", "1e-320", "-0.0", "nan", "inf"]),
    "--phi": _option("--phi", ["0", "0.3", "1", "1e-320", "-0.0"], ["nan", "inf"]),
    "--eta": _option("--eta", ["0.5", "0", "1", "1e-320", "-0.0"], ["nan", "inf", "1.5"]),
    "--format": _option("--format", ["csv", "json"], ["xml"]),
    "--out": _option("--out", ["{work}/out"], ["{work}/missing/out"]),
    # the four Pauli branch weights: sums of 1, or four drawn values
    "--p0": tuple(v.map(lambda ws: [w for j, x in enumerate(ws) for w in (f"--p{j}", x)])
                  for v in (st.sampled_from([("0.7", "0.1", "0.1", "0.1"), ("0.25",) * 4,
                                              ("1", "0", "-0.0", "1e-320")]),
                            st.tuples(*[st.sampled_from(["0.5", "0", "1", "1e-320", "-0.0",
                                                         "nan", "inf"])] * 4))),
}
# (leading words, options always given, options given or not, switches);
# the grid is always given, so it has at most 3 points
COMMANDS = [
    (st.sampled_from([["qfi-curve", "--channel", c] for c in ("ad", "depol")]),
     ["--grid"], ["--format", "--out"], ["--minimax"]),
    (st.sampled_from([["error-curve", "--scheme", s] for s in sorted(SCHEMES)]),
     ["--grid", "--reps"], ["--events", "--visibility", "--phi", "--seed", "--format", "--out"],
     []),
    (st.sampled_from([["qpt", "--channel", c] for c in ("ad", "depol")]),
     ["--grid", "--resamples", "--out"], ["--shots", "--seed"], ["--single", "--exact"]),
    (st.just(["optics-verify", "--channel", "ad"]), [], ["--eta", "--out"], []),
    (st.just(["optics-verify", "--channel", "pauli"]), ["--p0"], ["--out"], []),
    (st.just(["supplement-verify"]), ["--grid"], ["--out"], []),
]


@st.composite
def argvs(draw):
    """An argv of one subcommand in which at most one option takes an edge
    value; "{work}" stands for an output directory."""
    words, required, optional, switches = draw(st.sampled_from(COMMANDS))
    argv = list(draw(words))
    given = required + [flag for flag in optional if draw(st.booleans())]
    edge = draw(st.sampled_from([None] + given))
    for flag in given:
        argv += draw(OPTIONS[flag][flag == edge])
    return argv + [flag for flag in switches if draw(st.booleans())]


def _run_in(work, argv):
    """Exit code, stdout, stderr and the files written by one call in an empty
    directory; an argparse rejection counts as its exit code."""
    for path in work.iterdir():
        path.unlink()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([a.replace("{work}", str(work)) for a in argv])
        except SystemExit as exc:
            code = exc.code
    files = {p.name: p.read_bytes() for p in work.iterdir()}
    return code, out.getvalue(), err.getvalue(), files


@settings(max_examples=300)
@given(argvs())
def test_every_argv_exits_cleanly_and_repeats_its_bytes(argv):
    with tempfile.TemporaryDirectory() as work:
        code, out, err, files = _run_in(pathlib.Path(work), argv)
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERIC), err
        assert "Traceback" not in err
        again = _run_in(pathlib.Path(work), argv)
    assert (again[0], again[1], again[3]) == (code, out, files)
