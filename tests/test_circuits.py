import numpy as np
import pytest

from qmetro.channels import PhaseChannelFamily, choi_matrix, depolarizing
from qmetro.circuits import (CNOT, CircuitError, build_flagged_channel,
                             conjugation_residual, flagged_variance,
                             variance_consistency_check, verify_flagged_output)
from qmetro.qfi import channel_qfi_minimax


def test_cnot_is_its_own_inverse():
    assert np.abs(CNOT @ CNOT - np.eye(4)).max() == 0
    # probe controls, ancilla flips
    assert CNOT[3, 2] == 1 and CNOT[2, 3] == 1 and CNOT[0, 0] == 1


def test_flagged_channel_weights():
    ch = build_flagged_channel(0.0)
    assert len(ch.kraus) == 1
    assert np.abs(ch.kraus[0] - np.eye(4)).max() < 1e-15
    ch = build_flagged_channel(0.6)
    assert len(ch.kraus) == 4
    assert ch.completeness_residual() < 1e-12
    assert ch.label == "flagged_depol(0.6)"


def test_flagged_channel_rejects_bad_probability():
    with pytest.raises(CircuitError):
        build_flagged_channel(1.5)
    with pytest.raises(CircuitError):
        build_flagged_channel(-0.1)


def test_conjugation_identity_exact():
    # wrapping the isotropic channel between the entangling gates reproduces
    # the flagged form at the process-matrix level
    for p in (0.0, 0.2, 0.3, 0.5, 0.9):
        assert conjugation_residual(p) < 1e-12


def test_flagged_output_blocks():
    rep = verify_flagged_output(0.4, 0.3)
    assert abs(rep.flag_weights[0] - 0.8) < 1e-12
    assert abs(rep.flag_weights[1] - 0.2) < 1e-12
    assert max(rep.block_residuals) < 1e-12
    assert rep.offdiag_residual < 1e-12
    assert abs(rep.mixing_parameter - 0.25) < 1e-12
    assert rep.conditional_residual < 1e-12


def test_flag_weight_tracks_noise_not_phase():
    for p in (0.1, 0.5, 0.8):
        for phi in (0.0, 0.4, 1.3):
            rep = verify_flagged_output(p, phi)
            assert abs(rep.flag_weights[1] - p / 2) < 1e-12
            assert max(rep.block_residuals) < 1e-12


def test_flagged_variances():
    assert flagged_variance(0.0) == (1.0, 1.0)
    f, u = flagged_variance(0.5)
    assert abs(f - 3.0) < 1e-12
    assert abs(u - 4.0) < 1e-12
    for p in (0.1, 0.4, 0.7):
        f, u = flagged_variance(p)
        assert f < u  # discarding the flag always costs precision
    with pytest.raises(CircuitError):
        flagged_variance(1.0)


def test_variance_consistency():
    rep = variance_consistency_check(0.4)
    assert abs(rep.inverse_flagged - 0.45) < 1e-12
    assert abs(rep.assisted_qfi - 0.45) < 1e-12
    assert rep.closed_form_residual < 1e-12
    # the optimizer's assisted information is the inverse flagged variance too
    minimax = channel_qfi_minimax(PhaseChannelFamily(depolarizing(0.4)), extended=True).value
    assert abs(1 / flagged_variance(0.4)[0] - minimax) < 1e-4
    for p in (0.0, 0.3, 0.7):
        rep = variance_consistency_check(p)
        assert rep.closed_form_residual < 1e-12


def test_flagged_channel_choi_is_positive():
    c = choi_matrix(build_flagged_channel(0.35))
    assert np.linalg.eigvalsh(c).min() > -1e-12
