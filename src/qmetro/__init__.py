"""Desk-scale simulation toolkit for entanglement-assisted phase estimation
through noisy qubit channels.

The package is organized around a phase-encoding channel family (a fixed noise
process following a tunable phase rotation) and provides:

- Kraus channel models and Choi-matrix utilities (``channels``)
- quantum Fisher information: spectral formula, closed forms, channel
  optimization, and matrix-element shortcuts (``qfi``)
- simulated process tomography with chi-matrix reconstruction (``tomography``)
- Jones-calculus models of the polarization networks realizing the channels
  (``optics``)
- Monte-Carlo phase estimation against the Cramer-Rao and shot-noise limits
  (``estimation``)
- the flagged two-qubit dilation of the isotropic channel (``circuits``)
"""
from .channels import (NOISE, ChannelError, GeneratorH, KrausChannel,
                       PhaseChannelFamily, amplitude_damping, choi_matrix,
                       depolarizing, evolve, extend_with_ancilla,
                       general_pauli, kraus_from_choi, phase_unitary)
from .circuits import (CircuitError, FlaggedOutputReport, VarianceReport,
                       build_flagged_channel, conjugation_residual,
                       flagged_variance, variance_consistency_check,
                       verify_flagged_output)
from .estimation import (SCHEMES, EstimationError, EstimationNumericError,
                         MeasurementModel, Scheme, TrialEnsemble, ErrorReport,
                         classical_fisher, error_curve, estimate_phase,
                         model_for, probabilities, run_experiment)
from .optics import (ModeSpace, OpticalElement, OpticalNetwork, OpticsError,
                     build_ad_network, build_pauli_network, damping_plate_angle,
                     element_unitary, extract_channel, jones_hwp, jones_qwp,
                     pauli_angle_residuals, solve_pauli_angles)
from .qfi import (ConvergenceError, QfiError, QfiResult, SldOperator,
                  channel_qfi_minimax, channel_qfi_supremum, closed_form_qfi,
                  qfi_from_matrix_elements, sld_qfi,
                  two_probe_collective_ad_qfi, two_probe_sld_oracle)
from .tomography import (ChiMatrix, FidelityReport, QptDataset,
                         TomographyError, born_probabilities, chi_theory,
                         poisson_uncertainty, process_fidelity,
                         product_states, reconstruct_chi,
                         reconstruct_from_probabilities, simulate_qpt)

__version__ = "0.1.0"
