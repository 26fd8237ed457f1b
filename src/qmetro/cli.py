"""Command line front end.

Five subcommands cover the standard workflows: information-vs-noise curves,
Monte-Carlo phase-error curves, simulated process tomography, verification of
the optical network constructions, and the flagged-channel consistency checks.
Every command is deterministic for a fixed configuration and seed; CSV output
uses 6 significant digits, '.' decimals, ',' separators and LF line endings.

Exit codes: 0 on success, 2 for an invalid configuration (an unwritable output
path included), 3 when an optimizer, reconstruction, or verification tolerance
fails.
"""
import argparse
import json
import sys

import numpy as np

from .channels import (NOISE, ChannelError, PhaseChannelFamily,
                       amplitude_damping, extend_with_ancilla, general_pauli)
from .circuits import (CircuitError, conjugation_residual, flagged_variance,
                       variance_consistency_check, verify_flagged_output)
from .estimation import (SCHEMES, EstimationError, classical_fisher,
                         error_curve, model_for)
from .optics import (OpticsError, build_ad_network, build_pauli_network,
                     extract_channel, pauli_angle_residuals, solve_pauli_angles)
from .qfi import ConvergenceError, QfiError, channel_qfi_minimax, closed_form_qfi
from .tomography import (TomographyError, born_probabilities, chi_theory,
                         poisson_uncertainty, process_fidelity, product_states,
                         reconstruct_chi, reconstruct_from_probabilities,
                         simulate_qpt)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

# a longer range is rejected before np.arange allocates it; the default grids
# have 10 and 20 points
MAX_GRID_POINTS = 10_000


class ConfigError(ValueError):
    pass


def parse_grid(text):
    """Accept 'start:stop:step', a comma list, or a single value."""
    try:
        numbers = np.array([float(t) for t in text.split(":" if ":" in text else ",")])
    except ValueError as exc:
        raise ConfigError(f"cannot parse grid {text!r}") from exc
    if not np.isfinite(numbers).all():
        raise ConfigError(f"grid {text!r} has a non-finite value")
    if ":" not in text:
        return numbers
    if numbers.size != 3:
        raise ConfigError(f"cannot parse grid {text!r}")
    # python floats, so that an overflowing quotient is inf without a warning
    start, stop, step = numbers.tolist()
    if step <= 0:
        raise ConfigError(f"grid step must be positive, got {step}")
    if stop < start:
        raise ConfigError("grid stop lies before start")
    span = np.floor((stop - start) / step + 1e-9)
    if span >= MAX_GRID_POINTS:
        raise ConfigError(f"grid {text!r} has more than {MAX_GRID_POINTS} points")
    return start + step * np.arange(int(span) + 1)


def _check_noise_range(values):
    if np.any(values < 0) or np.any(values > 1):
        raise ConfigError("noise values must lie in [0, 1]")


def format_csv(header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(f"{row[k]:.6g}" for k in header))
    return "\n".join(lines) + "\n"


def _emit(text, path):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)


def _emit_rows(header, rows, args):
    if args.format == "json":
        _emit(json.dumps({"rows": rows}, indent=2, sort_keys=True) + "\n", args.out)
    else:
        _emit(format_csv(header, rows), args.out)


# ------------------------------------------------------------------ commands

def cmd_qfi_curve(args):
    grid = parse_grid(args.grid)
    _check_noise_range(grid)
    header = ["noise", "qfi_assisted_closed", "qfi_bare_closed"]
    if args.minimax:
        header += ["qfi_assisted_minimax", "qfi_bare_minimax"]
    rows = []
    for noise in grid:
        row = {
            "noise": float(noise),
            "qfi_assisted_closed": closed_form_qfi(args.channel, noise, assisted=True),
            "qfi_bare_closed": closed_form_qfi(args.channel, noise, assisted=False),
        }
        if args.minimax:
            fam = PhaseChannelFamily(NOISE[args.channel](noise))
            row["qfi_assisted_minimax"] = channel_qfi_minimax(fam, extended=True).value
            row["qfi_bare_minimax"] = channel_qfi_minimax(fam, extended=False).value
        rows.append(row)
    _emit_rows(header, rows, args)
    return EXIT_OK


def cmd_error_curve(args):
    grid = parse_grid(args.grid)
    _check_noise_range(grid)
    if args.reps < 2:
        raise ConfigError("repetitions must be at least 2")
    if args.events is not None and args.events < 1:
        raise ConfigError("events must be at least 1")
    if not np.isfinite(args.phi):
        raise ConfigError(f"phi must be finite, got {args.phi}")
    rows = error_curve(args.scheme, grid, visibility=args.visibility,
                       events=args.events, repetitions=args.reps,
                       seed=args.seed, phi_true=args.phi)
    # theory curves for the scheme pair, at the same visibility
    stem = args.scheme.rsplit("_", 1)[0]
    for row in rows:
        for variant in ("assisted", "bare"):
            model = model_for(f"{stem}_{variant}", row["noise"], args.visibility)
            fisher = classical_fisher(model, 0.0)
            row[f"theory_{variant}"] = (1 / np.sqrt(fisher)
                                        if fisher > 0 else float("inf"))
    header = ["noise", "sqrt_nu_dphi", "bootstrap_std", "cr_bound",
              "theory_assisted", "theory_bare", "shot_noise"]
    _emit_rows(header, rows, args)
    return EXIT_OK


def cmd_qpt(args):
    grid = parse_grid(args.grid)
    _check_noise_range(grid)
    if args.shots < 1:
        raise ConfigError("shots must be at least 1")
    if args.resamples < 2:
        raise ConfigError("resamples must be at least 2")
    extended = not args.single
    stem = args.out[:-4] if args.out.endswith(".csv") else args.out
    rows = []
    for noise in grid:
        ch = NOISE[args.channel](noise)
        if extended:
            ch = extend_with_ancilla(ch)
        chi_th = chi_theory(ch)
        if args.exact:
            probs = born_probabilities(ch, extended)
            states = product_states(extended)
            chi_exp = reconstruct_from_probabilities(probs, states, states)
            std = 0.0
        else:
            data = simulate_qpt(ch, extended=extended, shots=args.shots,
                                seed=args.seed)
            chi_exp = reconstruct_chi(data)
            std = poisson_uncertainty(data, chi_ref=chi_th,
                                      resamples=args.resamples, seed=args.seed)
        fidelity = process_fidelity(chi_exp, chi_th).value
        rows.append({"noise": float(noise), "fidelity": fidelity,
                     "fidelity_std": std})
        tag = f"{stem}_noise{noise:g}"
        with open(tag + "_chi_exp.json", "w", newline="\n") as fh:
            json.dump(chi_exp.to_json(), fh, indent=2, sort_keys=True)
        with open(tag + "_chi_th.json", "w", newline="\n") as fh:
            json.dump(chi_th.to_json(), fh, indent=2, sort_keys=True)
    _emit(format_csv(["noise", "fidelity", "fidelity_std"], rows), args.out)
    if args.exact and any(1 - r["fidelity"] > 1e-10 for r in rows):
        return EXIT_NUMERIC
    return EXIT_OK


def cmd_optics_verify(args):
    if args.channel == "ad":
        if args.eta is None:
            raise ConfigError("--eta is required for the damping network")
        if not 0 <= args.eta <= 1:
            raise ConfigError("eta must lie in [0, 1]")
        net = build_ad_network(args.eta)
        target = amplitude_damping(args.eta)
        report = {
            "channel": target.label,
            "angles": [0.5 * float(np.arccos(-np.sqrt(1 - args.eta)))],
            "equation_residuals": [],
        }
    else:
        weights = [args.p0, args.p1, args.p2, args.p3]
        if any(w is None for w in weights):
            raise ConfigError("--p0 --p1 --p2 --p3 are required for the Pauli network")
        for j, w in enumerate(weights):
            if not np.isfinite(w):
                raise ConfigError(f"--p{j} must be finite, got {w}")
        if min(weights) < 0 or abs(sum(weights) - 1) > 1e-9:
            raise ConfigError("branch weights must be nonnegative and sum to 1")
        net = build_pauli_network(weights)
        target = general_pauli(weights)
        angles = solve_pauli_angles(weights)
        report = {
            "channel": target.label,
            "angles": [float(t) for t in angles],
            "equation_residuals": [float(r) for r in
                                   pauli_angle_residuals(weights, angles)],
        }
    extracted, success = extract_channel(net)
    fidelity = process_fidelity(chi_theory(extracted), chi_theory(target)).value
    report["success_probability"] = float(success)
    report["fidelity"] = float(fidelity)
    report["passed"] = bool(fidelity >= 1 - 1e-6)
    _emit(json.dumps(report, indent=2, sort_keys=True) + "\n", args.out)
    return EXIT_OK if report["passed"] else EXIT_NUMERIC


def cmd_supplement_verify(args):
    grid = parse_grid(args.grid)
    if np.any(grid < 0) or np.any(grid >= 1):
        raise ConfigError("noise weights must lie in [0, 1)")
    header = ["noise", "conjugation_residual", "flag_weight_0", "flag_weight_1",
              "block_residual", "flagged_variance", "unflagged_variance",
              "consistency_residual"]
    rows = []
    worst = 0.0
    for p in grid:
        conj = conjugation_residual(p)
        out = verify_flagged_output(p, phi=0.3)
        var = variance_consistency_check(p)
        block = max(max(out.block_residuals), out.offdiag_residual,
                    out.conditional_residual)
        worst = max(worst, conj, block, var.closed_form_residual)
        rows.append({
            "noise": float(p),
            "conjugation_residual": conj,
            "flag_weight_0": out.flag_weights[0],
            "flag_weight_1": out.flag_weights[1],
            "block_residual": block,
            "flagged_variance": var.flagged_variance,
            "unflagged_variance": var.unflagged_variance,
            "consistency_residual": var.closed_form_residual,
        })
    _emit(format_csv(header, rows), args.out)
    return EXIT_OK if worst <= 1e-10 else EXIT_NUMERIC


# -------------------------------------------------------------------- parser

def build_parser():
    parser = argparse.ArgumentParser(
        prog="qmetro",
        description="Simulation toolkit for noisy-channel phase metrology.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, fmt=True):
        p.add_argument("--out", default=None, help="output path (default stdout)")
        if fmt:
            p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("qfi-curve",
                       help="closed-form and optimized information vs noise")
    p.add_argument("--channel", choices=("ad", "depol"), required=True)
    p.add_argument("--grid", default="0:0.95:0.05")
    p.add_argument("--minimax", action="store_true",
                   help="include optimizer columns")
    add_common(p)
    p.set_defaults(func=cmd_qfi_curve)

    p = sub.add_parser("error-curve",
                       help="Monte-Carlo phase error vs the Cramer-Rao bound")
    p.add_argument("--scheme", choices=SCHEMES, required=True)
    p.add_argument("--grid", default="0:0.9:0.1")
    p.add_argument("--visibility", type=float, default=None)
    p.add_argument("--events", type=int, default=None)
    p.add_argument("--reps", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--phi", type=float, default=0.0)
    add_common(p)
    p.set_defaults(func=cmd_error_curve)

    p = sub.add_parser("qpt", help="simulated process tomography")
    p.add_argument("--channel", choices=("ad", "depol"), required=True)
    p.add_argument("--grid", default="0.5")
    p.add_argument("--shots", type=int, default=20000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--resamples", type=int, default=50)
    p.add_argument("--single", action="store_true",
                   help="probe alone, without the ancilla")
    p.add_argument("--exact", action="store_true",
                   help="reconstruct from exact probabilities")
    p.add_argument("--out", required=True, help="summary CSV path")
    p.set_defaults(func=cmd_qpt)

    p = sub.add_parser("optics-verify",
                       help="check the polarization network constructions")
    p.add_argument("--channel", choices=("ad", "pauli"), required=True)
    p.add_argument("--eta", type=float, default=None)
    for flag in ("--p0", "--p1", "--p2", "--p3"):
        p.add_argument(flag, type=float, default=None)
    add_common(p, fmt=False)
    p.set_defaults(func=cmd_optics_verify)

    p = sub.add_parser("supplement-verify",
                       help="flagged-channel identities and variances")
    p.add_argument("--grid", default="0:0.9:0.1")
    add_common(p, fmt=False)
    p.set_defaults(func=cmd_supplement_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, EstimationError) as exc:
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ChannelError as exc:
        print(f"error: invalid channel: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ConvergenceError, QfiError, TomographyError, OpticsError,
            CircuitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
