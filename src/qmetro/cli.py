"""Command line front end.

Five subcommands cover the standard workflows: information-vs-noise curves,
Monte-Carlo phase-error curves, simulated process tomography, verification of
the optical network constructions, and the flagged-channel consistency checks.
Every command is deterministic for a fixed configuration and seed; CSV output
uses 6 significant digits, '.' decimals, ',' separators and LF line endings.

Exit codes: 0 on success, 2 for an invalid configuration (an unwritable output
path included), 3 when an optimizer, reconstruction, or verification tolerance
fails, or an estimation step meets a numeric fault such as a bad outcome law.
"""
import argparse
import functools
import json
import sys

import numpy as np

from .channels import (NOISE, ChannelError, PhaseChannelFamily,
                       amplitude_damping, extend_with_ancilla, general_pauli)
from .circuits import (CircuitError, conjugation_residual,
                       variance_consistency_check, verify_flagged_output)
from .estimation import (SCHEMES, EstimationError, EstimationNumericError,
                         classical_fisher, error_curve, model_for)
from .optics import (OpticsError, build_ad_network, build_pauli_network,
                     damping_plate_angle, extract_channel,
                     pauli_angle_residuals, solve_pauli_angles)
from .qfi import ConvergenceError, QfiError, channel_qfi_minimax, closed_form_qfi
from .tomography import (TomographyError, born_probabilities, chi_theory,
                         poisson_uncertainty, process_fidelity, reconstruct_chi,
                         reconstruct_from_probabilities, simulate_qpt)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

# a longer range is rejected before np.arange allocates it; the default grids
# have 10 and 20 points
MAX_GRID_POINTS = 10_000
# more repetitions are rejected before the counts array is allocated; 20x the
# largest count the acceptance criteria use (50 000)
MAX_REPETITIONS = 1_000_000
# larger event and shot counts are rejected before any sampling: the qpt
# uncertainty redraws every count from a Poisson law, and numpy refuses a mean
# above about 9.2e18 (the int64 range less ten standard deviations)
MAX_COUNTS = 10 ** 18


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


def _check_count(name, value, low, high):
    if value < low:
        raise ConfigError(f"{name} must be at least {low}")
    if value > high:
        raise ConfigError(f"{name} must be at most {high}")


def _check_seed(seed):
    # numpy's seeding rejects a negative entry with a plain ValueError
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")


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
    _check_count("repetitions", args.reps, 2, MAX_REPETITIONS)
    if args.events is not None:
        _check_count("events", args.events, 1, MAX_COUNTS)
    _check_seed(args.seed)
    rows = error_curve(args.scheme, grid, visibility=args.visibility,
                       events=args.events, repetitions=args.reps,
                       seed=args.seed, phi_true=args.phi)
    # theory curves for the assisted and bare schemes with this one's noise
    # and probe count, at the same visibility
    spec = SCHEMES[args.scheme]
    theory = {f"theory_{'assisted' if s.assisted else 'bare'}": name
              for name, s in SCHEMES.items() if (s.noise, s.probes) == (spec.noise, spec.probes)}
    for row in rows:
        for column, name in theory.items():
            fisher = classical_fisher(model_for(name, row["noise"], args.visibility), 0.0)
            row[column] = 1 / np.sqrt(fisher) if fisher > 0 else float("inf")
    header = ["noise", "sqrt_nu_dphi", "bootstrap_std", "cr_bound",
              "theory_assisted", "theory_bare", "shot_noise"]
    _emit_rows(header, rows, args)
    return EXIT_OK


def cmd_qpt(args):
    grid = parse_grid(args.grid)
    _check_noise_range(grid)
    _check_count("shots", args.shots, 1, MAX_COUNTS)
    _check_count("resamples", args.resamples, 2, MAX_REPETITIONS)
    _check_seed(args.seed)
    stem = args.out[:-4] if args.out.endswith(".csv") else args.out
    tags = [f"{stem}_noise{noise:g}" for noise in grid]
    if len(set(tags)) < len(tags):
        raise ConfigError(f"grid {args.grid!r} has points that print alike at 6 "
                          "significant digits, so their chi files would share a name")
    rows = []
    for i, (noise, tag) in enumerate(zip(grid, tags)):
        ch = NOISE[args.channel](noise)
        if not args.single:
            ch = extend_with_ancilla(ch)
        chi_th = chi_theory(ch)
        if args.exact:
            chi_exp = reconstruct_from_probabilities(born_probabilities(ch))
            std = 0.0
        else:
            # point i draws from its own streams, as error-curve's points do
            data = simulate_qpt(ch, shots=args.shots, seed=[args.seed, i])
            chi_exp = reconstruct_chi(data)
            std = poisson_uncertainty(data, chi_ref=chi_th,
                                      resamples=args.resamples, seed=[args.seed, i])
        fidelity = process_fidelity(chi_exp, chi_th).value
        rows.append({"noise": float(noise), "fidelity": fidelity,
                     "fidelity_std": std})
        _emit(chi_exp.json_text(), tag + "_chi_exp.json")
        _emit(chi_th.json_text(), tag + "_chi_th.json")
    _emit(format_csv(["noise", "fidelity", "fidelity_std"], rows), args.out)
    if args.exact and any(1 - r["fidelity"] > 1e-10 for r in rows):
        return EXIT_NUMERIC
    return EXIT_OK


def cmd_optics_verify(args):
    # the target channel validates the parameters before a network is built
    if args.channel == "ad":
        if args.eta is None:
            raise ConfigError("--eta is required for the damping network")
        target = amplitude_damping(args.eta)
        net = build_ad_network(args.eta)
        report = {
            "channel": target.label,
            "angles": [float(damping_plate_angle(args.eta))],
            "equation_residuals": [],
        }
    else:
        weights = [args.p0, args.p1, args.p2, args.p3]
        if any(w is None for w in weights):
            raise ConfigError("--p0 --p1 --p2 --p3 are required for the Pauli network")
        target = general_pauli(weights)
        net = build_pauli_network(weights)
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

@functools.lru_cache(maxsize=None)
def build_parser():
    """Built once and shared by every `main` call; it holds no command functions."""
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
    p.add_argument("--channel", choices=NOISE, required=True)
    p.add_argument("--grid", default="0:0.95:0.05")
    p.add_argument("--minimax", action="store_true",
                   help="include optimizer columns")
    add_common(p)

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

    p = sub.add_parser("qpt", help="simulated process tomography")
    p.add_argument("--channel", choices=NOISE, required=True)
    p.add_argument("--grid", default="0.5")
    p.add_argument("--shots", type=int, default=20000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--resamples", type=int, default=50)
    p.add_argument("--single", action="store_true",
                   help="probe alone, without the ancilla")
    p.add_argument("--exact", action="store_true",
                   help="reconstruct from exact probabilities")
    p.add_argument("--out", required=True, help="summary CSV path")

    p = sub.add_parser("optics-verify",
                       help="check the polarization network constructions")
    p.add_argument("--channel", choices=("ad", "pauli"), required=True)
    p.add_argument("--eta", type=float, default=None)
    for flag in ("--p0", "--p1", "--p2", "--p3"):
        p.add_argument(flag, type=float, default=None)
    add_common(p, fmt=False)

    p = sub.add_parser("supplement-verify",
                       help="flagged-channel identities and variances")
    p.add_argument("--grid", default="0:0.9:0.1")
    add_common(p, fmt=False)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    # looked up per call, so a replaced command function takes effect
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except (ConvergenceError, QfiError, TomographyError, OpticsError,
            CircuitError, EstimationNumericError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ConfigError, EstimationError) as exc:
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ChannelError as exc:
        print(f"error: invalid channel: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
