"""Item plans for the three workloads, and the reference check of every item.

An item is one call into qmetro: a CLI invocation through ``qmetro.cli.main``,
or one library call where the CLI has no entry. A plan is an endless stream of
rounds drawn from the workload seed. The loop in ``run.py`` stops only at a
round boundary, so the mix of item kinds in a run does not depend on where the
clock ran out.

Every check compares an item's output with a reference that does not come
from the code path under test: closed forms typed out here, a second QFI
route, or a certificate the command prints.
"""
import contextlib
import hashlib
import io
import json
import math
import os
import time
import traceback
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from qmetro import channels, cli, qfi

QFI_TOL = 1e-4
ORACLE_TOL = 1e-8
SUPREMUM_TOL = 1e-6
CR_RATIO_TOL = 0.10
SAMPLED_FIDELITY_MIN = 0.98
EXACT_FIDELITY_TOL = 1e-10
OPTICS_FIDELITY_TOL = 1e-6

# the six schemes at the repetition counts of the error-curve acceptance criterion
SCHEME_REPS = (
    ("ad_single_assisted", 3000),
    ("depol_single_assisted", 3000),
    ("ad_two_probe_assisted", 50000),
    ("ad_single_bare", 3000),
    ("depol_single_bare", 3000),
    ("ad_two_probe_bare", 50000),
)

# The supremum's multi-start simplex does not settle within its default budget
# for isotropic noise at 0.4, and for some seed-drawn Pauli weights (3 to 6
# runs in 10 at the baseline). Those two items stay in the workload: their
# ConvergenceError is reported and counts against ok_frac, but not as a failed
# item. It is declared only for them, so the same error from the
# amplitude-damping supremum, which converges at every baseline seed, is a
# failed item and makes a run incorrect.
KNOWN_FAILURE = qfi.ConvergenceError
DEPOL_SUPREMUM_NOISE = 0.4


class CheckFailed(Exception):
    """An item completed but its output misses the reference."""


@dataclass(frozen=True)
class CliResult:
    rc: int
    stdout: str
    files: dict  # file name -> bytes, for files the command wrote


@dataclass(frozen=True)
class Item:
    label: str
    check: Callable
    argv: Optional[tuple] = None   # CLI arguments, for a CLI item
    call: Optional[Callable] = None  # library call, for an item the CLI lacks
    known_failure: Optional[type] = None


@dataclass(frozen=True)
class Record:
    label: str
    seconds: float
    sha256: str            # of the label and everything the item produced
    error: Optional[str]   # None when the item passed its check
    known: bool            # the error is the item's declared known failure


def execute(item, workdir, checking=contextlib.nullcontext):
    """Run one item, time it, check it, and never let it end the run.

    The latency covers the CLI call or library call only. `checking` is
    entered around the check, so a tracer can leave the reference
    computations out of the item's spans.
    """
    t0 = time.perf_counter()
    try:
        if item.argv is not None:
            rc, stdout = _run_cli(item.argv, workdir)
        else:
            result = item.call()
    except Exception as exc:  # any raise is one failed item, not a crash
        seconds = time.perf_counter() - t0
        _collect(workdir)
        error = "".join(traceback.format_exception_only(type(exc), exc)).strip()
        known = item.known_failure is not None and isinstance(exc, item.known_failure)
        if not known:
            traceback.print_exc()
        return Record(item.label, seconds, _sha(item.label, f"raised {error}".encode()),
                      error, known)
    seconds = time.perf_counter() - t0
    if item.argv is not None:
        result = CliResult(rc, stdout, _collect(workdir))
    sha = _sha(item.label, _blob(result))
    try:
        with checking():
            item.check(result)
    except CheckFailed as exc:
        return Record(item.label, seconds, sha, f"check: {exc}", False)
    except Exception as exc:  # output too damaged to parse
        traceback.print_exc()
        return Record(item.label, seconds, sha, f"check: {type(exc).__name__}: {exc}", False)
    return Record(item.label, seconds, sha, None, False)


def _run_cli(argv, workdir):
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main([a.replace("{work}", workdir) for a in argv])
    except SystemExit as exc:  # argparse rejects arguments this way
        rc = exc.code if isinstance(exc.code, int) else 1
    return rc, out.getvalue()


def _collect(workdir):
    """Read and remove the files a command wrote."""
    files = {}
    for name in sorted(os.listdir(workdir)):
        path = os.path.join(workdir, name)
        with open(path, "rb") as fh:
            files[name] = fh.read()
        os.remove(path)
    return files


def _blob(result):
    if isinstance(result, CliResult):
        parts = [f"rc={result.rc}\n".encode(), result.stdout.encode()]
        for name, data in result.files.items():
            parts += [b"\0", name.encode(), b"\0", data]
        return b"".join(parts)
    return repr(result).encode()


def _sha(label, blob):
    return hashlib.sha256(label.encode() + b"\0" + blob).hexdigest()


def digest(records):
    """sha256 over every item's label and outputs, in item order."""
    return hashlib.sha256("".join(r.sha256 for r in records).encode()).hexdigest()


# -------------------------------------------------------------------- checks

def _expect_rc(res, rc=0):
    if res.rc != rc:
        raise CheckFailed(f"exit code {res.rc}")


def _csv_rows(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    return [dict(zip(header, (float(v) for v in line.split(","))))
            for line in lines[1:]]


def _close(name, got, ref, tol):
    if not abs(got - ref) <= tol:
        raise CheckFailed(f"{name} = {got!r}, reference {ref!r}, tolerance {tol:g}")


def closed_forms(channel, x):
    """(assisted, bare) single-probe information, as published."""
    if channel == "ad":
        return 2 * (1 - x) / (2 - x), 1 - x
    return 2 * (1 - x) ** 2 / (2 - x), (1 - x) ** 2


def two_probe_reference(eta):
    """Published two-probe collective information at phi = 0."""
    a = (eta - 1) ** 2
    b = (eta - 2) * eta
    return 8 * a * (2 * a + b * (b + 2) + 2) / (b + 2) ** 3


# ------------------------------------------------------------ item builders

def _fmt(x):
    return repr(float(x))


def qfi_point(channel, noise):
    def check(res):
        _expect_rc(res)
        (row,) = _csv_rows(res.stdout)
        assisted, bare = closed_forms(channel, noise)
        for col in ("qfi_assisted_closed", "qfi_assisted_minimax"):
            _close(col, row[col], assisted, QFI_TOL)
        for col in ("qfi_bare_closed", "qfi_bare_minimax"):
            _close(col, row[col], bare, QFI_TOL)
    return Item(f"qfi-curve {channel} {noise!r}", check,
                argv=("qfi-curve", "--channel", channel, "--grid", _fmt(noise),
                      "--minimax"))


def supplement():
    def check(res):
        _expect_rc(res)
        rows = _csv_rows(res.stdout)
        if len(rows) != 10:
            raise CheckFailed(f"{len(rows)} rows, expected 10")
        for row in rows:
            for col in ("conjugation_residual", "block_residual", "consistency_residual"):
                _close(col, row[col], 0.0, 1e-10)
    return Item("supplement-verify", check, argv=("supplement-verify",))


ORACLE_ETAS = tuple(i / 10 for i in range(10))


def oracle_sweep():
    def call():
        return [qfi.two_probe_sld_oracle(eta, 0.0) for eta in ORACLE_ETAS]

    def check(values):
        for eta, v in zip(ORACLE_ETAS, values):
            _close(f"oracle({eta})", v, two_probe_reference(eta), ORACLE_TOL)
    return Item("two_probe_sld_oracle sweep", check, call=call)


def supremum(label, make_noise, known_failure=None):
    def family():
        return channels.PhaseChannelFamily(make_noise())

    def call():
        return qfi.channel_qfi_supremum(family()).value

    def check(value):
        balanced = qfi.channel_qfi_minimax(family(), extended=True).value
        if not value >= balanced - SUPREMUM_TOL:
            raise CheckFailed(f"supremum {value!r} below balanced value {balanced!r}")
    return Item(f"supremum {label}", check, call=call, known_failure=known_failure)


def error_point(scheme, reps, noise, seed):
    def check(res):
        _expect_rc(res)
        (row,) = _csv_rows(res.stdout)
        _close("sqrt_nu_dphi / cr_bound", row["sqrt_nu_dphi"] / row["cr_bound"], 1.0,
               CR_RATIO_TOL)
        if not (math.isfinite(row["bootstrap_std"]) and row["bootstrap_std"] > 0):
            raise CheckFailed(f"bootstrap_std = {row['bootstrap_std']!r}")
    return Item(f"error-curve {scheme} {noise!r} seed {seed}", check,
                argv=("error-curve", "--scheme", scheme, "--grid", _fmt(noise),
                      "--reps", str(reps), "--seed", str(seed)))


def qpt_point(channel, noise, single, seed=None):
    """Sampled tomography at `seed`, or exact-probability tomography when None."""
    exact = seed is None

    def check(res):
        _expect_rc(res)
        if len(res.files) != 3 or "qpt.csv" not in res.files:
            raise CheckFailed(f"wrote {sorted(res.files)}, expected summary and two chi files")
        (row,) = _csv_rows(res.files["qpt.csv"].decode())
        if exact:
            _close("fidelity", row["fidelity"], 1.0, EXACT_FIDELITY_TOL)
        elif not row["fidelity"] >= SAMPLED_FIDELITY_MIN:
            raise CheckFailed(f"fidelity {row['fidelity']!r} < {SAMPLED_FIDELITY_MIN}")
    argv = ["qpt", "--channel", channel, "--grid", _fmt(noise),
            "--out", "{work}/qpt.csv"]
    argv += ["--exact"] if exact else ["--seed", str(seed)]
    argv += ["--single"] if single else []
    mode = "exact" if exact else f"seed {seed}"
    return Item(f"qpt {channel} {'single' if single else 'ancilla'} {noise!r} {mode}",
                check, argv=tuple(argv))


def optics_point(channel, params):
    def check(res):
        _expect_rc(res)
        report = json.loads(res.stdout)
        if report["passed"] is not True:
            raise CheckFailed("network reported not passed")
        _close("fidelity", report["fidelity"], 1.0, OPTICS_FIDELITY_TOL)
    if channel == "ad":
        argv = ("optics-verify", "--channel", "ad", "--eta", _fmt(params))
    else:
        argv = ("optics-verify", "--channel", "pauli",
                *(a for j, p in enumerate(params) for a in (f"--p{j}", _fmt(p))))
    return Item(f"optics-verify {channel} {params!r}", check, argv=argv)


# --------------------------------------------------------------------- plans

def _stratified(seed, stream, lo, hi, strata=8):
    """Endless draws in [lo, hi): each block of `strata` draws takes one value
    from every stratum, in shuffled order, so short runs see the whole range."""
    rng = np.random.default_rng([seed, stream])
    while True:
        for s in rng.permutation(strata):
            yield round(float(lo + (hi - lo) * (s + rng.random()) / strata), 6)


def _seeds(seed, stream):
    rng = np.random.default_rng([seed, stream])
    while True:
        yield int(rng.integers(2 ** 31))


def _weights(rng):
    return tuple(float(w) for w in rng.dirichlet(np.ones(4)))


def information(seed):
    noise = {ch: _stratified(seed, i, 0.0, 0.95) for i, ch in enumerate(("ad", "depol"))}
    rng = np.random.default_rng([seed, 100])
    eta = round(float(rng.uniform(0.0, 0.95)), 6)
    weights = _weights(rng)
    yield [
        qfi_point("ad", next(noise["ad"])),
        qfi_point("depol", next(noise["depol"])),
        supplement(),
        oracle_sweep(),
        supremum(f"ad({eta!r})", lambda: channels.amplitude_damping(eta)),
        supremum(f"depol({DEPOL_SUPREMUM_NOISE})",
                 lambda: channels.depolarizing(DEPOL_SUPREMUM_NOISE), KNOWN_FAILURE),
        supremum(f"pauli{weights!r}", lambda: channels.general_pauli(weights), KNOWN_FAILURE),
    ]
    while True:
        yield [qfi_point("ad", next(noise["ad"])),
               qfi_point("depol", next(noise["depol"]))]


def monte_carlo(seed):
    noise = [_stratified(seed, i, 0.0, 0.9) for i in range(len(SCHEME_REPS))]
    seeds = _seeds(seed, 100)
    while True:
        yield [error_point(scheme, reps, next(noise[i]), next(seeds))
               for i, (scheme, reps) in enumerate(SCHEME_REPS)]


def characterization(seed):
    combos = [(ch, single) for ch in ("ad", "depol") for single in (False, True)]
    sampled = [_stratified(seed, i, 0.0, 0.95) for i in range(len(combos))]
    exact = [_stratified(seed, 10 + i, 0.0, 0.95) for i in range(len(combos))]
    etas = _stratified(seed, 20, 0.0, 0.95)
    seeds = _seeds(seed, 100)
    rng = np.random.default_rng([seed, 101])
    while True:
        items = [qpt_point(ch, next(sampled[i]), single, next(seeds))
                 for i, (ch, single) in enumerate(combos)]
        items += [qpt_point(ch, next(exact[i]), single)
                  for i, (ch, single) in enumerate(combos)]
        items += [optics_point("ad", next(etas)), optics_point("pauli", _weights(rng))]
        yield items


@dataclass(frozen=True)
class Workload:
    plan: Callable         # seed -> endless iterator of rounds
    warmup: Callable       # () -> the fixed untimed item that ends set-up
    min_rounds: int        # rounds always run; see monte_carlo below
    rounds_per_s: float    # calibrated rounds per second, sizes the traced passes


WORKLOADS = {
    "information": Workload(information, lambda: qfi_point("ad", 0.5), 1, 1.2),
    # seven rounds give fourteen 50 000-repetition items, so the tail percentile
    # (ten samples beyond it) stays among them and is not their second fastest,
    # which spread up to twice as much across seeds with six rounds
    "monte_carlo": Workload(monte_carlo,
                            lambda: error_point("ad_single_assisted", 3000, 0.5, 0),
                            7, 0.35),
    "characterization": Workload(characterization,
                                 lambda: qpt_point("ad", 0.5, False, 0), 1, 7.0),
}
