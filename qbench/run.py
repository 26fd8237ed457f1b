"""qmetro benchmark: replays the traffic of the toolkit's slowest acceptance
criteria through ``qmetro.cli.main`` and the library, in-process, and checks
every item against an independent reference.

    python3 qbench/run.py --workload information --seed 1 --seconds 16 --trace 0
    python3 qbench/selftest.py

Workloads (see ``workloads.py``): ``information`` (optimizer path),
``monte_carlo`` (Monte-Carlo estimation) and ``characterization`` (tomography
and optics). The load is a closed loop with one caller: the next item starts
when the previous one returns. Inputs come only from ``--seed``.

Times are calibrated: the reference kernel in ``reference_seconds`` runs
between items, and each item's latency is scaled by REF_SECONDS over the
kernel's time around it. Metrics that carry ``_cal`` are in these units.
``setup_s`` is calibrated the same way, phase by phase, with a kernel of
Python compilation (``setup_reference_seconds``). The raw wall-clock
figures go to the result file.

With ``--trace 0`` the run measures for ``--seconds`` calibrated seconds of
item time, in whole rounds, and reports the end-to-end metrics. Set-up time
is the median over fresh interpreters of importing ``qmetro.cli`` and running
one fixed warm-up item.

With ``--trace 1`` the run executes a fixed number of rounds, set by
``--seconds`` and the workload's nominal rate so that both passes together
take about ``--seconds`` of calibrated time, once untraced and once with a
span around every function in ``tracing.TARGETS``, and reports per-layer
calls and self times. Both passes run the same items, so their digests must
agree and their calibrated times give the tracing overhead.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. ``failed`` counts the items that missed their
reference or failed in a way other than their declared known failure, and
``correct`` is false when there is any. An item that raises its declared
known failure is attempted but not failed: it is listed on stdout and in the
result file, and it counts against ``ok_frac``. The full
result, with the machine block, the output digests, every failure and every
item's latency, goes to ``.qbench/results/``; spans of a traced run go to
``.qbench/spans/``. The process exits 2 without a result when the qmetro
sources are missing or an argument is invalid.
"""
import argparse
import bisect
import contextlib
import json
import marshal
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".qbench")

SETUP_SAMPLES = 7
SETUP_TIMEOUT_S = 120
SETUP_REF_REPEATS = 5  # reference timings per calibration point of a set-up sample
TAIL_BEYOND = 10
# On a shared 2-core host, other tenants change the CPU speed by up to 1.7x
# within a minute, so each latency is scaled by REF_SECONDS over the reference
# kernel's time measured next to it. REF_SECONDS is that kernel's time on an
# unloaded 2-core Xeon host (Python 3.11, numpy 2.4), so calibrated times read
# as seconds there.
REF_SECONDS = 1.2e-3
# Set-up is mostly imports, which slow down less than small numpy operations
# when the host is busy, so set-up samples are calibrated with their own
# kernel (``setup_reference_seconds``); this is its time on the same unloaded
# host.
SETUP_REF_SECONDS = 3.3e-3
CALIBRATE_EVERY_S = 0.1
WALL_CAP = 1.75
_REF_C = np.exp(1j * np.arange(16.0)).reshape(4, 4)
WORKLOAD_NAMES = ("information", "monte_carlo", "characterization")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=16)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)  # child mode: import, warm up, exit
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def import_qmetro():
    """Import the checkout's qmetro; returns the import time in seconds."""
    if not os.path.isfile(os.path.join(SRC, "qmetro", "cli.py")):
        print(f"error: no qmetro sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import qmetro.cli  # noqa: F401
    return time.perf_counter() - t0


def machine():
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    thread_env = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in thread_env},
    }


def reference_seconds():
    """Best of three timings of a fixed kernel of small complex numpy
    operations (kron, einsum, lstsq), the mix qmetro's items are made of.
    It runs no qmetro code, so it tracks the speed of the machine, not of
    the program."""
    c = _REF_C
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0.0
        for _ in range(20):
            a = np.kron(c, np.eye(2))
            b = np.einsum("ij,jk->ik", a, a.conj().T)
            acc += float(np.abs(b).max()) + float(np.trace(a).real)
            acc += float(np.linalg.lstsq(np.vstack([a.real, a.imag]), np.ones(16),
                                         rcond=None)[0][0])
        best = min(best, time.perf_counter() - t0)
    return best


@dataclass
class Pass:
    """One closed-loop pass over a plan."""
    records: list
    rounds: list  # round index of each record
    scale: list   # REF_SECONDS over the reference time measured around each record
    wall_s: float

    @property
    def calibrated_s(self):
        """Item latencies scaled to the reference machine speed."""
        return [rec.seconds * f for rec, f in zip(self.records, self.scale)]


def run_rounds(plan, workdir, tracer=None, seconds=None, rounds=None, min_rounds=1):
    """Execute whole rounds of a plan in a closed loop.

    Stops after `rounds` rounds, or at the first round boundary once
    `min_rounds` are done and the items have used `seconds` of calibrated
    time (or WALL_CAP times that in wall time). The reference kernel runs
    between items, at most every CALIBRATE_EVERY_S, and once more at the end.
    """
    from workloads import execute
    records, round_of, starts, ref = [], [], [], []
    used = 0.0
    t0 = time.perf_counter()
    for r, items in enumerate(plan):
        if rounds is not None and r >= rounds:
            break
        if seconds is not None and r >= min_rounds and (
                used >= seconds or time.perf_counter() - t0 >= WALL_CAP * seconds):
            break
        for item in items:
            if not ref or time.perf_counter() - ref[-1][0] >= CALIBRATE_EVERY_S:
                ref.append((time.perf_counter(), reference_seconds()))
            if tracer is not None:
                tracer.item = len(records)
            starts.append(time.perf_counter())
            records.append(execute(item, workdir,
                                   tracer.paused if tracer else contextlib.nullcontext))
            round_of.append(r)
            used += records[-1].seconds * REF_SECONDS / ref[-1][1]
    wall_s = time.perf_counter() - t0
    ref.append((time.perf_counter(), reference_seconds()))
    at = [t for t, _ in ref]
    scale = []
    for start in starts:
        after = bisect.bisect_right(at, start)  # first sample taken after the item
        scale.append(REF_SECONDS / ((ref[after - 1][1] + ref[after][1]) / 2))
    return Pass(records, round_of, scale, wall_s)


def tail(latencies):
    """Highest percentile with at least TAIL_BEYOND samples beyond it:
    (value, percentile), or the maximum when there are too few samples."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def monotonic():
    """CLOCK_MONOTONIC, which parent and child processes share."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


_SETUP_REF_SOURCE = "".join(
    f"def f{i}(x, y=1):\n    return [x * y + {i} for _ in range(3)]\n"
    f"class C{i}:\n    a = {i}\n    def m(self):\n        return f{i}(self.a)\n"
    for i in range(40))


def setup_reference_seconds():
    """Best of three timings of compiling, marshalling and executing a fixed
    Python source, the work an import is made of. It runs no qmetro code."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        code = compile(_SETUP_REF_SOURCE, "<setup-reference>", "exec")
        exec(marshal.loads(marshal.dumps(code)), {})
        best = min(best, time.perf_counter() - t0)
    return best


def setup_reference_median():
    return statistics.median(setup_reference_seconds() for _ in range(SETUP_REF_REPEATS))


def setup_probe(workload):
    """Child side of one set-up sample: import qmetro.cli, then run the
    warm-up item, with the reference kernel timed between these phases.

    Prints when the interpreter reached this function (the parent times the
    start-up before it) and, per phase, its seconds and the reference times
    measured just before and just after it. The kernel runs between phases,
    so its own time is in no phase."""
    ready = monotonic()
    refs = [setup_reference_median()]
    phases = []
    t0 = monotonic()
    import_qmetro()
    sys.path.insert(0, HERE)
    import workloads
    phases.append(monotonic() - t0)
    refs.append(setup_reference_median())
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        t0 = monotonic()
        workloads.execute(workloads.WORKLOADS[workload].warmup(), workdir)
        phases.append(monotonic() - t0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    refs.append(setup_reference_median())
    print(json.dumps({"ready": ready,
                      "phases": [[s, a, b] for s, a, b in zip(phases, refs, refs[1:])]}))
    return 0


def setup_seconds(workload):
    """SETUP_SAMPLES fresh interpreters that each import qmetro.cli and run
    the warm-up item, as {"wall_s", "calibrated_s"} per child.

    Each phase is scaled by SETUP_REF_SECONDS over the mean of the reference
    times around it, as items are in the loop: the start-up phase by the
    parent's measurement just before the spawn and the child's first one.
    Each child is waited for, and killed on timeout."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        before = setup_reference_median()
        t0 = monotonic()
        proc = subprocess.run([sys.executable, os.path.abspath(__file__),
                               "--workload", workload, "--setup-probe"],
                              cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited with {proc.returncode}")
        child = json.loads(proc.stdout.strip().splitlines()[-1])
        first_ref = child["phases"][0][1]
        phases = [[child["ready"] - t0, before, first_ref]] + child["phases"]
        samples.append({
            "wall_s": sum(s for s, _, _ in phases),
            "calibrated_s": sum(s * SETUP_REF_SECONDS / ((a + b) / 2) for s, a, b in phases),
        })
    return samples


def summarize(records):
    """Every failure of `records`, and how many are not a declared known failure."""
    failures = [{"item": r.label, "error": r.error, "known": r.known}
                for r in records if r.error is not None]
    return failures, sum(not f["known"] for f in failures)


def round_median(ms, rounds, rate=False):
    """Median over rounds of each round's median latency, or with `rate` of
    each round's items per second. A round holds one item of each kind, so
    the median latency stays inside the item-cost distribution where a plain
    median of a two-mode mix would sit in the gap between the modes."""
    by_round = {}
    for v, r in zip(ms, rounds):
        by_round.setdefault(r, []).append(v)
    per_round = (1e3 * len(v) / sum(v) if rate else statistics.median(v)
                 for v in by_round.values())
    return statistics.median(per_round)


def end_to_end(run, setup_samples):
    """End-to-end metrics from calibrated latencies, plus the raw wall-clock
    figures and sample counts for the result file.

    Set-up time is the median of the calibrated set-up samples.
    """
    n = len(run.records)
    setup_s = statistics.median(x["calibrated_s"] for x in setup_samples)
    cal_ms = [1e3 * x for x in run.calibrated_s]
    raw_ms = [1e3 * rec.seconds for rec in run.records]
    tail_ms, tail_pct = tail(cal_ms)
    failed = sum(rec.error is not None for rec in run.records)
    values = {
        "items_per_s_cal": (round_median(cal_ms, run.rounds, rate=True), "1/s"),
        "item_p50_ms_cal": (round_median(cal_ms, run.rounds), "ms"),
        "item_tail_ms_cal": (tail_ms, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_frac": (1 - failed / n, "fraction"),
    }
    detail = {
        "samples": n,
        "tail_percentile": tail_pct,
        "fail_frac": failed / n,
        "wall": {"items_per_s": n / run.wall_s, "item_p50_ms": statistics.median(raw_ms),
                 "item_tail_ms": tail(raw_ms)[0]},
        "reference_speed_median": statistics.median(run.scale),
        "setup_samples": setup_samples,
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}, detail


def main(argv=None):
    args = parse_args(argv)
    if args.setup_probe:
        return setup_probe(args.workload)
    import_s = import_qmetro()
    sys.path.insert(0, HERE)
    import workloads
    from tracing import Tracer
    spec = workloads.WORKLOADS[args.workload]
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        warm = workloads.execute(spec.warmup(), workdir)
        result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "machine": machine()}
        if args.trace:
            # the two passes together take about --seconds of calibrated time
            rounds = max(1, round(args.seconds * spec.rounds_per_s / 2))
            plain = run_rounds(spec.plan(args.seed), workdir, rounds=rounds)
            tracer = Tracer()
            with tracer.patched():
                traced = run_rounds(spec.plan(args.seed), workdir, tracer, rounds=rounds)
            overhead = sum(traced.calibrated_s) / sum(plain.calibrated_s) - 1
            metrics = tracer.metrics(traced.wall_s, overhead, import_s)
            records = plain.records + traced.records
            digests = {"untraced": workloads.digest(plain.records),
                       "traced": workloads.digest(traced.records),
                       "items": len(traced.records), "rounds": rounds}
            digests_agree = digests["untraced"] == digests["traced"]
            os.makedirs(os.path.join(OUT, "spans"), exist_ok=True)
            tracer.write(os.path.join(OUT, "spans", f"{args.workload}-seed{args.seed}.csv.gz"))
        else:
            setup_samples = setup_seconds(args.workload)
            run = run_rounds(spec.plan(args.seed), workdir, seconds=args.seconds,
                             min_rounds=spec.min_rounds)
            metrics, detail = end_to_end(run, setup_samples)
            records = run.records
            result.update(detail,
                          items=[[r, rec.label, 1e3 * rec.seconds, f]
                                 for r, rec, f in zip(run.rounds, records, run.scale)])
            first = records[:len(next(spec.plan(args.seed)))]
            digests = {"first_round": workloads.digest(first), "first_round_items": len(first),
                       "all": workloads.digest(records), "items": len(records)}
            digests_agree = True
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    records = [warm] + records  # a wrong warm-up output is a failure too
    failures, failed = summarize(records)
    correct = failed == 0 and digests_agree
    result.update(correct=correct, digest=digests, failures=failures,
                  known_failures=len(failures) - failed, metrics=metrics)
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    with open(os.path.join(OUT, "results",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(result, fh, indent=2)
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:>14.6g} {m['unit']}")
    for f in failures:
        print(f"{'known failure' if f['known'] else 'FAILED'}: {f['item']}: {f['error']}")
    print(json.dumps({"correct": correct, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
