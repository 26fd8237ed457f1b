"""Spans around qmetro's public functions, recorded from outside the package.

``Tracer.patched()`` replaces each target with a wrapper in every qmetro
namespace that bound it (``cli.py`` calls ``from .qfi import
channel_qfi_minimax``, so patching the defining module alone would miss the
CLI's calls), and restores the originals on exit. Spans stay in memory as
(name, start, end, parent, item, ok) and are written out once at the end.
"""
import contextlib
import csv
import gzip
import importlib
import math
import sys
import time
from collections import Counter, defaultdict

# (module, attribute) of every wrapped function or method
TARGETS = (
    ("qfi", "channel_qfi_minimax"),
    ("qfi", "channel_qfi_supremum"),
    ("qfi", "sld_qfi"),
    ("qfi", "two_probe_sld_oracle"),
    ("linalg", "herm_from_params"),
    ("linalg", "projector"),
    ("linalg", "pauli_basis"),
    ("tomography", "simulate_qpt"),
    ("tomography", "reconstruct_chi"),
    ("tomography", "reconstruct_from_probabilities"),
    ("tomography", "poisson_uncertainty"),
    ("tomography", "process_fidelity"),
    ("tomography", "chi_theory"),
    ("tomography", "born_probabilities"),
    ("optics", "build_ad_network"),
    ("optics", "build_pauli_network"),
    ("optics", "extract_channel"),
    ("optics", "element_unitary"),
    ("optics", "solve_pauli_angles"),
    ("estimation", "error_curve"),
    ("estimation", "run_experiment"),
    ("estimation", "estimate_phase"),
    ("estimation", "probabilities"),
    ("estimation", "classical_fisher"),
    ("channels", "PhaseChannelFamily.kraus_at"),
    ("channels", "PhaseChannelFamily.dkraus_at"),
    ("channels", "KrausChannel.apply"),
    ("channels", "KrausChannel.completeness_residual"),
    ("channels", "choi_matrix"),
    ("channels", "kraus_from_choi"),
    ("circuits", "conjugation_residual"),
    ("circuits", "verify_flagged_output"),
    ("circuits", "variance_consistency_check"),
    ("cli", "main"),
    ("cli", "build_parser"),
    ("cli", "format_csv"),
)

MINIMAX = "qfi.channel_qfi_minimax"

# layers whose call counts follow from the item mix alone; only self time is kept
SELF_TIME_ONLY = ("circuits", "cli")


# estimate_phase returns exactly these magnitudes when the arcsine clamps
_CLAMPED = (math.pi / 2, math.pi / 4)


def layer_names():
    """Span names, with the minimax split by its `extended` argument."""
    names = []
    for module, attr in TARGETS:
        name = f"{module}.{attr}"
        if name == MINIMAX:
            names += [f"{name}.bare", f"{name}.extended"]
        else:
            names.append(name)
    return names


def metric_names():
    """Every per-layer metric with its unit, in report order."""
    out = []
    for name in layer_names():
        if not name.startswith(SELF_TIME_ONLY):
            out.append((f"{name}.calls", "count"))
        out.append((f"{name}.self_ms", "ms"))
    out += [
        ("qfi.channel_qfi_supremum.failed", "count"),
        ("tomography.reconstructions_per_dataset", "count"),
        ("estimation.clamp_frac", "fraction"),
        ("cli.import_ms", "ms"),
        ("trace.wall_ms", "ms"),
        ("trace.overhead_frac", "fraction"),
    ]
    return out


class Tracer:
    def __init__(self):
        self.spans = []     # (name, start, end, parent index, item, ok)
        self.item = -1
        self.clamped = 0
        self._stack = []
        self._active = False

    @contextlib.contextmanager
    def paused(self):
        """Calls made by reference checks are not part of the item traffic."""
        self._active = False
        try:
            yield
        finally:
            self._active = True

    def _wrap(self, name, fn):
        minimax = name == MINIMAX
        clamp = name == "estimation.estimate_phase"
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if not self._active:
                return fn(*args, **kwargs)
            label = name
            if minimax:
                extended = kwargs.get("extended", args[1] if len(args) > 1 else True)
                label += ".extended" if extended else ".bare"
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            ok = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (label, start, end, parent, self.item, ok)
            if clamp and abs(result) in _CLAMPED:
                self.clamped += 1
            return result

        return wrapper

    @contextlib.contextmanager
    def patched(self):
        restore = []
        try:
            for module, attr in TARGETS:
                owner = importlib.import_module(f"qmetro.{module}")
                name = f"{module}.{attr}"
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[meth]
                    setattr(cls, meth, self._wrap(name, original))
                    restore.append((cls, meth, original))
                    continue
                original = getattr(owner, attr)
                wrapper = self._wrap(name, original)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name != "qmetro" and not mod_name.startswith("qmetro."):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            restore.append((mod, key, original))
            self._active = True
            yield self
        finally:
            self._active = False
            for owner, key, original in reversed(restore):
                setattr(owner, key, original)

    def self_times(self):
        """Per span name: (calls, failed calls, self seconds).

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly because the loop has one caller.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, failed, self_s = Counter(), Counter(), defaultdict(float)
        for i, (name, start, end, _, _, ok) in enumerate(self.spans):
            calls[name] += 1
            failed[name] += not ok
            self_s[name] += end - start - child[i]
        return calls, failed, self_s

    def metrics(self, wall_s, overhead_frac, import_s):
        calls, failed, self_s = self.self_times()
        out = {}
        for name in layer_names():
            if not name.startswith(SELF_TIME_ONLY):
                out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_ms"] = 1e3 * self_s[name]
        out["qfi.channel_qfi_supremum.failed"] = failed["qfi.channel_qfi_supremum"]
        out["tomography.reconstructions_per_dataset"] = self._reconstructions_per_dataset()
        n_est = calls["estimation.estimate_phase"]
        out["estimation.clamp_frac"] = self.clamped / n_est if n_est else 0.0
        out["cli.import_ms"] = 1e3 * import_s
        out["trace.wall_ms"] = 1e3 * wall_s
        out["trace.overhead_frac"] = overhead_frac
        units = dict(metric_names())
        return {k: {"value": v, "unit": units[k]} for k, v in out.items()}

    def _reconstructions_per_dataset(self):
        """Reconstructions made in items that simulated a dataset, per dataset."""
        datasets, recon = Counter(), Counter()
        for name, _, _, _, item, _ in self.spans:
            if name == "tomography.simulate_qpt":
                datasets[item] += 1
            elif name == "tomography.reconstruct_from_probabilities":
                recon[item] += 1
        total = sum(datasets.values())
        return sum(recon[i] for i in datasets) / total if total else 0.0

    def write(self, path):
        """Spans as gzipped CSV, times in ns from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", newline="") as fh:
            out = csv.writer(fh, lineterminator="\n")
            out.writerow(("name", "start_ns", "end_ns", "parent", "item", "ok"))
            for name, start, end, parent, item, ok in self.spans:
                out.writerow((name, round((start - t0) * 1e9), round((end - t0) * 1e9),
                              parent, item, int(ok)))
