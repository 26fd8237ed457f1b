"""The benchmark harness under qbench/ patches qmetro functions by name; every
name it lists must still exist on the package, and its workloads must still
import against it. The package itself imports only numpy."""
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
QBENCH = ROOT / "qbench"


def test_tracing_targets_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(QBENCH))
    tracing = importlib.import_module("tracing")
    assert tracing.TARGETS
    for module, attr in tracing.TARGETS:
        owner = importlib.import_module(f"qmetro.{module}")
        if "." in attr:
            # methods are patched on the class that defines them
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(owner, cls_name)), f"{module}.{attr}"
        else:
            assert callable(getattr(owner, attr, None)), f"{module}.{attr}"


def test_benchmark_workloads_import(monkeypatch):
    # workloads binds qmetro names (qfi.ConvergenceError among them) at import
    monkeypatch.syspath_prepend(str(QBENCH))
    workloads = importlib.import_module("workloads")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    assert list(workloads.WORKLOADS) == [w["name"] for w in declared]


def test_cli_import_loads_no_scipy():
    code = ("import sys, qmetro.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout == "[]\n"
