"""The benchmark harness under qbench/ patches qmetro functions by name; every
name it lists must still exist on the package."""
import importlib
from pathlib import Path

QBENCH = Path(__file__).resolve().parent.parent / "qbench"


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
