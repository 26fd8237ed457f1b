"""The benchmark harness under qbench/ patches qmetro functions by name; every
name it lists must still exist on the package, and its workloads must still
import against it. The package itself imports only numpy, and only what it
uses. README names nothing that the code has lost."""
import ast
import importlib
import json
import os
import re
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


def test_every_import_is_used():
    # __init__ imports to re-export; every other module imports what it calls
    unused = []
    for path in sorted((ROOT / "src" / "qmetro").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        unused.append(f"{path.name}: {name}")
    assert unused == []


def test_every_private_name_is_used():
    # a private module-level name is a leftover unless its own module reads
    # it, another module imports it from there, or some module reads it as an
    # attribute; public names may serve callers outside the package
    trees = {p.stem: ast.parse(p.read_text())
             for p in sorted((ROOT / "src" / "qmetro").glob("*.py"))}
    attrs, imported = set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                imported |= {(node.module, alias.name) for alias in node.names}
    unused = []
    for module, tree in trees.items():
        reads = {node.id for node in ast.walk(tree)
                 if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for target in targets for t in ast.walk(target)
                           if isinstance(t, ast.Name)]
            else:
                continue
            unused += [f"{module}.py: {name}" for name in defined
                       if name.startswith("_") and not name.startswith("__")
                       and name not in reads | attrs and (module, name) not in imported]
    assert unused == []


def test_readme_names_occur_in_the_code():
    # a backticked identifier with an underscore, or in capitals of 4 or more
    # letters, is a name of the code; each must occur in src/ or tests/, in a
    # file's text or as its path, so a renamed or deleted one cannot linger
    word = r"[A-Za-z_][A-Za-z0-9_]*"
    spans = re.findall(r"`([^`\n]+)`", (ROOT / "README.md").read_text())
    names = {t for span in spans for t in re.findall(word, span)
             if "_" in t or (t.isupper() and sum(ch.isalpha() for ch in t) >= 4)}
    files = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py"))
    code = set(re.findall(word, "\n".join(f"{p.relative_to(ROOT)}\n{p.read_text()}"
                                          for p in files)))
    assert names and sorted(names - code) == []
