"""The package namespace: what `import mtfan` exports."""

import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import mtfan

README = Path(__file__).resolve().parents[1] / "README.md"


def test_star_import_gives_exactly_the_exported_names():
    """Every name in __all__ resolves once, and `import *` brings in
    nothing else."""
    assert len(set(mtfan.__all__)) == len(mtfan.__all__)
    namespace = {}
    exec("from mtfan import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(mtfan.__all__)


def test_readme_imports_only_exported_names():
    blocks = re.findall(
        r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S
    )
    imported = {
        alias.name
        for block in blocks
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom) and node.module == "mtfan"
        for alias in node.names
    }
    assert imported
    assert imported <= set(mtfan.__all__), imported - set(mtfan.__all__)


def test_the_build_and_its_queries_leave_the_definition_module_unloaded():
    """The definition routes in mtfan.stability serve the oracle only."""
    script = """
import sys
import mtfan
mtf = mtfan.build_mtf_fan(mtfan.preset_module("square-lambda"))
mtf.wall
mtfan.fan_paths(mtf)
loaded = sorted(m for m in sys.modules if m.startswith("mtfan"))
assert "mtfan.stability" not in loaded, loaded
print("ok")
"""
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


def _loaded_after(code):
    """The mtfan modules, and `dataclasses` and `inspect` if loaded, in a
    fresh interpreter that has run code."""
    script = code + """
import sys
print(*sorted(m for m in sys.modules
              if m.startswith("mtfan") or m in ("dataclasses", "inspect")))
"""
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


@pytest.mark.parametrize(
    "argv",
    [
        ["newton"],
        ["fan"],
        ["wall"],
        ["classify", "--theta=1,2"],
        ["paths"],
        ["verify", "--grid-bound", "0"],
        ["svg"],
    ],
    ids=lambda argv: argv[0],
)
def test_each_subcommand_loads_only_the_layers_it_runs(argv):
    """Only verify loads the oracle and the definition module, only svg
    the renderer, newton no fan; no subcommand loads dataclasses or
    inspect."""
    argv = [*argv, "--preset", "a2-P1", "--output", os.devnull]
    loaded = _loaded_after(f"from mtfan.cli import main\nassert main({argv!r}) == 0")
    command = argv[0]
    assert "mtfan.sublattice" in loaded
    assert ("mtfan.fan" in loaded) == (command != "newton")
    assert ("mtfan.oracle" in loaded) == (command == "verify")
    assert ("mtfan.stability" in loaded) == (command == "verify")
    assert ("mtfan.svg" in loaded) == (command == "svg")
    assert not loaded & {"dataclasses", "inspect"}, loaded


@pytest.mark.parametrize("module", ["mtfan", "mtfan.serialize", "mtfan.cli"])
def test_importing_the_package_loads_no_geometry(module):
    """The exports of `mtfan` load on first use, so neither the package
    nor the modules that read a module document load the fan or the
    polytopes."""
    loaded = _loaded_after(f"import {module}")
    assert module in loaded
    assert not loaded & {
        "mtfan.fan", "mtfan.polyhedra", "dataclasses", "inspect"
    }, loaded


def test_the_package_keeps_no_memo():
    """No `functools.lru_cache` or `functools.cache` in the package, on a
    module function or a method.  The fan keeps the lattice it was built
    from, and the oracle's lattices, order tables and subquotients live in
    a table of each pass."""
    for info in pkgutil.iter_modules(mtfan.__path__):
        importlib.import_module(f"mtfan.{info.name}")
    modules = [mod for name, mod in sys.modules.items() if name.startswith("mtfan.")]
    namespaces = [vars(mod) for mod in modules] + [
        vars(obj)
        for mod in modules
        for obj in vars(mod).values()
        if isinstance(obj, type) and obj.__module__ == mod.__name__
    ]
    memos = [
        f"{fn.__module__}.{fn.__qualname__}"
        for namespace in namespaces
        for fn in namespace.values()
        if hasattr(fn, "cache_parameters")
    ]
    assert memos == []
