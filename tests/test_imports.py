"""Import hygiene: no unused module-level import, and a light CLI import."""

import ast
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from wormsim import _native

ROOT = Path(__file__).resolve().parents[1]


def _unused_imports(tree: ast.Module):
    """(line, name) of each name a top-level import binds that the module never reads.

    A name listed in the module's ``__all__`` is exported, so it counts as read.
    """
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_unused_import_finder():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\nimport numpy as np\nfrom typing import Optional, Any\n"
        "from .core import A, B\n"
        "__all__ = ['B']\n"
        "def f(x: Any):\n    return np.sum(x)\n"
    )
    assert _unused_imports(tree) == [(2, "os"), (4, "Optional"), (5, "A")]


def test_no_unused_module_level_imports():
    sources = sorted(path for top in ("src", "tests", "demos") for path in (ROOT / top).rglob("*.py"))
    assert len(sources) > 20
    unused = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in sources
        for line, name in _unused_imports(ast.parse(path.read_text(), str(path)))
    ]
    assert unused == []


def test_cli_import_loads_neither_numpy_random_nor_yaml():
    # numpy.random alone costs about 29 ms and 5.5 MB per CLI call; the
    # stochastic engine, its compiled-kernel loader and the YAML reader
    # are imported when first used.
    probe = ("import sys, wormsim.cli; "
             "print(sorted({'numpy.random', 'yaml', 'wormsim._native'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert proc.stdout.strip() == "[]"


@pytest.mark.skipif(shutil.which("cc") is None, reason="needs cc")
def test_patched_run_on_an_existing_build_loads_no_subprocess():
    # Only a build runs the compiler, so a patched run that reuses the
    # current library imports no subprocess (about 5 ms after numpy).
    assert _native._build(_native._C_SOURCE) is not None  # the library exists
    probe = ("import sys; from wormsim import core, stochastic; "
             "params = core.ScenarioParams(n_hosts=100, virulence=1.0, i0=5, "
             "defense=core.DefenseKind.PEER_TO_PEER, gamma=2.0, p_bar=2); "
             "stochastic.simulate(params, stochastic.StochasticConfig(t_end_itu=1.0, seed=0)); "
             "print(stochastic._patched_block() is not stochastic._block, "
             "'subprocess' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert proc.stdout.split() == ["True", "False"]  # compiled, and no subprocess
