"""Module-level contracts: the compile budget of every library module,
the standard modules an import leaves out, the language-engine names
``dynamics`` re-exports, and a caller for every private helper."""

import ast
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import ipdyn
from ipdyn import config, dynamics, substitution

MODULES = sorted(Path(ipdyn.__file__).parent.glob("*.py"))

# Where bytecode may not be written (PYTHONDONTWRITEBYTECODE=1, a
# read-only install), every process compiles each module it imports from
# source, and the compiler's transient memory sets a cold CLI run's peak
# RSS.  The peak grows with a module's code lines, not its docstrings:
# dynamics.py at 1170 lines, with the language engine still in it, read
# 2.77 MiB on CPython 3.10/3.11 and 3.34 MiB on 3.12/3.13.  A module past
# the budget is split; raising the budget is a CHANGES.md entry that gives
# the measured peak.
COMPILE_BUDGET = int(2.25 * 2**20)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_compile_peak_within_budget(path):
    source = path.read_bytes()
    tracemalloc.start()
    try:
        compile(source, str(path), "exec", dont_inherit=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= COMPILE_BUDGET, f"{path.name}: {peak / 2**20:.2f} MiB"


# ``dataclasses`` compiles each decorated class's methods with exec at
# every start and loads ``inspect`` (with ``dis``, ``tokenize``,
# ``linecache`` and ``copy``) to do it: for 18 value types, about 20 ms
# and 0.8 MB of peak memory per CLI process on CPython 3.11.
# ``_record.Record`` stands in for it.  ``argparse`` (with ``gettext``)
# takes about 2.4 ms under ``python -S -X importtime`` on CPython 3.11
# (2 vCPU): a well-formed command line is read without it (``cli._read``).
SLOW_TO_IMPORT = {"argparse", "dataclasses", "inspect"}


@pytest.mark.parametrize("module", ["ipdyn", "ipdyn.cli"])
def test_import_leaves_out_dataclasses_and_inspect(module):
    # a fresh interpreter without site (-S), which may import either itself
    src = str(Path(ipdyn.__file__).parent.parent)
    code = f"import sys; sys.path.insert(0, {src!r}); import {module}; print(*sys.modules)"
    run = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    )
    assert not SLOW_TO_IMPORT & set(run.stdout.split())


ENGINE = (
    "BadRules",
    "Column",
    "SubstitutionSystem",
    "WindowTooLarge",
    "_Occurrences",
    "chacon",
    "fibonacci",
)


def test_dynamics_re_exports_the_engine():
    for name in ENGINE:
        assert getattr(dynamics, name) is getattr(substitution, name), name
    assert ipdyn.SubstitutionSystem is substitution.SubstitutionSystem
    built = config.build_system({"rules": "0 -> 01; 1 -> 0"})
    assert type(built) is dynamics.SubstitutionSystem


def _loaded(node, skip=None):
    """Every bare name read under ``node``, outside the subtree ``skip``."""
    if node is skip:
        return
    if isinstance(node, ast.Name):
        yield node.id
    for child in ast.iter_child_nodes(node):
        yield from _loaded(child, skip)


def test_every_private_helper_has_a_caller():
    """A module-level ``_`` function or class is read in its own module,
    outside its own body, or imported by name into a module that reads
    it; a helper whose last caller was deleted is deleted with it."""
    trees = {path.stem: ast.parse(path.read_bytes()) for path in MODULES}
    imports = {
        (node.module, alias.name, importer)
        for importer, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if not name.startswith("_") or name.endswith("__"):
                continue
            callers = [m for mod, n, m in imports if (mod, n) == (module, name)]
            if name not in _loaded(tree, node) and not any(
                name in _loaded(trees[m]) for m in callers
            ):
                unused.append(f"{module}.{name}")
    assert not unused, f"no reader in src/ipdyn: {unused}"
