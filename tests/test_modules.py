"""Module-level contracts: the compile budget of every library module,
and the language-engine names ``dynamics`` re-exports."""

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


ENGINE = (
    "BadRules",
    "Column",
    "SubstitutionSystem",
    "WindowTooLarge",
    "_CERTIFIED_WIDTH",
    "_CERTIFY_SEARCH",
    "_EXPANSION_MARGIN",
    "_Expansion",
    "_MIN_EXPANSION",
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
