"""perfbench/tracer.py against the library it patches.

The tracer replaces library functions and methods by name, so a renamed
or moved attribute breaks every traced benchmark run; here each one it
patches must exist, be replaced while installed and be the original
object again once uninstalled.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_install_patches_and_uninstall_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    traced = tracer.Tracer()
    try:
        traced.install()  # an attribute that is gone raises KeyError here
        patched = list(traced._restore)
        assert patched
        for owner, attr, original in patched:
            assert vars(owner)[attr] is not original, attr
    finally:
        traced.uninstall()
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original, attr
