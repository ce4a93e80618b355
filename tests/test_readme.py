"""The README's code runs: a removed or renamed export fails here."""

from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_tour_runs():
    tour = README.read_text().split("## Library quick tour", 1)[1]
    code = tour.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, f"{README}:Library quick tour", "exec"), {})
