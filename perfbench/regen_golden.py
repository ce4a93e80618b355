"""Regenerate the golden copies of the pet-trace and weights outputs.

    python3 perfbench/regen_golden.py

Run it from the root of a checkout.  ``pet-trace`` and ``weights`` have
no simple independent oracle, so cli-batch compares their output files
byte for byte with the copies in ``perfbench/golden/``; rerun this only
when a change to their output is intended, and review the diff.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from ipdyn import cli  # noqa: E402


def main() -> int:
    golden = HERE / "golden"
    golden.mkdir(exist_ok=True)
    scratch = HERE.parent / "perfbench-out"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as out:
        for command in ("pet-trace", "weights"):
            code = cli.main([command, "--config", str(HERE / "configs" / "gamma.cfg"), "--out", out])
            if code != 0:
                return code
            for suffix in (".csv", ".txt"):
                shutil.copyfile(Path(out) / (command + suffix), golden / (command + suffix))
    return 0


if __name__ == "__main__":
    sys.exit(main())
