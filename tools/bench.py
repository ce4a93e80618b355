"""Paired benchmark runs of a parent revision against this checkout.

    python3 tools/bench.py --parent REV --out BENCH_<n>.json \
        [--seed 101] [--workdir DIR]

Runs ``perfbench/run.py``, unchanged, from two trees: the committed files
of ``REV`` (exported with ``git archive`` into ``--workdir``) and this
checkout as it stands.  Each pair runs both trees once for ``SECONDS``
with ``--trace 0`` on one seed, the side that runs first alternating
from pair to pair; seeds count up from ``--seed``, one per pair, and
``PAIRS`` sets how many pairs each workload runs.  One pair of
``--trace 1`` runs of ``cli-batch`` follows, for the per-layer metrics.

The JSON file records the machine, every run (its seed, metrics, failed
and attempted ops and reference-loop readings), and per workload and
end-to-end metric each side's median and quartiles, the change's wins
(a tie counts for neither side), the relative change of the medians,
the metric's bound from BENCHMARK.json, and whether a gain is shown:
ten pairs or more, the change winning at least nine in ten, and
medians that differ by more than the distance between the parent's
quartiles.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = {"cli-batch": 10, "warm-sweep": 5}
SECONDS = 45.0
REFERENCE = re.compile(r"reference loop: ([\d.]+) ms before, ([\d.]+) ms after")


def export(rev: str, into: Path) -> Path:
    """The committed files of ``rev`` under ``into``/parent."""
    tree = into / "parent"
    shutil.rmtree(tree, ignore_errors=True)
    tree.mkdir(parents=True)
    archive = subprocess.run(
        ["git", "archive", rev], cwd=ROOT, check=True, capture_output=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)
    return tree


def run(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    before, after = map(float, REFERENCE.search(proc.stdout).groups())
    return {
        "seed": seed,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "reference_loop_ms": [before, after],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def pairs(trees: dict, workload: str, count: int, seeds, seconds: float,
          trace: int) -> list[dict]:
    done = []
    for i, seed in zip(range(count), seeds):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        pair = {"first": order[0]}
        for side in order:
            pair[side] = run(trees[side], workload, seed, seconds, trace)
            metrics = pair[side]["metrics"]
            print(f"{workload} pair {i + 1}/{count} seed {seed} {side}: "
                  + ", ".join(f"{k}={v:.4g}" for k, v in metrics.items()
                              if trace or k in ("ops_per_s", "op_p50_ms")),
                  file=sys.stderr, flush=True)
        done.append(pair)
    return done


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summary(runs: list[dict], metrics: list[dict]) -> dict:
    table = {}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        sides = {
            side: [pair[side]["metrics"][name] for pair in runs]
            for side in ("parent", "change")
        }
        wins = sum(
            (c < p) if lower else (c > p)
            for p, c in zip(sides["parent"], sides["change"])
        )
        parent, change = quartiles(sides["parent"]), quartiles(sides["change"])
        spread = parent["q3"] - parent["q1"]
        delta = change["median"] - parent["median"]
        table[name] = {
            "parent": parent,
            "change": change,
            "wins": wins,
            "pairs": len(runs),
            "relative_change": delta / parent["median"],
            "bound": metric["bound"],
            "gain_shown": (
                len(runs) >= 10
                and wins >= 0.9 * len(runs)
                and abs(delta) > spread
                and (delta < 0) == lower
            ),
        }
    return table


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="revision to compare with")
    parser.add_argument("--out", required=True, help="the JSON file to write")
    parser.add_argument("--seed", type=int, default=101, help="the first pair's seed")
    parser.add_argument("--workdir", help="where the parent tree goes (default: a temp dir)")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workdir = Path(args.workdir or tempfile.mkdtemp(prefix="ipdyn-bench-"))
    trees = {"parent": export(args.parent, workdir), "change": ROOT}
    parent_rev = subprocess.run(
        ["git", "rev-parse", args.parent], cwd=ROOT, check=True,
        capture_output=True, text=True,
    ).stdout.strip()
    report = {
        "parent": parent_rev,
        "change": "this checkout's working tree",
        "machine": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "cpus": os.cpu_count(),
        },
        "seconds": SECONDS,
        "workloads": {},
    }
    for workload, count in PAIRS.items():
        seeds = range(args.seed, args.seed + count)
        runs = pairs(trees, workload, count, seeds, SECONDS, trace=0)
        report["workloads"][workload] = {
            "seeds": list(seeds),
            "summary": summary(runs, bench["end_to_end"]),
            "runs": runs,
        }
    traced = pairs(trees, "cli-batch", 1, [args.seed], SECONDS, trace=1)
    report["workloads"]["cli-batch"]["traced"] = traced
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    if not args.workdir:
        shutil.rmtree(workdir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
