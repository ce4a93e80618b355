"""Benchmark of ipdyn: one workload per call.

    python3 perfbench/run.py --workload cli-batch|warm-sweep \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports ipdyn from ``src/``.
The workload runs in fresh interpreters (worker.py) with a fixed
PYTHONHASHSEED.  With ``--trace 0`` set-up-only workers and one timed
worker run, and the end-to-end metrics are printed.  With
``--trace 1`` one worker alternates untraced and traced rounds, and the
per-layer metrics of the traced ops are printed, together with
``trace.overhead_ms``, the traced minus the untraced median op time.  Every op's output is checked against oracles.py after the
workers have exited.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracles
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench-out"
HASH_SEED = "0"
# setup_s is the median over the timed worker and set-up-only workers:
# at least SETUP_MIN_SAMPLES in all, more while the probes have taken
# less than SETUP_PROBE_S, so that a short set-up gets more samples.
SETUP_MIN_SAMPLES = 3
SETUP_MAX_SAMPLES = 9
SETUP_PROBE_S = 6.0
WORKER_TIMEOUT_S = 150


def reference_loop_ms() -> float:
    """A fixed pure-Python loop, printed so that machine drift can be told
    apart from a change in ipdyn."""
    t = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc + i * i) % 1_000_003
    return (time.perf_counter() - t) * 1000.0


def spawn(workload: str, inputs_file: Path, mode: str, seconds: float = 0.0,
          trace_file: Path | None = None) -> dict:
    work = OUT / f"work-{workload}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    result_file = work / "result.json"
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, str(Path(__file__).with_name("worker.py")),
            "--workload", workload, "--inputs", str(inputs_file),
            "--result", str(result_file), "--mode", mode, "--seconds", str(seconds)]
    if trace_file is not None:
        argv += ["--trace-file", str(trace_file)]
    argv += ["--t0", repr(time.monotonic())]
    proc = subprocess.run(argv, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker for {workload} ({mode}) exited with {proc.returncode}")
    result = json.loads(result_file.read_text(encoding="utf-8"))
    shutil.rmtree(work)
    return result


def check(workload: str, inputs: dict, result: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, unexpected failures) over every op of the
    timed worker; each distinct output is checked once."""
    check_fn = workloads.WORKLOADS[workload][2]
    cache: dict = {}
    verdicts = {
        (key, i): out["error"] if "error" in out else check_fn(inputs, key, out, cache)
        for key, outs in result["outputs"].items()
        for i, out in enumerate(outs)
    }
    failed = 0
    unexpected = set()
    for key, _, index, _ in result["attempts"]:
        reason = verdicts[key, index]
        if reason is not None:
            failed += 1
            if key not in workloads.KNOWN_FAULTS:
                unexpected.add(f"{key}: {reason}")
    return len(result["attempts"]), failed, sorted(unexpected)


def op_times_ms(result: dict, traced: bool = False) -> list[float]:
    """Times of the ops that did not fail on a known fault."""
    return [
        t * 1000.0
        for key, t, _, was_traced in result["attempts"]
        if key not in workloads.KNOWN_FAULTS and was_traced == traced
    ]


def end_to_end(setups: list[float], result: dict) -> dict:
    times = op_times_ms(result)
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "ops_per_s": {"value": len(times) / (sum(times) / 1000.0), "unit": "ops/s"},
        "op_p50_ms": {"value": statistics.median(times), "unit": "ms"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
    }


def per_layer(result: dict) -> dict:
    per_op = result["layers"]
    n_ops = sum(1 for *_, traced in result["attempts"] if traced)
    metrics = {}
    for layer in tracer.SPAN_LAYERS:
        name = layer + ".self_ms"
        total = sum(op.get(name, 0.0) for op in per_op.values())
        metrics[name] = {"value": total / n_ops, "unit": "ms"}
    for name in tracer.COUNTS:
        total = sum(op.get(name, 0.0) for op in per_op.values())
        unit = "bytes" if name.endswith("bytes_written") else "count"
        metrics[name] = {"value": total / n_ops, "unit": unit}
    overhead = (statistics.median(op_times_ms(result, traced=True))
                - statistics.median(op_times_ms(result)))
    metrics["trace.overhead_ms"] = {"value": overhead, "unit": "ms"}
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "ipdyn" / "__init__.py").is_file():
        print(f"error: no ipdyn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    oracles.selftest()
    OUT.mkdir(exist_ok=True)
    inputs = workloads.WORKLOADS[args.workload][0](args.seed)
    inputs_file = OUT / f"inputs-{args.workload}.json"
    inputs_file.write_text(json.dumps(inputs), encoding="utf-8")

    ref_before = reference_loop_ms()
    if args.trace == 0:
        setups = []
        probing = time.monotonic()
        while len(setups) < SETUP_MIN_SAMPLES - 1 or (
            len(setups) < SETUP_MAX_SAMPLES - 1
            and time.monotonic() - probing < SETUP_PROBE_S
        ):
            setups.append(spawn(args.workload, inputs_file, "setup")["setup_s"])
        result = spawn(args.workload, inputs_file, "run", args.seconds)
        metrics = end_to_end(setups + [result["setup_s"]], result)
    else:
        trace_file = OUT / f"trace-{args.workload}.jsonl"
        result = spawn(args.workload, inputs_file, "run", args.seconds, trace_file)
        metrics = per_layer(result)
    ref_after = reference_loop_ms()

    attempted, failed, unexpected = check(args.workload, inputs, result)
    for line in unexpected:
        print(f"wrong output: {line}")
    print(f"reference loop: {ref_before:.1f} ms before, {ref_after:.1f} ms after")
    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if not unexpected else 1


if __name__ == "__main__":
    sys.exit(main())
