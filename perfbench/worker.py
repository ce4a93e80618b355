"""One workload in a fresh interpreter; started by run.py.

    python3 perfbench/worker.py --workload NAME --inputs FILE --result FILE
        --t0 MONOTONIC --mode setup|run [--seconds S] [--trace-file FILE]

Set-up (import, config parsing, building the systems, the untimed
warm-up) runs first; ``setup_s`` is the time from ``--t0``, taken by
run.py just before it started this interpreter, to the first timed op.
``--mode setup`` stops there.  ``--mode run`` then runs whole rounds of
ops until ``--seconds`` have passed, with ``gc.collect()`` between ops
outside the timed interval, and writes op times, distinct outputs per
op key and the peak resident set to ``--result``.  With
``--trace-file`` the ipdyn layers are wrapped (see tracer.py) during
set-up and every second round, so that traced and untraced ops share
one process and one stretch of time; the per-op layer figures of the
traced ops go into the result and the spans into that file.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from pathlib import Path

import workloads
from tracer import Tracer


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace-file")
    args = parser.parse_args()

    inputs = json.loads(Path(args.inputs).read_text(encoding="utf-8"))
    scratch = Path(args.result).parent
    tracer = Tracer() if args.trace_file else None
    if tracer is not None:
        tracer.install()
    worker = workloads.WORKLOADS[args.workload][1](inputs, scratch, tracer)
    worker.setup()
    worker.warmup()
    gc.collect()
    setup_s = time.monotonic() - args.t0
    result: dict = {"setup_s": setup_s}
    if args.mode == "run":
        result.update(_timed_rounds(worker, args.seconds, tracer))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            result["layers"] = tracer.per_op()
            tracer.write(args.trace_file)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


def _timed_rounds(worker, seconds: float, tracer) -> dict:
    attempts = []  # [key, seconds, index into outputs[key], traced]
    outputs: dict[str, list] = {}
    start = time.perf_counter()
    traced = True
    while True:
        if tracer is not None:
            traced = not traced
            if traced:
                tracer.install()
            else:
                tracer.uninstall()
        for key, prepare in worker.round():
            run, finish = prepare()
            gc.collect()
            if tracer is not None and traced:
                tracer.op = len(attempts)
            t = time.perf_counter()
            try:
                raw = run()
            except Exception as exc:  # a failed op is counted, not fatal
                elapsed = time.perf_counter() - t
                output = {"error": repr(exc)}
            else:
                elapsed = time.perf_counter() - t
                output = finish(raw)
            if tracer is not None:
                tracer.op = None
            seen = outputs.setdefault(key, [])
            if output not in seen:
                seen.append(output)
            attempts.append([key, elapsed, seen.index(output), tracer is not None and traced])
        if time.perf_counter() - start >= seconds and (tracer is None or traced):
            if tracer is not None:
                tracer.uninstall()
            return {"attempts": attempts, "outputs": outputs}


if __name__ == "__main__":
    sys.exit(main())
