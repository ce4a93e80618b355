"""The workloads.

Each has three parts: ``inputs(seed)`` makes the run's inputs (in
run.py, before any worker starts); a ``*Worker`` class sets up and
yields the ops the worker times; ``check_*`` tests one op's output
against the oracles (in run.py, after the worker has exited).

An op is handed out as ``prepare() -> (run, finish)``: only ``run`` is
timed, ``prepare`` and ``finish`` make and read temporary directories
and turn results into JSON.
"""

from __future__ import annotations

import ast
import csv
import io
import random
import shutil
import tempfile
from pathlib import Path

import oracles

HERE = Path(__file__).resolve().parent
CONFIGS = HERE / "configs"
GOLDEN = HERE / "golden"

LANGUAGES = {
    "chacon": (oracles.CHACON, "0"),
    "fib": (oracles.FIBONACCI, "0"),
}

# Ops whose failure is a known fault of the program, counted in
# ``failed`` without making the run incorrect.
KNOWN_FAULTS = {
    # The language is read off a 32x-margin expansion, so 1^k with
    # k >= 4 is missing although sigma^k(0) ends in 1^k.
    "slow-recurrence",
}


def poly_text(coeffs) -> str:
    """[0, 1, 1] -> 'n^2 + n' in the program's polynomial syntax."""
    terms = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if not c:
            continue
        var = "" if k == 0 else ("n" if k == 1 else f"n^{k}")
        terms.append(f"{c}{var}" if c != 1 or not var else var)
    return " + ".join(terms) or "0"


def _language(system: str, cache: dict) -> oracles.Language:
    if system not in cache:
        cache[system] = oracles.Language(*LANGUAGES[system])
    return cache[system]


def _oracle_members(system, u, vs, polys, window, cache) -> frozenset[int]:
    key = (system, u, tuple(vs), tuple(map(tuple, polys)), window)
    if key not in cache:
        cache[key] = _language(system, cache).poly_members(u, vs, polys, window)
    return cache[key]


# -- cli-batch ----------------------------------------------------------------

# name -> (argv without --out, what the output is checked against)
CLI_BATCH = {
    "return-chacon": (
        ["return-set", "--config", "return-chacon.cfg"],
        ("members", "chacon", "0010001", ["1001"], [[0, 1]], 600),
    ),
    "return-fibonacci": (
        ["return-set", "--config", "return-fibonacci.cfg"],
        ("members", "fib", "01001010", ["1001"], [[0, 1]], 600),
    ),
    "poly-linear": (
        ["poly-return", "--config", "poly-linear.cfg"],
        ("members", "chacon", "0010", ["1001", "0010"], [[0, 1], [0, 2]], 300),
    ),
    "poly-quadratic": (
        ["poly-return", "--config", "poly-quadratic.cfg"],
        ("members", "fib", "0100", ["1001", "0010"], [[0, 0, 1], [0, 1, 1]], 25),
    ),
    "mixing-report": (
        ["mixing-report", "--config", "mixing.cfg"],
        ("mixing", "chacon", "0010001", ["1001", "0100"], [[0, 1], [0, 2]], 250,
         {"F1": (1, 3, 9), "F2": (2, 7, 31, 64), "F3": (1, 4, 10)}),
    ),
    "lemma213": (
        ["lemma213", "--config", "lemma213.cfg"],
        ("lemma213", "chacon", 4, 2),
    ),
    "pet-trace": (["pet-trace", "--config", "gamma.cfg"], ("golden",)),
    "weights": (["weights", "--config", "gamma.cfg"], ("golden",)),
    "fs": (
        ["fs", "--config", "small.cfg"],
        ("fs", (1, 3, 9, 27, 81, 243, 729, 2187, 6561)),
    ),
    "hindman": (["hindman", "--config", "small.cfg"], ("hindman", 9, 3, 2)),
    "density": (["density", "--config", "small.cfg"], ("density", 0, 20000, 500)),
}


def cli_batch_inputs(seed: int) -> dict:
    """The invocations are fixed; the seed only sets their order."""
    order = sorted(CLI_BATCH)
    random.Random(seed).shuffle(order)
    return {"order": order}


def cli_argv(name: str, out: str) -> list[str]:
    argv, _ = CLI_BATCH[name]
    return [argv[0], argv[1], str(CONFIGS / argv[2]), "--out", out]


class CliBatchWorker:
    """One op: every invocation of ``CLI_BATCH`` through ipdyn.cli.main,
    each into a fresh temporary directory."""

    def __init__(self, inputs, scratch: Path, tracer):
        self.order = inputs["order"]
        self.scratch = scratch
        self.tracer = tracer

    def setup(self) -> None:
        from ipdyn import cli

        self.cli = cli

    def round(self):
        return [("op", self._prepare)]

    def warmup(self) -> None:
        run, finish = self._prepare()
        finish(run())

    def _prepare(self):
        dirs = [tempfile.mkdtemp(dir=self.scratch) for _ in self.order]
        cli = self.cli

        def run():
            return [
                cli.main(cli_argv(name, out)) for name, out in zip(self.order, dirs)
            ]

        def finish(codes):
            result = {}
            for name, out, code in zip(self.order, dirs, codes):
                files = {
                    p.name: p.read_text(encoding="utf-8")
                    for p in sorted(Path(out).iterdir())
                }
                if self.tracer is not None:
                    self.tracer.count(
                        "cli.bytes_written",
                        sum(p.stat().st_size for p in Path(out).iterdir()),
                    )
                shutil.rmtree(out)
                result[name] = {"exit": code, "files": files}
            return result

        return run, finish


def _check_invocation(name: str, got: dict, cache: dict) -> str | None:
    """None when the invocation's output is right, else the reason."""
    argv, spec = CLI_BATCH[name]
    if got["exit"] != 0:
        return f"exit code {got['exit']}"
    files = got["files"]
    kind = spec[0]
    if kind == "golden":
        for fname in (f"{argv[0]}.csv", f"{argv[0]}.txt"):
            if files.get(fname) != (GOLDEN / fname).read_text(encoding="utf-8"):
                return f"{fname} differs from golden/{fname}"
        return None
    rows = list(csv.reader(io.StringIO(files[f"{argv[0]}.csv"])))
    if kind == "members":
        _, system, u, vs, polys, window = spec
        if rows[0] != ["n", "member"]:
            return "bad header"
        if [int(r[0]) for r in rows[1:]] != list(range(-window, window + 1)):
            return "rows are not -W..W"
        if any(r[1] not in ("0", "1") for r in rows[1:]):
            return "member is not 0/1"
        members = frozenset(int(r[0]) for r in rows[1:] if r[1] == "1")
        if members != _oracle_members(system, u, vs, polys, window, cache):
            return "members differ from the occurrence scan"
        return None
    if kind == "mixing":
        _, system, u, vs, polys, window, truncations = spec
        oracle = _oracle_members(system, u, vs, polys, window, cache)
        if [r[0] for r in rows[1:]] != sorted(truncations):
            return "truncation rows"
        for tname, status, alpha, value in rows[1:]:
            gens = truncations[tname]
            expected = oracles.first_witness(gens, oracle)
            if status == "witness":
                idx = tuple(int(i) for i in alpha.split("|"))
                total = sum(gens[i - 1] for i in idx)
                if total != int(value) or total not in oracle:
                    return f"{tname}: witness {alpha}={value} is not in the set"
                if expected != (idx, total):
                    return f"{tname}: witness is not the first in bitmask order"
            elif status == "inconclusive":
                if expected is not None:
                    return f"{tname}: inconclusive but {expected} meets the set"
            else:
                return f"{tname}: status {status!r}"
        return None
    if kind == "lemma213":
        _, system, depth, n_cyl = spec
        lang = _language(system, cache)
        levels = [
            line for line in files["lemma213.txt"].splitlines() if line.startswith("level ")
        ]
        if len(levels) != (depth + 1) * n_cyl:
            return f"{len(levels)} level lines"
        for line in levels:
            patterns = [ast.literal_eval(p) for p in line.split(": ", 1)[1].split("; ")]
            if not any(lang.pattern_realized(p) for p in patterns):
                return f"not realized in the prefix: {line}"
        if "containments verified = True" not in files["lemma213.txt"]:
            return "containments not verified"
        expected_rows = sum((n + 1) * n_cyl for n in range(depth + 1))
        if len(rows) - 1 != expected_rows or any(r[3] != "1" for r in rows[1:]):
            return "containment rows"
        return None
    if kind == "fs":
        gens = spec[1]
        table = {
            tuple(int(i) for i in alpha.split("|")): int(value) for alpha, value in rows[1:]
        }
        if table != dict(oracles.subset_sums(gens)):
            return "finite sums differ"
        return None
    if kind == "hindman":
        _, n_max, colors, depth = spec
        return _check_hindman(rows[1], n_max, colors, depth)
    if kind == "density":
        _, lo, hi, length = spec
        upper, lower = oracles.square_densities(lo, hi, length)
        want = [str(length), str(upper), str(lower)]
        return None if rows[1] == want else f"density {rows[1]} != {want}"
    raise ValueError(kind)


def _check_hindman(row, n_max: int, colors: int, depth: int) -> str | None:
    status, detail = row
    if depth == 2 and (status == "verified") != oracles.schur_verified(n_max, colors):
        return f"{status} contradicts S({colors}) = {oracles.SCHUR[colors]}"
    if status == "verified":
        if detail != f"colorings={colors ** n_max}":
            return f"verified with {detail}"
        if oracles.lex_least_free_coloring(n_max, colors, depth) is not None:
            return "verified, but a free colouring exists"
        return None
    coloring = tuple(int(c) for c in detail.split(","))
    if len(coloring) != n_max or not oracles.fs_free(coloring, depth):
        return f"{detail} has a monochromatic finite-sums set"
    if coloring != oracles.lex_least_free_coloring(n_max, colors, depth):
        return f"{detail} is not the lex-least free colouring"
    return None


def check_cli_batch(inputs, key, output, cache) -> str | None:
    if sorted(output) != sorted(CLI_BATCH):
        return "missing invocations"
    reasons = [
        f"{name}: {reason}"
        for name in inputs["order"]
        if (reason := _check_invocation(name, output[name], cache)) is not None
    ]
    return "; ".join(reasons) or None


# -- warm-sweep -------------------------------------------------------------------

# (system, polynomials, window), sized so that every query scans a
# similar number of (position, factor) pairs: spans run from about 370
# (plain Chacon) to about 2600 (quadratic Fibonacci).
WARM_SLOTS = (
    ("chacon", [[0, 1]], 360),
    ("chacon", [[0, 1], [0, 2]], 220),
    ("chacon", [[0, 0, 1], [0, 1, 1]], 44),
    ("fib", [[0, 1]], 520),
    ("fib", [[0, 1], [0, 2]], 320),
    ("fib", [[0, 0, 1], [0, 1, 1]], 50),
)
WARM_PER_SLOT = 4
WORD_LENGTHS = (7, 6)  # u, each v: fixed, so every seed indexes the same lengths
SLOW_QUERY = {
    "key": "slow-recurrence", "system": "slow", "u": "1", "vs": ["1"],
    "polys": [[0, 1]], "window": 200,
}


def warm_sweep_inputs(seed: int) -> dict:
    """Cylinder words drawn from the admissible language for every slot;
    the slow-recurrence query does not depend on the seed."""
    rng = random.Random(seed)
    words = {
        (system, length): oracles.Language(*spec).words(length)
        for system, spec in LANGUAGES.items()
        for length in set(WORD_LENGTHS)
    }
    u_len, v_len = WORD_LENGTHS
    queries = []
    for _ in range(WARM_PER_SLOT):
        for system, polys, window in WARM_SLOTS:
            queries.append({
                "key": f"q{len(queries):02d}", "system": system,
                "u": rng.choice(words[system, u_len]),
                "vs": [rng.choice(words[system, v_len]) for _ in polys],
                "polys": polys, "window": window,
            })
    queries.append(SLOW_QUERY)
    return {"queries": queries}


class WarmSweepWorker:
    """One long-lived system per substitution; one op is one query."""

    def __init__(self, inputs, scratch: Path, tracer):
        self.queries = inputs["queries"]

    def setup(self) -> None:
        from ipdyn import config, dynamics, intpoly

        self.dynamics = dynamics
        cfg = config.parse_config((CONFIGS / "systems.cfg").read_text(encoding="utf-8"))
        self.plans = {}
        for q in self.queries:
            system = cfg.systems[q["system"]]
            u = dynamics.CylinderSet(q["u"])
            vs = [dynamics.CylinderSet(v) for v in q["vs"]]
            polys = [intpoly.parse_polynomial(poly_text(p)) for p in q["polys"]]
            self.plans[q["key"]] = (system, u, vs, polys, q["window"])

    def warmup(self) -> None:
        """Fill the factor cache for every query, then answer one."""
        for system, u, vs, polys, window in self.plans.values():
            for cyl in [u] + vs:
                system.is_admissible(cyl.word)
            system.factors(self.dynamics.required_span(polys, u, vs, window))
        self._prepare(self.queries[0]["key"])[0]()

    def round(self):
        return [(q["key"], lambda key=q["key"]: self._prepare(key)) for q in self.queries]

    def _prepare(self, key):
        system, u, vs, polys, window = self.plans[key]
        dynamics = self.dynamics

        def run():
            if len(vs) == 1:
                return dynamics.return_set(system, u, vs[0], window)
            return dynamics.poly_return_set(system, u, vs, polys, window)

        return run, lambda result: sorted(result.members)


def check_warm_sweep(inputs, key, output, cache) -> str | None:
    q = next(q for q in inputs["queries"] if q["key"] == key)
    if q["system"] == "slow":
        want = oracles.slow_recurrence_members(q["window"])
        ok = frozenset(output) == want
        return None if ok else f"{len(output)} of {len(want)} members"
    want = _oracle_members(q["system"], q["u"], q["vs"], q["polys"], q["window"], cache)
    return None if frozenset(output) == want else "members differ from the occurrence scan"


WORKLOADS = {
    "cli-batch": (cli_batch_inputs, CliBatchWorker, check_cli_batch),
    "warm-sweep": (warm_sweep_inputs, WarmSweepWorker, check_warm_sweep),
}
