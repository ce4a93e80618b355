"""Per-layer tracing by attribute replacement.

``Tracer.install`` replaces public functions of the ipdyn modules with
wrappers that record a span (name, start, end, parent span, op id) and
a few counts per op.  Nothing under ``src/`` changes: the wrappers live
here and are put in place inside the benchmark process only.  Calls
made while no op is running (set-up, warm-up) record nothing, except
that factor requests still enter the history ``repeat_calls`` is
counted against.
"""

from __future__ import annotations

import functools
import json
import time
import weakref
from collections import defaultdict

# Every per-layer metric the traced run reports, in output order.
SPAN_LAYERS = (
    "dynamics.expansions",
    "dynamics.factors",
    "dynamics.membership",
    "dynamics.required_span",
    "dynamics.chain",
    "dynamics.pattern_realizable",
    "dynamics.verify_chain",
    "ipsets.search",
    "ipsets.witness",
    "ipsets.density",
    "gammapoly.pet_chain",
    "config.parse_config",
    "cli.main",
)
COUNTS = (
    "dynamics.expansions.chars",
    "dynamics.factors.words",
    "dynamics.factors.calls",
    "dynamics.factors.repeat_calls",
    "dynamics.membership.positions",
    "dynamics.chain.candidates",
    "dynamics.pattern_realizable.calls",
    "ipsets.search.colorings",
    "gammapoly.pet_chain.steps",
    "cli.bytes_written",
)


class Tracer:
    def __init__(self):
        # [name, start, end, parent index, op id]
        self.spans: list[list] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.op: int | None = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._factor_history: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._expansion_calls = 0

    def count(self, metric: str, amount: float = 1) -> None:
        if self.op is not None:
            self.counts[self.op][metric] += amount

    def _wrap(self, name, fn, after=None, calls=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if calls is not None:
                self.count(calls)
            if self.op is None:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result)
                return result
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            record = [name, time.perf_counter(), None, parent, self.op]
            self.spans.append(record)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(result)
            return result

        return wrapper

    def _counter(self, metric, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(metric)
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr, replacement) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        from ipdyn import cli, config, dynamics, gammapoly, ipsets

        def after_expansions(result):
            self._expansion_calls += 1
            self.count("dynamics.expansions.chars", sum(len(t) for t in result))

        system_cls = dynamics.SubstitutionSystem
        self._patch(
            system_cls, "expansions",
            self._wrap("dynamics.expansions", system_cls.expansions, after_expansions),
        )

        spanned_factors = self._wrap("dynamics.factors", system_cls.factors)

        @functools.wraps(system_cls.factors)
        def traced_factors(system, length):
            before = self._expansion_calls
            result = spanned_factors(system, length)
            seen = self._factor_history.setdefault(system, set())
            self.count("dynamics.factors.calls")
            if length in seen:
                self.count("dynamics.factors.repeat_calls")
            seen.add(length)
            if self._expansion_calls != before:  # built, not served from the cache
                self.count("dynamics.factors.words", len(result))
            return result

        self._patch(system_cls, "factors", traced_factors)

        def after_membership(result):
            self.count("dynamics.membership.positions", 2 * result.window + 1)

        for attr in ("return_set", "poly_return_set"):
            self._patch(
                dynamics, attr,
                self._wrap("dynamics.membership", getattr(dynamics, attr), after_membership),
            )
        self._patch(
            dynamics, "required_span",
            self._wrap("dynamics.required_span", dynamics.required_span),
        )
        self._patch(
            dynamics, "find_chain_shifts",
            self._wrap("dynamics.chain", dynamics.find_chain_shifts),
        )
        self._patch(
            dynamics, "lemma213_chain",
            self._wrap(
                "dynamics.chain", dynamics.lemma213_chain,
                calls="dynamics.chain.candidates",
            ),
        )
        self._patch(
            dynamics, "pattern_realizable",
            self._wrap(
                "dynamics.pattern_realizable", dynamics.pattern_realizable,
                calls="dynamics.pattern_realizable.calls",
            ),
        )
        self._patch(
            dynamics, "verify_chain",
            self._wrap("dynamics.verify_chain", dynamics.verify_chain),
        )

        for attr in ("hindman_search", "verify_all_colorings"):
            self._patch(ipsets, attr, self._wrap("ipsets.search", getattr(ipsets, attr)))
        # one call per colouring examined: counted, not spanned, so the
        # search's self time keeps the per-colouring work
        self._patch(
            ipsets, "monochromatic_fs",
            self._counter("ipsets.search.colorings", ipsets.monochromatic_fs),
        )
        for attr in ("enumerate_fs", "ip_witness"):
            self._patch(ipsets, attr, self._wrap("ipsets.witness", getattr(ipsets, attr)))
        for attr in ("window_density", "structure_classify"):
            self._patch(ipsets, attr, self._wrap("ipsets.density", getattr(ipsets, attr)))
        from_predicate = ipsets.WindowSet.__dict__["from_predicate"].__func__
        self._patch(
            ipsets.WindowSet, "from_predicate",
            classmethod(self._wrap("ipsets.density", from_predicate)),
        )

        self._patch(
            gammapoly, "traced_pet_chain",
            self._wrap(
                "gammapoly.pet_chain", gammapoly.traced_pet_chain,
                lambda steps: self.count("gammapoly.pet_chain.steps", len(steps)),
            ),
        )
        self._patch(config, "parse_config", self._wrap("config.parse_config", config.parse_config))
        self._patch(cli, "main", self._wrap("cli.main", cli.main))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def per_op(self) -> dict[int, dict[str, float]]:
        """Self time in ms per span layer, plus the counts, for each op."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            out[op][name + ".self_ms"] += (end - start - child[i]) * 1000.0
        for op, counts in self.counts.items():
            out[op].update(counts)
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps(
                    {"id": i, "name": name, "start": start, "end": end,
                     "parent": parent, "op": op}
                ) + "\n")
