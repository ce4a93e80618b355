"""Batch experiment runner: parse a config, run one subcommand, emit
deterministic CSV and text artifacts.

Each subcommand is one entry of ``_COMMANDS``: its help, its flags (each
overriding the ``[run]`` key it names) and a compute function from the
run parameters to a report.  ``_run`` is the one emit path: it writes
``<subcommand>.txt`` and ``<subcommand>.csv`` under ``--out`` and prints
a one-line summary.

Exit codes: 0 on completion, 1 on config/usage/IO problems, 2 on a
polynomial hypothesis violation, 3 on window/budget limits, 4 when a
``lemma213`` chain fails its independent containment check (both
artifacts are still written).
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path
from typing import NamedTuple, Sequence

from . import config as config_mod
from . import dynamics, gammapoly, ipsets

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_HYPOTHESIS = 2
EXIT_BUDGET = 3
EXIT_UNVERIFIED = 4


class _CliError(ValueError):
    """A usage or IO problem the CLI reports itself (exit 1)."""


def _write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _params_lines(params: dict[str, object]) -> list[str]:
    return [f"{key} = {params[key]}" for key in sorted(params)]


class _Report(NamedTuple):
    lines: list[str]  # the text artifact after its "<subcommand>" title
    header: list[str]
    rows: list[list]
    summary: str
    code: int = EXIT_OK


class _Params:
    """Run parameters of one invocation.  A flag overrides the ``[run]``
    key it names; a missing required value is a usage error named after
    the flag, or after the key when no flag overrides it."""

    def __init__(self, cfg: config_mod.ExperimentConfig, args, flags):
        self.cfg = cfg
        self.args = args
        self._flag_for = {key: flag for flag, key, _ in flags if key}

    def get(self, key: str, default=None):
        flag = self._flag_for.get(key)
        value = getattr(self.args, flag.replace("-", "_")) if flag else None
        return self.cfg.run.get(key, default) if value is None else value

    def _missing(self, key: str) -> _CliError:
        return _CliError(
            f"missing required parameter: {self._flag_for.get(key, key)}"
        )

    def need(self, key: str):
        value = self.get(key)
        if value is None:
            raise self._missing(key)
        return value

    def integer(self, key: str) -> int:
        return int(self.need(key))

    def names(self, key: str) -> list[str]:
        names = config_mod.run_list(self.cfg, key)
        if not names:
            raise self._missing(key)
        return names

    def system(self) -> dynamics.SubstitutionSystem:
        return self.cfg.systems[self.need("system")]

    def cylinder(self, set_name: str) -> dynamics.CylinderSet:
        spec = self.cfg.sets[set_name]
        system_name = self.cfg.run["system"]
        if spec.system != system_name:
            raise _CliError(
                f"set {set_name!r} belongs to system {spec.system!r}, "
                f"not {system_name!r}"
            )
        return dynamics.CylinderSet(spec.word)

    def poly_query(self):
        """(system, u, vs, polys, window) of a polynomial return set."""
        system = self.system()
        u = self.cylinder(self.need("u"))
        vs = [self.cylinder(name) for name in self.names("vs")]
        polys = [self.cfg.polys[name] for name in self.names("polys")]
        return system, u, vs, polys, self.integer("window")

    def gamma_system(self) -> gammapoly.PolySystem:
        if self.args.members is not None:
            return gammapoly.parse_system(self.args.members)
        return self.cfg.gamma_systems[self.need("gamma-system")]


def _feasibility_line(sys: dynamics.SubstitutionSystem, needed: int) -> str:
    return (
        f"feasibility: longest word needed = {needed}, "
        f"bound = {sys.max_word_length}"
    )


def _return_set_report(
    system: dynamics.SubstitutionSystem, result: dynamics.ReturnSet
) -> _Report:
    lines = _params_lines(dict(result.provenance)) + [
        "",
        _feasibility_line(system, result.span),
        f"members = {len(result.members)}",
    ]
    rows = [
        [n, 1 if n in result.members else 0]
        for n in range(-result.window, result.window + 1)
    ]
    return _Report(lines, ["n", "member"], rows, f"{len(result.members)} members")


# -- subcommands -------------------------------------------------------------
# Library calls go through module attributes at call time, so a wrapper
# put on e.g. ``dynamics.poly_return_set`` sees every CLI call.


def _pet_trace(p: _Params) -> _Report:
    steps = gammapoly.traced_pet_chain(p.gamma_system())
    lines = []
    rows = []
    for idx, step in enumerate(steps):
        shifts = ",".join(str(m) for m in step.shifts)
        reducer = str(step.reducer) if step.reducer is not None else "-"
        lines.append(f"step {idx}:")
        lines.append(f"  system = {step.system}")
        lines.append(f"  weight vector = {step.vector}")
        if step.reducer is None:
            lines.append("  base case reached")
        else:
            lines.append(f"  f = {reducer}")
            lines.append(f"  shifts = ({shifts})")
        rows.append([idx, reducer, shifts, str(step.vector), str(step.system)])
    return _Report(
        lines, ["step", "f", "shifts", "weight_vector", "system"], rows,
        f"{len(steps)} chain steps",
    )


def _weights(p: _Params) -> _Report:
    system = p.gamma_system()
    vector = gammapoly.weight_vector(system)
    rows = []
    lines = []
    for g in system.members:
        w = g.weight()
        rows.append([str(g), w.level, w.degree])
        lines.append(f"{g}  ->  weight {w}")
    lines += ["", f"weight vector = {vector}"]
    return _Report(
        lines, ["element", "level", "degree"], rows, f"{len(system)} members"
    )


def _fs(p: _Params) -> _Report:
    raw = p.need("generators")
    generators = tuple(int(x) for x in str(raw).split(",") if x.strip())
    fs = ipsets.enumerate_fs(generators)
    rows = [
        ["|".join(str(i) for i in sorted(alpha)), value]
        for alpha, value in fs.items()
    ]
    lines = _params_lines({"generators": list(generators)})
    lines += ["", f"distinct values = {list(fs.values())}"]
    return _Report(lines, ["alpha", "value"], rows, f"{len(rows)} index sets")


def _hindman(p: _Params) -> _Report:
    n_max = p.integer("n-max")
    colors = p.integer("colors")
    depth = p.integer("depth")
    coloring_text = p.get("coloring")
    one = not p.args.all and (
        coloring_text is not None or p.get("mode") == "one"
    )
    mode = "one-coloring" if one else "all-colorings"
    params = {"N": n_max, "r": colors, "depth": depth, "mode": mode}
    lines = _params_lines(params) + [""]
    coloring = None
    if one:
        coloring = tuple(int(c) for c in str(p.need("coloring")).split(","))
    outcome = ipsets.hindman_search(n_max, colors, depth, coloring=coloring)
    if outcome is None:
        status, detail = "absent", ""
        lines.append("no monochromatic finite-sums witness in this coloring")
    elif isinstance(outcome, ipsets.MonochromaticFS):
        status = "witness"
        detail = (
            f"generators={outcome.generators} color={outcome.color} "
            f"sums={outcome.sums}"
        )
        lines.append(f"witness: {detail}")
    elif isinstance(outcome, ipsets.HindmanVerified):
        status, detail = "verified", f"colorings={outcome.colorings_checked}"
        lines.append(
            f"Verified: every {colors}-coloring of 1..{n_max} contains a "
            f"depth-{depth} monochromatic finite-sums set "
            f"({outcome.colorings_checked} colorings checked)"
        )
    else:
        status = "failing-coloring"
        detail = ",".join(str(c) for c in outcome.coloring)
        lines.append(f"least failing coloring (cells 0..{colors - 1}): {detail}")
    return _Report(lines, ["status", "detail"], [[status, detail]], status)


def _density(p: _Params) -> _Report:
    lo = p.integer("lo")
    hi = p.integer("hi")
    length = p.integer("length")
    predicate = p.get("predicate")
    csv_path = p.get("csv")
    if predicate is not None:
        ws = ipsets.WindowSet.from_predicate(
            ipsets.builtin_predicate(str(predicate)), lo, hi
        )
        source = f"predicate:{predicate}"
    elif csv_path is not None:
        try:
            text = Path(str(csv_path)).read_text(encoding="utf-8")
        except OSError as exc:
            raise _CliError(f"cannot read set CSV: {exc}")
        ws = ipsets.WindowSet.from_csv_text(text, lo, hi)
        source = f"csv:{csv_path}"
    else:
        raise _CliError("density needs 'predicate' or 'csv'")
    upper, lower = ipsets.window_density(ws, length)
    report = ipsets.structure_classify(ws)
    params = {
        "source": source,
        "window": f"[{lo},{hi})",
        "length": length,
        "members": report.member_count,
    }
    lines = _params_lines(params) + [
        "",
        f"bd_upper = {upper}",
        f"bd_lower = {lower}",
        f"max_gap = {report.max_gap}",
        f"max_run = {report.max_run}",
        f"syndetic_bound = {report.syndetic_bound}",
        f"thick_runs(>= {report.run_threshold}) = {report.thick_runs}",
        f"syndetic_indicator(gap<= {report.gap_threshold}) = {report.syndetic_indicator}",
        f"thick_indicator = {report.thick_indicator}",
        f"piecewise_syndetic_indicator = {report.piecewise_syndetic_indicator}",
        f"thickly_syndetic_indicator = {report.thickly_syndetic_indicator}",
    ]
    return _Report(
        lines, ["length", "bd_upper", "bd_lower"],
        [[length, str(upper), str(lower)]],
        f"bd_upper={upper} bd_lower={lower}",
    )


def _return_set(p: _Params) -> _Report:
    system = p.system()
    u = p.cylinder(p.need("u"))
    v = p.cylinder(p.need("v"))
    result = dynamics.return_set(system, u, v, p.integer("window"))
    return _return_set_report(system, result)


def _poly_return(p: _Params) -> _Report:
    system, u, vs, polys, window = p.poly_query()
    result = dynamics.poly_return_set(system, u, vs, polys, window)
    return _return_set_report(system, result)


def _lemma213(p: _Params) -> _Report:
    system = p.system()
    cylinders = [p.cylinder(name) for name in p.names("vs")]
    gammas = [p.cfg.gammas[name] for name in p.names("gammas")]
    base_power = int(p.get("base-power", "1"))
    shifts_text = p.get("shifts")
    if shifts_text is not None:
        shifts = [int(x) for x in shifts_text.split(",") if x.strip()]
        chain = dynamics.lemma213_chain(
            system, cylinders, gammas, shifts, base_power=base_power
        )
    else:
        depth = p.integer("depth")
        window = p.integer("window")
        chain = dynamics.find_chain_shifts(
            system, cylinders, gammas, depth,
            search_window=window, base_power=base_power,
        )
    ok, checks = dynamics.verify_chain(system, cylinders, gammas, chain)
    params = {
        "system": system.describe(),
        "cylinders": "|".join(c.word for c in cylinders),
        "gammas": "; ".join(str(g) for g in gammas),
        "shifts": ",".join(str(m) for m in chain.shifts),
        "base-power": chain.base_power,
    }
    lines = _params_lines(params) + [""]
    widest = 0
    for n, level in enumerate(chain.levels):
        for i, cells in enumerate(level):
            spelled = dynamics.letter_cells(cells)
            if spelled:
                widest = max(widest, spelled[-1][0] - spelled[0][0] + 1)
            lines.append(f"level {n}, cylinder {i}: {spelled}")
    lines += ["", _feasibility_line(system, widest),
              f"containments verified = {ok}"]
    rows = [
        [c.level, c.cylinder_index, c.shift_index, 1 if c.holds else 0]
        for c in checks
    ]
    return _Report(
        lines, ["level", "cylinder", "shift", "contained"], rows,
        f"depth {len(chain.levels) - 1}, verified={ok}",
        EXIT_OK if ok else EXIT_UNVERIFIED,
    )


def _mixing_report(p: _Params) -> _Report:
    system, u, vs, polys, window = p.poly_query()
    truncation_names = sorted(p.names("truncations"))
    result = dynamics.poly_return_set(system, u, vs, polys, window)
    lines = _return_set_report(system, result).lines + [""]
    rows = []
    for name in truncation_names:
        fs = ipsets.enumerate_fs(p.cfg.truncations[name])
        witness = ipsets.ip_witness(lambda n: n in result.members, fs)
        if witness is None:
            rows.append([name, "inconclusive", "", ""])
            lines.append(
                f"{name}: inconclusive (no witness; truncation of "
                f"{fs.size} generators {fs.generators}, window {window})"
            )
        else:
            alpha, value = witness
            alpha_text = "|".join(str(i) for i in sorted(alpha))
            rows.append([name, "witness", alpha_text, value])
            lines.append(
                f"{name}: witness alpha={{{alpha_text}}} value={value}"
            )
    return _Report(
        lines, ["truncation", "status", "alpha", "value"], rows,
        f"{len(rows)} truncations",
    )


# A flag is (name, the [run] key it overrides or None, argparse options).
_WINDOW = ("window", "window", {"type": int})

# subcommand -> (help, flags, compute); --config and --out are common.
_COMMANDS = {
    "pet-trace": (
        "trace a weight-descent chain",
        [("members", None,
          {"help": "inline system, e.g. 'T1^{n^2}; T1^{2n^2}'"})],
        _pet_trace,
    ),
    "weights": (
        "weights and weight vector of a system",
        [("members", None, {"help": "inline system"})],
        _weights,
    ),
    "fs": (
        "enumerate a finite-sums truncation",
        [("generators", "generators", {"help": "comma list, e.g. 1,3,9"})],
        _fs,
    ),
    "hindman": (
        "partition searches for finite sums",
        [
            ("N", "n-max", {"type": int, "help": "ground set 1..N"}),
            ("r", "colors", {"type": int, "help": "number of colors"}),
            ("depth", "depth", {"type": int, "help": "generator count"}),
            ("all", None,
             {"action": "store_true", "help": "exhaust all colorings"}),
            ("coloring", "coloring",
             {"help": "comma list of cell indices for 1..N"}),
        ],
        _hindman,
    ),
    "density": (
        "window densities and structure flags",
        [
            ("lo", "lo", {"type": int}),
            ("hi", "hi", {"type": int}),
            ("length", "length", {"type": int}),
            ("predicate", "predicate", {"help": "evens | squares | multiples:k"}),
            ("csv-path", "csv", {"help": "CSV file, one integer per line"}),
        ],
        _density,
    ),
    "return-set": ("plain return-time set", [_WINDOW], _return_set),
    "poly-return": ("polynomial return-time set", [_WINDOW], _poly_return),
    "lemma213": (
        "descending open-set chain",
        [("depth", "depth", {"type": int}), _WINDOW],
        _lemma213,
    ),
    "mixing-report": (
        "poly return set vs truncations", [_WINDOW], _mixing_report,
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ipdyn",
        description="deterministic experiments on exact combinatorial dynamics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, flags, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="path to a config file")
        p.add_argument("--out", default="out", help="output directory")
        for flag, _, options in flags:
            p.add_argument(f"--{flag}", **options)
    return parser


def _run(args) -> int:
    """Load the config, make ``--out``, compute the subcommand's report,
    write ``<name>.txt`` and ``<name>.csv`` and print the summary."""
    if args.config is None:
        cfg = config_mod.ExperimentConfig({}, {}, {}, {}, {}, {})
    else:
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except OSError as exc:
            raise _CliError(f"cannot read config: {exc}")
        cfg = config_mod.parse_config(text)
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _CliError(f"cannot create output directory: {exc}")
    name = args.command
    _, flags, compute = _COMMANDS[name]
    report = compute(_Params(cfg, args, flags))
    text = "\n".join([name, ""] + report.lines) + "\n"
    (out / f"{name}.txt").write_text(text, encoding="utf-8")
    _write_csv(out / f"{name}.csv", report.header, report.rows)
    print(f"{name}: {report.summary} -> {out}")
    return report.code


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _run(args)
    except dynamics.HypothesisViolation as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except (
        dynamics.WindowTooLarge,
        dynamics.WitnessExhausted,
        ipsets.BudgetExceeded,
        ipsets.TruncationTooLarge,
        gammapoly.NonTermination,
    ) as exc:
        print(f"window/budget limit: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    # the library's input errors (config parse/validation, polynomial
    # syntax, bad rules or lengths, ...) are all ValueError subclasses
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
