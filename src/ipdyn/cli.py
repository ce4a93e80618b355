"""Batch experiment runner: parse a config, run one subcommand, emit
deterministic CSV and text artifacts.

Exit codes: 0 on completion, 1 on config/usage/IO problems, 2 on a
polynomial hypothesis violation, 3 on window/budget limits.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path
from typing import Sequence

from . import config as config_mod
from . import dynamics, gammapoly, intpoly, ipsets

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_HYPOTHESIS = 2
EXIT_BUDGET = 3


class _CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _write_text(path: Path, lines: Sequence[str]) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _params_lines(params: dict[str, object]) -> list[str]:
    return [f"{key} = {params[key]}" for key in sorted(params)]


def _load_config(args) -> config_mod.ExperimentConfig:
    if args.config is None:
        return config_mod.ExperimentConfig({}, {}, {}, {}, {}, {})
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        raise _CliError(f"cannot read config: {exc}", EXIT_USAGE)
    return config_mod.parse_config(text)


def _out_dir(args) -> Path:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _CliError(f"cannot create output directory: {exc}", EXIT_USAGE)
    return out


def _run_value(cfg, args, key: str, attr: str | None = None, default=None):
    attr = attr or key
    override = getattr(args, attr.replace("-", "_"), None)
    if override is not None:
        return override
    return cfg.run.get(key, default)


def _require(value, what: str):
    if value is None:
        raise _CliError(f"missing required parameter: {what}", EXIT_USAGE)
    return value


def _substitution_system(cfg, name: str) -> dynamics.SubstitutionSystem:
    system = cfg.systems[name]
    if not isinstance(system, dynamics.SubstitutionSystem):
        raise _CliError(
            f"system {name!r} is not a substitution system", EXIT_USAGE
        )
    return system


def _cylinder_for(cfg, set_name: str, system_name: str) -> dynamics.CylinderSet:
    spec = cfg.sets[set_name]
    if not isinstance(spec, config_mod.CylinderSpec):
        raise _CliError(f"set {set_name!r} is not a cylinder", EXIT_USAGE)
    if spec.system != system_name:
        raise _CliError(
            f"set {set_name!r} belongs to system {spec.system!r}, "
            f"not {system_name!r}",
            EXIT_USAGE,
        )
    return dynamics.CylinderSet(spec.word)


def _return_set_rows(result: dynamics.ReturnSet) -> list[list]:
    return [
        [n, 1 if n in result.members else 0]
        for n in range(-result.window, result.window + 1)
    ]


# -- subcommands -------------------------------------------------------------


def _cmd_pet_trace(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args)
    if args.members is not None:
        system = gammapoly.parse_system(args.members)
    else:
        name = _require(cfg.run.get("gamma-system"), "gamma-system")
        system = cfg.gamma_systems[name]
    steps = gammapoly.traced_pet_chain(system)
    lines = ["pet-trace", ""]
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
    _write_text(out / "pet-trace.txt", lines)
    _write_csv(
        out / "pet-trace.csv",
        ["step", "f", "shifts", "weight_vector", "system"],
        rows,
    )
    print(f"pet-trace: {len(steps)} chain steps -> {out}")
    return EXIT_OK


def _cmd_weights(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args)
    if args.members is not None:
        system = gammapoly.parse_system(args.members)
    else:
        name = _require(cfg.run.get("gamma-system"), "gamma-system")
        system = cfg.gamma_systems[name]
    vector = gammapoly.weight_vector(system)
    rows = []
    lines = ["weights", ""]
    for g in system.members:
        w = g.weight()
        rows.append([str(g), w.level, w.degree])
        lines.append(f"{g}  ->  weight {w}")
    lines += ["", f"weight vector = {vector}"]
    _write_text(out / "weights.txt", lines)
    _write_csv(out / "weights.csv", ["element", "level", "degree"], rows)
    print(f"weights: {len(system)} members -> {out}")
    return EXIT_OK


def _cmd_fs(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args)
    raw = _require(_run_value(cfg, args, "generators"), "generators")
    generators = tuple(int(x) for x in str(raw).split(",") if x.strip())
    fs = ipsets.enumerate_fs(generators)
    rows = [
        ["|".join(str(i) for i in sorted(alpha)), value]
        for alpha, value in fs.items()
    ]
    lines = ["fs", ""] + _params_lines({"generators": list(generators)})
    lines += ["", f"distinct values = {list(fs.values())}"]
    _write_text(out / "fs.txt", lines)
    _write_csv(out / "fs.csv", ["alpha", "value"], rows)
    print(f"fs: {len(rows)} index sets -> {out}")
    return EXIT_OK


def _cmd_hindman(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args)
    n_max = int(_require(_run_value(cfg, args, "n-max", "N"), "N"))
    colors = int(_require(_run_value(cfg, args, "colors", "r"), "r"))
    depth = int(_require(_run_value(cfg, args, "depth"), "depth"))
    coloring_text = _run_value(cfg, args, "coloring")
    mode = "all-colorings"
    if args.all:
        mode = "all-colorings"
    elif coloring_text is not None:
        mode = "one-coloring"
    elif cfg.run.get("mode") == "one":
        mode = "one-coloring"
    params = {"N": n_max, "r": colors, "depth": depth, "mode": mode}
    lines = ["hindman", ""] + _params_lines(params) + [""]
    if mode == "one-coloring":
        coloring = tuple(
            int(c) for c in str(_require(coloring_text, "coloring")).split(",")
        )
        witness = ipsets.hindman_search(
            n_max, colors, depth, mode="one-coloring", coloring=coloring
        )
        if witness is None:
            status, detail = "absent", ""
            lines.append("no monochromatic finite-sums witness in this coloring")
        else:
            status = "witness"
            detail = (
                f"generators={witness.generators} color={witness.color} "
                f"sums={witness.sums}"
            )
            lines.append(f"witness: {detail}")
    else:
        outcome = ipsets.hindman_search(n_max, colors, depth)
        if isinstance(outcome, ipsets.HindmanVerified):
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
    _write_text(out / "hindman.txt", lines)
    _write_csv(out / "hindman.csv", ["status", "detail"], [[status, detail]])
    print(f"hindman: {status} -> {out}")
    return EXIT_OK


def _cmd_density(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args)
    lo = int(_require(_run_value(cfg, args, "lo"), "lo"))
    hi = int(_require(_run_value(cfg, args, "hi"), "hi"))
    length = int(_require(_run_value(cfg, args, "length"), "length"))
    predicate = _run_value(cfg, args, "predicate")
    csv_path = _run_value(cfg, args, "csv", "csv_path")
    if predicate is not None:
        ws = ipsets.WindowSet.from_predicate(
            ipsets.builtin_predicate(str(predicate)), lo, hi
        )
        source = f"predicate:{predicate}"
    elif csv_path is not None:
        try:
            text = Path(str(csv_path)).read_text(encoding="utf-8")
        except OSError as exc:
            raise _CliError(f"cannot read set CSV: {exc}", EXIT_USAGE)
        ws = ipsets.WindowSet.from_csv_text(text, lo, hi)
        source = f"csv:{csv_path}"
    else:
        raise _CliError("density needs 'predicate' or 'csv'", EXIT_USAGE)
    upper, lower = ipsets.window_density(ws, length)
    report = ipsets.structure_classify(ws)
    params = {
        "source": source,
        "window": f"[{lo},{hi})",
        "length": length,
        "members": report.member_count,
    }
    lines = ["density", ""] + _params_lines(params)
    lines += [
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
    _write_text(out / "density.txt", lines)
    _write_csv(
        out / "density.csv",
        ["length", "bd_upper", "bd_lower"],
        [[length, str(upper), str(lower)]],
    )
    print(f"density: bd_upper={upper} bd_lower={lower} -> {out}")
    return EXIT_OK


def _feasibility_line(sys: dynamics.SubstitutionSystem, needed: int) -> str:
    return (
        f"feasibility: longest word needed = {needed}, "
        f"bound = {sys.max_word_length}"
    )


def _cmd_return_set(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args)
    system_name = _require(cfg.run.get("system"), "system")
    system = _substitution_system(cfg, system_name)
    u = _cylinder_for(cfg, _require(cfg.run.get("u"), "u"), system_name)
    v = _cylinder_for(cfg, _require(cfg.run.get("v"), "v"), system_name)
    window = int(_require(_run_value(cfg, args, "window"), "window"))
    result = dynamics.return_set(system, u, v, window)
    needed = dynamics.required_span(
        [intpoly.IntegralPolynomial.from_monomials([0, 1])], u, [v], window
    )
    lines = ["return-set", ""] + _params_lines(dict(result.provenance))
    lines += ["", _feasibility_line(system, needed),
              f"members = {len(result.members)}"]
    _write_text(out / "return-set.txt", lines)
    _write_csv(out / "return-set.csv", ["n", "member"], _return_set_rows(result))
    print(f"return-set: {len(result.members)} members -> {out}")
    return EXIT_OK


def _poly_query(cfg, args):
    system_name = _require(cfg.run.get("system"), "system")
    system = _substitution_system(cfg, system_name)
    u = _cylinder_for(cfg, _require(cfg.run.get("u"), "u"), system_name)
    v_names = config_mod.run_list(cfg, "vs")
    if not v_names:
        raise _CliError("missing required parameter: vs", EXIT_USAGE)
    vs = [_cylinder_for(cfg, name, system_name) for name in v_names]
    poly_names = config_mod.run_list(cfg, "polys")
    if not poly_names:
        raise _CliError("missing required parameter: polys", EXIT_USAGE)
    polys = [cfg.polys[name] for name in poly_names]
    window = int(_require(_run_value(cfg, args, "window"), "window"))
    return system, u, vs, polys, window


def _cmd_poly_return(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args)
    system, u, vs, polys, window = _poly_query(cfg, args)
    result = dynamics.poly_return_set(system, u, vs, polys, window)
    needed = dynamics.required_span(polys, u, vs, window)
    lines = ["poly-return", ""] + _params_lines(dict(result.provenance))
    lines += ["", _feasibility_line(system, needed),
              f"members = {len(result.members)}"]
    _write_text(out / "poly-return.txt", lines)
    _write_csv(out / "poly-return.csv", ["n", "member"], _return_set_rows(result))
    print(f"poly-return: {len(result.members)} members -> {out}")
    return EXIT_OK


def _cmd_lemma213(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args)
    system_name = _require(cfg.run.get("system"), "system")
    system = _substitution_system(cfg, system_name)
    v_names = config_mod.run_list(cfg, "vs")
    if not v_names:
        raise _CliError("missing required parameter: vs", EXIT_USAGE)
    cylinders = [_cylinder_for(cfg, name, system_name) for name in v_names]
    gamma_names = config_mod.run_list(cfg, "gammas")
    if not gamma_names:
        raise _CliError("missing required parameter: gammas", EXIT_USAGE)
    gammas = [cfg.gammas[name] for name in gamma_names]
    base_power = int(cfg.run.get("base-power", "1"))
    shifts_text = cfg.run.get("shifts")
    if shifts_text is not None:
        shifts = [int(x) for x in shifts_text.split(",") if x.strip()]
        chain = dynamics.lemma213_chain(
            system, cylinders, gammas, shifts, base_power=base_power
        )
    else:
        depth = int(_require(_run_value(cfg, args, "depth"), "depth"))
        window = int(_require(_run_value(cfg, args, "window"), "window"))
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
    lines = ["lemma213", ""] + _params_lines(params) + [""]
    widest = 0
    for n, level in enumerate(chain.levels):
        for i, oset in enumerate(level):
            cells = "; ".join(str(p.cells) for p in oset.patterns)
            for p in oset.patterns:
                lo, hi = p.bounds()
                widest = max(widest, hi - lo)
            lines.append(f"level {n}, cylinder {i}: {cells}")
    lines += ["", _feasibility_line(system, widest),
              f"containments verified = {ok}"]
    rows = [
        [c.level, c.cylinder_index, c.shift_index, 1 if c.holds else 0]
        for c in checks
    ]
    _write_text(out / "lemma213.txt", lines)
    _write_csv(
        out / "lemma213.csv", ["level", "cylinder", "shift", "contained"], rows
    )
    print(f"lemma213: depth {len(chain.levels) - 1}, verified={ok} -> {out}")
    return EXIT_OK if ok else EXIT_USAGE


def _cmd_mixing_report(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args)
    system, u, vs, polys, window = _poly_query(cfg, args)
    truncation_names = sorted(config_mod.run_list(cfg, "truncations"))
    if not truncation_names:
        raise _CliError("missing required parameter: truncations", EXIT_USAGE)
    result = dynamics.poly_return_set(system, u, vs, polys, window)
    needed = dynamics.required_span(polys, u, vs, window)
    lines = ["mixing-report", ""] + _params_lines(dict(result.provenance))
    lines += ["", _feasibility_line(system, needed),
              f"members = {len(result.members)}", ""]
    rows = []
    for name in truncation_names:
        fs = ipsets.enumerate_fs(cfg.truncations[name])
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
    _write_text(out / "mixing-report.txt", lines)
    _write_csv(
        out / "mixing-report.csv",
        ["truncation", "status", "alpha", "value"],
        rows,
    )
    print(f"mixing-report: {len(rows)} truncations -> {out}")
    return EXIT_OK


_HANDLERS = {
    "pet-trace": _cmd_pet_trace,
    "weights": _cmd_weights,
    "fs": _cmd_fs,
    "hindman": _cmd_hindman,
    "density": _cmd_density,
    "return-set": _cmd_return_set,
    "poly-return": _cmd_poly_return,
    "lemma213": _cmd_lemma213,
    "mixing-report": _cmd_mixing_report,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ipdyn",
        description="deterministic experiments on exact combinatorial dynamics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="path to a config file")
        p.add_argument("--out", default="out", help="output directory")

    p = sub.add_parser("pet-trace", help="trace a weight-descent chain")
    common(p)
    p.add_argument("--members", help="inline system, e.g. 'T1^{n^2}; T1^{2n^2}'")

    p = sub.add_parser("weights", help="weights and weight vector of a system")
    common(p)
    p.add_argument("--members", help="inline system")

    p = sub.add_parser("fs", help="enumerate a finite-sums truncation")
    common(p)
    p.add_argument("--generators", help="comma list, e.g. 1,3,9")

    p = sub.add_parser("hindman", help="partition searches for finite sums")
    common(p)
    p.add_argument("--N", type=int, help="ground set 1..N")
    p.add_argument("--r", type=int, help="number of colors")
    p.add_argument("--depth", type=int, help="generator count")
    p.add_argument("--all", action="store_true", help="exhaust all colorings")
    p.add_argument("--coloring", help="comma list of cell indices for 1..N")

    p = sub.add_parser("density", help="window densities and structure flags")
    common(p)
    p.add_argument("--lo", type=int)
    p.add_argument("--hi", type=int)
    p.add_argument("--length", type=int)
    p.add_argument("--predicate", help="evens | squares | multiples:k")
    p.add_argument("--csv-path", help="CSV file, one integer per line")

    p = sub.add_parser("return-set", help="plain return-time set")
    common(p)
    p.add_argument("--window", type=int)

    p = sub.add_parser("poly-return", help="polynomial return-time set")
    common(p)
    p.add_argument("--window", type=int)

    p = sub.add_parser("lemma213", help="descending open-set chain")
    common(p)
    p.add_argument("--depth", type=int)
    p.add_argument("--window", type=int)

    p = sub.add_parser("mixing-report", help="poly return set vs truncations")
    common(p)
    p.add_argument("--window", type=int)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = _HANDLERS[args.command]
    try:
        return handler(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
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
    except (
        config_mod.ParseError,
        config_mod.ValidationError,
        intpoly.NotIntegralPolynomial,
        intpoly.PolynomialParseError,
        ipsets.BadLength,
        ipsets.IndexOutOfRange,
        dynamics.BadRules,
        dynamics.BadModulus,
        dynamics.ZeroPower,
        gammapoly.DimensionMismatch,
        gammapoly.EmptySystem,
        ValueError,
        KeyError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
