"""Plain-text experiment configs: ``[section]`` headers over ``key = value``
lines, with cross-references between named systems, sets, polynomials,
generator lists and the run parameters.

The whole format is read here: a ``_KEYS`` row of the keys each section
kind may set (any other key is an error), a ``_SECTIONS`` row
per named section kind but ``[set]``, a ``_RUN_REFERENCES`` row per
``[run]`` reference, and the ``[system]`` keys, of which only those a
section sets reach ``substitution.SubstitutionSystem``, whose signature
holds the defaults.  A section header may appear once."""

from __future__ import annotations

from typing import Any, Mapping

from . import gammapoly, intpoly, substitution
from ._record import Record
from .substitution import BadRules


class ParseError(ValueError):
    """Config text is syntactically malformed; names line and token."""


class ValidationError(ValueError):
    """Config is well-formed but inconsistent; names section and key."""


class CylinderSpec(Record):
    system: str
    word: str


class ExperimentConfig:
    """The named sections of a config, by kind, and its ``[run]`` keys;
    the one mutable record, filled in section by section."""

    def __init__(
        self,
        systems: dict[str, substitution.SubstitutionSystem],
        sets: dict[str, CylinderSpec],
        polys: dict[str, intpoly.IntegralPolynomial],
        gammas: dict[str, gammapoly.GammaPolynomial],
        gamma_systems: dict[str, gammapoly.PolySystem],
        truncations: dict[str, tuple[int, ...]],
        run: dict[str, str] | None = None,
    ) -> None:
        self.systems = systems
        self.sets = sets
        self.polys = polys
        self.gammas = gammas
        self.gamma_systems = gamma_systems
        self.truncations = truncations
        self.run = {} if run is None else run


def _raw_sections(text: str) -> list[tuple[str, dict[str, str]]]:
    sections: list[tuple[str, dict[str, str]]] = []
    seen: set[tuple[str, str]] = set()  # (kind, name) of each header
    current: dict[str, str] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ParseError(f"line {lineno}: unclosed section header {line!r}")
            header = line[1:-1].strip()
            if not header:
                raise ParseError(f"line {lineno}: empty section header")
            section = _split_header(header)
            if section in seen:
                raise ParseError(f"line {lineno}: duplicate section [{header}]")
            seen.add(section)
            current = {}
            sections.append((header, current))
            continue
        if "=" not in line:
            raise ParseError(
                f"line {lineno}: expected 'key = value', got {line!r}"
            )
        if current is None:
            raise ParseError(f"line {lineno}: key/value outside any section")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ParseError(f"line {lineno}: empty key")
        if key in current:
            raise ParseError(f"line {lineno}: duplicate key {key!r}")
        current[key] = value
    return sections


def _split_header(header: str) -> tuple[str, str]:
    parts = header.split(None, 1)
    kind = parts[0]
    name = parts[1].strip() if len(parts) > 1 else ""
    return kind, name


def _integer(text: str, key: str, where: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValidationError(
            f"section [{where}], key {key!r}: not an integer: {text!r}"
        )


def _generators(body: Mapping[str, str], where: str) -> tuple[int, ...]:
    out = [
        _integer(chunk, "generators", where)
        for chunk in map(str.strip, body["generators"].split(","))
        if chunk
    ]
    if not out:
        raise ValidationError(f"section [{where}], key 'generators': empty list")
    return tuple(out)


def parse_rules(text: str) -> dict[str, str]:
    """Parse ``0 -> 0010; 1 -> 1`` rule syntax."""
    rules: dict[str, str] = {}
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "->" not in chunk:
            raise BadRules(f"rule {chunk!r} lacks '->'")
        left, right = (part.strip() for part in chunk.split("->", 1))
        if len(left) != 1:
            raise BadRules(f"rule source must be one symbol: {left!r}")
        if left in rules:
            raise BadRules(f"duplicate rule for {left!r}")
        rules[left] = right
    if not rules:
        raise BadRules(f"no rules found in {text!r}")
    return rules


def build_system(
    spec: Mapping[str, str], where: str = "system"
) -> substitution.SubstitutionSystem:
    """Build a substitution system from the keys of the ``[where]``
    section.  Only the keys the section sets are passed on, so an unset
    key takes ``SubstitutionSystem``'s default."""
    kind = spec.get("kind", "substitution")
    if kind != "substitution":
        raise BadRules(f"unknown system kind {kind!r}")
    if "rules" not in spec:
        raise BadRules("substitution systems need a 'rules' entry")
    rules = parse_rules(spec["rules"])
    options: dict[str, Any] = {}
    if "seeds" in spec:
        options["seeds"] = tuple(
            s.strip() for s in spec["seeds"].split(",") if s.strip()
        )
    if "max-word-length" in spec:
        options["max_word_length"] = _integer(
            spec["max-word-length"], "max-word-length", where
        )
    return substitution.SubstitutionSystem(rules, **options)


def _polynomial(expr: str) -> intpoly.IntegralPolynomial:
    try:
        return intpoly.parse_polynomial(expr)
    except intpoly.NotIntegralPolynomial as exc:
        raise ValueError(f"not an integral polynomial: {exc}")


# section kind -> (ExperimentConfig field, required key, parser of the
# section body and its "kind name").  A parser's ValueError is reported
# as "section [kind name]: ..."; a ValidationError already names its
# section and is raised as it is.
_SECTIONS = {
    "system": ("systems", None, build_system),
    "poly": ("polys", "expr", lambda body, _: _polynomial(body["expr"])),
    "gamma": (
        "gammas", "expr",
        lambda body, _: gammapoly.parse_gamma_polynomial(body["expr"]),
    ),
    "gamma-system": (
        "gamma_systems", "members",
        lambda body, _: gammapoly.parse_system(body["members"]),
    ),
    "fs": ("truncations", "generators", _generators),
}

# section kind -> the keys its body may set; [run] may set every key
# that some subcommand of the CLI reads, flag or no flag, so that one
# [run] serves several subcommands
_KEYS = {
    "system": ("kind", "rules", "seeds", "max-word-length"),
    "set": ("system", "word"),
    "poly": ("expr",),
    "gamma": ("expr",),
    "gamma-system": ("members",),
    "fs": ("generators",),
    "run": (
        "system", "u", "v", "vs", "polys", "window", "truncations",
        "gamma-system", "gammas", "shifts", "base-power", "depth",
        "generators", "n-max", "colors", "coloring",
        "lo", "hi", "length", "predicate", "csv",
    ),
}

# [run] key -> (ExperimentConfig field it names, whether it holds a
# comma-separated list of names)
_RUN_REFERENCES = {
    "system": ("systems", False),
    "u": ("sets", False),
    "v": ("sets", False),
    "gamma-system": ("gamma_systems", False),
    "vs": ("sets", True),
    "polys": ("polys", True),
    "gammas": ("gammas", True),
    "truncations": ("truncations", True),
}


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a config; every cross-reference must resolve."""
    cfg = ExperimentConfig({}, {}, {}, {}, {}, {})
    pending_sets: list[tuple[str, dict[str, str]]] = []
    for header, body in _raw_sections(text):
        kind, name = _split_header(header)
        if kind not in _KEYS:
            raise ValidationError(f"unknown section kind [{header}]")
        if not name and kind != "run":
            raise ValidationError(f"section [{kind}] needs a name")
        where = "run" if kind == "run" else f"{kind} {name}"
        for key in body:
            if key not in _KEYS[kind]:
                raise ValidationError(f"section [{where}]: unknown key {key!r}")
        if kind == "run":
            cfg.run = dict(body)
            continue
        if kind == "set":  # resolved once every system is known
            pending_sets.append((name, body))
            continue
        field_name, key, parse = _SECTIONS[kind]
        if key is not None and key not in body:
            raise ValidationError(f"section [{where}]: missing {key!r}")
        try:
            value = parse(body, where)
        except ValidationError:
            raise
        except ValueError as exc:
            raise ValidationError(f"section [{where}]: {exc}")
        getattr(cfg, field_name)[name] = value

    for name, body in pending_sets:
        system = body.get("system")
        if system is None:
            raise ValidationError(f"section [set {name}]: missing 'system'")
        if system not in cfg.systems:
            raise ValidationError(
                f"section [set {name}]: undefined system {system!r}"
            )
        word = body.get("word")
        if word is None:
            raise ValidationError(f"section [set {name}]: missing 'word'")
        if not cfg.systems[system].is_admissible(word):
            raise ValidationError(
                f"section [set {name}]: word {word!r} is not admissible"
            )
        cfg.sets[name] = CylinderSpec(system, word)

    _validate_run_references(cfg)
    return cfg


def _validate_run_references(cfg: ExperimentConfig) -> None:
    for key, (table_name, is_list) in _RUN_REFERENCES.items():
        if key not in cfg.run:
            continue
        table: Mapping[str, object] = getattr(cfg, table_name)
        for ref in run_list(cfg, key) if is_list else [cfg.run[key]]:
            if ref not in table:
                raise ValidationError(
                    f"section [run], key {key!r}: undefined reference {ref!r}"
                )


def run_list(cfg: ExperimentConfig, key: str) -> list[str]:
    value = cfg.run.get(key, "")
    return [chunk.strip() for chunk in value.split(",") if chunk.strip()]
