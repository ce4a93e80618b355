"""Plain-text experiment configs: ``[section]`` headers over ``key = value``
lines, with cross-references between named systems, sets, polynomials,
generator lists and the run parameters."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from . import dynamics, gammapoly, intpoly


class ParseError(ValueError):
    """Config text is syntactically malformed; names line and token."""


class ValidationError(ValueError):
    """Config is well-formed but inconsistent; names section and key."""


@dataclass(frozen=True)
class CylinderSpec:
    system: str
    word: str


@dataclass
class ExperimentConfig:
    systems: dict[str, dynamics.SubstitutionSystem]
    sets: dict[str, CylinderSpec]
    polys: dict[str, intpoly.IntegralPolynomial]
    gammas: dict[str, gammapoly.GammaPolynomial]
    gamma_systems: dict[str, gammapoly.PolySystem]
    truncations: dict[str, tuple[int, ...]]
    run: dict[str, str] = field(default_factory=dict)


def _raw_sections(text: str) -> list[tuple[str, dict[str, str]]]:
    sections: list[tuple[str, dict[str, str]]] = []
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


def _int_list(value: str, *, section: str, key: str) -> tuple[int, ...]:
    out = []
    for chunk in value.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            out.append(int(chunk))
        except ValueError:
            raise ValidationError(
                f"section [{section}], key {key!r}: not an integer: {chunk!r}"
            )
    if not out:
        raise ValidationError(f"section [{section}], key {key!r}: empty list")
    return tuple(out)


_RUN_REFERENCES = {
    "system": "systems",
    "u": "sets",
    "v": "sets",
    "gamma-system": "gamma_systems",
}
_RUN_LIST_REFERENCES = {
    "vs": "sets",
    "polys": "polys",
    "gammas": "gammas",
    "truncations": "truncations",
}


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a config; every cross-reference must resolve."""
    cfg = ExperimentConfig({}, {}, {}, {}, {}, {})
    pending_sets: list[tuple[str, dict[str, str]]] = []
    for header, body in _raw_sections(text):
        kind, name = _split_header(header)
        if kind == "system":
            if not name:
                raise ValidationError("section [system] needs a name")
            try:
                cfg.systems[name] = dynamics.build_system(body)
            except (dynamics.BadRules, ValueError) as exc:
                raise ValidationError(f"section [system {name}]: {exc}")
        elif kind == "set":
            if not name:
                raise ValidationError("section [set] needs a name")
            pending_sets.append((name, body))
        elif kind == "poly":
            if not name:
                raise ValidationError("section [poly] needs a name")
            expr = body.get("expr")
            if expr is None:
                raise ValidationError(f"section [poly {name}]: missing 'expr'")
            try:
                cfg.polys[name] = intpoly.parse_polynomial(expr)
            except intpoly.NotIntegralPolynomial as exc:
                raise ValidationError(
                    f"section [poly {name}]: not an integral polynomial: {exc}"
                )
            except intpoly.PolynomialParseError as exc:
                raise ValidationError(f"section [poly {name}]: {exc}")
        elif kind == "gamma":
            if not name:
                raise ValidationError("section [gamma] needs a name")
            expr = body.get("expr")
            if expr is None:
                raise ValidationError(f"section [gamma {name}]: missing 'expr'")
            try:
                cfg.gammas[name] = gammapoly.parse_gamma_polynomial(expr)
            except (intpoly.PolynomialParseError, ValueError) as exc:
                raise ValidationError(f"section [gamma {name}]: {exc}")
        elif kind == "gamma-system":
            if not name:
                raise ValidationError("section [gamma-system] needs a name")
            members = body.get("members")
            if members is None:
                raise ValidationError(
                    f"section [gamma-system {name}]: missing 'members'"
                )
            try:
                cfg.gamma_systems[name] = gammapoly.parse_system(members)
            except (intpoly.PolynomialParseError, ValueError) as exc:
                raise ValidationError(f"section [gamma-system {name}]: {exc}")
        elif kind == "fs":
            if not name:
                raise ValidationError("section [fs] needs a name")
            gens = body.get("generators")
            if gens is None:
                raise ValidationError(
                    f"section [fs {name}]: missing 'generators'"
                )
            cfg.truncations[name] = _int_list(
                gens, section=f"fs {name}", key="generators"
            )
        elif kind == "run":
            cfg.run = dict(body)
        else:
            raise ValidationError(f"unknown section kind [{header}]")

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
    for key, table_name in _RUN_REFERENCES.items():
        value = cfg.run.get(key)
        if value is None:
            continue
        table: Mapping[str, object] = getattr(cfg, table_name)
        if value not in table:
            raise ValidationError(
                f"section [run], key {key!r}: undefined reference {value!r}"
            )
    for key, table_name in _RUN_LIST_REFERENCES.items():
        value = cfg.run.get(key)
        if value is None:
            continue
        table = getattr(cfg, table_name)
        for chunk in value.split(","):
            chunk = chunk.strip()
            if chunk and chunk not in table:
                raise ValidationError(
                    f"section [run], key {key!r}: undefined reference {chunk!r}"
                )


def run_list(cfg: ExperimentConfig, key: str) -> list[str]:
    value = cfg.run.get(key, "")
    return [chunk.strip() for chunk in value.split(",") if chunk.strip()]
