"""Formal generator products with polynomial exponents, and their
weight-descent reductions.

An element is a formal product T_1^{p_1(n)} ... T_d^{p_d(n)} over d free
abelian generators, with every exponent an integer-valued polynomial
vanishing at 0.  The group law adds exponents.  A finite system of such
elements carries a weight vector; the reduction steps below replace a
system by one whose weight vector strictly precedes it, and the ordering
is well-founded, which is what makes the exhaustion chain terminate.

The generators are treated as genuinely free: a concrete group whose
generators happen to satisfy relations (say T1 = T2^2) is not quotiented
here, so two formally distinct elements may act identically on such a
group.  All bookkeeping deliberately stays formal.
"""

from __future__ import annotations

import enum
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .intpoly import IntegralPolynomial, PolynomialParseError, parse_polynomial


class DimensionMismatch(ValueError):
    """Two elements live over different generator counts."""


class EmptySystem(ValueError):
    """A weight vector was requested for a system with no members."""


class ShiftCollision(RuntimeError):
    """Two formally distinct reduced elements coincided.

    Carries the colliding index pairs and the collapsed system so the
    caller can retry with different shifts.
    """

    def __init__(self, shifts, pairs, system):
        self.shifts = tuple(shifts)
        self.pairs = tuple(pairs)
        self.system = system
        super().__init__(
            f"shifts {self.shifts} produced {len(self.pairs)} collision(s)"
        )


class NonTermination(RuntimeError):
    """A reduction chain exceeded its configured step bound."""


@dataclass(frozen=True, order=True)
class Weight:
    """The pair (level, degree): largest generator index carrying a
    nonzero exponent, and that exponent's degree.  Ordered
    lexicographically; the identity has weight (0, 0)."""

    level: int
    degree: int

    def __str__(self) -> str:
        return f"({self.level},{self.degree})"


@dataclass(frozen=True)
class GammaPolynomial:
    """A formal product of generators with polynomial exponents.

    ``exps[j]`` is the exponent of generator ``T_{j+1}``; every exponent
    must vanish at 0.
    """

    exps: tuple[IntegralPolynomial, ...]

    def __post_init__(self) -> None:
        exps = tuple(self.exps)
        if not exps:
            raise ValueError("at least one generator is required")
        for j, p in enumerate(exps):
            if not isinstance(p, IntegralPolynomial):
                raise TypeError(f"exponent of T{j+1} must be IntegralPolynomial")
            if p.coeffs and p.coeffs[0] != 0:
                raise ValueError(
                    f"exponent of T{j+1} has nonzero constant term: {p}"
                )
        object.__setattr__(self, "exps", exps)

    # -- constructors ----------------------------------------------------

    @classmethod
    def identity(cls, generators: int) -> "GammaPolynomial":
        return cls((IntegralPolynomial.zero(),) * generators)

    # -- queries -----------------------------------------------------------

    @property
    def generators(self) -> int:
        return len(self.exps)

    @property
    def is_identity(self) -> bool:
        return all(p.is_zero for p in self.exps)

    def is_homomorphism(self) -> bool:
        """True when every exponent is linear, i.e. g(m+n) = g(m)g(n)."""
        return all(p.degree <= 1 for p in self.exps)

    def weight(self) -> Weight:
        level = 0
        for j in range(len(self.exps) - 1, -1, -1):
            if not self.exps[j].is_zero:
                level = j + 1
                break
        if level == 0:
            return Weight(0, 0)
        return Weight(level, self.exps[level - 1].degree)

    def leading_coefficient(self) -> Fraction:
        """Leading monomial coefficient of the weight-level exponent."""
        w = self.weight()
        if w.level == 0:
            return Fraction(0)
        return self.exps[w.level - 1].leading_coefficient()

    def sort_key(self) -> tuple[tuple[int, ...], ...]:
        return tuple(p.coeffs for p in self.exps)

    # -- group law ---------------------------------------------------------

    def _check_dims(self, other: "GammaPolynomial") -> None:
        if self.generators != other.generators:
            raise DimensionMismatch(
                f"{self.generators} generators vs {other.generators}"
            )

    def __mul__(self, other: "GammaPolynomial") -> "GammaPolynomial":
        self._check_dims(other)
        return GammaPolynomial(
            tuple(p + q for p, q in zip(self.exps, other.exps))
        )

    def inverse(self) -> "GammaPolynomial":
        return GammaPolynomial(tuple(-p for p in self.exps))

    # -- rendering -----------------------------------------------------------

    def __str__(self) -> str:
        parts = [
            f"T{j + 1}^{{{p}}}" for j, p in enumerate(self.exps) if not p.is_zero
        ]
        return " * ".join(parts) if parts else "e"

    def __repr__(self) -> str:
        return f"<GammaPolynomial {self} over {self.generators} generators>"


def equivalent(g: GammaPolynomial, h: GammaPolynomial) -> bool:
    """Same weight and, at that weight, equal leading coefficients."""
    g._check_dims(h)
    wg, wh = g.weight(), h.weight()
    if wg != wh:
        return False
    if wg.level == 0:
        return True
    return g.leading_coefficient() == h.leading_coefficient()


def _class_key(g: GammaPolynomial) -> tuple[Weight, Fraction]:
    return (g.weight(), g.leading_coefficient())


@dataclass(frozen=True)
class PolySystem:
    """A finite set of pairwise-distinct non-identity elements over a
    common generator count, held in a canonical order."""

    members: tuple[GammaPolynomial, ...]

    def __post_init__(self) -> None:
        members = tuple(sorted(self.members, key=GammaPolynomial.sort_key))
        if members:
            d = members[0].generators
            for g in members:
                if g.generators != d:
                    raise DimensionMismatch(
                        "all members must share one generator count"
                    )
                if g.is_identity:
                    raise ValueError("the identity cannot belong to a system")
            if len(set(members)) != len(members):
                raise ValueError("system members must be pairwise distinct")
        object.__setattr__(self, "members", members)

    @property
    def is_empty(self) -> bool:
        return not self.members

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __str__(self) -> str:
        return "{" + "; ".join(str(g) for g in self.members) + "}"


class Ordering(enum.Enum):
    """Outcome of comparing two weight vectors.

    EQUAL means the vectors agree at every weight; two distinct systems
    with equal vectors are incomparable under the strict order.
    """

    PRECEDES = "precedes"
    SUCCEEDS = "succeeds"
    EQUAL = "equal"


@dataclass(frozen=True)
class WeightVector:
    """Multiplicities of equivalence classes per weight, ascending."""

    entries: tuple[tuple[int, Weight], ...]

    def __post_init__(self) -> None:
        entries = tuple(self.entries)
        weights = [w for _, w in entries]
        if weights != sorted(weights) or len(set(weights)) != len(weights):
            raise ValueError("weights must be strictly increasing")
        if any(m < 1 for m, _ in entries):
            raise ValueError("multiplicities must be positive")
        object.__setattr__(self, "entries", entries)

    @classmethod
    def empty(cls) -> "WeightVector":
        return cls(())

    def __str__(self) -> str:
        return "(" + ", ".join(f"{m}{w}" for m, w in self.entries) + ")"


def weight_vector(system: PolySystem) -> WeightVector:
    """Count equivalence classes (not members) per weight."""
    if system.is_empty:
        raise EmptySystem("weight vector of an empty system")
    classes = {_class_key(g) for g in system.members}
    per_weight = Counter(w for w, _ in classes)
    return WeightVector(tuple((per_weight[w], w) for w in sorted(per_weight)))


def compare(a: WeightVector, b: WeightVector) -> Ordering:
    """Scan weights from the greatest downward; the first difference in
    multiplicity decides (absent weights count as 0)."""
    mult_a = {w: m for m, w in a.entries}
    mult_b = {w: m for m, w in b.entries}
    for w in sorted(set(mult_a) | set(mult_b), reverse=True):
        ma, mb = mult_a.get(w, 0), mult_b.get(w, 0)
        if ma != mb:
            return Ordering.PRECEDES if ma < mb else Ordering.SUCCEEDS
    return Ordering.EQUAL


def step1_reduce(f: GammaPolynomial, m: int) -> GammaPolynomial:
    """The cross element h(m, .) = f(m)^{-1} f(m+n) f(n)^{-1}.

    Every exponent becomes its shift cross term, so the weight strictly
    drops for m != 0 unless f is a homomorphism, in which case the
    result is the identity.
    """
    if f.is_identity:
        raise ValueError("step1_reduce requires a non-identity element")
    return GammaPolynomial(tuple(p.shift_diff(m) for p in f.exps))


def _reduce_member(
    g: GammaPolynomial, f: GammaPolynomial, m: int
) -> GammaPolynomial:
    # g(m)^{-1} g(n + m) f(n)^{-1}, exponent-wise.
    exps = tuple(
        p.translate(m) - IntegralPolynomial.constant(p(m)) - q
        for p, q in zip(g.exps, f.exps)
    )
    return GammaPolynomial(exps)


def step2_reduce(
    system: PolySystem, f: GammaPolynomial, shifts: Sequence[int]
) -> PolySystem:
    """Reduce every member against a minimal-weight element f across the
    given shifts, dropping identities.

    Returns the reduced system; its weight vector strictly precedes the
    input's on every collision-free run.  Raises ShiftCollision when two
    formally distinct reduced elements coincide (the collapsed system
    rides along on the exception so callers can retry other shifts).
    """
    if f not in system.members:
        raise ValueError("f must belong to the system")
    min_weight = min(g.weight() for g in system.members)
    if f.weight() != min_weight:
        raise ValueError(
            f"f must have minimal weight {min_weight}, got {f.weight()}"
        )
    shifts = tuple(int(m) for m in shifts)
    if not shifts:
        raise ValueError("at least one shift is required")
    if len(set(shifts)) != len(shifts):
        raise ValueError("shifts must be pairwise distinct")
    if any(m == 0 for m in shifts):
        raise ValueError("shifts must be nonzero")

    produced: dict[GammaPolynomial, tuple[int, int]] = {}
    collisions: list[tuple[tuple[int, int], tuple[int, int]]] = []
    for t, g in enumerate(system.members):
        for j, m in enumerate(shifts):
            h = _reduce_member(g, f, m)
            if h.is_identity:
                continue
            if h in produced:
                collisions.append((produced[h], (t, j)))
            else:
                produced[h] = (t, j)
    collapsed = PolySystem(tuple(produced))
    if collisions:
        raise ShiftCollision(shifts, collisions, collapsed)
    return collapsed


# Each step reduces with one shift: 1, then 2, 3, ... on collision retries.
_MAX_SHIFT = 64


def _is_base_case(system: PolySystem) -> bool:
    if system.is_empty:
        return True
    if not all(g.is_homomorphism() for g in system.members):
        return False
    return len({_class_key(g) for g in system.members}) == len(system)


def minimal_weight_member(system: PolySystem) -> GammaPolynomial:
    if system.is_empty:
        raise EmptySystem("no members to choose from")
    return min(system.members, key=lambda g: (g.weight(), g.sort_key()))


def pet_chain(system: PolySystem, *, max_steps: int = 10_000) -> list[PolySystem]:
    """Repeatedly reduce against a minimal-weight member until the system
    is empty or consists of pairwise-inequivalent homomorphisms.

    Returns the full chain, starting with the input.  Every consecutive
    pair strictly decreases under the weight-vector order.  Raises
    NonTermination past ``max_steps`` (a bug indicator, since the order
    is well-founded) and re-raises ShiftCollision if no single shift in
    1.._MAX_SHIFT avoids collisions.
    """
    steps = traced_pet_chain(system, max_steps=max_steps)
    return [step.system for step in steps]


@dataclass(frozen=True)
class ChainStep:
    """One recorded reduction step (used by trace reporting)."""

    system: PolySystem
    vector: WeightVector
    reducer: GammaPolynomial | None
    shifts: tuple[int, ...]


def traced_pet_chain(
    system: PolySystem, *, max_steps: int = 10_000
) -> list[ChainStep]:
    """Like :func:`pet_chain` but records, per step, the chosen reducer
    and the shifts that produced the next system."""
    steps: list[ChainStep] = []
    current = system
    step = 0
    while True:
        base = _is_base_case(current)
        vector = (
            WeightVector.empty() if current.is_empty else weight_vector(current)
        )
        if base:
            steps.append(ChainStep(current, vector, None, ()))
            return steps
        if step >= max_steps:
            raise NonTermination(f"chain exceeded {max_steps} steps")
        f = minimal_weight_member(current)
        last_collision: ShiftCollision | None = None
        for m in range(1, _MAX_SHIFT + 1):
            shifts = (m,)
            try:
                nxt = step2_reduce(current, f, shifts)
                break
            except ShiftCollision as exc:
                last_collision = exc
        else:
            assert last_collision is not None
            raise last_collision
        steps.append(ChainStep(current, vector, f, shifts))
        current = nxt
        step += 1


# -- parsing ---------------------------------------------------------------

_FACTOR_RE = re.compile(r"T(\d+)\s*\^\s*\{([^{}]*)\}\s*\Z")


def parse_gamma_polynomial(
    text: str, generators: int | None = None
) -> GammaPolynomial:
    """Parse ``T1^{n^2} * T2^{3n}`` syntax; ``e`` is the identity.

    Repeated factors over the same generator multiply (exponents add).
    The generator count defaults to the largest index that appears.
    """
    t = text.strip()
    if t == "e":
        return GammaPolynomial.identity(generators or 1)
    factors: list[tuple[int, IntegralPolynomial]] = []
    for raw in t.split("*"):
        m = _FACTOR_RE.match(raw.strip())
        if m is None:
            raise PolynomialParseError(
                f"expected a factor like 'T1^{{n^2}}', got {raw.strip()!r}"
            )
        idx = int(m.group(1))
        if idx < 1:
            raise PolynomialParseError(f"generator index must be >= 1: T{idx}")
        factors.append((idx, parse_polynomial(m.group(2))))
    d = generators or max(idx for idx, _ in factors)
    exps = [IntegralPolynomial.zero()] * d
    for idx, p in factors:
        if idx > d:
            raise DimensionMismatch(
                f"generator T{idx} exceeds declared count {d}"
            )
        exps[idx - 1] = exps[idx - 1] + p
    return GammaPolynomial(tuple(exps))


def parse_system(text: str, generators: int | None = None) -> PolySystem:
    """Parse a semicolon-separated list of elements on a shared
    generator count (defaulting to the largest index in the list)."""
    chunks = [c for c in (chunk.strip() for chunk in text.split(";")) if c]
    if not chunks:
        raise PolynomialParseError(f"empty system expression {text!r}")
    if generators is None:
        generators = max(
            parse_gamma_polynomial(c).generators for c in chunks
        )
    return PolySystem(
        tuple(parse_gamma_polynomial(c, generators) for c in chunks)
    )
