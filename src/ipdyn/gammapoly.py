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
import itertools
import operator
import re
from collections import Counter
from fractions import Fraction
from typing import Sequence

from ._record import Record, ordering
from .intpoly import IntegralPolynomial, PolynomialParseError, binomial, parse_polynomial

# An element as the binomial coordinates of each exponent: its sort_key.
# The reductions and class keys below compute on these tuples alone.
_Key = tuple[tuple[int, ...], ...]


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


class Weight(Record):
    """The pair (level, degree): largest generator index carrying a
    nonzero exponent, and that exponent's degree.  Ordered
    lexicographically; the identity has weight (0, 0)."""

    level: int
    degree: int

    __lt__ = ordering(operator.lt)
    __le__ = ordering(operator.le)
    __gt__ = ordering(operator.gt)
    __ge__ = ordering(operator.ge)

    def __str__(self) -> str:
        return f"({self.level},{self.degree})"


class GammaPolynomial(Record):
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
        return Weight(*_weight(self.sort_key()))

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
    return _class_key(g.sort_key()) == _class_key(h.sort_key())


def _weight(key: _Key) -> tuple[int, int]:
    """(level, degree) of an element; (0, 0) for the identity."""
    level = len(key)
    while level and not key[level - 1]:
        level -= 1
    return (level, len(key[level - 1]) - 1) if level else (0, 0)


def _class_key(key: _Key) -> tuple[int, int, int]:
    """(level, degree, leading binomial coordinate), equal for exactly the
    equivalent elements: at one degree k the leading coefficient is the
    leading coordinate over k!."""
    level, degree = _weight(key)
    return level, degree, key[level - 1][-1] if level else 0


class PolySystem(Record):
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


class WeightVector(Record):
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
    return _vector({_class_key(g.sort_key()) for g in system.members})


def _vector(classes: set[tuple[int, int, int]]) -> WeightVector:
    per_weight = Counter((level, degree) for level, degree, _ in classes)
    return WeightVector(
        tuple((per_weight[w], Weight(*w)) for w in sorted(per_weight))
    )


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


def _reduced(p: tuple[int, ...], q: tuple[int, ...], row: list[int]) -> tuple[int, ...]:
    # The coordinates of p(n + m) - p(m) - q(n), given row[t] = C(m, t):
    # coordinate i >= 1 of p(n + m) is sum_t p[i + t] C(m, t), and its
    # coordinate 0, p(m), cancels, as does q's.
    moved = (sum(map(operator.mul, p[i:], row)) for i in range(1, len(p)))
    out = [0] + [a - b for a, b in itertools.zip_longest(moved, q[1:], fillvalue=0)]
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def _reduce(keys: Sequence[_Key], f: _Key, shifts: Sequence[int]) -> tuple[dict, list]:
    """g(m)^{-1} g(n + m) f(n)^{-1} for every member g and shift m, on
    coordinates: the non-identity results, each with the (member, shift)
    indices that first produced it, and the collisions, pairs of those."""
    width = max(len(p) for key in keys for p in key)
    rows = [[binomial(m, t) for t in range(width)] for m in shifts]
    produced: dict[_Key, tuple[int, int]] = {}
    collisions = []
    for t, g in enumerate(keys):
        for j, row in enumerate(rows):
            h = tuple(_reduced(p, q, row) for p, q in zip(g, f))
            if not any(h):
                continue
            if h in produced:
                collisions.append((produced[h], (t, j)))
            else:
                produced[h] = (t, j)
    return produced, collisions


def _system(keys) -> PolySystem:
    return PolySystem(
        tuple(GammaPolynomial(tuple(map(IntegralPolynomial, key))) for key in keys)
    )


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

    produced, collisions = _reduce(
        [g.sort_key() for g in system.members], f.sort_key(), shifts
    )
    collapsed = _system(produced)
    if collisions:
        raise ShiftCollision(shifts, collisions, collapsed)
    return collapsed


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
    is well-founded).
    """
    steps = traced_pet_chain(system, max_steps=max_steps)
    return [step.system for step in steps]


class ChainStep(Record):
    """One recorded reduction step (used by trace reporting)."""

    system: PolySystem
    vector: WeightVector
    reducer: GammaPolynomial | None
    shifts: tuple[int, ...]


def traced_pet_chain(
    system: PolySystem, *, max_steps: int = 10_000
) -> list[ChainStep]:
    """Like :func:`pet_chain` but records, per step, the chosen reducer
    and the shifts that produced the next system.

    Every step reduces with the one shift 1, and never collides: two
    members reduced at one shift coincide only when their exponents
    differ by constants, which vanish at 0.  The steps compute on
    coordinates (``_Key``); each step's system is built once, for its
    ``ChainStep``."""
    steps: list[ChainStep] = []
    keys = [g.sort_key() for g in system.members]
    for step in itertools.count():
        classes = [_class_key(key) for key in keys]
        distinct = set(classes)
        vector = _vector(distinct)
        if len(distinct) == len(keys) and all(
            len(p) <= 2 for key in keys for p in key
        ):  # pairwise-inequivalent homomorphisms, or empty
            steps.append(ChainStep(system, vector, None, ()))
            return steps
        if step >= max_steps:
            raise NonTermination(f"chain exceeded {max_steps} steps")
        # the member of least (weight, coordinates), as minimal_weight_member
        t = min(range(len(keys)), key=lambda t: (classes[t][:2], keys[t]))
        produced, _ = _reduce(keys, keys[t], (1,))
        steps.append(ChainStep(system, vector, system.members[t], (1,)))
        keys = sorted(produced)
        system = _system(keys)


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
    members = [parse_gamma_polynomial(c, generators) for c in chunks]
    if generators is None:
        d = max(g.generators for g in members)
        zero = (IntegralPolynomial.zero(),)
        members = [
            GammaPolynomial(g.exps + zero * (d - g.generators))
            if g.generators < d else g
            for g in members
        ]
    return PolySystem(tuple(members))
