"""An exact rotation control system on Z_q.

x -> x + p (mod q) is not mixing, so the polynomial return sets of its
arcs can be empty: the negative example the acceptance suite checks the
substitution systems against.  It is answered here by a brute-force
scan over the arc, not by the library's occurrence index.
"""

import math
from dataclasses import dataclass

from ipdyn.dynamics import ReturnSet


class BadModulus(ValueError):
    """A rotation needs a modulus of at least 1."""


@dataclass(frozen=True)
class Arc:
    """Residues start..end-1 modulo the ambient modulus (half-open)."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError(f"empty arc [{self.start}, {self.end})")

    @property
    def length(self) -> int:
        return self.end - self.start

    def contains(self, x: int, modulus: int) -> bool:
        return (x - self.start) % modulus < self.length


@dataclass(frozen=True)
class RotationControl:
    """x -> x + step on Z_modulus; a non-mixing control system used as a
    negative example generator.  The map is a bijection for any step;
    it is minimal exactly when the step is coprime to the modulus."""

    modulus: int
    step: int

    def __post_init__(self) -> None:
        if self.modulus < 1:
            raise BadModulus(f"modulus must be >= 1, got {self.modulus}")

    @property
    def is_minimal(self) -> bool:
        return math.gcd(self.step % self.modulus, self.modulus) == 1

    def describe(self) -> str:
        return f"rotation[q={self.modulus},p={self.step}]"


def rotation_probe(
    control: RotationControl,
    u: Arc,
    v1: Arc,
    v2: Arc,
    *,
    a1: int = 1,
    a2: int = 2,
    window: int,
) -> ReturnSet:
    """{n in [-W, W] : some x in U has x + a1*n*p in V1 and x + a2*n*p
    in V2 (mod q)}, computed exhaustively and exactly."""
    q, p = control.modulus, control.step
    for arc in (u, v1, v2):
        if arc.length > q:
            raise ValueError(f"arc longer than the modulus: {arc}")
    members = set()
    cache: dict[int, bool] = {}
    for n in range(-window, window + 1):
        np_ = (n * p) % q
        hit = cache.get(np_)
        if hit is None:
            hit = any(
                v1.contains(x + a1 * np_, q) and v2.contains(x + a2 * np_, q)
                for x in range(u.start, u.end)
            )
            cache[np_] = hit
        if hit:
            members.add(n)
    return ReturnSet(
        window=window,
        members=frozenset(members),
        provenance=(
            ("op", "rotation-probe"),
            ("system", control.describe()),
            ("u", f"{u.start}:{u.end}"),
            ("v1", f"{v1.start}:{v1.end}"),
            ("v2", f"{v2.start}:{v2.end}"),
            ("a1", str(a1)),
            ("a2", str(a2)),
            ("window", str(window)),
        ),
    )
