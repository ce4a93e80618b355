"""Finite truncations of finite-sums sets, exhaustive partition searches,
and window-scale density/structure classifiers.

Everything here is finite and exact.  A truncation can witness that a
set meets a finite-sums family; it can never refute the infinite
statement, and reports are worded accordingly by the callers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence, Union


# Largest generator count a finite-sums truncation enumerates (2^k - 1 sums).
_MAX_GENERATORS = 20


class TruncationTooLarge(ValueError):
    """Generator count exceeds the enumeration bound _MAX_GENERATORS."""


class IndexOutOfRange(ValueError):
    """A block refers to a generator index outside the truncation."""


class BadLength(ValueError):
    """A window-density length does not fit inside the window."""


class BudgetExceeded(RuntimeError):
    """An exhaustive search would exceed its configured budget."""


class FSTruncation:
    """All finite sums of a fixed generator tuple over distinct indices.

    ``value(alpha)`` returns the sum over the 1-based index set alpha;
    there are exactly 2^k - 1 nonempty index sets (values may repeat,
    since generators need not be distinct).
    """

    __slots__ = ("generators", "_sums")

    def __init__(self, generators: Sequence[int]):
        gens = tuple(int(g) for g in generators)
        if not gens:
            raise ValueError("at least one generator is required")
        if len(gens) > _MAX_GENERATORS:
            raise TruncationTooLarge(
                f"{len(gens)} generators exceed the bound {_MAX_GENERATORS}"
            )
        self.generators = gens
        self._sums = _subset_sums(gens)  # the sum over bitmask m at m - 1

    @property
    def size(self) -> int:
        return len(self.generators)

    def value(self, alpha: Iterable[int]) -> int:
        """Sum over a nonempty set of 1-based generator indices."""
        mask = 0
        for i in set(alpha):
            if not 1 <= i <= self.size:
                raise IndexOutOfRange(f"index {i} outside 1..{self.size}")
            mask |= 1 << (i - 1)
        if mask == 0:
            raise ValueError("index set must be nonempty")
        return self._sums[mask - 1]

    def items(self) -> Iterator[tuple[frozenset[int], int]]:
        """All (index set, sum) pairs, in ascending bitmask order."""
        for mask, value in enumerate(self._sums, start=1):
            alpha = frozenset(
                i + 1 for i in range(self.size) if mask >> i & 1
            )
            yield alpha, value

    def values(self) -> tuple[int, ...]:
        """The distinct sums, ascending."""
        return tuple(sorted(set(self._sums)))

    def value_multiset(self) -> tuple[int, ...]:
        """All 2^k - 1 sums with repetition, ascending."""
        return tuple(sorted(self._sums))

    def __repr__(self) -> str:
        return f"FSTruncation(generators={self.generators!r})"


def enumerate_fs(generators: Sequence[int]) -> FSTruncation:
    return FSTruncation(generators)


class IPRingTruncation:
    """A strictly ordered tuple of finite index blocks and their unions."""

    __slots__ = ("blocks",)

    def __init__(self, blocks: Sequence[Iterable[int]]):
        parsed = tuple(frozenset(int(i) for i in b) for b in blocks)
        if not parsed:
            raise ValueError("at least one block is required")
        for b in parsed:
            if not b:
                raise ValueError("blocks must be nonempty")
            if any(i < 1 for i in b):
                raise IndexOutOfRange("block indices must be >= 1")
        for a, b in zip(parsed, parsed[1:]):
            if max(a) >= min(b):
                raise ValueError(
                    f"blocks must be strictly ordered: {sorted(a)} !< {sorted(b)}"
                )
        self.blocks = parsed

    @property
    def size(self) -> int:
        return len(self.blocks)

    def unions(self) -> Iterator[frozenset[int]]:
        """All unions over nonempty block subsets, ascending bitmask order."""
        for mask in range(1, 1 << self.size):
            out: frozenset[int] = frozenset()
            for i in range(self.size):
                if mask >> i & 1:
                    out |= self.blocks[i]
            yield out

    def __repr__(self) -> str:
        return f"IPRingTruncation({[sorted(b) for b in self.blocks]!r})"


def restrict_to_ring(
    fs: FSTruncation, ring: IPRingTruncation
) -> FSTruncation:
    """The truncation generated by the block sums; its values are exactly
    the sums indexed by the ring's unions."""
    for b in ring.blocks:
        if max(b) > fs.size:
            raise IndexOutOfRange(
                f"block {sorted(b)} exceeds generator count {fs.size}"
            )
    return FSTruncation(tuple(fs.value(b) for b in ring.blocks))


@dataclass(frozen=True)
class WindowSet:
    """A subset of the half-open integer window [lo, hi)."""

    lo: int
    hi: int
    members: frozenset[int]

    def __post_init__(self) -> None:
        if self.hi <= self.lo:
            raise ValueError(f"empty window [{self.lo}, {self.hi})")
        members = frozenset(int(m) for m in self.members)
        if any(not self.lo <= m < self.hi for m in members):
            raise ValueError("members must lie inside the window")
        object.__setattr__(self, "members", members)

    @property
    def length(self) -> int:
        return self.hi - self.lo

    def __contains__(self, n: int) -> bool:
        return n in self.members

    @classmethod
    def from_predicate(
        cls, predicate: Callable[[int], bool], lo: int, hi: int
    ) -> "WindowSet":
        return cls(lo, hi, frozenset(n for n in range(lo, hi) if predicate(n)))

    @classmethod
    def from_csv_text(
        cls, text: str, lo: int | None = None, hi: int | None = None
    ) -> "WindowSet":
        """One integer per line; the window defaults to [min, max + 1]."""
        values = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                values.append(int(line))
            except ValueError:
                raise ValueError(f"line {lineno}: not an integer: {line!r}")
        if not values and (lo is None or hi is None):
            raise ValueError("empty CSV needs an explicit window")
        lo = min(values) if lo is None else lo
        hi = max(values) + 1 if hi is None else hi
        return cls(lo, hi, frozenset(values))


def builtin_predicate(name: str) -> Callable[[int], bool]:
    """Catalog lookup: ``evens``, ``squares``, or ``multiples:k``."""
    if name == "evens":
        return lambda n: n % 2 == 0
    if name == "squares":
        return lambda n: n >= 0 and math.isqrt(n) ** 2 == n
    if name.startswith("multiples:"):
        k = int(name.split(":", 1)[1])
        if k == 0:
            raise ValueError("multiples:0 is not a valid predicate")
        return lambda n: n % k == 0
    raise ValueError(f"unknown predicate {name!r}")


Target = Union[WindowSet, Callable[[int], bool]]


def ip_witness(
    target: Target, fs: FSTruncation
) -> tuple[frozenset[int], int] | None:
    """First (index set, sum) of the truncation landing in the target,
    scanning in ascending bitmask order; None when the whole truncation
    misses.  Absence over a truncation refutes nothing about the
    infinite statement; presence is a genuine intersection witness.
    """
    if isinstance(target, WindowSet):
        member = target.__contains__
    else:
        member = target
    for alpha, value in fs.items():
        if member(value):
            return alpha, value
    return None


# -- exhaustive partition searches ------------------------------------------


@dataclass(frozen=True)
class MonochromaticFS:
    """Generators whose distinct-index sums all land in one cell."""

    generators: tuple[int, ...]
    color: int
    sums: tuple[int, ...]


@dataclass(frozen=True)
class HindmanVerified:
    n_max: int
    colors: int
    depth: int
    colorings_checked: int


@dataclass(frozen=True)
class HindmanFailure:
    """The lexicographically least coloring with no monochromatic
    finite-sums witness at the requested depth."""

    n_max: int
    colors: int
    depth: int
    coloring: tuple[int, ...]


def _candidate_generators(
    n_max: int, depth: int
) -> Iterator[tuple[int, ...]]:
    # Distinct generators first (non-degenerate witnesses), then tuples
    # with repeats; repeats are legitimate since generators need not be
    # distinct.
    yield from itertools.combinations(range(1, n_max + 1), depth)
    for tup in itertools.combinations_with_replacement(range(1, n_max + 1), depth):
        if len(set(tup)) < depth:
            yield tup


def _subset_sums(gens: tuple[int, ...]) -> list[int]:
    """Sums over the nonempty index sets, in ascending bitmask order."""
    sums = [0] * (1 << len(gens))
    for mask in range(1, len(sums)):
        low = mask & -mask
        sums[mask] = sums[mask ^ low] + gens[low.bit_length() - 1]
    return sums[1:]


def monochromatic_fs(
    coloring: Sequence[int], depth: int
) -> MonochromaticFS | None:
    """Search one coloring of 1..len(coloring) for generators whose
    distinct-index sums stay inside the range and one color cell."""
    n_max = len(coloring)
    for gens in _candidate_generators(n_max, depth):
        sums = _subset_sums(gens)
        if any(s > n_max for s in sums):
            continue
        colors = {coloring[s - 1] for s in sums}
        if len(colors) == 1:
            return MonochromaticFS(
                generators=gens,
                color=colors.pop(),
                sums=tuple(sorted(set(sums))),
            )
    return None


def _check_search_size(n_max: int, colors: int, depth: int) -> None:
    if min(n_max, colors, depth) < 1:
        raise ValueError(
            f"N, r and depth must be >= 1, got N={n_max} r={colors} depth={depth}"
        )


def verify_all_colorings(
    n_max: int, colors: int, depth: int, *, budget: int = 2_000_000
) -> HindmanVerified | HindmanFailure:
    """Exhaust all colorings of 1..n_max; Verified, or the lex-least
    failing coloring.  The lex scan makes the result independent of any
    parallel partitioning of the coloring space."""
    _check_search_size(n_max, colors, depth)
    total = colors**n_max
    if total > budget:
        raise BudgetExceeded(
            f"{colors}^{n_max} = {total} colorings exceed budget {budget}"
        )
    for coloring in itertools.product(range(colors), repeat=n_max):
        if monochromatic_fs(coloring, depth) is None:
            return HindmanFailure(n_max, colors, depth, coloring)
    return HindmanVerified(n_max, colors, depth, total)


def hindman_search(
    n_max: int,
    colors: int,
    depth: int,
    *,
    coloring: Sequence[int] | None = None,
    budget: int = 2_000_000,
) -> MonochromaticFS | None | HindmanVerified | HindmanFailure:
    """The witness search in one coloring of 1..n_max when one is given,
    else the exhaustive verification of all colorings."""
    if coloring is None:
        return verify_all_colorings(n_max, colors, depth, budget=budget)
    _check_search_size(n_max, colors, depth)
    if len(coloring) != n_max:
        raise ValueError(f"coloring must have length {n_max}")
    if any(not 0 <= c < colors for c in coloring):
        raise ValueError(f"colors must lie in 0..{colors - 1}")
    return monochromatic_fs(coloring, depth)


# -- window densities and structure -----------------------------------------


def window_density(ws: WindowSet, length: int) -> tuple[Fraction, Fraction]:
    """(bd_upper, bd_lower): extreme densities over all length-L
    subintervals of the window, as exact rationals."""
    if not 1 <= length <= ws.length:
        raise BadLength(
            f"length {length} does not fit window [{ws.lo}, {ws.hi})"
        )
    prefix = [0]
    for n in range(ws.lo, ws.hi):
        prefix.append(prefix[-1] + (1 if n in ws.members else 0))
    counts = [
        prefix[s + length] - prefix[s] for s in range(ws.length - length + 1)
    ]
    return Fraction(max(counts), length), Fraction(min(counts), length)


@dataclass(frozen=True)
class StructureReport:
    """Exact gap/run statistics with indicator flags.

    Indicators are window-scale evidence, not proofs: they record the
    thresholds they were computed against.
    """

    member_count: int
    max_gap: int | None
    max_run: int
    syndetic_bound: int | None
    thick_runs: int
    syndetic_indicator: bool
    thick_indicator: bool
    piecewise_syndetic_indicator: bool
    thickly_syndetic_indicator: bool
    run_threshold: int
    gap_threshold: int


def structure_classify(
    ws: WindowSet, *, run_threshold: int = 10, gap_threshold: int = 10
) -> StructureReport:
    members = sorted(ws.members)
    max_gap = None
    if len(members) >= 2:
        max_gap = max(b - a for a, b in zip(members, members[1:]))

    # maximal runs of consecutive members
    runs: list[int] = []
    i = 0
    while i < len(members):
        j = i
        while j + 1 < len(members) and members[j + 1] == members[j] + 1:
            j += 1
        runs.append(j - i + 1)
        i = j + 1
    max_run = max(runs, default=0)
    thick_runs = sum(1 for r in runs if r >= run_threshold)

    # longest stretch of the window containing no member
    syndetic_bound = None
    if members:
        stretches = [members[0] - ws.lo, ws.hi - 1 - members[-1]]
        stretches += [b - a - 1 for a, b in zip(members, members[1:])]
        syndetic_bound = max(stretches) + 1

    # maximal pieces where consecutive gaps stay within gap_threshold
    piece_spans: list[int] = []
    i = 0
    while i < len(members):
        j = i
        while j + 1 < len(members) and members[j + 1] - members[j] <= gap_threshold:
            j += 1
        piece_spans.append(members[j] - members[i] + 1)
        i = j + 1

    # start positions of runs of length run_threshold
    starts = [
        p
        for p in range(ws.lo, ws.hi - run_threshold + 1)
        if all(q in ws.members for q in range(p, p + run_threshold))
    ]
    thickly = False
    if starts:
        domain_hi = ws.hi - run_threshold
        gaps = [starts[0] - ws.lo, domain_hi - starts[-1]]
        gaps += [b - a - 1 for a, b in zip(starts, starts[1:])]
        thickly = max(gaps) <= gap_threshold

    return StructureReport(
        member_count=len(members),
        max_gap=max_gap,
        max_run=max_run,
        syndetic_bound=syndetic_bound,
        thick_runs=thick_runs,
        syndetic_indicator=(
            syndetic_bound is not None and syndetic_bound <= gap_threshold
        ),
        thick_indicator=max_run >= run_threshold,
        piecewise_syndetic_indicator=any(
            span >= run_threshold for span in piece_spans
        ),
        thickly_syndetic_indicator=thickly,
        run_threshold=run_threshold,
        gap_threshold=gap_threshold,
    )
