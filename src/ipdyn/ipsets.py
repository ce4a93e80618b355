"""Finite truncations of finite-sums sets, partition searches over the
colorings of 1..N, and window-scale density/structure classifiers.

Everything here is finite and exact.  A truncation can witness that a
set meets a finite-sums family; it can never refute the infinite
statement, and reports are worded accordingly by the callers.  The
all-colorings check is a depth-first search with forward checking that
covers every coloring without visiting each one, in the manner of the
Schur-number searches (Baumert 1965; Heule, "Schur Number Five",
AAAI 2018).
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

from ._record import Record


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
        """All (index set, sum) pairs, in ascending bitmask order.  The
        sets are built by doubling, one generator's worth at a time."""
        alphas = [frozenset()]
        for i in range(self.size):
            added = [alpha | {i + 1} for alpha in alphas]
            yield from zip(added, self._sums[len(alphas) - 1 : 2 * len(alphas) - 1])
            alphas += added

    def sums(self) -> list[int]:
        """All 2^k - 1 sums with repetition, in ascending bitmask order."""
        return list(self._sums)

    def values(self) -> tuple[int, ...]:
        """The distinct sums, ascending."""
        return tuple(sorted(set(self._sums)))

    def __repr__(self) -> str:
        return f"FSTruncation(generators={self.generators!r})"


def enumerate_fs(generators: Sequence[int]) -> FSTruncation:
    return FSTruncation(generators)


class WindowSet(Record):
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
        """The n in [lo, hi) that satisfy the predicate: listed directly
        for a catalogue predicate, found by calling it on every n else."""
        listed = getattr(predicate, "members", None)
        members = listed(lo, hi) if listed else filter(predicate, range(lo, hi))
        return cls(lo, hi, frozenset(members))

    @classmethod
    def from_csv_text(cls, text: str, lo: int, hi: int) -> "WindowSet":
        """One integer per line, in the window [lo, hi)."""
        values = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                values.append(int(line))
            except ValueError:
                raise ValueError(f"line {lineno}: not an integer: {line!r}")
        return cls(lo, hi, frozenset(values))


def _listing(
    test: Callable[[int], bool], members: Callable[[int, int], Iterable[int]]
) -> Callable[[int], bool]:
    """A catalogue predicate that also lists its members in [lo, hi)."""
    test.members = members  # type: ignore[attr-defined]
    return test


def _multiples(k: int) -> Callable[[int], bool]:
    return _listing(
        lambda n: n % k == 0, lambda lo, hi: range(lo + -lo % abs(k), hi, abs(k))
    )


def _squares(lo: int, hi: int) -> Iterable[int]:
    first = math.isqrt(lo - 1) + 1 if lo > 0 else 0  # the least r with r*r >= lo
    last = math.isqrt(hi - 1) if hi > 0 else -1  # the largest r with r*r < hi
    return (r * r for r in range(first, last + 1))


def builtin_predicate(name: str) -> Callable[[int], bool]:
    """Catalog lookup: ``evens``, ``squares``, or ``multiples:k``.  Each
    entry is a predicate with a ``members(lo, hi)`` attribute that lists
    the n in [lo, hi) it holds for."""
    if name == "evens":
        return _multiples(2)
    if name == "squares":
        return _listing(lambda n: n >= 0 and math.isqrt(n) ** 2 == n, _squares)
    if name.startswith("multiples:"):
        text = name.split(":", 1)[1]
        try:
            k = int(text)
        except ValueError:
            raise ValueError(f"predicate {name!r}: k is not an integer: {text!r}")
        if k == 0:
            raise ValueError("multiples:0 is not a valid predicate")
        return _multiples(k)
    raise ValueError(f"unknown predicate {name!r}")


def ip_witness(
    member: Callable[[int], bool], fs: FSTruncation
) -> tuple[frozenset[int], int] | None:
    """First (index set, sum) of the truncation whose sum satisfies the
    membership predicate, scanning in ascending bitmask order; None when
    the whole truncation misses.  Absence over a truncation refutes
    nothing about the infinite statement; presence is a genuine
    intersection witness.
    """
    for alpha, value in fs.items():
        if member(value):
            return alpha, value
    return None


# -- partition searches ----------------------------------------------------


class MonochromaticFS(Record):
    """Generators whose distinct-index sums all land in one cell."""

    generators: tuple[int, ...]
    color: int
    sums: tuple[int, ...]


class HindmanVerified(Record):
    """Every coloring of 1..n_max in ``colors`` colors has a
    monochromatic finite-sums witness of ``depth`` generators."""

    n_max: int
    colors: int
    depth: int


class HindmanFailure(Record):
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
    """Sums over the nonempty index sets, in ascending bitmask order: the
    sets with generator i are those without it, shifted by bit i."""
    sums = [0]
    for g in gens:
        sums += [s + g for s in sums]
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


def _partitions(total: int, parts: int, least: int = 1) -> Iterator[tuple[int, ...]]:
    """The ascending tuples of ``parts`` integers >= least that sum to
    ``total``: the generator tuples of ``_candidate_generators`` with
    that sum, found without walking the others."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(least, total // parts + 1):
        for rest in _partitions(total - first, parts - 1, first):
            yield (first, *rest)


# (bits of the tail's sums, sub-sums of the tail, bits of the allowed g)
_Family = tuple[int, tuple[int, ...], int]


def _witness_families(k: int, n_max: int, depth: int) -> list[_Family]:
    """The witnesses that integer k is the last to complete below their
    largest sum, one family per tail.

    A witness (g, *tail) is a generator tuple with g its least
    generator; its largest sum is g + sum(tail), and its second largest
    is sum(tail) = k.  For each tail this gives (the bits of the tail's
    own sums, the sums s of its proper subsets, the bits of every g with
    g <= min(tail) and g + k <= n_max): all sums below the largest lie
    in one colour class m exactly when the tail's sums do and g + s is
    in m for every s.
    """
    families = []
    for tail in _partitions(k, depth - 1):
        most = min(tail[0] if tail else n_max, n_max - k)
        if most < 1:
            continue
        sums = _subset_sums(tail)
        tail_bits = 0
        for s in sums:
            tail_bits |= 1 << s
        # the sums of the tail's subsets other than the whole tail, the
        # empty one (0) included; an empty tail has no such subset
        shifts = tuple(sorted({0, *sums[:-1]})) if tail else ()
        families.append((tail_bits, shifts, (1 << most + 1) - 2))
    return families


def verify_all_colorings(
    n_max: int, colors: int, depth: int, *, budget: int = 2_000_000
) -> HindmanVerified | HindmanFailure:
    """Verified when every coloring of 1..n_max has a monochromatic
    finite-sums set of ``depth`` generators, else the lex-least coloring
    that has none.

    A depth-first search colours 1..n_max in order, trying colours in
    ascending order, and opens colour c only after c - 1 has appeared:
    the lex-least failing coloring uses its colours in order of first
    appearance, so it is the first complete leaf.  Bit p of
    ``forbidden[c]`` is set when colouring p with c would complete a
    monochromatic witness; a branch is cut as soon as some integer is
    forbidden in every colour (forward checking).  ``budget`` bounds the
    integers coloured.
    """
    _check_search_size(n_max, colors, depth)
    families: dict[int, list[_Family]] = {}
    members = [0] * colors
    # a one-generator witness {g} has no sums below g: it is complete
    # in every colour before anything is coloured
    single = functools.reduce(
        operator.or_, (g_bits for _, _, g_bits in _witness_families(0, n_max, depth)), 0
    )
    forbidden = [single] * colors
    coloring: list[int] = []
    undo: list[tuple[int, int, int]] = []  # (members, forbidden, opened) before
    opened = 0  # colours used so far
    nodes = 0
    k, c = 1, 0  # the integer to colour and the next colour to try
    while True:
        limit = min(colors, opened + 1)
        while c < limit and forbidden[c] >> k & 1:
            c += 1
        if c == limit:
            if not coloring:
                return HindmanVerified(n_max, colors, depth)
            k, c = k - 1, coloring.pop()
            members[c], forbidden[c], opened = undo.pop()
            c += 1
            continue
        nodes += 1
        if nodes > budget:
            raise BudgetExceeded(
                f"search exceeded its budget of {budget} nodes (integers colored)"
            )
        group = families.get(k)
        if group is None:
            group = families[k] = _witness_families(k, n_max, depth)
        m, f = members[c] | 1 << k, forbidden[c]
        for tail_bits, shifts, g_bits in group:
            if tail_bits & ~m:
                continue
            for s in shifts:
                g_bits &= m >> s
            f |= g_bits << k
        if k == n_max:
            return HindmanFailure(n_max, colors, depth, (*coloring, c))
        before, forbidden[c] = forbidden[c], f
        if f != before and functools.reduce(operator.and_, forbidden):
            # some later integer is forbidden in every colour
            forbidden[c] = before
            c += 1
            continue
        undo.append((members[c], before, opened))
        members[c] = m
        coloring.append(c)
        opened = max(opened, c + 1)
        k, c = k + 1, 0


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
    subintervals of the window, as exact rationals.

    The count of members in [s, s + L) changes with s only where a
    member m leaves (s = m + 1) or enters (s = m - L + 1).  So every
    count over the starts lo..hi - L is taken at lo or at one of those
    change points, and only they are counted, by bisection in the sorted
    members: the work and memory follow the member count, not the width
    of the window.
    """
    if not 1 <= length <= ws.length:
        raise BadLength(
            f"length {length} does not fit window [{ws.lo}, {ws.hi})"
        )
    members = sorted(ws.members)
    last = ws.hi - length
    changes = {ws.lo}
    changes.update([m + 1 for m in members], [m - length + 1 for m in members])
    starts = [s for s in changes if ws.lo <= s <= last]
    rank = functools.partial(bisect.bisect_left, members)
    ends = map(rank, [s + length for s in starts])
    counts = list(map(operator.sub, ends, map(rank, starts)))
    return Fraction(max(counts), length), Fraction(min(counts), length)


class StructureReport(Record):
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


def _pieces(members: Sequence[int], gap: int) -> list[tuple[int, int]]:
    """The maximal [first, last] stretches of sorted ``members`` in which
    consecutive members lie at most ``gap`` apart; ``gap=1`` gives the
    runs of consecutive members."""
    pieces: list[tuple[int, int]] = []
    for m in members:
        if pieces and m - pieces[-1][1] <= gap:
            pieces[-1] = (pieces[-1][0], m)
        else:
            pieces.append((m, m))
    return pieces


def _longest_hole(intervals: Sequence[tuple[int, int]], lo: int, hi: int) -> int:
    """The longest stretch of [lo, hi) that the sorted, disjoint
    intervals [a, b] leave uncovered."""
    lasts = [lo - 1] + [b for _, b in intervals]
    firsts = [a for a, _ in intervals] + [hi]
    return max(a - b - 1 for b, a in zip(lasts, firsts))


def structure_classify(
    ws: WindowSet, *, run_threshold: int = 10, gap_threshold: int = 10
) -> StructureReport:
    """Gap and run statistics of ``ws``, all read off its maximal runs
    and gap-bounded pieces; thresholds below 1 raise ValueError."""
    if min(run_threshold, gap_threshold) < 1:
        raise ValueError(f"thresholds must be >= 1, got {run_threshold}, {gap_threshold}")
    members = sorted(ws.members)
    max_gap = None
    if len(members) >= 2:
        max_gap = max(b - a for a, b in zip(members, members[1:]))

    runs = _pieces(members, 1)
    run_lengths = [b - a + 1 for a, b in runs]
    max_run = max(run_lengths, default=0)
    thick_runs = sum(1 for r in run_lengths if r >= run_threshold)

    # one more than the longest stretch of the window containing no member
    syndetic_bound = _longest_hole(runs, ws.lo, ws.hi) + 1 if runs else None

    # a run [a, b] of at least run_threshold members holds a
    # run_threshold-run starting at each of a..b - run_threshold + 1
    starts = [
        (a, b - run_threshold + 1) for a, b in runs if b - a + 1 >= run_threshold
    ]
    thickly = bool(starts) and _longest_hole(
        starts, ws.lo, ws.hi - run_threshold + 1
    ) <= gap_threshold

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
            b - a + 1 >= run_threshold for a, b in _pieces(members, gap_threshold)
        ),
        thickly_syndetic_indicator=thickly,
        run_threshold=run_threshold,
        gap_threshold=gap_threshold,
    )
