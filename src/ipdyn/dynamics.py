"""Finite-window symbolic dynamics: cylinder sets, return-time sets and
descending open-set chains on substitution subshifts.

Points are never materialized: a query about open sets is answered from
the occurrence positions of its words inside long expansions of the
substitution, held as Python-int bitmasks.  All answers are exact at
window scale and every feasibility bound is checked up front and
reported, never silently truncated.

The language engine (systems, expansions, occurrence indexes) lives in
``substitution``, and the names of it this module builds on are
re-exported here; the config syntax of systems (``[system]`` sections,
rule strings) lives in ``config``.
"""

from __future__ import annotations

import itertools
import operator
from typing import Callable, Sequence

from ._record import Record
from .gammapoly import GammaPolynomial
from .intpoly import IntegralPolynomial, essentially_distinct
from .substitution import (  # noqa: F401 -- re-exported
    BadRules,
    Column,
    SubstitutionSystem,
    WindowTooLarge,
    _KEPT_LAYOUTS,
    _Occurrences,
    _make_room,
    chacon,
    fibonacci,
)


class HypothesisViolation(ValueError):
    """A polynomial family violates the nonconstant / pairwise-distinct
    hypotheses required by polynomial return-set queries."""


# -- cylinders and return sets ----------------------------------------------


class CylinderSet(Record):
    """All points whose coordinates 0..len(word)-1 spell the word; the
    empty word is the whole space."""

    word: str


def require_admissible(
    sys: SubstitutionSystem, cyl: CylinderSet, index: _Occurrences | None = None
) -> None:
    """Raise unless the cylinder word is admissible; ``index``, the index
    of a span within the system's reach (``SubstitutionSystem._reach``)
    no shorter than the word, is asked in place of the word's own."""
    w = cyl.word
    if not (sys.is_admissible(w) if index is None else index.fits & index.starts(w)):
        raise ValueError(f"cylinder word {w!r} is not admissible")


class ReturnSet(Record):
    """Members of [-window, window] satisfying a co-occurrence query,
    together with the provenance needed to reproduce it and the span of
    the longest admissible word the query needed (0 when none was)."""

    window: int
    members: frozenset[int]
    provenance: tuple[tuple[str, str], ...] = ()
    span: int = 0

    def __contains__(self, n: int) -> bool:
        return n in self.members


Constraint = tuple[int, str]  # (offset, word); empty words are ignored


def _layout(columns: Sequence[Column]) -> tuple[list[Column], int]:
    """The columns with a word, each with its offsets relative to that
    n's leftmost cell, and the largest span any n needs: 0 when no column
    has a word.  Every occurrence question is normalized here; a
    single pattern of (offset, word) cells is the columns ((offset,),
    word), at one n."""
    cells = [(offs, w) for offs, w in columns if w]
    if not cells:
        return [], 0
    cells = list(zip(_from_leftmost([offs for offs, _ in cells]), [w for _, w in cells]))
    return cells, max([len(w) + max(offs) for offs, w in cells])


def _from_leftmost(columns: Sequence[Sequence[int]]) -> list[list[int]]:
    """Each column of per-n offsets as its offsets from that n's
    leftmost cell."""
    # one column is its own leftmost cell, and map(min, offs) would call min(int)
    bases = columns[0] if len(columns) == 1 else list(map(min, *columns))
    return [list(map(operator.sub, offs, bases)) for offs in columns]


_BITS = bytes.maketrans(b"01", b"\x00\x01")


def _bits(mask: int) -> bytes:
    """Bit p of a nonnegative mask as byte p, 0 or 1, for itertools.compress."""
    return bin(mask)[:1:-1].encode().translate(_BITS)


def _anchored(
    index: _Occurrences,
    lines: Sequence[tuple[int, int, str]],
    window: int,
    least: int,
) -> tuple[int, int | None]:
    """One side of an affine query, read off its lead word's occurrences.

    ``lines`` gives each cell as (offset at n = 0, slope, word), with n
    counted outward from 0 on this side, and the side holds the n from
    ``least`` (0 or 1) on.  The lead is the cell of least slope, the
    least offset breaking a tie; from ``first`` >= ``least`` on, every
    other cell's offset from it is >= 0, so it is the leftmost cell.  The
    anchors are the positions of the index's ``cover``, which holds every
    window of the span that ``fits`` holds, often once, where the lead
    word starts and every cell of the lead's slope starts at its fixed
    offset.  The other cells move with n, at slope 1 and at most one
    other slope t, and the cells of one slope are one read of the AND of
    their starts: through anchor p, bit j of ``starts >> p`` at slope 1,
    and of ``copies[p % t] >> p // t`` at t >= 2, a copy of the starts
    that keeps the residue class of p mod t (``residues``).  One
    interpreted step per anchor (``ones``) ORs the AND of the reads into
    one int; a kept index keeps the anchors and copies of its recent
    queries.  Returns ``first`` (window + 1 past the window) and a mask
    whose bit j is the membership of first + j; the mask is None, and
    the n left to the sweep, when the anchors are no fewer than the n
    they would answer or the moving cells have more than one slope
    other than 1."""
    (a0, s0, lead), *others = sorted(lines, key=operator.itemgetter(1, 0))
    rel = [(a - a0, s - s0, w) for a, s, w in others]  # offset e + t*n, t >= 0
    first = min(max([least] + [-(e // t) for e, t, _ in rel if t]), window + 1)
    count = window + 1 - first
    if not count:  # first was cut to window + 1, where e + t*first may be < 0
        return first, None
    reads = {0: index.cover & index.starts(lead)}  # per slope, from n = first
    for e, t, w in rel:
        # at n = first + j the cell starts at p + e + t*first + t*j, and
        # e + t*first >= 0
        reads[t] = reads.get(t, -1) & index.starts(w) >> (e + t * first)
    anchors = reads.pop(0)
    one = reads.pop(1, -1)  # -1 >> p is -1: no cell of slope 1 reads all n
    if len(reads) > 1 or anchors.bit_count() >= count:
        return first, None
    found = 0
    if not reads:
        for p in index.ones(anchors):
            found |= one >> p
    else:
        ((t, starts),) = reads.items()
        copies = index.residues(starts, t)
        for p in index.ones(anchors):
            found |= one >> p & copies[p % t] >> p // t
    return first, found & ((1 << count) - 1)


# a query's layout (``_arrange``): each cell as (c0, c1) when every
# offset is affine, else None; the (cell, offset) pairs read once; the
# (cell, offsets) pairs read at every n; and each cell's reach
Layout = tuple[
    list[tuple[int, int]] | None, list[tuple[int, int]], list[tuple[int, list[int]]], list[int]
]
_COEFFS = operator.attrgetter("coeffs")


def _arrange(polys: Sequence[IntegralPolynomial], window: int) -> Layout:
    """How ``_members`` reads cells of these offset polynomials on
    [-window, window], whatever their words: the layout that ``_plan``
    joins the words to.  The reach of a cell is the furthest from the
    leftmost cell its word may start at any n, so that the query's span,
    the largest any n needs, is the largest reach plus word length.

    When every offset is affine, the layout gives each cell as (c0, c1),
    its offset being c0 + c1 n, and nothing else is laid out: an offset
    from the leftmost cell is a maximum of affine functions of n, so it
    peaks at n = -window or window.  Otherwise every cell takes each n's
    offset from that n's leftmost cell (``_from_leftmost``), and the
    sweep reads once the fixed cells, whose offset is the same at every
    n, and the moving cells' offsets for every n."""
    if max([p.degree for p in polys]) <= 1:
        lines = [(*p.coeffs, 0, 0)[:2] for p in polys]
        ends = _from_leftmost([(a - s * window, a + s * window) for a, s in lines])
        return lines, [], [], list(map(max, ends))
    offsets = _from_leftmost([p.values(-window, 2 * window + 1) for p in polys])
    fixed, moving, reaches = [], [], list(map(max, offsets))
    for j, offs in enumerate(offsets):
        if min(offs) == reaches[j]:
            fixed.append((j, reaches[j]))
        else:
            moving.append((j, offs))
    return None, fixed, moving, reaches


def _plan(
    words: Sequence[str], layout: Layout
) -> tuple[list[tuple[int, int, str]] | None, tuple[list[Constraint], list[Column]], int]:
    """The cells of a query's ``layout`` (``_arrange``) with their
    nonempty ``words``: (lines, (fixed, columns), span).  ``lines``
    gives each cell as (c0, c1, word) when every offset is affine, else
    it is None, and the sweep reads the ``fixed`` (offset, word) cells
    once and the ``columns`` of per-n offsets for every n; the span is
    the largest any n needs.  Evaluates no polynomial."""
    lines, fixed, moving, reaches = layout
    span = max(map(operator.add, reaches, map(len, words)))
    if lines is not None:
        return [(a, s, w) for (a, s), w in zip(lines, words)], ([], []), span
    sweep = [(off, words[j]) for j, off in fixed], [(offs, words[j]) for j, offs in moving]
    return None, sweep, span


def _members(
    sys: SubstitutionSystem,
    window: int,
    columns: Sequence[tuple[IntegralPolynomial, str]],
    cylinders: Sequence[CylinderSet] = (),
) -> tuple[frozenset[int], int]:
    """The n in [-window, window] whose cells some admissible word of the
    query's largest span carries, and that span; ``columns`` gives each
    cell's offset as a polynomial in n, and its word.  ``cylinders`` are
    checked admissible first, in order, before the span's bound: against
    the query's own index when the query's span is certified
    (``_shared_index``), else each against its own.  The system keeps a
    certified span's index, so a warm query of a recent span builds
    none, and, once a query's span has passed the bound, the layout
    (``_arrange``) of its word-carrying cells' polynomials and window, for
    the _KEPT_LAYOUTS pairs asked most recently, so a warm query of a
    recent pair evaluates no polynomial (``_plan``).

    Two routes give the same members (``_arrange`` lays out both).  The
    sweep (``carrier_masks``) ANDs one shifted mask per moving cell for
    every n in C-level maps, into a base mask that ANDs each fixed cell
    once, the offsets being each n's from its leftmost cell.  When every
    offset is affine in n, each side of 0 may
    instead take ``_anchored``, which takes one interpreted step per
    occurrence of the lead word in the index's ``cover`` and answers
    every n from each; it does so when those are fewer than the side's
    n.  The positive side holds
    n = 0, and the negative side starts at -1.  The n before the lead
    becomes the leftmost cell and any side the anchor route declines
    take the sweep.  Both read one index, of the span fixed before
    either runs, and test the same starts of every word at the leftmost
    cell's ``fits`` positions, or at its ``cover`` positions, which hold
    every window the ``fits`` positions do, so the answers do not depend
    on the route."""
    cells = [(p, w) for p, w in columns if w]
    ns = range(-window, window + 1)
    if not cells:
        return frozenset(ns), 0
    polys, words = zip(*cells)
    # a display, not tuple(map(...)), which sizes a tuple for 10 items
    # and shrinks it: each shrunk tuple joins the free list of its new
    # size when freed, so that list would grow by one per query, to 2000
    key, kept = ((*map(_COEFFS, polys),), window), sys._layouts
    layout = kept.get(key) or _arrange(polys, window)
    lines, (fixed, moving), span = _plan(words, layout)
    too_long = "query needs words of length {span}, bound is {bound}"
    index = sys._shared_index(span, too_long)
    for cyl in cylinders:
        require_admissible(sys, cyl, index)
    if index is None:
        index = sys._index(span, too_long)
    kept.pop(key, None)  # asked again: moves to the end
    _make_room(kept, _KEPT_LAYOUTS)
    kept[key] = layout
    if lines is None:
        base = index.fits
        for off, w in fixed:
            base &= index.starts(w) >> off
        swept = itertools.compress(ns, index.carrier_masks(moving, len(ns), base))
        return frozenset(swept), span
    answered, bounds = [], []
    for sign, least in ((1, 0), (-1, 1)):
        side = [(a, sign * s, w) for a, s, w in lines]
        first, found = _anchored(index, side, window, least)
        if found is None:
            first = window + 1
        else:
            outward = range(sign * first, sign * (window + 1), sign)
            answered.append(itertools.compress(outward, _bits(found)))
        bounds.append(first)
    near = range(1 - bounds[1], bounds[0])
    if near:
        lo, hi = near.start, near.stop
        moving, _ = _layout(
            [(range(a + s * lo, a + s * hi, s) if s else [a] * len(near), w)
             for a, s, w in lines]
        )
        swept = itertools.compress(near, index.carrier_masks(moving, len(near)))
        answered.append(swept)
    return frozenset(itertools.chain(*answered)), span


# the offset of u in every query, and of v in a plain return set
_ZERO = IntegralPolynomial(())
_IDENTITY = IntegralPolynomial((0, 1))


def return_set(
    sys: SubstitutionSystem,
    u: CylinderSet,
    v: CylinderSet,
    window: int,
) -> ReturnSet:
    """{n in [-W, W] : some admissible word carries u at 0 and v at n}.

    Negative n is the symmetric check with the roles of u and v swapped,
    which is the two-sided convention for factor languages.
    """
    if window < 0:
        raise ValueError("window must be nonnegative")
    columns = [(_ZERO, u.word), (_IDENTITY, v.word)]
    members, span = _members(sys, window, columns, (u, v))
    provenance = (
        ("op", "return-set"),
        ("system", sys.describe()),
        ("u", u.word),
        ("v", v.word),
        ("window", str(window)),
    )
    return ReturnSet(window, members, provenance, span)


def check_polynomial_hypotheses(polys: Sequence[IntegralPolynomial]) -> None:
    """Every polynomial nonconstant, every pairwise difference nonconstant."""
    for p in polys:
        if p.is_constant:
            raise HypothesisViolation(f"polynomial {p} is constant")
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            if not essentially_distinct(polys[i], polys[j]):
                raise HypothesisViolation(
                    f"polynomials {polys[i]} and {polys[j]} differ by a constant"
                )


def poly_return_set(
    sys: SubstitutionSystem,
    u: CylinderSet,
    vs: Sequence[CylinderSet],
    polys: Sequence[IntegralPolynomial],
    window: int,
) -> ReturnSet:
    """{n : one admissible word carries u at 0 and each v_i at p_i(n)}."""
    if len(vs) != len(polys):
        raise ValueError("need one polynomial per cylinder")
    if not vs:
        raise ValueError("need at least one cylinder/polynomial pair")
    if window < 0:
        raise ValueError("window must be nonnegative")
    check_polynomial_hypotheses(polys)
    words = [v.word for v in vs]
    columns = [(_ZERO, u.word), *zip(polys, words)]
    members, span = _members(sys, window, columns, (u, *vs))
    provenance = (
        ("op", "poly-return-set"),
        ("system", sys.describe()),
        ("u", u.word),
        ("vs", "|".join(words)),
        ("polys", "; ".join(map(str, polys))),
        ("window", str(window)),
    )
    return ReturnSet(window, members, provenance, span)


def required_span(
    polys: Sequence[IntegralPolynomial],
    u: CylinderSet,
    vs: Sequence[CylinderSet],
    window: int,
) -> int:
    """Longest admissible word a polynomial query will need, by the rule
    its return set's span follows (``_arrange``, ``_plan``); lets callers
    report feasibility before computing.  Keeps no layout."""
    columns = [(_ZERO, u.word), *zip(polys, [v.word for v in vs])]
    cells = [(p, w) for p, w in columns if w]
    if not cells:
        return 0
    polys, words = zip(*cells)
    return _plan(words, _arrange(polys, window))[2]


# -- minimality probe ---------------------------------------------------------


class MinimalityReport(Record):
    """Whether every admissible long word contains every admissible short
    word, and the least radius at which that holds."""

    word_length: int
    scan_limit: int
    radius: int | None
    passed: bool
    missing: tuple[str, str] | None  # (long word, absent short word)


def minimality_probe(
    sys: SubstitutionSystem, word_length: int, scan_limit: int
) -> MinimalityReport:
    """The least radius R in [word_length, scan_limit] at which every
    admissible word of R letters contains every admissible word of
    ``word_length`` letters.  On failure, ``missing`` is the
    lexicographically least word of ``scan_limit`` letters that lacks
    one, and the first short word, in sorted order, that it lacks."""
    if word_length < 1 or scan_limit < word_length:
        raise ValueError("need 1 <= word_length <= scan_limit")
    short = sorted(sys.factors(word_length))
    for radius in range(word_length, scan_limit + 1):
        index = sys._index(radius, "factor length {span} exceeds bound {bound}")
        # bit p of lacks[i]: the window at p holds no start of short[i], so
        # none at p..p+room-1; shifts by 1, 2, 4, ... spread each start
        room, lacks, lacking = radius - word_length + 1, [], 0
        for u in short:
            within, width = index.starts(u), 1
            while 2 * width <= room:
                within |= within >> width
                width *= 2
            lacks.append(index.fits & ~(within | within >> (room - width)))
            lacking |= lacks[-1]
        if not lacking:
            return MinimalityReport(word_length, scan_limit, radius, True, None)
    positions = [p for p, bit in enumerate(bin(lacking)[:1:-1]) if bit == "1"]
    w, p = min((index.text[p : p + scan_limit], p) for p in positions)
    u = next(u for u, lack in zip(short, lacks) if lack >> p & 1)
    return MinimalityReport(word_length, scan_limit, None, False, (w, u))


# -- descending open-set chains ----------------------------------------------


class WitnessExhausted(RuntimeError):
    """No admissible word realizes the next chain level inside the
    window; carries the failure depth and the partial chain."""

    def __init__(self, depth: int, partial: "Lemma213Chain"):
        self.depth = depth
        self.partial = partial
        super().__init__(f"no transitivity witness at depth {depth}")


def pattern_realizable(sys: SubstitutionSystem, cells: Sequence[Constraint]) -> bool:
    """True when some admissible word carries every (offset, word) cell;
    cells that spell two letters at one position are carried nowhere."""
    columns, span = _layout([((off,), w) for off, w in cells])
    if not span:
        return True
    index = sys._index(span, "pattern span {span} exceeds bound {bound}")
    return any(index.carrier_masks(columns, 1))


def letter_cells(cells: Sequence[Constraint]) -> tuple[tuple[int, str], ...]:
    """The sorted (position, letter) cells a realizable pattern spells."""
    return tuple(sorted({(off + i, c) for off, w in cells for i, c in enumerate(w)}))


def _gamma_shift(g: GammaPolynomial, m: int) -> int:
    # Instantiate every generator as the one shift map: exponents add.
    return sum(p(m) for p in g.exps)


class Lemma213Chain(Record):
    """Descending open-set levels: ``levels[n][i]`` holds the (offset,
    word) cells of the pattern that refines cylinder i after consuming
    shifts[0..n]."""

    shifts: tuple[int, ...]
    levels: tuple[tuple[tuple[Constraint, ...], ...], ...]
    base_power: int


def _next_level(
    sys: SubstitutionSystem,
    current: tuple[tuple[Constraint, ...], ...],
    words: Sequence[str],
    offsets: Sequence[IntegralPolynomial],
    ms: range,
) -> tuple[int, tuple[tuple[Constraint, ...], ...]] | None:
    """The first m of ``ms`` at which every pattern of ``current``, with
    its cylinder word added at offsets[i](m), is realizable, and that
    level; None when no m is.

    The m are tried in blocks of 8, 16, 32, ... up to 1024.  A run of a
    block within the bound whose widest span is certified
    (``_shared_index``) is answered by that span's index and per
    cylinder one ``_layout`` and one lazy chain of carrier masks; the
    first m carried for every cylinder wins.  Any other m asks ``pattern_realizable`` of each cylinder in
    order, as the search always did, so an m whose span passes the bound
    raises WindowTooLarge only where it did."""
    start, size = 0, 8
    while start < len(ms):
        block = ms[start : start + size]
        start, size = start + size, min(2 * size, 1024)
        values = [p.values(block.start, len(block)) for p in offsets]

        def level(k: int) -> tuple[tuple[Constraint, ...], ...]:
            return tuple(
                cells + ((offs[k], w),) if w else cells
                for cells, w, offs in zip(current, words, values)
            )

        cols = [(cells, w, offs) for cells, w, offs in zip(current, words, values) if w]
        if not cols:  # every level is the whole space
            return block[0], level(0)
        spans = []  # per cylinder with a word, its pattern's span at each m
        for cells, w, offs in cols:
            left, right = min(o for o, _ in cells), max(o + len(v) for o, v in cells)
            spans.append([max(right, c + len(w)) - min(left, c) for c in offs])
        widest = [max(s) for s in zip(*spans)]
        bound = sys.max_word_length
        for _, run in itertools.groupby(range(len(block)), lambda k: widest[k] > bound):
            run = list(run)
            a, b = run[0], run[-1] + 1
            index = sys._shared_index(
                max(widest[a:b]), "pattern span {span} exceeds bound {bound}"
            )
            if index is None:
                for k in run:
                    nxt = level(k)
                    if all(pattern_realizable(sys, cells) for cells in nxt):
                        return block[k], nxt
                continue
            masks = [
                index.carrier_masks(
                    _layout([((o,) * (b - a), v) for o, v in cells] + [(offs[a:b], w)])[0],
                    b - a,
                )
                for cells, w, offs in cols
            ]
            for k, found in enumerate(zip(*masks), a):
                if all(found):
                    return block[k], level(k)
    return None


def _build_chain(
    sys: SubstitutionSystem,
    cylinders: Sequence[CylinderSet],
    gammas: Sequence[GammaPolynomial],
    candidates: Callable[[int, int], range],
    depth: int,
    base_power: int,
) -> Lemma213Chain:
    """Levels 0..depth.  Level n takes the first shift m of the range
    ``candidates(n, previous shift or 0)`` for which every pattern of
    level n-1, with its cylinder word added at g_i(m) - n * base_power,
    stays realizable (``_next_level``); earlier levels are fixed once
    built.  Raises WitnessExhausted with the partial chain when no
    candidate does."""
    if len(cylinders) != len(gammas):
        raise ValueError("need one exponent element per cylinder")
    if depth < 0:
        raise ValueError(f"a chain needs at least one level, got depth {depth}")
    for cyl in cylinders:
        require_admissible(sys, cyl)
    words = [cyl.word for cyl in cylinders]
    # every generator is the one shift map, so exponents add
    exps = [sum(g.exps, IntegralPolynomial.zero()) for g in gammas]
    shifts: list[int] = []
    levels: list[tuple[tuple[Constraint, ...], ...]] = []
    current = tuple(((0, w),) if w else () for w in words)
    for n in range(depth + 1):
        step = IntegralPolynomial.constant(n * base_power)
        found = _next_level(
            sys, current, words, [p - step for p in exps],
            candidates(n, shifts[-1] if shifts else 0),
        )
        if found is None:
            raise WitnessExhausted(
                n, Lemma213Chain(tuple(shifts), tuple(levels), base_power)
            )
        m, current = found
        shifts.append(m)
        levels.append(current)
    return Lemma213Chain(tuple(shifts), tuple(levels), base_power)


def lemma213_chain(
    sys: SubstitutionSystem,
    cylinders: Sequence[CylinderSet],
    gammas: Sequence[GammaPolynomial],
    shifts: Sequence[int],
    *,
    base_power: int = 1,
) -> Lemma213Chain:
    """Build the descending chain V_i ⊇ V_i^(0) ⊇ V_i^(1) ⊇ ... by the
    recursion V_i^(n) = V_i^(n-1) ∩ (g_i(m_n) T^{-n})^{-1} V_i.

    Each level is checked nonempty against the admissible language;
    failure raises WitnessExhausted with the partial chain.  Shift n
    must satisfy |m_n| > n, mirroring the transitivity bookkeeping the
    recursion encodes.
    """
    shifts = tuple(int(m) for m in shifts)
    if not shifts:
        raise ValueError("a chain needs at least one level, got no shifts")
    for n, m in enumerate(shifts):
        if abs(m) <= n:
            raise ValueError(f"shift {m} at depth {n} must satisfy |m| > {n}")
    return _build_chain(
        sys, cylinders, gammas, lambda n, _: range(shifts[n], shifts[n] + 1),
        len(shifts) - 1, base_power,
    )


def find_chain_shifts(
    sys: SubstitutionSystem,
    cylinders: Sequence[CylinderSet],
    gammas: Sequence[GammaPolynomial],
    depth: int,
    *,
    search_window: int,
    base_power: int = 1,
) -> Lemma213Chain:
    """Greedy shift search: at each level take the least strictly larger
    candidate in [1, search_window] that keeps every level nonempty.
    The candidates are tried in doubling blocks, each answered by one
    index where its widest span is certified (``_next_level``), with the
    shifts, levels and exceptions of trying them one at a time."""
    return _build_chain(
        sys, cylinders, gammas,
        lambda n, prev: range(max(prev + 1, n + 1), search_window + 1),
        depth, base_power,
    )


class ContainmentCheck(Record):
    level: int
    cylinder_index: int
    shift_index: int
    holds: bool


def _inclusion(cells: Sequence[Constraint], word: str) -> tuple[list[Column], int, int]:
    """Whether every admissible word of the span that carries the pattern
    also spells a nonempty ``word`` at position 0, as a question: the
    pattern's columns, the offset of the word from the leftmost cell, and
    the span of both."""
    # the cylinder's cell goes in last, and it is not empty, so it comes out last
    (*columns, ((target,), _)), span = _layout(
        [((off,), w) for off, w in (*cells, (0, word))]
    )
    return columns, target, span


def _contained(index: _Occurrences, columns: list[Column], target: int, word: str) -> bool:
    (carriers,) = index.carrier_masks(columns, 1)
    # a pattern with no admissible realization is vacuously contained
    return carriers & ~(index.starts(word) >> target) == 0


_INCLUSION_TOO_LONG = "inclusion span {span} exceeds bound {bound}"


def verify_chain(
    sys: SubstitutionSystem,
    cylinders: Sequence[CylinderSet],
    gammas: Sequence[GammaPolynomial],
    chain: Lemma213Chain,
) -> tuple[bool, tuple[ContainmentCheck, ...]]:
    """Re-verify every displayed containment of the chain independently:
    shifting level n by the step-j map must land inside the cylinder
    (``_inclusion``, ``_contained``).  The chain needs one exponent
    element per cylinder, one shift per level and one pattern per
    cylinder at every level, else ValueError, before any index is read.
    When the chain's widest inclusion span is certified
    (``_shared_index``), every check reads that span's index; else each
    reads its own span's, in order."""
    if len(gammas) != len(cylinders):
        raise ValueError("need one exponent element per cylinder")
    if len(chain.shifts) != len(chain.levels):
        raise ValueError("need one shift per chain level")
    if any(len(level) != len(cylinders) for level in chain.levels):
        raise ValueError("need one pattern per cylinder at every chain level")
    asked = []  # (level, cylinder index, step, word, its _inclusion or None), in order
    for n, level in enumerate(chain.levels):
        for i, (cells, cyl, g) in enumerate(zip(level, cylinders, gammas)):
            word = cyl.word
            for j, m in enumerate(chain.shifts[: n + 1]):
                s = _gamma_shift(g, m) - j * chain.base_power
                shifted = [(off - s, w) for off, w in cells]
                asked.append((n, i, j, word, _inclusion(shifted, word) if word else None))
    span = max((question[2] for *_, question in asked if question), default=0)
    index = sys._shared_index(span, _INCLUSION_TOO_LONG) if span else None
    checks = []
    for n, i, j, word, question in asked:
        holds = not question or _contained(
            index or sys._index(question[2], _INCLUSION_TOO_LONG), *question[:2], word
        )
        checks.append(ContainmentCheck(n, i, j, holds))
    return all(c.holds for c in checks), tuple(checks)
