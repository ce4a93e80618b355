"""Finite-window symbolic dynamics: substitution subshift languages,
cylinder sets, return-time sets, descending open-set chains and
recurrence searches.

Points are never materialized: a query about open sets is answered from
the occurrence positions of its words inside long expansions of the
substitution, held as Python-int bitmasks.  All answers are exact at
window scale and every feasibility bound is checked up front and
reported, never silently truncated.

The config syntax of systems (``[system]`` sections, rule strings)
lives in ``config``.
"""

from __future__ import annotations

import bisect
import itertools
import operator
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, Mapping, Sequence, Union

from .gammapoly import GammaPolynomial
from .intpoly import IntegralPolynomial, essentially_distinct


class BadRules(ValueError):
    """A substitution rule set is malformed."""


class WindowTooLarge(ValueError):
    """A query needs admissible words longer than the configured bound."""


class HypothesisViolation(ValueError):
    """A polynomial family violates the nonconstant / pairwise-distinct
    hypotheses required by polynomial return-set queries."""


class ZeroPower(ValueError):
    """Power-return queries need a nonzero exponent."""


# -- substitution systems ---------------------------------------------------

_MIN_EXPANSION = 4096
_EXPANSION_MARGIN = 32
# the fixed-point certificate closes the factor sets of up to this many
# letters exactly, and looks for all of them in this many kept letters
_CERTIFIED_WIDTH = 12
_CERTIFY_SEARCH = 256


class SubstitutionSystem:
    """A substitution subshift described by symbol rewriting rules.

    The admissible language is the factor set of long expansions of the
    seed symbols.  ``depth=None`` grows each seed until the expansion is
    comfortably longer than any requested factor; a fixed integer depth
    applies the rules exactly that many times.  Substitutions that stop
    growing (for instance a single fixed letter) are closed off
    periodically, so the constant system has language a, aa, aaa, ...

    Each seed keeps one expansion, with its letter masks, and every
    query reads a prefix of it.  A seed whose image begins with itself
    has a fixed point that all its expansions are prefixes of, so its
    kept prefix only ever grows; any other seed keeps the one iterate,
    or periodic closure, that its last query read.

    Every question about the language (factor sets, admissibility,
    patterns, return sets) reads one occurrence index of its span.  On a
    fixed-point seed (automatic depth) that index is the shortest prefix
    its certificate (``_staircase``) proves holds every factor of the
    span, when that is shorter than the expansion: the same factors, so
    the same answers, from fewer letters.  Other seeds, and spans no
    certificate reaches, read the expansion.  Nothing but the kept
    expansions outlives a query.
    """

    def __init__(
        self,
        rules: Mapping[str, str],
        *,
        seeds: Sequence[str] | None = None,
        depth: int | None = None,
        max_word_length: int = 5000,
    ):
        if not rules:
            raise BadRules("at least one rule is required")
        alphabet = tuple(sorted(rules))
        for sym, image in rules.items():
            if len(sym) != 1:
                raise BadRules(f"symbols must be single characters: {sym!r}")
            if not image:
                raise BadRules(f"rule for {sym!r} is erasing")
            for c in image:
                if c not in rules:
                    raise BadRules(
                        f"rule for {sym!r} uses unknown symbol {c!r}"
                    )
        self.rules = dict(rules)
        self._images = {ord(sym): image for sym, image in self.rules.items()}
        self.alphabet = alphabet
        self.seeds = tuple(seeds) if seeds is not None else (alphabet[0],)
        if not self.seeds:
            raise BadRules("at least one seed is required")
        for s in self.seeds:
            if s not in self.rules:
                raise BadRules(f"seed {s!r} has no rule")
        if depth is not None and depth < 0:
            raise BadRules("depth must be nonnegative")
        if max_word_length < 1:
            raise BadRules(f"max word length must be >= 1, got {max_word_length}")
        self.depth = depth
        self.max_word_length = max_word_length
        self._kept: dict[str, _Expansion] = {}
        self._staircases: dict[str, tuple[list[int], list[int]]] = {}

    def _apply(self, word: str) -> str:
        return word.translate(self._images)

    def _target_length(self, factor_length: int) -> int:
        return max(_EXPANSION_MARGIN * factor_length, _MIN_EXPANSION)

    def _shape(self, seed: str, target: int) -> tuple[tuple[str, int], int]:
        """Which text is ``seed``'s expansion for ``target``, worked out
        from letter counts without building it: a key naming the text it
        is a prefix of, and its length.

        - ("prefix", 0): the fixed point of a seed whose image begins
          with itself and is longer, cut at ``target``;
        - ("iterate", k): sigma^k(seed), the first iterate at least
          ``target`` letters long, cut there (whole at a fixed depth);
        - ("closure", k): sigma^k(seed) repeated, when sigma^(k-1)(seed)
          is shorter than ``target`` and sigma does not lengthen it; the
          repeats are rounded up to whole periods.
        """
        image = self.rules[seed]
        if self.depth is None and image[0] == seed and len(image) > 1:
            return ("prefix", 0), target
        counts = {seed: 1}
        k, length = 0, 1
        while (k < self.depth) if self.depth is not None else (length < target):
            grown: dict[str, int] = {}
            for c, n in counts.items():
                for d in self.rules[c]:
                    grown[d] = grown.get(d, 0) + n
            grown_length = sum(grown.values())
            if self.depth is None and grown_length <= length:
                return ("closure", k + 1), -(-target // grown_length) * grown_length
            counts, k, length = grown, k + 1, grown_length
        return ("iterate", k), length if self.depth is not None else target

    def _build(self, seed: str, key: tuple[str, int], length: int) -> _Expansion:
        """An expansion of the text the ``_shape`` key names, at least
        ``length`` letters long; a kept fixed-point prefix is lengthened,
        not rebuilt."""
        kind, k = key
        kept = self._kept.get(seed)
        if kind == "prefix":
            word, previous = self.rules[seed], 1
            if kept is not None and kept.key == key:
                word, previous = kept.text, kept.previous
            # sigma^(j+1)(seed) is sigma^j(seed) followed by sigma of the
            # letters sigma^j(seed) added to sigma^(j-1)(seed), so each
            # letter is rewritten once
            parts, added, total = [word], word[previous:], len(word)
            while total < length:
                added = self._apply(added)
                parts.append(added)
                total += len(added)
            return _Expansion(key, "".join(parts), total - len(added))
        word = seed
        for _ in range(k):
            word = self._apply(word)
        if kind == "closure":
            word *= length // len(word)
        return _Expansion(key, word)

    def _keep(self, seed: str, key: tuple[str, int], length: int) -> _Expansion:
        """``seed``'s kept expansion, built or lengthened to hold at least
        ``length`` letters of the text ``key`` names."""
        kept = self._kept.get(seed)
        if kept is None or kept.key != key or len(kept.text) < length:
            kept = self._kept[seed] = self._build(seed, key, length)
        return kept

    def _cuts(self, target: int, span: int = 0) -> list[tuple[_Expansion, int]]:
        """Each seed's kept expansion, and the length of the prefix of it
        that is the seed's expansion for ``target``; given a ``span``, a
        fixed-point seed is cut instead at its certified prefix for that
        span when that is shorter."""
        cuts = []
        for seed in self.seeds:
            key, length = self._shape(seed, target)
            if span and key[0] == "prefix":
                caps, bases = self._staircase(seed)
                i = bisect.bisect_left(caps, span)
                if i < len(caps):
                    length = min(length, bases[i] + span - 1)
            cuts.append((self._keep(seed, key, length), length))
        return cuts

    def _staircase(self, seed: str) -> tuple[list[int], list[int]]:
        """Certified prefixes of the fixed point u of a seed whose image
        begins with it and is longer: for every i and every S up to
        ``caps[i]``, the first ``bases[i] + S - 1`` letters of u hold every
        factor of u of S letters.  ``caps`` ascend, and ``bases[i]`` is the
        least base certified for ``caps[i]`` letters or more.  Built once
        per seed, exactly, from the factor sets of at most
        _CERTIFIED_WIDTH letters and from letter counts.

        Let F_l be the factors of u of l letters, all of which have
        occurred by position p_l of u.  Since u = sigma^k(u), u is cut into
        the blocks sigma^k(u_i), and a window of S letters that starts in
        block i ends by block i + l - 1 when S is at most cap(k, l) = 1 +
        min over w in F_(l-1) of |sigma^k(w)|: it lies in sigma^k(w) for
        the w in F_l at i, and then at the same offset in the copy of
        sigma^k(w) that w's first occurrence, at most p_l, maps to.  That
        copy starts in block p_l or before, so the window ends within
        base(k, l) + S - 1 letters, base(k, l) = |sigma^k(u[:p_l + 1])|.
        """
        cached = self._staircases.get(seed)
        if cached is not None:
            return cached
        key, width = ("prefix", 0), _CERTIFIED_WIDTH
        text = self._keep(seed, key, _CERTIFY_SEARCH).text[:_CERTIFY_SEARCH]
        # F_width is the least set that holds u[:width] and is closed under
        # w -> the windows of sigma(w) that start in sigma(w[0]): the window
        # of u = sigma(u) at q > 0 is one of those for the window of u at
        # the index i < q of the block sigma(u_i) that holds q.  For the
        # window at i, they are windows of the text when sigma(u[:i+width])
        # is, so only windows first seen later need sigma applied.
        words = {text[i : i + width] for i in range(len(text) - width + 1)}
        ends = itertools.accumulate(map(len, map(self.rules.__getitem__, text)))
        seen = bisect.bisect_right(list(ends), len(text)) - width + 1
        todo = [w for w in words if text.find(w) >= seen]
        while todo:
            w = todo.pop()
            image = self._apply(w)
            for i in range(len(self.rules[w[0]])):
                if image[i : i + width] not in words:
                    words.add(image[i : i + width])
                    todo.append(image[i : i + width])

        def counts(w: str) -> tuple[int, ...]:
            return tuple(map(w.count, self.alphabet))

        # u is infinite, so F_l is the l-letter prefixes of F_width; per l,
        # F_(l-1) and the letter counts of u[:p_l + 1]
        levels, shorter = [], {w[0] for w in words}
        for l in range(2, width + 1):
            factors = {w[:l] for w in words}
            firsts = [text.find(w) for w in factors]
            if -1 in firsts:  # then every longer l misses a factor too
                break
            head = counts(text[: max(firsts) + 1])
            if levels and levels[-1][1] == head:  # the same bases, lower caps
                levels.pop()
            levels.append((shorter, head))
            shorter = factors
        # |sigma^k(c)| never falls, and once k >= A (the alphabet size) it
        # grows within any A steps unless it never grows again; so a cap
        # unchanged over A steps from k >= 2A is final; and a base as long
        # as the expansion for the longest allowed span is of no use
        rows = [counts(self.rules[c]) for c in self.alphabet]
        steps, limit = len(rows), self._target_length(self.max_word_length)
        sizes = [1] * steps  # |sigma^k(c)| per letter c
        entries: list[tuple[int, int]] = []
        plans = [(tuple({*map(counts, shorter)}), head, []) for shorter, head in levels]
        k = 0
        while plans:
            growing = []
            for shorter, head, caps in plans:
                cap = 1 + min([sum(map(operator.mul, w, sizes)) for w in shorter])
                base = sum(map(operator.mul, head, sizes))
                if base >= limit or (k >= 2 * steps and cap == caps[k - steps]):
                    continue
                caps.append(cap)
                entries.append((cap, base))
                growing.append((shorter, head, caps))
                if cap >= self.max_word_length:  # no larger base is of use
                    limit = min(limit, base)
            plans, k = growing, k + 1
            sizes = [sum(map(operator.mul, row, sizes)) for row in rows]
        entries.sort()
        bases = list(itertools.accumulate(reversed([b for _, b in entries]), min))
        cached = self._staircases[seed] = ([cap for cap, _ in entries], bases[::-1])
        return cached

    def expansions(self, factor_length: int) -> tuple[str, ...]:
        """One long expansion per seed, deterministically trimmed so the
        result depends only on the requested factor length."""
        target = self._target_length(factor_length)
        return tuple(kept.text[:length] for kept, length in self._cuts(target))

    def _index(self, span: int, too_long: str) -> _Occurrences:
        """The occurrence index a ``span``-letter query reads: per seed,
        the prefix ``self.expansions(span)`` holds, or the certified prefix
        of the seed's fixed point for ``span`` when that is shorter, cut
        with their letter masks from the kept expansions; every question
        about the language reads one.  A shorter certified prefix holds
        every factor of ``span`` letters, so the same ones as the
        expansion, and each at its first occurrence.  Raises WindowTooLarge
        past the bound, with {span} and {bound} filled into ``too_long``,
        and when no expansion is ``span`` letters long."""
        if span > self.max_word_length:
            raise WindowTooLarge(too_long.format(span=span, bound=self.max_word_length))
        occ = _Occurrences(self._cuts(self._target_length(span), span), span)
        if not occ.fits:
            # every expansion is shorter than span: a fixed depth set too small
            raise WindowTooLarge(
                f"no expansion reaches length {span}; raise depth or use "
                "automatic growth"
            )
        return occ

    def factors(self, length: int) -> frozenset[str]:
        """All admissible words of exactly the given length: the windows
        at the ``fits`` positions of the length's occurrence index, read
        afresh at every call."""
        if length < 1:
            raise ValueError("factor length must be >= 1")
        occ = self._index(length, "factor length {span} exceeds bound {bound}")
        fits = bin(occ.fits)[:1:-1]  # bit p at index p
        return frozenset(
            occ.text[p : p + length] for p, bit in enumerate(fits) if bit == "1"
        )

    def language(self, max_length: int) -> frozenset[str]:
        """All admissible words of length 1..max_length."""
        lengths = range(1, max_length + 1)
        return frozenset(itertools.chain.from_iterable(map(self.factors, lengths)))

    def is_admissible(self, word: str) -> bool:
        if word == "":
            return True
        if any(c not in self.rules for c in word):
            return False
        index = self._index(len(word), "factor length {span} exceeds bound {bound}")
        return any(index.carrier_masks([((0,), word)], 1))

    def describe(self) -> str:
        rules = ";".join(f"{s}->{self.rules[s]}" for s in self.alphabet)
        return f"substitution[{rules}|seeds={','.join(self.seeds)}]"

    def __repr__(self) -> str:
        return f"<SubstitutionSystem {self.describe()}>"


class _Expansion:
    """A seed's kept expansion: the text, the ``_shape`` key naming it,
    each letter's bitmask (bit p set when the letter stands at p) and,
    for a fixed-point prefix sigma^j(seed), the length of
    sigma^(j-1)(seed)."""

    def __init__(self, key: tuple[str, int], text: str, previous: int = 0):
        self.key = key
        self.text = text
        self.previous = previous
        backwards = text[::-1]  # int() reads its most significant digit first
        zeros = {ord(c): "0" for c in set(text)}
        self.letters = {
            chr(c): int(backwards.translate({**zeros, c: "1"}), 2) for c in zeros
        }


class _Occurrences:
    """Start positions of every letter in the joined expansions of one
    query span.

    Bit p of ``letters[c]`` is set when letter c stands at position p of
    the joined ``text``, and bit p of ``fits`` when ``span`` letters from
    p lie inside one expansion.  The starts of a word are the AND of its
    shifted letter masks, and a pattern of (offset, word) cells holds at
    p when every cell's word starts at p + offset: the Shift-And idea of
    Baeza-Yates and Gonnet, "A new approach to text searching", CACM
    35(10), 1992.
    """

    def __init__(self, cuts: Sequence[tuple[_Expansion, int]], span: int):
        self.text = "".join(kept.text[:length] for kept, length in cuts)
        self.letters: dict[str, int] = {}
        self.fits = start = 0
        for kept, length in cuts:
            prefix = (1 << length) - 1
            for c, mask in kept.letters.items():
                self.letters[c] = self.letters.get(c, 0) | (mask & prefix) << start
            if length >= span:
                self.fits |= ((1 << (length - span + 1)) - 1) << start
            start += length
        self._starts: dict[str, int] = {}

    def starts(self, word: str) -> int:
        """Positions at which ``word`` begins, matched once per index."""
        found = self._starts.get(word)
        if found is None:
            found = -1
            for j, c in enumerate(word):
                found &= self.letters.get(c, 0) >> j
            self._starts[word] = found
        return found

    def carrier_masks(self, columns: Sequence[Column], count: int) -> Iterator[int]:
        """Where the cells of each of ``count`` n are carried, as a lazy
        chain of maps, given each column's offsets relative to that n's
        leftmost cell: bit p is set when the span fits at p and every
        word starts at p + offset.  One mask per n, ``fits`` if no column."""
        found = itertools.repeat(self.fits, count)
        for offs, w in columns:
            shifted = map(operator.rshift, itertools.repeat(self.starts(w)), offs)
            found = map(operator.and_, found, shifted)
        return found


def chacon(**kwargs) -> SubstitutionSystem:
    """The default candidate system: 0 -> 0010, 1 -> 1, seeded at 0."""
    return SubstitutionSystem({"0": "0010", "1": "1"}, seeds=("0",), **kwargs)


def fibonacci(**kwargs) -> SubstitutionSystem:
    return SubstitutionSystem({"0": "01", "1": "0"}, seeds=("0",), **kwargs)


# -- cylinders and return sets ----------------------------------------------


@dataclass(frozen=True)
class CylinderSet:
    """All points whose coordinates 0..len(word)-1 spell the word; the
    empty word is the whole space."""

    word: str


def require_admissible(sys: SubstitutionSystem, cyl: CylinderSet) -> None:
    if not sys.is_admissible(cyl.word):
        raise ValueError(f"cylinder word {cyl.word!r} is not admissible")


@dataclass(frozen=True)
class ReturnSet:
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


Column = tuple[Sequence[int], str]  # one cell's offset at each n, and its word


def _layout(columns: Sequence[Column]) -> tuple[list[Column], int]:
    """The columns with a word, each with its offsets relative to that
    n's leftmost cell, and the largest span any n needs: 0 when no column
    has a word.  Every occurrence question is normalized here; a
    single pattern of (offset, word) cells is the columns ((offset,),
    word), at one n."""
    cells = [(offs, w) for offs, w in columns if w]
    if not cells:
        return [], 0
    # one column is its own leftmost cell, and map(min, offs) would call min(int)
    bases = cells[0][0] if len(cells) == 1 else list(map(min, *(o for o, _ in cells)))
    cells = [(list(map(operator.sub, offs, bases)), w) for offs, w in cells]
    return cells, max(len(w) + max(offs) for offs, w in cells)


def _members(
    sys: SubstitutionSystem, ns: Sequence[int], columns: Sequence[Column]
) -> tuple[frozenset[int], int]:
    """The n whose cells some admissible word of the query's largest
    span carries, and that span; ``columns`` gives each cell's offset at
    every n of ``ns``, and no Python code runs per n."""
    cells, max_span = _layout(columns)
    if not max_span:
        return frozenset(ns), 0
    index = sys._index(max_span, "query needs words of length {span}, bound is {bound}")
    members = itertools.compress(ns, index.carrier_masks(cells, len(ns)))
    return frozenset(members), max_span


def _poly_columns(
    u: CylinderSet,
    vs: Sequence[CylinderSet],
    polys: Sequence[IntegralPolynomial],
    window: int,
) -> list[Column]:
    count = 2 * window + 1
    return [([0] * count, u.word)] + [
        (p.values(-window, count), v.word) for p, v in zip(polys, vs)
    ]


def _return_set(
    sys: SubstitutionSystem, u: CylinderSet, v: CylinderSet, window: int, k: int
) -> ReturnSet:
    """{n in [-W, W] : some admissible word carries u at 0 and v at k*n},
    with the provenance of a plain return set."""
    if window < 0:
        raise ValueError("window must be nonnegative")
    require_admissible(sys, u)
    require_admissible(sys, v)
    ns = range(-window, window + 1)
    shifts = range(-k * window, k * (window + 1), k)
    members, span = _members(sys, ns, [([0] * len(ns), u.word), (shifts, v.word)])
    return ReturnSet(
        window=window,
        members=members,
        provenance=(
            ("op", "return-set"),
            ("system", sys.describe()),
            ("u", u.word),
            ("v", v.word),
            ("window", str(window)),
        ),
        span=span,
    )


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
    return _return_set(sys, u, v, window, 1)


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
    require_admissible(sys, u)
    for v in vs:
        require_admissible(sys, v)

    ns = range(-window, window + 1)
    members, span = _members(sys, ns, _poly_columns(u, vs, polys, window))
    return ReturnSet(
        window=window,
        members=members,
        provenance=(
            ("op", "poly-return-set"),
            ("system", sys.describe()),
            ("u", u.word),
            ("vs", "|".join(v.word for v in vs)),
            ("polys", "; ".join(str(p) for p in polys)),
            ("window", str(window)),
        ),
        span=span,
    )


def required_span(
    polys: Sequence[IntegralPolynomial],
    u: CylinderSet,
    vs: Sequence[CylinderSet],
    window: int,
) -> int:
    """Longest admissible word a polynomial query will need; lets callers
    report feasibility before computing."""
    return _layout(_poly_columns(u, vs, polys, window))[1]


def power_return_set(
    sys: SubstitutionSystem,
    k: int,
    u: CylinderSet,
    v: CylinderSet,
    window: int,
) -> ReturnSet:
    """{n in [-W, W] : some admissible word carries u at 0 and v at k*n}:
    the return set of T^k."""
    if k == 0:
        raise ZeroPower("power must be nonzero")
    base = _return_set(sys, u, v, window, k)
    return replace(base, provenance=base.provenance + (("power", str(k)),))


Transform = Union[SubstitutionSystem, tuple[SubstitutionSystem, int]]


def product_return_set(
    transforms: Sequence[Transform],
    us: Sequence[CylinderSet],
    vs: Sequence[CylinderSet],
    window: int,
) -> ReturnSet:
    """Return set of a product of (possibly powered) systems against
    box open sets: the window intersection of the component sets."""
    if not (len(transforms) == len(us) == len(vs)):
        raise ValueError("one (u, v) pair per component is required")
    if not transforms:
        raise ValueError("at least one component is required")
    members: frozenset[int] | None = None
    span = 0
    described = []
    for t, u, v in zip(transforms, us, vs):
        sys_i, k = t if isinstance(t, tuple) else (t, 1)
        comp = power_return_set(sys_i, k, u, v, window)
        described.append(f"{sys_i.describe()}^{k}")
        members = comp.members if members is None else members & comp.members
        span = max(span, comp.span)
    assert members is not None
    return ReturnSet(
        window=window,
        members=members,
        provenance=(
            ("op", "product-return-set"),
            ("components", " x ".join(described)),
            ("window", str(window)),
        ),
        span=span,
    )


# -- minimality probe ---------------------------------------------------------


@dataclass(frozen=True)
class MinimalityReport:
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


@dataclass(frozen=True)
class Lemma213Chain:
    """Descending open-set levels: ``levels[n][i]`` holds the (offset,
    word) cells of the pattern that refines cylinder i after consuming
    shifts[0..n]."""

    shifts: tuple[int, ...]
    levels: tuple[tuple[tuple[Constraint, ...], ...], ...]
    base_power: int


def _build_chain(
    sys: SubstitutionSystem,
    cylinders: Sequence[CylinderSet],
    gammas: Sequence[GammaPolynomial],
    candidates: Callable[[int, int], Iterable[int]],
    depth: int,
    base_power: int,
) -> Lemma213Chain:
    """Levels 0..depth.  Level n takes the first shift m offered by
    ``candidates(n, previous shift or 0)`` for which every pattern of
    level n-1, with its cylinder word added at g_i(m) - n * base_power,
    stays realizable; earlier levels are fixed once built.  Raises
    WitnessExhausted with the partial chain when no candidate does."""
    if len(cylinders) != len(gammas):
        raise ValueError("need one exponent element per cylinder")
    if depth < 0:
        raise ValueError(f"a chain needs at least one level, got depth {depth}")
    for cyl in cylinders:
        require_admissible(sys, cyl)
    words = [cyl.word for cyl in cylinders]
    shifts: list[int] = []
    levels: list[tuple[tuple[Constraint, ...], ...]] = []
    current = tuple(((0, w),) if w else () for w in words)
    for n in range(depth + 1):
        for m in candidates(n, shifts[-1] if shifts else 0):
            nxt = tuple(
                cells + ((_gamma_shift(g, m) - n * base_power, w),) if w else cells
                for cells, w, g in zip(current, words, gammas)
            )
            if all(pattern_realizable(sys, cells) for cells in nxt):
                break
        else:
            raise WitnessExhausted(
                n, Lemma213Chain(tuple(shifts), tuple(levels), base_power)
            )
        shifts.append(m)
        levels.append(nxt)
        current = nxt
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
    for n, m in enumerate(shifts):
        if abs(m) <= n:
            raise ValueError(f"shift {m} at depth {n} must satisfy |m| > {n}")
    return _build_chain(
        sys, cylinders, gammas, lambda n, _: (shifts[n],), len(shifts) - 1,
        base_power,
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
    candidate in [1, search_window] that keeps every level nonempty."""
    return _build_chain(
        sys, cylinders, gammas,
        lambda n, prev: range(max(prev + 1, n + 1), search_window + 1),
        depth, base_power,
    )


@dataclass(frozen=True)
class ContainmentCheck:
    level: int
    cylinder_index: int
    shift_index: int
    holds: bool


def _pattern_contained_in_cylinder(
    sys: SubstitutionSystem, cells: Sequence[Constraint], cyl: CylinderSet
) -> bool:
    """Inclusion: every admissible word of the span that carries the
    pattern must also spell the cylinder word at position 0."""
    word = cyl.word
    if word == "":
        return True
    # the cylinder's cell goes in last, and it is not empty, so it comes out last
    (*columns, ((target,), _)), span = _layout(
        [((off,), w) for off, w in (*cells, (0, word))]
    )
    index = sys._index(span, "inclusion span {span} exceeds bound {bound}")
    (carriers,) = index.carrier_masks(columns, 1)
    # a pattern with no admissible realization is vacuously contained
    return carriers & ~(index.starts(word) >> target) == 0


def verify_chain(
    sys: SubstitutionSystem,
    cylinders: Sequence[CylinderSet],
    gammas: Sequence[GammaPolynomial],
    chain: Lemma213Chain,
) -> tuple[bool, tuple[ContainmentCheck, ...]]:
    """Re-verify every displayed containment of the chain independently:
    shifting level n by the step-j map must land inside the cylinder."""
    checks: list[ContainmentCheck] = []
    ok = True
    for n, level in enumerate(chain.levels):
        for i, cells in enumerate(level):
            for j in range(n + 1):
                s = _gamma_shift(gammas[i], chain.shifts[j]) - j * chain.base_power
                holds = _pattern_contained_in_cylinder(
                    sys, [(off - s, w) for off, w in cells], cylinders[i]
                )
                checks.append(ContainmentCheck(n, i, j, holds))
                ok = ok and holds
    return ok, tuple(checks)


# -- recurrence search ---------------------------------------------------------


@dataclass(frozen=True)
class RecurrenceWitness:
    """An admissible word and a time n at which all the instantiated
    shifts return the word's start to itself to the agreed length."""

    n: int
    word: str
    shifts: tuple[int, ...]


def recurrence_search(
    sys: SubstitutionSystem,
    gammas: Sequence[GammaPolynomial],
    agreement_length: int,
    n_values: Iterable[int],
) -> RecurrenceWitness | None:
    """Scan for a word x and time n != 0 with x[0:L] == x[s_i : s_i+L]
    for every instantiated shift s_i; None when the range is exhausted.

    Absence over a finite range is inconclusive and callers flag it
    prominently rather than treating it as a refutation.
    """
    if agreement_length < 1:
        raise ValueError("agreement length must be >= 1")
    for n in n_values:
        if n == 0:
            continue
        shifts = tuple(_gamma_shift(g, n) for g in gammas)
        lo = min(0, *shifts)
        span = max(0, *shifts) + agreement_length - lo
        occ = sys._index(
            span, f"shifts at n={n} need words of length {{span}}, bound is {{bound}}"
        )
        found = occ.fits
        for s in shifts:
            # bit p: the letters at p and p + s agree
            same = 0
            for mask in occ.letters.values():
                same |= mask & (mask >> s if s >= 0 else mask << -s)
            for j in range(agreement_length):
                found &= same >> (j - lo)
        if found:
            a = (found & -found).bit_length() - 1
            return RecurrenceWitness(n=n, word=occ.text[a : a + span], shifts=shifts)
    return None
