"""Finite-window symbolic dynamics: substitution subshift languages,
cylinder sets, return-time sets, descending open-set chains, and an
exact rotation control system.

Points are never materialized: a query about open sets is answered from
the occurrence positions of its words inside long expansions of the
substitution, held as Python-int bitmasks.  All answers are exact at
window scale and every feasibility bound is checked up front and
reported, never silently truncated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


class BadModulus(ValueError):
    """A rotation needs a modulus of at least 1."""


# -- substitution systems ---------------------------------------------------

_MIN_EXPANSION = 4096
_EXPANSION_MARGIN = 32


class SubstitutionSystem:
    """A substitution subshift described by symbol rewriting rules.

    The admissible language is the factor set of long expansions of the
    seed symbols.  ``depth=None`` grows each seed until the expansion is
    comfortably longer than any requested factor; a fixed integer depth
    applies the rules exactly that many times.  Substitutions that stop
    growing (for instance a single fixed letter) are closed off
    periodically, so the constant system has language a, aa, aaa, ...
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
        for s in self.seeds:
            if s not in self.rules:
                raise BadRules(f"seed {s!r} has no rule")
        if depth is not None and depth < 0:
            raise BadRules("depth must be nonnegative")
        self.depth = depth
        self.max_word_length = max_word_length
        self._factor_cache: dict[int, frozenset[str]] = {}
        self._index: _Occurrences | None = None

    def _apply(self, word: str) -> str:
        return word.translate(self._images)

    def _grow(self, seed: str, target: int) -> str:
        word = seed
        if self.depth is not None:
            for _ in range(self.depth):
                word = self._apply(word)
            return word
        while len(word) < target:
            nxt = self._apply(word)
            if len(nxt) <= len(word):
                # non-growing substitution: periodic closure
                reps = -(-target // len(nxt))
                return nxt * reps
            word = nxt
        return word[:target]

    def _target_length(self, factor_length: int) -> int:
        return max(_EXPANSION_MARGIN * factor_length, _MIN_EXPANSION)

    def expansions(self, factor_length: int) -> tuple[str, ...]:
        """One long expansion per seed, deterministically trimmed so the
        result depends only on the requested factor length."""
        target = self._target_length(factor_length)
        return tuple(self._grow(seed, target) for seed in self.seeds)

    def _carriers(
        self, span: int, patterns: Iterable[Sequence[Constraint]], too_long: str
    ) -> Iterator[int]:
        """Where each pattern of (offset, word) cells is carried, lazily:
        bit p is set when ``span`` letters from p lie inside one of
        ``self.expansions(span)`` and every cell's word starts at
        p + offset.  The only reader of the occurrence index: one index is
        kept, and a query that needs another expansion length replaces it.
        Raises WindowTooLarge(too_long) past the bound, and when no
        expansion is ``span`` letters long."""
        if span > self.max_word_length:
            raise WindowTooLarge(too_long)
        target = self._target_length(span)
        if self._index is None or self._index.target != target:
            self._index = _Occurrences(target, self.expansions(span))
        occ = self._index
        fits = occ.fits(span)
        if not fits:
            raise _no_expansion_reaches(span)
        starts: dict[str, int] = {}

        def carriers(cells: Sequence[Constraint]) -> int:
            found = fits
            for off, w in cells:
                if w not in starts:
                    starts[w] = occ.starts(w)
                found &= starts[w] >> off
            return found

        return map(carriers, patterns)

    def factors(self, length: int) -> frozenset[str]:
        """All admissible words of exactly the given length."""
        if length < 1:
            raise ValueError("factor length must be >= 1")
        if length > self.max_word_length:
            raise WindowTooLarge(
                f"factor length {length} exceeds bound {self.max_word_length}"
            )
        cached = self._factor_cache.get(length)
        if cached is not None:
            return cached
        found: set[str] = set()
        for word in self.expansions(length):
            for i in range(len(word) - length + 1):
                found.add(word[i : i + length])
        if not found:
            raise _no_expansion_reaches(length)
        result = frozenset(found)
        self._factor_cache[length] = result
        return result

    def language(self, max_length: int) -> frozenset[str]:
        """All admissible words of length 1..max_length."""
        out: set[str] = set()
        for length in range(1, max_length + 1):
            out |= self.factors(length)
        return frozenset(out)

    def is_admissible(self, word: str) -> bool:
        if word == "":
            return True
        if any(c not in self.rules for c in word):
            return False
        length = len(word)
        return any(self._carriers(
            length, [((0, word),)],
            f"factor length {length} exceeds bound {self.max_word_length}",
        ))

    def describe(self) -> str:
        rules = ";".join(f"{s}->{self.rules[s]}" for s in self.alphabet)
        return f"substitution[{rules}|seeds={','.join(self.seeds)}]"

    def __repr__(self) -> str:
        return f"<SubstitutionSystem {self.describe()}>"


class _Occurrences:
    """Start positions of every letter in the joined expansions.

    Bit p of ``letters[c]`` is set when letter c stands at position p of
    the joined text.  The starts of a word are the AND of its shifted
    letter masks, and a pattern of (offset, word) cells holds at p when
    every cell's word starts at p + offset: the Shift-And idea of
    Baeza-Yates and Gonnet, "A new approach to text searching", CACM
    35(10), 1992.
    """

    def __init__(self, target: int, texts: Sequence[str]):
        self.target = target
        self.text = "".join(texts)
        self.lengths = tuple(len(t) for t in texts)
        backwards = self.text[::-1]  # int() reads its most significant digit first
        zeros = {ord(c): "0" for c in set(self.text)}
        self.letters = {
            chr(c): int(backwards.translate({**zeros, c: "1"}), 2) for c in zeros
        }

    def starts(self, word: str) -> int:
        """Positions at which ``word`` begins."""
        found = -1
        for j, c in enumerate(word):
            found &= self.letters.get(c, 0) >> j
        return found

    def fits(self, span: int) -> int:
        """Positions at which ``span`` letters lie inside one expansion."""
        mask = start = 0
        for length in self.lengths:
            if length >= span:
                mask |= ((1 << (length - span + 1)) - 1) << start
            start += length
        return mask


def _no_expansion_reaches(span: int) -> WindowTooLarge:
    # only possible when every expansion is shorter than span
    # (a fixed depth that was set too small)
    return WindowTooLarge(
        f"no expansion reaches length {span}; raise depth or use "
        "automatic growth"
    )


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

    @property
    def is_whole_space(self) -> bool:
        return self.word == ""


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

    def sorted_members(self) -> tuple[int, ...]:
        return tuple(sorted(self.members))

    def __contains__(self, n: int) -> bool:
        return n in self.members


Constraint = tuple[int, str]  # (offset, word); empty words are ignored


def _pattern(constraints: Sequence[Constraint]) -> tuple[tuple[Constraint, ...], int]:
    """Normalize constraints so the least constrained offset is 0.

    Returns the shifted constraints and the span of the admissible word
    needed to carry them; an empty pattern has span 0 (whole space).
    """
    cells = [(off, w) for off, w in constraints if w]
    if not cells:
        return (), 0
    base = min(off for off, _ in cells)
    span = max(off + len(w) for off, w in cells) - base
    return tuple((off - base, w) for off, w in cells), span


def _members(
    sys: SubstitutionSystem,
    ns: Sequence[int],
    constraints_for: Callable[[int], Sequence[Constraint]],
) -> tuple[frozenset[int], int]:
    """The n whose pattern some admissible word of the query's largest
    span carries, and that span."""
    patterns = {n: _pattern(constraints_for(n)) for n in ns}
    max_span = max((span for _, span in patterns.values()), default=0)
    if not max_span:
        return frozenset(ns), 0
    carriers = sys._carriers(
        max_span,
        (cells for cells, _ in patterns.values()),
        f"query needs words of length {max_span}, bound is {sys.max_word_length}",
    )
    return frozenset(n for n, found in zip(patterns, carriers) if found), max_span


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
    require_admissible(sys, u)
    require_admissible(sys, v)
    ns = range(-window, window + 1)
    members, span = _members(sys, ns, lambda n: ((0, u.word), (n, v.word)))
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

    def constraints_for(n: int) -> Sequence[Constraint]:
        cells = [(0, u.word)]
        cells.extend((p(n), v.word) for p, v in zip(polys, vs))
        return cells

    ns = range(-window, window + 1)
    members, span = _members(sys, ns, constraints_for)
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
    worst = 0
    for n in range(-window, window + 1):
        cells = [(0, u.word)] + [(p(n), v.word) for p, v in zip(polys, vs)]
        _, span = _pattern(cells)
        worst = max(worst, span)
    return worst


def power_return_set(
    sys: SubstitutionSystem,
    k: int,
    u: CylinderSet,
    v: CylinderSet,
    window: int,
) -> ReturnSet:
    """{n : k*n lies in the plain return set over the inflated window}."""
    if k == 0:
        raise ZeroPower("power must be nonzero")
    base = return_set(sys, u, v, abs(k) * window)
    members = frozenset(
        n for n in range(-window, window + 1) if k * n in base.members
    )
    return ReturnSet(
        window=window,
        members=members,
        provenance=base.provenance + (("power", str(k)),),
        span=base.span,
    )


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
    if word_length < 1 or scan_limit < word_length:
        raise ValueError("need 1 <= word_length <= scan_limit")
    short = sorted(sys.factors(word_length))
    missing: tuple[str, str] | None = None
    for radius in range(word_length, scan_limit + 1):
        missing = None
        for w in sorted(sys.factors(radius)):
            for u in short:
                if u not in w:
                    missing = (w, u)
                    break
            if missing:
                break
        if missing is None:
            return MinimalityReport(word_length, scan_limit, radius, True, None)
    return MinimalityReport(word_length, scan_limit, None, False, missing)


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
    cells, span = _pattern(cells)
    if not span:
        return True
    return any(sys._carriers(
        span, [cells], f"pattern span {span} exceeds bound {sys.max_word_length}"
    ))


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
    (*cells, target), span = _pattern((*cells, (0, word)))
    carriers, spelled = sys._carriers(
        span, [cells, [target]],
        f"inclusion span {span} exceeds bound {sys.max_word_length}",
    )
    # a pattern with no admissible realization is vacuously contained
    return carriers & ~spelled == 0


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
        lo = min(0, min(shifts, default=0))
        hi = max(shifts, default=0) + agreement_length
        span = hi - lo
        # the empty pattern is carried wherever the span fits
        found = next(sys._carriers(
            span, [()],
            f"shifts at n={n} need words of length {span}, bound is "
            f"{sys.max_word_length}",
        ))
        occ = sys._index
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


# -- rotation control system ---------------------------------------------------


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


# -- config-facing constructor ---------------------------------------------------


def build_system(spec: Mapping[str, str]) -> SubstitutionSystem:
    """Build a substitution system from a flat key/value mapping (config
    sections)."""
    kind = spec.get("kind", "substitution")
    if kind == "substitution":
        if "rules" not in spec:
            raise BadRules("substitution systems need a 'rules' entry")
        rules = parse_rules(spec["rules"])
        seeds: Sequence[str] | None = None
        if "seeds" in spec:
            seeds = tuple(s.strip() for s in spec["seeds"].split(",") if s.strip())
        depth: int | None = None
        if spec.get("depth", "auto") != "auto":
            depth = int(spec["depth"])
        max_word_length = int(spec.get("max-word-length", "5000"))
        return SubstitutionSystem(
            rules, seeds=seeds, depth=depth, max_word_length=max_word_length
        )
    raise BadRules(f"unknown system kind {kind!r}")
