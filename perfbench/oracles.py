"""Independent answers for every output the benchmark checks.

Nothing here imports ipdyn.  Return sets are recomputed from occurrence
bitsets of a fixed-point prefix (bit p of a mask is position p of the
prefix), polynomials are plain Python integer coefficient lists, and the
partition checks use their own brute force and backtracking search.
``selftest`` checks the oracles themselves on cases worked out by hand.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

# The program expands max(32 * span, 4096) letters; the oracle reads a
# prefix at least twice that long.
PREFIX_FACTOR = 64
MIN_PREFIX = 1 << 14


def fixed_point_prefix(rules: dict[str, str], seed: str, length: int) -> str:
    """The first ``length`` letters of the fixed point sigma^inf(seed);
    needs rules[seed] to start with seed and to grow."""
    if not rules[seed].startswith(seed) or len(rules[seed]) < 2:
        raise ValueError("seed must start its own image and grow")
    word = seed
    while len(word) < length:
        word = "".join(rules[c] for c in word)
    return word[:length]


class Occurrences:
    """Occurrence bitsets of one prefix: ``mask(w)`` has bit p set iff
    the prefix spells w at position p."""

    def __init__(self, text: str):
        self.length = len(text)
        self._letters = {}
        letters = sorted(set(text))
        for c in letters:
            table = str.maketrans({x: "1" if x == c else "0" for x in letters})
            self._letters[c] = int(text[::-1].translate(table), 2)
        self._words: dict[str, int] = {}

    def mask(self, word: str) -> int:
        m = self._words.get(word)
        if m is None:
            m = (1 << self.length) - 1
            for i, c in enumerate(word):
                m &= self._letters.get(c, 0) >> i
            self._words[word] = m
        return m

    def realized(self, cells) -> bool:
        """Some position p carries every (offset, word) cell at p + offset."""
        acc = -1
        for off, word in cells:
            m = self.mask(word)
            acc &= m >> off if off >= 0 else m << -off
            if not acc:
                return False
        return acc != 0


def poly_eval(coeffs, n: int) -> int:
    """sum(coeffs[k] * n**k) in plain integers."""
    value = 0
    for c in reversed(coeffs):
        value = value * n + c
    return value


def query_span(u: str, vs, polys, window: int) -> int:
    worst = len(u)
    for n in range(-window, window + 1):
        offs = [0] + [poly_eval(p, n) for p in polys]
        ends = [len(u)] + [o + len(v) for o, v in zip(offs[1:], vs)]
        worst = max(worst, max(ends) - min(offs))
    return worst


class Language:
    """One substitution's fixed-point prefix, grown on demand so that it
    is at least PREFIX_FACTOR times the longest span asked for."""

    def __init__(self, rules: dict[str, str], seed: str):
        self.rules = dict(rules)
        self.seed = seed
        self._occ: Occurrences | None = None

    def occurrences(self, span: int) -> Occurrences:
        need = max(PREFIX_FACTOR * span, MIN_PREFIX)
        if self._occ is None or self._occ.length < need:
            self._occ = Occurrences(fixed_point_prefix(self.rules, self.seed, need))
        return self._occ

    def words(self, length: int) -> list[str]:
        """Factors of the given length, sorted."""
        text = fixed_point_prefix(self.rules, self.seed, max(PREFIX_FACTOR * length, MIN_PREFIX))
        return sorted({text[i : i + length] for i in range(len(text) - length + 1)})

    def poly_members(self, u: str, vs, polys, window: int) -> frozenset[int]:
        """{n in [-W, W] : u at p, v_i at p + poly_i(n) for some p}."""
        occ = self.occurrences(query_span(u, vs, polys, window))
        return frozenset(
            n
            for n in range(-window, window + 1)
            if occ.realized([(0, u)] + [(poly_eval(p, n), v) for p, v in zip(polys, vs)])
        )

    def pattern_realized(self, cells) -> bool:
        """cells: (position, symbol) pairs."""
        lo = min(pos for pos, _ in cells)
        hi = max(pos for pos, _ in cells) + 1
        occ = self.occurrences(hi - lo)
        return occ.realized([(pos - lo, sym) for pos, sym in cells])


CHACON = {"0": "0010", "1": "1"}
FIBONACCI = {"0": "01", "1": "0"}
SLOW = {"0": "0000000001", "1": "1"}


def slow_recurrence_members(window: int) -> frozenset[int]:
    """N(1, 1) of 0 -> 0000000001, 1 -> 1: sigma^k(0) ends in 1^k, so
    1^(|n|+1) is admissible and every n in [-W, W] is a member."""
    return frozenset(range(-window, window + 1))


# -- finite sums and partitions ---------------------------------------------


def subset_sums(gens) -> list[tuple[tuple[int, ...], int]]:
    """(1-based index tuple, sum) for every nonempty index set, in
    ascending bitmask order."""
    out = []
    for mask in range(1, 1 << len(gens)):
        idx = tuple(i + 1 for i in range(len(gens)) if mask >> i & 1)
        out.append((idx, sum(gens[i - 1] for i in idx)))
    return out


def first_witness(gens, members) -> tuple[tuple[int, ...], int] | None:
    for idx, value in subset_sums(gens):
        if value in members:
            return idx, value
    return None


def _witness_sets(n_max: int, depth: int) -> list[frozenset[int]]:
    """Every FS set {sum over nonempty index subsets} of ``depth``
    generators (repeats allowed) that fits inside 1..n_max."""
    found = set()
    for gens in itertools.combinations_with_replacement(range(1, n_max + 1), depth):
        sums = frozenset(s for _, s in subset_sums(gens))
        if max(sums) <= n_max:
            found.add(sums)
    return sorted(found, key=sorted)


def fs_free(coloring, depth: int) -> bool:
    """Brute force: no FS set of ``depth`` generators is monochromatic."""
    n_max = len(coloring)
    for sums in _witness_sets(n_max, depth):
        if len({coloring[s - 1] for s in sums}) == 1:
            return False
    return True


def lex_least_free_coloring(n_max: int, colors: int, depth: int):
    """Lexicographically least coloring of 1..n_max with no monochromatic
    depth-d FS set, or None: depth-first over 1..n_max in order, testing
    only the sets whose largest element is the integer just coloured."""
    by_top: dict[int, list[frozenset[int]]] = {}
    for sums in _witness_sets(n_max, depth):
        by_top.setdefault(max(sums), []).append(sums)
    coloring = [0] * n_max

    def extend(k: int) -> bool:
        if k > n_max:
            return True
        for c in range(colors):
            coloring[k - 1] = c
            if all(
                len({coloring[s - 1] for s in sums}) > 1 for sums in by_top.get(k, ())
            ) and extend(k + 1):
                return True
        return False

    return tuple(coloring) if extend(1) else None


SCHUR = {1: 1, 2: 4, 3: 13, 4: 44}


def schur_verified(n_max: int, colors: int) -> bool:
    """Depth 2 with repeats is Schur's x + y = z: every r-colouring of
    1..N has a monochromatic solution exactly when N > S(r)."""
    return n_max > SCHUR[colors]


# -- densities ----------------------------------------------------------------


def is_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


def square_densities(lo: int, hi: int, length: int) -> tuple[Fraction, Fraction]:
    flags = [1 if is_square(n) else 0 for n in range(lo, hi)]
    count = sum(flags[:length])
    best = worst = count
    for s in range(1, hi - lo - length + 1):
        count += flags[s + length - 1] - flags[s - 1]
        best, worst = max(best, count), min(worst, count)
    return Fraction(best, length), Fraction(worst, length)


# -- self test ------------------------------------------------------------------


def selftest() -> None:
    """The oracles on cases worked out by hand; raises AssertionError."""
    assert fixed_point_prefix(CHACON, "0", 13) == "0010001010010"
    assert fixed_point_prefix(FIBONACCI, "0", 8) == "01001010"
    occ = Occurrences("01001010")
    # "010" at 0, 3 and 5; "1" at 1, 4 and 6
    assert occ.mask("010") == 0b101001
    assert occ.realized([(0, "1"), (3, "1")])  # 1 at 1 and 4
    assert not occ.realized([(0, "1"), (1, "1")])  # no "11"
    assert occ.realized([(0, "1"), (-1, "0")])
    assert poly_eval([0, 1, 1], -3) == 6 and poly_eval([0, 2], 5) == 10
    assert query_span("0", ["1"], [[0, 1]], 3) == 4
    # Fibonacci never has "11": 1 is not in N(1, 1), 2 and 3 are.
    fib = Language(FIBONACCI, "0")
    assert fib.poly_members("1", ["1"], [[0, 1]], 3) == {-3, -2, 0, 2, 3}
    assert fib.words(2) == ["00", "01", "10"]
    assert first_witness((1, 3, 9), {4, 12}) == ((1, 2), 4)
    assert first_witness((1, 3), {5}) is None
    # 1..4 in two colours: 1 -> a, 2 -> b (1+1), 3 -> a forces 4 -> a
    # (2+2 is b) and then 1+3 = 4 is monochromatic, so 3 -> b, 4 -> a.
    assert lex_least_free_coloring(4, 2, 2) == (0, 1, 1, 0)
    assert lex_least_free_coloring(5, 2, 2) is None
    assert fs_free((0, 1, 1, 0), 2) and not fs_free((0, 0, 1, 0), 2)
    assert schur_verified(5, 2) and not schur_verified(13, 3)
    # squares in [0, 10), windows of 5: {0,1,4} up to {9}
    assert square_densities(0, 10, 5) == (Fraction(3, 5), Fraction(1, 5))
    assert is_square(10**30) and not is_square(10**30 + 1)
