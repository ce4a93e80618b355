"""Substitution subshift languages: the rewriting rules of a system,
its kept expansions, and the occurrence index every question about its
language reads.

Each seed keeps one expansion, with one bitmask per letter; a query of
``span`` letters cuts an ``_Occurrences`` index from those, and the
starts of a word are the AND of its shifted letter masks.  Cylinders,
return sets, chains and probes are built on this in ``dynamics``, which
re-exports the names it builds on.
"""

from __future__ import annotations

import array
import bisect
import functools
import itertools
import operator
from typing import Iterator, Mapping, Sequence


class BadRules(ValueError):
    """A substitution rule set is malformed."""


class WindowTooLarge(ValueError):
    """A query needs admissible words longer than the configured bound."""


# -- substitution systems ---------------------------------------------------

_MIN_EXPANSION = 4096
_EXPANSION_MARGIN = 32
# the fixed-point certificate closes the factor sets of up to this many
# letters exactly, and looks for all of them in this many kept letters
_CERTIFIED_WIDTH = 12
_CERTIFY_SEARCH = 256
# a system keeps the indexes of this many certified spans, the most
# recently asked, and each index the starts of this many words, and as
# many anchor masks and residue copies (``_Occurrences.ones``, ``residues``)
_KEPT_INDEXES = 8
_KEPT_STARTS = 16
# and the layouts of this many return-set queries' (polynomials, window)
# pairs, the most recently asked (``dynamics._arrange``)
_KEPT_LAYOUTS = 8

# of one staircase entry (k, l): |sigma^k(c)| per letter c, and the first
# occurrence in u and the length of every factor of at most l letters
Origin = tuple[dict[str, int], tuple[tuple[int, int], ...]]


class SubstitutionSystem:
    """A substitution subshift described by symbol rewriting rules.

    The admissible language, the subshift's, is the factor set of long
    expansions of the seed symbols: each seed is grown, never cut at a
    fixed number of steps, until its expansion is comfortably longer
    than any requested factor.  Substitutions that stop growing
    (for instance a single fixed letter) are closed off periodically, so
    the constant system has language a, aa, aaa, ...

    Each seed keeps one expansion, with its letter masks, and every
    query reads a prefix of it.  A seed whose image begins with itself
    has a fixed point that all its expansions are prefixes of, so its
    kept prefix only ever grows; any other seed keeps the one iterate,
    or periodic closure, that its last query read.

    Every question about the language (factor sets, admissibility,
    patterns, return sets) reads one occurrence index of its span.  On a
    fixed-point seed whose certificate (``_staircase``) reaches the span,
    that index is the shortest prefix the certificate proves holds every
    factor of the span, shorter or longer than the expansion.  Other
    seeds, and spans no certificate reaches, read the expansion, which
    may miss factors.  Nothing but the kept expansions, the
    certificates, the system's reach (``_reach``, worked out at the
    first query that asks for it), the indexes of the _KEPT_INDEXES
    certified spans asked most recently (``_index``), the layouts of the
    _KEPT_LAYOUTS return-set (polynomials, window) pairs asked most
    recently (``dynamics._members``) and its description outlives a
    query; the indexes are dropped whenever an expansion is rebuilt or
    lengthened, and a layout, which depends on no word, never goes
    stale.
    """

    def __init__(
        self,
        rules: Mapping[str, str],
        *,
        seeds: Sequence[str] | None = None,
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
        if max_word_length < 1:
            raise BadRules(f"max word length must be >= 1, got {max_word_length}")
        self.max_word_length = max_word_length
        rules_text = ";".join(f"{s}->{self.rules[s]}" for s in alphabet)
        self._description = f"substitution[{rules_text}|seeds={','.join(self.seeds)}]"
        self._kept: dict[str, _Expansion] = {}
        self._staircases: dict[str, tuple[list[int], list[int], list[Origin]]] = {}
        self._indexes: dict[int, _Occurrences] = {}
        self._layouts: dict[tuple[tuple[tuple[int, ...], ...], int], tuple] = {}

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
          ``target`` letters long, cut there;
        - ("closure", k): sigma^k(seed) repeated, when sigma^(k-1)(seed)
          is shorter than ``target`` and sigma does not lengthen it; the
          repeats are rounded up to whole periods.
        """
        image = self.rules[seed]
        if image[0] == seed and len(image) > 1:
            return ("prefix", 0), target
        counts = {seed: 1}
        k, length = 0, 1
        while length < target:
            grown: dict[str, int] = {}
            for c, n in counts.items():
                for d in self.rules[c]:
                    grown[d] = grown.get(d, 0) + n
            grown_length = sum(grown.values())
            if grown_length <= length:
                return ("closure", k + 1), -(-target // grown_length) * grown_length
            counts, k, length = grown, k + 1, grown_length
        return ("iterate", k), target

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
        ``length`` letters of the text ``key`` names.  The kept indexes
        go with the expansion they were cut from."""
        kept = self._kept.get(seed)
        if kept is None or kept.key != key or len(kept.text) < length:
            kept = self._kept[seed] = self._build(seed, key, length)
            self._indexes.clear()
        return kept

    def _cuts(self, target: int, span: int = 0) -> list[Cut]:
        """Each seed's kept expansion, the length of the prefix of it that
        is the seed's expansion for ``target``, and None; given a ``span``
        its certificate reaches, a fixed-point seed is cut instead at its
        certified prefix for that span, with the origin of its base
        (``_staircase``)."""
        cuts = []
        for seed in self.seeds:
            key, length = self._shape(seed, target)
            origin = None
            if span and key[0] == "prefix":
                caps, bases, origins = self._staircase(seed)
                i = bisect.bisect_left(caps, span)
                if i < len(caps):
                    length, origin = bases[i] + span - 1, origins[i]
            cuts.append((self._keep(seed, key, length), length, origin))
        return cuts

    def _staircase(self, seed: str) -> tuple[list[int], list[int], list[Origin]]:
        """Certified prefixes of the fixed point u of a seed whose image
        begins with it and is longer: for every i and every S up to
        ``caps[i]``, the first ``bases[i] + S - 1`` letters of u hold every
        factor of u of S letters.  ``caps`` ascend, and ``bases[i]`` is the
        least base certified for ``caps[i]`` letters or more; ``origins[i]``
        is what the entry (k, l) that base came from knows of the blocks
        sigma^k(c) and of the factors of at most l letters (``_cover``).
        Built once per seed, exactly, from the factor sets of at most
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
        The shortest prefix q of w with |sigma^k(q)| at least the window's
        end already holds it, so the copy of sigma^k(q) at q's first
        occurrence does too (``_cover``).
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
        # F_(l-1), the letter counts of u[:p_l + 1] and the first
        # occurrence and length of every factor of at most l letters
        levels, shorter = [], {w[0] for w in words}
        prefixes = [(text.find(c), 1) for c in shorter]
        for l in range(2, width + 1):
            factors = {w[:l] for w in words}
            firsts = [text.find(w) for w in factors]
            if -1 in firsts:  # then every longer l misses a factor too
                break
            head = counts(text[: max(firsts) + 1])
            prefixes += zip(firsts, itertools.repeat(l))
            if levels and levels[-1][1] == head:  # the same bases, lower caps
                levels.pop()
            levels.append((shorter, head, tuple(prefixes)))
            shorter = factors
        # |sigma^k(c)| never falls, and once k >= A (the alphabet size) it
        # grows within any A steps unless it never grows again; so a cap
        # unchanged over A steps from k >= 2A is final; and no certified
        # text is longer than the expansion for the longest allowed span
        rows = [counts(self.rules[c]) for c in self.alphabet]
        steps, limit = len(rows), self._target_length(self.max_word_length)
        sizes = [1] * steps  # |sigma^k(c)| per letter c
        entries: list[tuple[int, int, Origin]] = []
        plans = [
            (tuple({*map(counts, shorter)}), head, prefixes, [])
            for shorter, head, prefixes in levels
        ]
        k = 0
        while plans:
            growing, lengths = [], dict(zip(self.alphabet, sizes))
            for shorter, head, prefixes, caps in plans:
                cap = 1 + min([sum(map(operator.mul, w, sizes)) for w in shorter])
                base = sum(map(operator.mul, head, sizes))
                if base >= limit or (k >= 2 * steps and cap == caps[k - steps]):
                    continue
                caps.append(cap)
                entries.append((cap, base, (lengths, prefixes)))
                growing.append((shorter, head, prefixes, caps))
                if cap >= self.max_word_length:  # no larger base is of use
                    limit = min(limit, base)
            plans, k = growing, k + 1
            sizes = [sum(map(operator.mul, row, sizes)) for row in rows]
        entries.sort(key=operator.itemgetter(0, 1))
        # per i, the least base of a cap no lower than caps[i], and the
        # entry it came from (of equal bases, the one of the highest cap)
        marked = [(base, -j) for j, (_, base, _) in enumerate(entries)]
        least = list(itertools.accumulate(reversed(marked), min))[::-1]
        cached = self._staircases[seed] = (
            [cap for cap, _, _ in entries],
            [base for base, _ in least],
            [entries[-j][2] for _, j in least],
        )
        return cached

    @functools.cached_property
    def _reach(self) -> int:
        """The longest span every seed's certificate reaches: the least
        last cap of their staircases, 0 unless every seed is a fixed
        point (``_staircase``).  A span within it is certified: every span
        up to it reads certified prefixes (``_cuts``), so its index holds
        every factor of that many letters and no other word, and, every
        factor extending to the right, answers a question of any shorter
        span as that span's own index does."""
        if not all(self._shape(seed, 1)[0] == ("prefix", 0) for seed in self.seeds):
            return 0
        return min([max(self._staircase(seed)[0], default=0) for seed in self.seeds])

    def _shared_index(self, span: int, too_long: str) -> _Occurrences | None:
        """The one index that answers every question of a span up to
        ``span``: that of ``span``, when it is within the bound and the
        reach (``_reach``); else None, and each question reads the index
        of its own span."""
        if span <= self.max_word_length and span <= self._reach:
            return self._index(span, too_long)
        return None

    def expansions(self, factor_length: int) -> tuple[str, ...]:
        """One long expansion per seed, deterministically trimmed so the
        result depends only on the requested factor length."""
        target = self._target_length(factor_length)
        return tuple(kept.text[:length] for kept, length, _ in self._cuts(target))

    def _index(self, span: int, too_long: str) -> _Occurrences:
        """The occurrence index a ``span``-letter query reads: per seed,
        the certified prefix of the seed's fixed point for ``span`` when
        its certificate reaches ``span``, else the prefix
        ``self.expansions(span)`` holds, cut with their letter masks from
        the kept expansions; every question about the language reads one.
        A certified prefix holds every factor of ``span`` letters, each at
        its first occurrence.  Every cut is at least ``span`` letters
        long: an expansion is cut at the target, 32 times ``span`` or
        more, or rounded up from it, and a certified prefix is ``bases[i]
        + span - 1`` letters with ``bases[i] >= 1`` (``_staircase``).
        The index of a certified span (``_reach``) is kept, for the
        _KEPT_INDEXES spans asked most recently, and answers every later
        question of that span.  Raises WindowTooLarge past the bound,
        with {span} and {bound} filled into ``too_long``."""
        if span > self.max_word_length:
            raise WindowTooLarge(too_long.format(span=span, bound=self.max_word_length))
        index = self._indexes.pop(span, None)
        if index is None:
            index = _Occurrences(self._cuts(self._target_length(span), span), span)
            if span > self._reach:
                return index
            _make_room(self._indexes, _KEPT_INDEXES)
        self._indexes[span] = index
        return index

    def factors(self, length: int) -> frozenset[str]:
        """All admissible words of exactly the given length: the windows
        at the ``fits`` positions of the length's occurrence index; only
        a certified length's index is kept, never the set."""
        if length < 1:
            raise ValueError("factor length must be >= 1")
        occ = self._index(length, "factor length {span} exceeds bound {bound}")
        fits = bin(occ.fits)[:1:-1]  # bit p at index p
        text = occ.text
        return frozenset(
            text[p : p + length] for p, bit in enumerate(fits) if bit == "1"
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
        return bool(index.fits & index.starts(word))

    def describe(self) -> str:
        return self._description

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


Column = tuple[Sequence[int], str]  # one cell's offset at each n, and its word
# a kept expansion, the length of the prefix of it cut, and the staircase
# entry certifying that prefix (None for an expansion's cut)
Cut = tuple[_Expansion, int, Origin | None]


def _make_room(recent: dict, size: int) -> None:
    """Drop the entry asked least recently from a cache of ``size``
    entries that is full; each entry asked moves to the end."""
    if len(recent) >= size:
        del recent[next(iter(recent))]


def _cover(text: str, origin: Origin, span: int) -> int:
    """Positions of the fixed point u (``text`` a prefix of it, at least
    _CERTIFY_SEARCH letters) whose windows of ``span`` letters are every
    factor of that many letters, given the staircase entry (k, l) with
    cap(k, l) >= ``span`` (``SubstitutionSystem._staircase``).

    A window that starts at offset o of the block sigma^k(u_i) is
    sigma^k(q)[o:o + span] for the shortest prefix q of u[i:i + l] with
    |sigma^k(q)| >= o + span, so it is found at the o with
    |sigma^k(q[:-1])| - span < o <= |sigma^k(q)| - span and o <
    |sigma^k(q[0])|, past the copy of sigma^k(q) at q's first occurrence
    f.  With ends[j] = |sigma^k(u[:j])|, those positions run from
    max(ends[f], ends[f + m - 1] - span + 1) to min(ends[f + m] - span,
    ends[f + 1] - 1), m = |q|; each lies before the entry's base."""
    lengths, firsts = origin
    top = max([f + m for f, m in firsts])
    ends = [0, *itertools.accumulate(map(lengths.__getitem__, text[:top]))]
    cover = 0
    for f, m in firsts:  # comparisons, not max() and min(): half the time
        low, high = ends[f + m - 1] - span + 1, ends[f + m] - span
        start, stop = ends[f], ends[f + 1]
        if low < start:
            low = start
        if high >= stop:
            high = stop - 1
        if low <= high:
            cover |= ((2 << (high - low)) - 1) << low
    return cover


class _Occurrences:
    """Start positions of every letter in the joined expansions of one
    query span.

    Bit p of ``letters[c]`` is set when letter c stands at position p of
    the joined ``text`` (joined when first read), and bit p of ``fits``
    when ``span`` letters from p lie inside one expansion; every cut
    holds at least ``span`` letters (``SubstitutionSystem._index``).
    ``cover``, built when first read, keeps of the ``fits`` bits of
    each certified cut the positions ``_cover`` finds every factor at,
    and all of any other cut's.  The starts of a word are the AND of its
    shifted letter masks, and a pattern of (offset, word) cells holds at
    p when every cell's word starts at p + offset: the Shift-And idea of
    Baeza-Yates and Gonnet, "A new approach to text searching", CACM
    35(10), 1992.
    """

    def __init__(self, cuts: Sequence[Cut], span: int):
        self._cuts = cuts
        self.span = span
        self.letters: dict[str, int] = {}
        self.fits = start = 0
        for kept, length, _ in cuts:
            prefix = (1 << length) - 1
            for c, mask in kept.letters.items():
                self.letters[c] = self.letters.get(c, 0) | (mask & prefix) << start
            self.fits |= ((1 << (length - span + 1)) - 1) << start
            start += length
        self._starts: dict[str, int] = {}
        self._ones: dict[int, array.array] = {}
        self._residues: dict[tuple[int, int], list[int]] = {}

    @functools.cached_property
    def text(self) -> str:
        return "".join([kept.text[:length] for kept, length, _ in self._cuts])

    @functools.cached_property
    def cover(self) -> int:
        cover = start = 0
        for kept, length, origin in self._cuts:
            if origin is None:
                cover |= ((1 << (length - self.span + 1)) - 1) << start
            else:
                cover |= _cover(kept.text, origin, self.span) << start
            start += length
        return cover

    def starts(self, word: str) -> int:
        """Positions at which ``word`` begins, matched once per index for
        the _KEPT_STARTS words asked most recently."""
        found = self._starts.pop(word, None)
        if found is None:
            found = -1
            for j, c in enumerate(word):
                found &= self.letters.get(c, 0) >> j
            _make_room(self._starts, _KEPT_STARTS)
        self._starts[word] = found
        return found

    def ones(self, mask: int) -> array.array:
        """The positions of the set bits of a nonnegative mask, ascending,
        kept for the _KEPT_STARTS masks asked most recently: the anchors
        of ``dynamics._anchored``, which a warm query asks again.  They
        are summed from the runs of zeros between set bits, so a sparse
        mask costs a step per set bit, not one per position."""
        found = self._ones.pop(mask, None)
        if found is None:
            gaps = bin(mask)[:1:-1].split("1")[:-1]  # the zeros below each set bit
            steps = map(operator.add, map(len, gaps), itertools.repeat(1))
            found = array.array("q", itertools.accumulate(steps, initial=-1))[1:]
            _make_room(self._ones, _KEPT_STARTS)
        self._ones[mask] = found
        return found

    def residues(self, mask: int, t: int) -> list[int]:
        """Copies of a nonnegative mask, the one at r keeping its bits r,
        r + t, r + 2t, ... at bits 0, 1, 2, ..., kept like ``ones``."""
        found = self._residues.pop((mask, t), None)
        if found is None:
            bits = bin(mask)[2:]  # bit i at index len(bits) - 1 - i
            top = len(bits) - 1
            found = [int(bits[(top - r) % t :: t] or "0", 2) for r in range(t)]
            _make_room(self._residues, _KEPT_STARTS)
        self._residues[mask, t] = found
        return found

    def carrier_masks(
        self, columns: Sequence[Column], count: int, base: int | None = None
    ) -> Iterator[int]:
        """Where the cells of each of ``count`` n are carried, as a lazy
        chain of maps, given each column's offsets relative to that n's
        leftmost cell: bit p is set when it is set in ``base`` (``fits``
        by default; a caller ANDs cells at fixed offsets into it once) and
        every word starts at p + offset.  One mask per n, ``base`` if no
        column.
        An n whose cells need fewer letters than the index's span gets
        the answer of its own span's index when the index's span is
        certified (``SubstitutionSystem._reach``); the chain search
        reads a block of candidate shifts so."""
        found = itertools.repeat(self.fits if base is None else base, count)
        for offs, w in columns:
            shifted = map(operator.rshift, itertools.repeat(self.starts(w)), offs)
            found = map(operator.and_, found, shifted)
        return found


def chacon(**kwargs) -> SubstitutionSystem:
    """The default candidate system: 0 -> 0010, 1 -> 1, seeded at 0."""
    return SubstitutionSystem({"0": "0010", "1": "1"}, seeds=("0",), **kwargs)


def fibonacci(**kwargs) -> SubstitutionSystem:
    return SubstitutionSystem({"0": "01", "1": "0"}, seeds=("0",), **kwargs)
