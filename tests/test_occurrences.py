"""The occurrence engine against slow reference scans.

Each oracle below answers a pattern query the direct way: by scanning
the factor set or every position of the expansions.  The library must
agree with it on members, witnesses, and exception types and messages.
"""

import bisect
import gc
import itertools
import operator
import random
import sys
import tracemalloc
from collections import Counter

import pytest
from growth import expansions, factors, grow, target_length, two_block_factors

from ipdyn.dynamics import (
    ContainmentCheck,
    CylinderSet,
    Lemma213Chain,
    SubstitutionSystem,
    WindowTooLarge,
    WitnessExhausted,
    _Occurrences,
    _INCLUSION_TOO_LONG,
    _anchored,
    _arrange,
    _contained,
    _gamma_shift,
    _inclusion,
    _layout,
    _members,
    _plan,
    chacon,
    check_polynomial_hypotheses,
    fibonacci,
    find_chain_shifts,
    lemma213_chain,
    pattern_realizable,
    poly_return_set,
    require_admissible,
    required_span,
    return_set,
    verify_chain,
)
from ipdyn.gammapoly import parse_gamma_polynomial
from ipdyn.intpoly import IntegralPolynomial, parse_polynomial
from ipdyn.substitution import _KEPT_INDEXES, _KEPT_LAYOUTS

ZERO = IntegralPolynomial(())

SYSTEMS = {
    "chacon": chacon,
    "fibonacci": fibonacci,
    "thue-morse": lambda: SubstitutionSystem({"a": "ab", "b": "ba"}),
    # grows, but its iterates are not prefixes of each other
    "non-prefix": lambda: SubstitutionSystem({"0": "10", "1": "0"}),
    # non-growing: closed off periodically, one expansion per seed
    "periodic": lambda: SubstitutionSystem({"a": "a", "b": "b"}, seeds=("a", "b")),
    # primitive on three letters; its certificate reaches 2377 letters
    "primitive-abc": lambda: SubstitutionSystem({"a": "abb", "b": "ac", "c": "bca"}),
    # a small bound, so that quadratic queries exceed it
    "bounded-fibonacci": lambda: fibonacci(max_word_length=60),
}

# polynomials (None: return_set), the largest window, and which of the
# words u, v_1, v_2, ... are empty (the whole space)
QUERY_SHAPES = {
    "plain": (None, 60, ()),
    "linear": (["n", "2n"], 40, ()),
    "quadratic": (["n^2", "n^2 + n"], 9, ()),
    # the leftmost cell changes with n
    "mirrored": (["-n", "n"], 40, ()),
    "quadratic-linear": (["n^2 - 5n", "3n"], 12, ()),
    "three": (["n", "2n", "3n"], 30, ()),
    "whole-space-u": (None, 60, (0,)),
    "whole-space-u-linear": (["-n", "2n"], 40, (0,)),
    "whole-space-v": (["n^2 - 5n", "3n"], 12, (2,)),
    # affine with constant terms: the leftmost cell changes near n = 0,
    # so the n beside each crossing are swept and the rest may be anchored
    "affine": (["n + 3", "-2n + 1"], 40, ()),
    "steep": (["3n - 4"], 40, ()),
    "steep-mirrored": (["-3n + 2", "4n - 5"], 25, ()),
}


def outcome(fn, *args, **kwargs):
    """The result of a call, or the type and message of its exception."""
    try:
        return fn(*args, **kwargs)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


def random_word(rng, sys_, max_len=3):
    return rng.choice(sorted(sys_.factors(rng.randint(1, max_len))))


# -- oracles ---------------------------------------------------------------------


def scan_members(sys_, ns, constraints_for):
    """Members by scanning the factors of the query's largest span."""
    patterns = {}
    for n in ns:
        cells = [(off, w) for off, w in constraints_for(n) if w]
        base = min((off for off, _ in cells), default=0)
        span = max((off + len(w) for off, w in cells), default=base) - base
        patterns[n] = (tuple((off - base, w) for off, w in cells), span)
    max_span = max((span for _, span in patterns.values()), default=0)
    if max_span > sys_.max_word_length:
        raise WindowTooLarge(
            f"query needs words of length {max_span}, bound is "
            f"{sys_.max_word_length}"
        )
    factor_set = factors(sys_, max_span) if max_span else None
    members = set()
    for n in ns:
        cells, span = patterns[n]
        if span == 0 or any(
            all(f[off : off + len(w)] == w for off, w in cells) for f in factor_set
        ):
            members.add(n)
    return frozenset(members)


def scan_poly_members(sys_, u, vs, polys, window):
    return scan_members(
        sys_,
        range(-window, window + 1),
        lambda n: [(0, u)] + [(p(n), v) for p, v in zip(polys, vs)],
    )


def planned(cells, window):
    """How a query reads its cells (offset polynomial, nonempty word) on
    [-window, window], worked out from the words and polynomials at once:
    (lines, (fixed, columns), span) as ``_plan`` gives it.  Affine
    offsets are lines; else, when one cell is leftmost at every n, its
    differences to the others are their offsets, and the cells at a
    constant one are fixed; else each n's offsets from its leftmost cell
    (``_layout``)."""
    lines = []
    for p, w in cells:
        a, s, *higher = *p.coeffs, 0, 0
        if any(higher):
            break
        lines.append((a, s, w))
    else:
        ends = [([a - s * window, a + s * window], w) for a, s, w in lines]
        return lines, ([], []), _layout(ends)[1]
    count = 2 * window + 1
    for i, (p0, w0) in enumerate(cells):
        fixed, columns, span = [(0, w0)], [], len(w0)
        for p, w in cells[:i] + cells[i + 1 :]:
            offs = (p - p0).values(-window, count)
            low, high = min(offs), max(offs)
            if low < 0:
                break
            span = max(span, high + len(w))
            if low == high:
                fixed.append((low, w))
            else:
                columns.append((offs, w))
        else:
            return None, (fixed, columns), span
    columns, span = _layout([(p.values(-window, count), w) for p, w in cells])
    return None, ([], columns), span


def spelled(cells):
    """The (position, letter) pairs of (offset, word) cells, in order; a
    position repeats where cells overlap, with two letters where they
    conflict."""
    return [(off + i, c) for off, w in cells for i, c in enumerate(w)]


def carried_masks(index, columns, count):
    """The per-n sweep: at every n, the AND of each word's starts shifted
    by its offset less that n's least offset (0 with no word), and the
    largest span any n needs.  Starts are read off the text."""
    cells = [(offs, w) for offs, w in columns if w]
    starts = {
        w: sum(1 << p for p in range(len(index.text)) if index.text.startswith(w, p))
        for _, w in cells
    }
    bases = list(map(min, zip(*(offs for offs, _ in cells)))) or [0] * count
    ends = map(max, zip(*([off + len(w) for off in offs] for offs, w in cells)))

    def carried(base, *offsets):
        found = index.fits
        for (_, w), off in zip(cells, offsets):
            found &= starts[w] >> (off - base)
        return found

    masks = list(map(carried, bases, *(offs for offs, _ in cells)))
    return masks, max(map(operator.sub, ends, bases), default=0)


def scan_realizable(sys_, cells):
    letters = spelled(cells)
    if not letters:
        return True
    positions = [pos for pos, _ in letters]
    lo, span = min(positions), max(positions) + 1 - min(positions)
    if span > sys_.max_word_length:
        raise WindowTooLarge(f"pattern span {span} exceeds bound {sys_.max_word_length}")
    for text in expansions(sys_, span):
        for a in range(len(text) - span + 1):
            if all(text[a + pos - lo] == sym for pos, sym in letters):
                return True
    return False


def scan_contained(sys_, cells, word):
    if word == "":
        return True
    letters, target = spelled(cells), spelled([(0, word)])
    positions = [pos for pos, _ in letters + target]
    lo, span = min(positions), max(positions) + 1 - min(positions)
    if span > sys_.max_word_length:
        raise WindowTooLarge(f"inclusion span {span} exceeds bound {sys_.max_word_length}")
    for f in factors(sys_, span):
        if all(f[pos - lo] == sym for pos, sym in letters):
            if not all(f[pos - lo] == sym for pos, sym in target):
                return False
    return True


def contained_alone(sys_, cells, cyl):
    """One containment of ``verify_chain``, read from the index of its own
    span: every admissible word of the span that carries the pattern also
    spells the cylinder word at position 0."""
    if cyl.word == "":
        return True
    columns, target, span = _inclusion(cells, cyl.word)
    return _contained(sys_._index(span, _INCLUSION_TOO_LONG), columns, target, cyl.word)


def partial_chain(sys_, cylinders, gammas, shifts, base_power=1):
    """The chain of the shifts found so far: none when a search fails at
    depth 0, and lemma213_chain refuses to build a chain of no levels."""
    if not shifts:
        return Lemma213Chain((), (), base_power)
    return lemma213_chain(sys_, cylinders, gammas, shifts, base_power=base_power)


def chain_levels(cylinders, gammas, shifts, base_power):
    """Every level of the chain of these shifts, rebuilt from the cylinders."""
    levels, current = [], [((0, c.word),) if c.word else () for c in cylinders]
    for n, m in enumerate(shifts):
        current = [
            cells + ((_gamma_shift(g, m) - n * base_power, c.word),) if c.word else cells
            for cells, c, g in zip(current, cylinders, gammas)
        ]
        levels.append(tuple(current))
    return tuple(levels)


def rebuild_chain_shifts(sys_, cylinders, gammas, depth, search_window, base_power=1):
    """The greedy search one candidate at a time: each candidate's level
    rebuilt from the shifts, and every pattern of it, in order, asked of
    pattern_realizable until one is not realizable."""
    for cyl in cylinders:
        require_admissible(sys_, cyl)
    shifts = []
    for n in range(depth + 1):
        prev = shifts[-1] if shifts else 0
        for m in range(max(prev + 1, n + 1), search_window + 1):
            level = chain_levels(cylinders, gammas, shifts + [m], base_power)[-1]
            if all(pattern_realizable(sys_, cells) for cells in level):
                shifts.append(m)
                break
        else:
            levels = chain_levels(cylinders, gammas, shifts, base_power)
            raise WitnessExhausted(n, Lemma213Chain(tuple(shifts), levels, base_power))
    levels = chain_levels(cylinders, gammas, shifts, base_power)
    return Lemma213Chain(tuple(shifts), levels, base_power)


# -- differential tests -------------------------------------------------------------


def record_routes(monkeypatch):
    """(first, taken) for every side the anchor route is offered from
    now on: taken is False when its selector leaves the side to the
    sweep."""
    routes = []
    anchored = _anchored

    def recorded(*args):
        first, found = anchored(*args)
        routes.append((first, found is not None))
        return first, found

    monkeypatch.setattr("ipdyn.dynamics._anchored", recorded)
    return routes


def check_query(sys_, poly_texts, words, window):
    """A return set (poly_texts None) or polynomial return set against the
    factor scan: members and span, or exception type and message."""
    u, *vs = words
    if poly_texts is None:
        (v,) = vs
        polys = [parse_polynomial("n")]
        got = outcome(return_set, sys_, CylinderSet(u), CylinderSet(v), window)
    else:
        polys = [parse_polynomial(t) for t in poly_texts]
        got = outcome(
            poly_return_set, sys_, CylinderSet(u),
            [CylinderSet(v) for v in vs], polys, window,
        )
    if not isinstance(got, tuple):
        cyls = [CylinderSet(v) for v in vs]
        span = required_span(polys, CylinderSet(u), cyls, window)
        assert got.span == span, (sys_, poly_texts, words, window)
        got = got.members
    want = outcome(scan_poly_members, sys_, u, vs, polys, window)
    assert got == want, (sys_, poly_texts, words, window)


def test_return_sets_match_factor_scan(monkeypatch):
    routes = record_routes(monkeypatch)
    for name, make in SYSTEMS.items():
        sys_ = make()
        for shape, (poly_texts, max_window, blank) in QUERY_SHAPES.items():
            rng = random.Random(f"{name}/{shape}")
            for _ in range(6):
                window = rng.randint(0, max_window)
                count = 2 if poly_texts is None else 1 + len(poly_texts)
                words = [
                    "" if i in blank else random_word(rng, sys_) for i in range(count)
                ]
                check_query(sys_, poly_texts, words, window)
    # both outcomes of the selector
    assert {taken for _, taken in routes} == {True, False}


def test_affine_queries_cross_between_routes(monkeypatch):
    # long words start in few places, so the anchor route answers most
    # n, and the sweep the n up to each crossing of the lead cell
    routes = record_routes(monkeypatch)
    for name, make in SYSTEMS.items():
        sys_ = make()
        for shape in ("plain", "linear", "mirrored", "affine", "steep",
                      "steep-mirrored"):
            poly_texts, max_window, _ = QUERY_SHAPES[shape]
            rng = random.Random(f"{name}/{shape}/long")
            for _ in range(4):
                window = rng.randint(0, max_window)
                count = 2 if poly_texts is None else 1 + len(poly_texts)
                words = [random_word(rng, sys_, 10) for _ in range(count)]
                check_query(sys_, poly_texts, words, window)
    assert any(taken and first > 1 for first, taken in routes)


def test_route_edges_match_factor_scan(monkeypatch):
    # at W = 0 and W = 1 the positive side's anchors answer n = 0 or
    # leave it to the sweep, and either route may answer a whole side
    routes = record_routes(monkeypatch)
    for name, make in SYSTEMS.items():
        sys_ = make()
        for shape, (poly_texts, _, blank) in QUERY_SHAPES.items():
            rng = random.Random(f"{name}/{shape}/edges")
            for window in (0, 1):
                for max_len in (3, 3, 10):
                    count = 2 if poly_texts is None else 1 + len(poly_texts)
                    words = [
                        "" if i in blank else random_word(rng, sys_, max_len)
                        for i in range(count)
                    ]
                    check_query(sys_, poly_texts, words, window)
    from_zero = {taken for first, taken in routes if first == 0}
    assert from_zero == {True, False}


def test_carrier_masks_match_the_per_n_sweep():
    for name, make in SYSTEMS.items():
        sys_ = make()
        rng = random.Random(f"{name}/masks")
        for _ in range(60):
            count = rng.randint(1, 8)
            columns = []
            for _ in range(rng.randint(0, 4)):
                word = "" if rng.random() < 0.2 else random_word(rng, sys_)
                low = rng.randint(-6, 3)  # negative, mixed-sign or positive
                offsets = [rng.randint(low, low + 6) for _ in range(count)]
                columns.append((offsets, word))
            cells, span = _layout(columns)
            index = sys_._index(max(span, 1), "")
            # one past count: an unbounded chain shows as one mask too many
            masks = list(itertools.islice(index.carrier_masks(cells, count), count + 1))
            assert len(masks) == count, (name, columns)
            want = carried_masks(index, columns, count)
            assert (masks, span) == want, (name, columns)


def test_anchor_route_matches_the_per_n_sweep():
    outcomes = set()
    for name, make in SYSTEMS.items():
        sys_ = make()
        rng = random.Random(f"{name}/anchored")
        for _ in range(80):
            window = rng.randint(0, 60)
            lines = []
            for _ in range(rng.randint(2, 4)):
                length = rng.choice([1, 6, 12])
                word = "" if rng.random() < 0.2 else random_word(rng, sys_, length)
                lines.append((rng.randint(-6, 6), rng.randint(-4, 4), word))
            # the route reads the cells with a word, as _members passes them
            cells = [line for line in lines if line[2]]
            ns = range(-window, window + 1)
            columns = [([a + s * n for n in ns], w) for a, s, w in cells]
            layout, span = _layout(columns)
            if not span:
                continue
            try:
                index = sys_._index(span, "")
            except WindowTooLarge:
                continue
            swept = list(index.carrier_masks(layout, len(ns)))
            # the positive side holds n = 0, as _members offers it
            for sign, least in ((1, 0), (-1, 1)):
                side = [(a, sign * s, w) for a, s, w in cells]
                first, found = _anchored(index, side, window, least)
                assert least <= first <= window + 1, (name, lines, window)
                if found is None:
                    if first <= window:
                        outcomes.add("sweep")
                    continue
                outcomes.add("anchors from 0" if first == 0 else "anchors")
                assert found >> (window + 1 - first) == 0, (name, lines, window)
                for t in range(first, window + 1):
                    member = swept[window + sign * t] != 0
                    assert (found >> (t - first) & 1) == member, (name, lines, sign * t)
    assert outcomes == {"anchors", "anchors from 0", "sweep"}


def per_n_sweep(sys_, words, polys, window):
    """A polynomial return set's members and span, or the exception it
    raises past the bound, from each n's offsets p(n): the span is the
    largest any n needs, and n is a member when the sweep over the index
    of that span (``carried_masks``) carries its cells."""
    ns = range(-window, window + 1)
    columns = [([p(n) for n in ns], w) for p, w in zip([ZERO] + polys, words)]
    spans = [0]
    for n in range(len(ns)):
        cells = [(offs[n], w) for offs, w in columns if w]
        if cells:
            spans.append(max(o + len(w) for o, w in cells) - min(o for o, _ in cells))
    span = max(spans)
    if span > sys_.max_word_length:
        return WindowTooLarge, (
            f"query needs words of length {span}, bound is {sys_.max_word_length}"
        )
    masks, _ = carried_masks(sys_._index(max(span, 1), ""), columns, len(ns))
    return frozenset(n for n, mask in zip(ns, masks) if mask), span


def poly_query(sys_, words, polys, window):
    u, *vs = map(CylinderSet, words)
    got = outcome(poly_return_set, sys_, u, vs, polys, window)
    return got if isinstance(got, tuple) else (got.members, got.span)


def test_polynomial_return_sets_match_the_per_n_sweep():
    # degree-2 and degree-3 offsets: some with one cell leftmost at every
    # n, whose differences to the others are their offsets, and some
    # whose leftmost cell changes inside the window, laid out per n
    families = [["n^2 - 3n"], ["n^2", "n^3"], ["n^3 - 4n", "n^2 + 2"], ["-n^2", "n^2 - n"]]
    rng = random.Random("poly-members")
    while len(families) < 12:
        texts = [
            " + ".join(f"{rng.randint(-4, 4)}n^{k}" for k in range(rng.randint(2, 3), -1, -1))
            for _ in range(rng.randint(1, 2))
        ]
        try:
            check_polynomial_hypotheses([parse_polynomial(t) for t in texts])
        except ValueError:
            continue
        families.append(texts)
    layouts = set()
    for name, make in SYSTEMS.items():
        sys_ = make()
        for texts in families:
            polys = [parse_polynomial(t) for t in texts]
            for _ in range(3):
                window = rng.randint(0, 6)
                words = [
                    "" if rng.random() < 0.1 else random_word(rng, sys_)
                    for _ in range(1 + len(polys))
                ]
                want = per_n_sweep(sys_, words, polys, window)
                assert poly_query(sys_, words, polys, window) == want, (name, texts, words, window)
                cells = [(p, w) for p, w in zip([ZERO] + polys, words) if w]
                lines, (fixed, _), _ = planned(cells, window)
                if lines is None and window:
                    layouts.add("leftmost" if fixed else "per n")
    assert layouts == {"leftmost", "per n"}


def test_three_moving_slopes_take_the_sweep(monkeypatch):
    # (n, 2n, 3n) moves cells of three slopes against the lead on both
    # sides, and (2n, 3n) cells of slopes 2 and 3 against u on the
    # positive side, so those sides take the sweep, also where the lead's
    # anchors are fewer than the side's n; the negative side of (2n, 3n),
    # led by the 3n cell, moves at slopes 1 and 3 and may be anchored
    routes = record_routes(monkeypatch)
    # per family, the cells that lead the sides left to the sweep
    families = {("n", "2n", "3n"): (0, 3), ("2n", "3n"): (0,)}
    for texts, leads in families.items():
        polys = [parse_polynomial(t) for t in texts]
        few = 0
        for name, make in SYSTEMS.items():
            sys_ = make()
            rng = random.Random(f"{name}/three-slopes")
            for _ in range(4):
                window = rng.randint(5, 30)
                words = [rng.choice(sorted(sys_.factors(8))) for _ in range(1 + len(polys))]
                want = per_n_sweep(sys_, words, polys, window)
                start = len(routes)
                assert poly_query(sys_, words, polys, window) == want, (name, words, window)
                if not isinstance(want[0], type):
                    # the positive side is offered first, then the negative
                    sides = [taken for _, taken in routes[start:]]
                    assert len(sides) == 2 and not any(sides[: len(leads)]), (name, words)
                    index = sys_._index(want[1], "")
                    few += all(
                        (index.fits & index.starts(words[k])).bit_count() < window
                        for k in leads
                    )
        assert few, texts


def python_calls(query, *args):
    """The Python-level calls (profile "call" events, generator resumes
    included) of one query, after one untimed call of it."""
    query(*args)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(count)
    try:
        query(*args)
    finally:
        sys.setprofile(None)
    return calls


def test_warm_query_call_budget():
    # A query on a warm system runs cold: the benchmark collects garbage
    # before every op, which leaves the CPU caches holding other data,
    # and then an op costs about what its code and data take to fetch.
    # Each call touches a code object and its frame, so the fixed path of
    # a query, not its per-n work, was half an op at 140-230 calls.  The
    # budgets are the counts on CPython 3.11 (31, 44 and 29, the system
    # keeping each span's index) with headroom; 3.12 inlines
    # comprehensions and counts fewer.
    sys_ = chacon()
    u, v, v2 = CylinderSet("0010001"), CylinderSet("001000"), CylinderSet("100100")
    polys = [parse_polynomial("n"), parse_polynomial("2n")]
    quadratic = [parse_polynomial("n^2"), parse_polynomial("n^2 + n")]
    assert python_calls(return_set, sys_, u, v, 360) <= 35
    assert python_calls(poly_return_set, sys_, u, [v, v2], polys, 220) <= 50
    assert python_calls(poly_return_set, sys_, u, [v, v2], quadratic, 44) <= 34


def counted_values(monkeypatch):
    """The polynomials ``IntegralPolynomial.values`` evaluates from now
    on, one entry per call."""
    evaluated = []
    values = IntegralPolynomial.values

    def counted(self, start, count):
        evaluated.append(self)
        return values(self, start, count)

    monkeypatch.setattr(IntegralPolynomial, "values", counted)
    return evaluated


# offset polynomials of v_1, v_2, ..., u being at 0
LAYOUT_FAMILIES = {
    "affine": ["n + 3", "-2n + 1"],
    "quadratic": ["n^2", "n^2 + n"],
    # no cell is leftmost at every n
    "crossing": ["n^2 - 3n"],
    # v_1, not u, is leftmost at every n
    "inner": ["-2n^2", "-n^2"],
    "cubic": ["n^3 - 4n", "n^2 + 2"],
}


def test_kept_layouts_match_the_plan_oracle():
    # each (polynomials, window) pair is asked twice, with other words
    # the second time: once laid out afresh and once from the layout the
    # system kept, when the first query's span passed the bound; two
    # sets of empty words at one window are two pairs
    kept_calls = Counter()
    for name, make in SYSTEMS.items():
        sys_ = make()
        rng = random.Random(f"{name}/layouts")
        for family, texts in LAYOUT_FAMILIES.items():
            polys = [parse_polynomial(t) for t in texts]
            for window in (rng.randint(0, 8), rng.randint(0, 60)):
                blanks = [[rng.random() < 0.2 for _ in range(1 + len(polys))] for _ in "ab"]
                for blank, call in itertools.product(blanks, ("first", "kept")):
                    words = ["" if b else random_word(rng, sys_) for b in blank]
                    cells = [(p, w) for p, w in zip([ZERO] + polys, words) if w]
                    key = (tuple(p.coeffs for p, _ in cells), window)
                    context = (name, family, words, window, call)
                    if call == "kept" and key in sys_._layouts:
                        layout = sys_._layouts[key]
                        kept_calls[family] += 1
                    elif cells:
                        layout = _arrange([p for p, _ in cells], window)
                    if cells:
                        want = planned(cells, window)
                        assert _plan([w for _, w in cells], layout) == want, context
                    got = outcome(_members, sys_, window, list(zip([ZERO] + polys, words)))
                    assert got == per_n_sweep(sys_, words, polys, window), context
    assert set(kept_calls) == set(LAYOUT_FAMILIES), kept_calls


def test_a_kept_layout_evaluates_no_polynomial(monkeypatch):
    evaluated = counted_values(monkeypatch)
    sys_ = chacon()
    u, v, v2 = CylinderSet("0010001"), CylinderSet("001000"), CylinderSet("100100")
    quadratic = ["n^2", "n^2 + n"]
    poly_return_set(sys_, u, [v, v2], list(map(parse_polynomial, quadratic)), 44)
    assert evaluated
    evaluated.clear()
    # other words and other polynomials of the same coefficients
    w, w2 = CylinderSet("1001"), CylinderSet("0100")
    got = poly_return_set(sys_, v, [w, w2], list(map(parse_polynomial, quadratic)), 44)
    assert not evaluated
    want = poly_return_set(chacon(), v, [w, w2], list(map(parse_polynomial, quadratic)), 44)
    assert got == want
    # a fresh system keeps nothing of another's layouts
    assert evaluated


def test_kept_layouts_are_the_recent_pairs():
    sys_ = chacon()
    u, v = CylinderSet("00"), CylinderSet("01")
    quadratic = [parse_polynomial("n^2")]
    windows = range(3 * _KEPT_LAYOUTS)
    for window in windows:
        poly_return_set(sys_, u, [v], quadratic, window)
        assert len(sys_._layouts) <= _KEPT_LAYOUTS
    assert [w for _, w in sys_._layouts] == list(windows[-_KEPT_LAYOUTS:])
    # one asked again moves to the end, so a new one drops the next
    poly_return_set(sys_, u, [v], quadratic, windows[-_KEPT_LAYOUTS])
    poly_return_set(sys_, u, [v], quadratic, 0)
    assert [w for _, w in sys_._layouts] == [*windows[2 - _KEPT_LAYOUTS :], windows[-_KEPT_LAYOUTS], 0]
    # a query past the bound keeps no layout, nor one that is not admissible
    before = dict(sys_._layouts)
    with pytest.raises(WindowTooLarge):
        poly_return_set(sys_, u, [v], quadratic, 80)
    with pytest.raises(ValueError, match="not admissible"):
        poly_return_set(sys_, u, [CylinderSet("11")], [parse_polynomial("n^3")], 2)
    assert sys_._layouts == before
    bounded = fibonacci(max_word_length=60)
    with pytest.raises(WindowTooLarge):
        poly_return_set(bounded, CylinderSet("0"), [CylinderSet("1")], quadratic, 20)
    assert bounded._layouts == {}


def in_order(query, sys_, cylinders, *args, polys=()):
    """``query`` after the checks it must raise from first, in order:
    the polynomial hypotheses, then each cylinder word's admissibility,
    asked of its own index."""
    check_polynomial_hypotheses(polys)
    for cyl in cylinders:
        require_admissible(sys_, cyl)
    return query(sys_, *args)


def test_return_sets_check_words_before_the_bound():
    poly_choices = [["n", "2n"], ["n^2", "n^2 + n"], ["n", "n + 1"], ["-n", "3"]]
    for name, make in SYSTEMS.items():
        sys_ = make()
        rng = random.Random(f"{name}/admissible-first")
        for _ in range(30):
            words = []
            for _ in range(3):
                w = random_word(rng, sys_, 6)
                i = rng.randrange(len(w))  # one changed letter: often inadmissible
                spoilt = w[:i] + rng.choice(sys_.alphabet + ("x",)) + w[i + 1 :]
                words.append(rng.choice([w] * 4 + [spoilt] * 2 + ["", "0" * 70]))
            u, *vs = map(CylinderSet, words)
            window = rng.choice([0, 3, 30, 200])
            got = outcome(return_set, sys_, u, vs[0], window)
            want = outcome(in_order, return_set, sys_, (u, vs[0]), u, vs[0], window)
            assert got == want, (name, words, window)
            polys = [parse_polynomial(t) for t in rng.choice(poly_choices)]
            got = outcome(poly_return_set, sys_, u, vs, polys, window)
            want = outcome(
                in_order, poly_return_set, sys_, (u, *vs), u, vs, polys, window,
                polys=polys,
            )
            assert got == want, (name, words, polys, window)


def test_admissibility_matches_factor_set():
    for name, make in SYSTEMS.items():
        sys_ = make()
        rng = random.Random(f"{name}/admissible")
        words = ["", "z", sys_.alphabet[0] + "z"]  # "z" is in no alphabet here
        for _ in range(20):
            w = random_word(rng, sys_, max_len=12)
            i = rng.randrange(len(w))
            words += [w, w[:i] + rng.choice(sys_.alphabet) + w[i + 1 :]]
        texts = expansions(sys_, 1)
        for text in texts:
            words += [text[:k] for k in (1, 7, 33)] + [text[-k:] for k in (1, 7, 33)]
            # past bounded-fibonacci's bound
            words += [(text * 2)[:61]]
        # across the joint of two seeds' expansions
        words += [a[-2:] + b[:2] for a, b in zip(texts, texts[1:])]
        for w in words:
            assert outcome(sys_.is_admissible, w) == outcome(
                lambda: w == ""
                or (set(w) <= set(sys_.rules) and w in factors(sys_, len(w)))
            ), (name, w)


def test_factor_sets_match_growth_from_the_seed():
    # 12 letters is the certificate's width and bounded-fibonacci's bound
    # is 60; the closures of bc and efg round the 4096-letter target of
    # every span up to 128 to 4096 and 4098 letters, so the windows the
    # two seeds hold lie unevenly about their joint
    systems = {
        **SYSTEMS,
        "uneven-seeds": lambda: SubstitutionSystem(
            {"a": "bc", "b": "b", "c": "c", "d": "efg", "e": "e", "f": "f", "g": "g"},
            seeds=("a", "d"),
        ),
    }
    uneven = systems["uneven-seeds"]()
    assert [length for _, length, _ in uneven._cuts(target_length(128))] == [4096, 4098]
    for name, make in systems.items():
        sys_ = make()
        for length in (1, 2, 12, 13, 40, 41, 60, 61, 150):
            assert outcome(sys_.factors, length) == outcome(factors, sys_, length), (
                name, length,
            )


def test_answers_do_not_depend_on_earlier_queries():
    # each answer must be the one for its own span, whatever the previous
    # query indexed: the windows move the expansion target back and forth
    # across iterate lengths (non-prefix reads sigma^17(0), sigma^18(0)
    # and sigma^19(0), of 4181, 6765 and 10946 letters), and past the
    # bound and back; then through more spans than a system keeps indexes
    # of, so that the first ones are asked again after they were dropped
    systems = {
        **SYSTEMS,
        # 0 -> 0000000001 grows its runs of 1s slowly, so which words its
        # expansions hold depends on how long they are
        "slow": lambda: SubstitutionSystem({"0": "0000000001", "1": "1"}),
    }
    for name, make in systems.items():
        sys_ = make()
        if name == "slow":
            u, v, words = "1", "11", ("1111", "0000000001111")
        else:
            rng = random.Random(f"{name}/order")
            u, v = random_word(rng, sys_, 1), random_word(rng, sys_, 2)
            # two-letter words include ones spanning two seeds' texts
            words = (u + v, v + u, v + v) + tuple(
                map("".join, itertools.product(sys_.alphabet, repeat=2))
            )
        evicting = tuple(range(20, 20 + 3 * (_KEPT_INDEXES + 1), 3))
        for window in (230, 0, 150, 230, 10, 150, 0) + evicting + (230, 10, 150, 0):
            got = outcome(return_set, sys_, CylinderSet(u), CylinderSet(v), window)
            if not isinstance(got, tuple):
                got = got.members
            assert got == outcome(
                scan_poly_members, sys_, u, [v], [parse_polynomial("n")], window
            ), (name, window)
            for w in words:
                assert sys_.is_admissible(w) == (w in factors(sys_, len(w))), (
                    name, window, w,
                )


# SYSTEMS, and growth the query tests would be slow on
GROWTH_SYSTEMS = {
    **SYSTEMS,
    # sigma^k(a) = ab^k: 4096 letters take 4095 iterates
    "linear": lambda: SubstitutionSystem({"a": "ab", "b": "b"}, max_word_length=40),
    # sigma(a) = b is no longer than a, so a is closed off as b repeated,
    # although sigma(b) grows
    "stalls": lambda: SubstitutionSystem({"a": "b", "b": "bb"}),
    # sigma(a) = bcd stops growing: repeated in whole periods, past the target
    "period-3": lambda: SubstitutionSystem({"a": "bcd", "b": "b", "c": "c", "d": "d"}),
}


def test_expansions_match_growth_from_the_seed():
    # 32 * 128 = 4096: the target leaves its floor after 128 letters;
    # non-prefix reads sigma^17(0), sigma^18(0) and sigma^19(0) at 129,
    # 150 and 300, and only iterates of one parity are prefixes of each
    # other
    lengths = [1, 5, 40, 127, 128, 129, 150, 300]
    for name, make in GROWTH_SYSTEMS.items():
        sys_ = make()
        shuffled = random.Random(name).sample(lengths, len(lengths))
        for length in lengths + lengths[::-1] + shuffled:
            assert sys_.expansions(length) == expansions(sys_, length), (name, length)


def test_kept_expansion_stays_small():
    # the 4096 letters of ab^4095 are the 4095th iterate; a system that
    # kept every iterate on the way would hold 8.4 million letters
    tracemalloc.start()
    try:
        sys_ = SubstitutionSystem({"a": "ab", "b": "b"}, max_word_length=40)
        assert sys_.is_admissible("a" + "b" * 39)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained < 1 << 20


def test_factor_sets_are_not_retained():
    # a cache of every factor set asked for would hold 2 MiB here
    sys_ = chacon()
    tracemalloc.start()
    try:
        for length in range(100, 601, 100):
            sys_.factors(length)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained < 64 << 10


def test_kept_prefix_grows_in_linear_time():
    # sigma^k(a) = ab^k: applying sigma to the whole kept text at every
    # step would pass 8 386 560 letters to sigma to reach 4096 letters;
    # applying it to the letters the last step added passes fewer than
    # the target length of 32 letters per query letter
    sys_ = SubstitutionSystem({"a": "ab", "b": "b"})
    applied = []
    apply = sys_._apply
    sys_._apply = lambda word: applied.append(len(word)) or apply(word)
    for length in (128, 300):
        assert sys_.is_admissible("b" * length)
        assert sum(applied) <= 32 * length


def random_pattern(rng, sys_):
    """(offset, word) cells.  Either pieces of one window at or near the
    end of an expansion, which agree where they overlap, or random words
    (some of them empty), which may overlap and conflict."""
    if rng.random() < 0.4:
        text = rng.choice(expansions(sys_, 1))
        length = rng.randint(1, min(len(text), 50))
        start = len(text) - length - rng.randint(0, min(2, len(text) - length))
        offset = rng.randint(-6, 6)
        if rng.random() < 0.2:
            return ((offset, text[start : start + length]),)
        cells = []
        for _ in range(rng.randint(1, 5)):
            i = rng.randrange(length)
            j = min(length, i + rng.choice([1, 1, 3, 6]))
            cells.append((offset + i, text[start + i : start + j]))
        return tuple(cells)
    symbols = list(sys_.alphabet) + ["z"]  # "z" is in no alphabet here
    near = rng.random() < 0.5  # close offsets make overlaps, often conflicts
    cells = []
    for _ in range(rng.randint(0, 4)):
        letters = symbols if rng.random() < 0.1 else sys_.alphabet
        word = "".join(rng.choice(letters) for _ in range(rng.choice([0, 1, 1, 2, 4])))
        cells.append((rng.randint(-3, 3) if near else rng.randint(-6, 70), word))
    return tuple(cells)


def test_patterns_match_position_scan():
    kinds = set()
    for name, make in SYSTEMS.items():
        sys_ = make()
        rng = random.Random(name)
        for _ in range(150):
            pattern = random_pattern(rng, sys_)
            letters = spelled(pattern)
            positions = {pos for pos, _ in letters}
            if len(positions) < len(set(letters)):
                kinds.add("conflict")
            elif len(positions) < len(letters):
                kinds.add("agreeing overlap")
            if any(len(w) > 1 for _, w in pattern):
                kinds.add("word")
            assert outcome(pattern_realizable, sys_, pattern) == outcome(
                scan_realizable, sys_, pattern
            ), (name, pattern)
            word = random_word(rng, sys_) if rng.random() < 0.8 else ""
            assert outcome(
                contained_alone, sys_, pattern, CylinderSet(word)
            ) == outcome(scan_contained, sys_, pattern, word), (name, pattern, word)
    assert kinds == {"conflict", "agreeing overlap", "word"}


@pytest.mark.parametrize(
    "words, gamma_texts, depth, window, runs_out_at",
    [
        (["1001", "1001"], ["T1^{n}", "T1^{2n}"], 4, 200, None),
        (["01"], ["T1^{n^2}"], 4, 40, None),
        (["1001", "0100"], ["T1^{n}", "T1^{2n}"], 5, 60, 5),
        (["0"], ["T1^{n}"], 3, 0, 0),  # no candidate at all
        pytest.param(["", "1001"], ["T1^{n}", "T1^{2n}"], 3, 60, None, id="empty-word"),
        pytest.param(["", ""], ["T1^{n}", "T1^{n^2}"], 2, 9, None, id="empty-words"),
        pytest.param(
            ["0100", "10"], ["T1^{-n}", "T1^{n^2 - 3n}"], 3, 60, None,
            id="negative-slopes",
        ),
        pytest.param(
            ["010", "1", "1001"], ["T1^{3n}", "T1^{n} * T2^{n}", "T1^{-2n}"], 3, 90,
            None, id="three-cylinders",
        ),
    ],
)
def test_chain_search_matches_rebuild(words, gamma_texts, depth, window, runs_out_at):
    """Every system, base powers 1 and 2: the same shifts and levels, the
    same failure depth and partial chain, or the same exception, as the
    search one candidate at a time.  The words are Chacon words, spelled
    in each system's first two letters, or else its least word of that
    length; runs_out_at is Chacon's."""
    gammas = [parse_gamma_polynomial(t) for t in gamma_texts]

    def run(search):
        try:
            return search()
        except WitnessExhausted as exc:
            return exc.depth, exc.partial
        except ValueError as exc:  # WindowTooLarge, an inadmissible word
            return type(exc), str(exc)

    for name, make in SYSTEMS.items():
        sys_ = make()
        letters = str.maketrans("01", "".join(sys_.alphabet[:2]))
        cylinders = [
            CylinderSet(w if sys_.is_admissible(w) else min(sys_.factors(len(w))))
            for w in (w.translate(letters) for w in words)
        ]
        for base_power in (1, 2):
            got = run(lambda: find_chain_shifts(
                sys_, cylinders, gammas, depth, search_window=window,
                base_power=base_power,
            ))
            want = run(lambda: rebuild_chain_shifts(
                sys_, cylinders, gammas, depth, window, base_power
            ))
            assert got == want, (name, base_power)
            if isinstance(got, Lemma213Chain):
                assert len(got.levels) == depth + 1
                assert got == lemma213_chain(
                    sys_, cylinders, gammas, got.shifts, base_power=base_power
                )
            elif isinstance(got[1], Lemma213Chain):
                depth_failed, partial = got
                assert len(partial.shifts) == len(partial.levels) == depth_failed
                assert partial == partial_chain(
                    sys_, cylinders, gammas, partial.shifts, base_power
                )
            if name == "chacon" and base_power == 1:
                if runs_out_at is None:
                    assert isinstance(got, Lemma213Chain), got
                else:
                    assert got[0] == runs_out_at


def blocks_tried(first, found):
    """How many blocks of 8, 16, 32, ... candidates from ``first`` are
    tried until the one holding ``found``."""
    tried, start, size = 0, first, 8
    while start <= found:
        tried, start, size = tried + 1, start + size, 2 * size
    return tried


def test_chain_search_builds_one_index_per_block(monkeypatch):
    # the lemma213 chain of the benchmark: 227 indexes, one per pattern
    # asked, when each candidate was tried alone
    sys_ = chacon()
    cylinders = [CylinderSet("1001")] * 2
    gammas = [parse_gamma_polynomial("T1^{n}"), parse_gamma_polynomial("T1^{2n}")]
    built = []
    init = _Occurrences.__init__
    monkeypatch.setattr(
        _Occurrences, "__init__", lambda self, *args: built.append(init(self, *args))
    )
    chain = find_chain_shifts(sys_, cylinders, gammas, 4, search_window=200)
    assert chain.shifts == (9, 37, 51, 92, 193)
    firsts = [1] + [m + 1 for m in chain.shifts[:-1]]
    blocks = sum(map(blocks_tried, firsts, chain.shifts))
    # one index for the admissibility of 1001, which the system keeps for
    # the second cylinder's check, then one per block
    assert len(built) == 1 + blocks == 15


def verify_each(sys_, cylinders, gammas, chain):
    """verify_chain one containment at a time, each read from the index of
    its own span, in order."""
    checks = []
    for n, level in enumerate(chain.levels):
        for i, cells in enumerate(level):
            for j in range(n + 1):
                s = _gamma_shift(gammas[i], chain.shifts[j]) - j * chain.base_power
                holds = contained_alone(
                    sys_, [(off - s, w) for off, w in cells], cylinders[i]
                )
                checks.append(ContainmentCheck(n, i, j, holds))
    return all(c.holds for c in checks), tuple(checks)


def test_verify_chain_matches_each_check_alone():
    """Every system, the chains of the shifts found and of shifts that do
    not fit their levels: the same checks, or the same exception."""
    chains = [
        (["1001", "1001"], ["T1^{n}", "T1^{2n}"], [9, 37, 51, 92, 193]),
        (["01"], ["T1^{n^2}"], [2, 3, 5, 6, 8]),
        (["", "1001"], ["T1^{n}", "T1^{2n}"], [1, 9, 17]),
        (["0100", "10"], ["T1^{-n}", "T1^{n^2 - 3n}"], [1, 2, 4, 7]),
        # past a small bound at the first check, before the second cylinder
        (["1001", "1001"], ["T1^{n^2}", "T1^{2n}"], [9, 12, 14]),
        # moved by 5, level 1 spans 61 and 66 letters: the first is the one
        # past the bound that is reported; 61 to 74 are certified on Fibonacci
        (["1001"], ["T1^{n}"], [1, 58]),
    ]
    seen = Counter()
    for name, make in SYSTEMS.items():
        sys_ = make()
        letters = str.maketrans("01", "".join(sys_.alphabet[:2]))
        for words, gamma_texts, shifts in chains:
            cylinders = [
                CylinderSet(w if sys_.is_admissible(w) else min(sys_.factors(len(w))))
                for w in (w.translate(letters) for w in words)
            ]
            gammas = [parse_gamma_polynomial(t) for t in gamma_texts]
            for base_power, moved in itertools.product((1, 2), (0, 1, 5)):
                levels = chain_levels(cylinders, gammas, shifts, base_power)
                chain = Lemma213Chain(tuple(m + moved for m in shifts), levels, base_power)
                got, want = (
                    outcome(check, sys_, cylinders, gammas, chain)
                    for check in (verify_chain, verify_each)
                )
                assert got == want, (name, words, base_power, moved)
                seen[got[0] if isinstance(got[0], type) else got[0] is True] += 1
    assert set(seen) == {True, False, WindowTooLarge}, seen


def test_verify_chain_rejects_mismatched_inputs(monkeypatch):
    # each mismatch is reported before any index is read; _build_chain
    # words the first the same way
    sys_ = chacon()
    cylinders = [CylinderSet("1001")] * 2
    gammas = [parse_gamma_polynomial("T1^{n}"), parse_gamma_polynomial("T1^{2n}")]
    shifts = (9, 37, 51)
    levels = chain_levels(cylinders, gammas, shifts, 1)
    mismatched = [
        (gammas[:1], Lemma213Chain(shifts, levels, 1),
         "need one exponent element per cylinder"),
        (gammas, Lemma213Chain(shifts[:2], levels, 1), "need one shift per chain level"),
        (gammas, Lemma213Chain(shifts, (*levels[:2], levels[2][:1]), 1),
         "need one pattern per cylinder at every chain level"),
    ]
    built = []
    init = _Occurrences.__init__
    monkeypatch.setattr(
        _Occurrences, "__init__", lambda self, *args: built.append(init(self, *args))
    )
    for given, chain, message in mismatched:
        got = outcome(verify_chain, sys_, cylinders, given, chain)
        assert got == (ValueError, message)
    got = outcome(find_chain_shifts, sys_, cylinders, gammas[:1], 2, search_window=20)
    assert got == (ValueError, mismatched[0][2])
    assert not built


def test_verify_chain_builds_one_index_per_chain(monkeypatch):
    # the lemma213 chain of the benchmark: 30 indexes, one per check, when
    # each containment was checked alone, and 5, one per level, when each
    # level read the index of its widest span; the chain's widest span,
    # 386 letters, is certified on Chacon
    sys_ = chacon()
    cylinders = [CylinderSet("1001")] * 2
    gammas = [parse_gamma_polynomial("T1^{n}"), parse_gamma_polynomial("T1^{2n}")]
    chain = find_chain_shifts(sys_, cylinders, gammas, 4, search_window=200)
    spans = []
    init = _Occurrences.__init__
    monkeypatch.setattr(
        _Occurrences, "__init__", lambda self, *args: spans.append(init(self, *args) or args[1])
    )
    ok, checks = verify_chain(sys_, cylinders, gammas, chain)
    assert ok and len(checks) == 30
    assert spans == [386]


# -- the certified index cut ---------------------------------------------------------


def random_prolongable(rng, longest=4):
    """Rules on 2 or 3 letters with images of at most ``longest`` letters,
    where the image of the seed a begins with a and is longer."""
    letters = "abc"[: rng.randint(2, 3)]
    rules = {c: "".join(rng.choices(letters, k=rng.randint(1, longest))) for c in letters}
    rules["a"] = "a" + "".join(rng.choices(letters, k=rng.randint(1, longest - 1)))
    return rules


CERTIFIED_SYSTEMS = {
    "chacon": chacon,
    "fibonacci": fibonacci,
    "thue-morse-two-seeds": lambda: SubstitutionSystem(
        {"a": "ab", "b": "ba"}, seeds=("a", "b")
    ),
    # its certified cut is longer than the 32x expansion at every span
    # from 57 to its reach, 611, and that expansion misses factors at each
    "aba-bc-b": lambda: SubstitutionSystem({"a": "aba", "b": "bc", "c": "b"}),
    **{
        f"random-{i}": lambda rules=random_prolongable(random.Random(i)): (
            SubstitutionSystem(rules)
        )
        for i in range(24)
    },
}
CUT_SPANS = list(range(1, 14)) + [17, 24, 31, 40, 49, 60]


def windows(text, span):
    return {text[i : i + span] for i in range(len(text) - span + 1)}


def test_certified_cut_holds_the_factors_of_the_expansion():
    shorter, more = set(), set()
    for name, make in CERTIFIED_SYSTEMS.items():
        sys_ = make()
        rules = tuple(sorted(sys_.rules.items()))
        for span in CUT_SPANS:
            target = target_length(span)
            texts = [kept.text[:n] for kept, n, _ in sys_._cuts(target, span)]
            assert "".join(texts) == sys_._index(span, "").text
            for seed, text in zip(sys_.seeds, texts):
                expansion = grow(rules, seed, target)
                if span > max(sys_._staircase(seed)[0], default=0):
                    # past the certificate's reach the cut is the expansion
                    assert text == expansion, (name, seed, span)
                    continue
                guessed, got = windows(expansion, span), windows(text, span)
                grown = grow(rules, seed, 4 * len(text))
                assert got >= guessed, (name, seed, span)
                assert got == windows(grown, span), (name, seed, span)
                if len(text) < target:
                    shorter.add((name, span))
                if got != guessed:
                    more.add((name, span))
    # the cut is shorter for most systems and spans, not only the famous ones
    assert len(shorter) > len(CERTIFIED_SYSTEMS) * len(CUT_SPANS) // 2
    # and where it is longer, it holds factors the expansion misses
    assert ("aba-bc-b", 60) in more


def test_certified_queries_match_the_oracles():
    linear = [parse_polynomial("n"), parse_polynomial("2n")]
    for name, make in CERTIFIED_SYSTEMS.items():
        sys_ = make()
        rng = random.Random(f"{name}/certified")
        for _ in range(10):
            w = random_word(rng, sys_, max_len=12)
            i = rng.randrange(len(w))
            for word in (w, w[:i] + rng.choice(sys_.alphabet) + w[i + 1 :]):
                assert sys_.is_admissible(word) == (word in factors(sys_, len(word)))
        for _ in range(3):
            u, v = random_word(rng, sys_), random_word(rng, sys_)
            window = rng.randint(0, 50)
            got = return_set(sys_, CylinderSet(u), CylinderSet(v), window).members
            want = scan_poly_members(sys_, u, [v], linear[:1], window)
            assert got == want, (name, u, v, window)
            vs = [random_word(rng, sys_) for _ in linear]
            window = rng.randint(0, 20)
            got = poly_return_set(
                sys_, CylinderSet(u), [CylinderSet(v) for v in vs], linear, window
            ).members
            assert got == scan_poly_members(sys_, u, vs, linear, window), (name, u, vs)
        for _ in range(20):
            pattern = random_pattern(rng, sys_)
            assert outcome(pattern_realizable, sys_, pattern) == outcome(
                scan_realizable, sys_, pattern
            ), (name, pattern)


def fixed_point(sys_, seed):
    image = sys_.rules[seed]
    return image[0] == seed and len(image) > 1


def test_certified_spans_match_the_cuts():
    for name, make in {**SYSTEMS, **CERTIFIED_SYSTEMS}.items():
        sys_ = make()
        stairs = [
            sys_._staircase(seed)[:2] if fixed_point(sys_, seed) else ([], [])
            for seed in sys_.seeds
        ]
        # the system's reach: the least last cap over its seeds, 0 when a
        # seed has none
        reach = min(caps[-1] if caps else 0 for caps, _ in stairs)
        for span in sorted({*range(1, 301), reach, reach + 1} - {0}):
            certified = span <= reach
            assert (span <= sys_._reach) == certified, (name, span)
            shared = sys_._shared_index(span, "")
            assert (shared is not None) == (
                certified and span <= sys_.max_word_length
            ), (name, span)
            if shared is not None:
                assert shared.text == sys_._index(span, "").text, (name, span)
            # a seed is cut at its certified prefix for every span its own
            # certificate reaches, and at the expansion past it
            target = target_length(span)
            cuts = zip(stairs, sys_._cuts(target, span), sys_._cuts(target))
            for (caps, bases), (_, cut, _), (_, full, _) in cuts:
                i = bisect.bisect_left(caps, span)
                assert cut == (bases[i] + span - 1 if i < len(caps) else full), (name, span)
    # the famous fixed points certify every span up to the bound
    assert 5000 <= chacon()._reach and 5000 <= fibonacci()._reach
    # uncertified seeds: not a fixed point
    for name in ("non-prefix", "periodic"):
        assert not 1 <= SYSTEMS[name]()._reach, name


def test_certified_factors_match_a_long_growth():
    # factors(span) on random prolongable rules against the windows of a
    # growth four times as long as the text the library read, and never
    # shorter than the 32x expansion.  The spans: the first of each run
    # where the certified cut is longer than that expansion, and three
    # more up to the certificate's reach, small ones likelier; a span
    # whose growth times its length passes 2^26 letters is left out, only
    # so that listing the growth's windows stays cheap
    checked = firsts = 0
    for i in range(40):
        rules = random_prolongable(random.Random(f"long-growth-{i}"), longest=6)
        sys_ = SubstitutionSystem(rules)
        caps, bases, _ = sys_._staircase("a")
        top = min(caps[-1] if caps else 0, sys_.max_word_length)
        longer = [False] + [
            bases[bisect.bisect_left(caps, s)] + s - 1 > target_length(s)
            for s in range(1, top + 1)
        ]
        runs = {s for s in range(1, top + 1) if longer[s] and not longer[s - 1]}
        rng = random.Random(f"long-growth-spans-{i}")
        spans = runs | {int(top ** rng.random()) for _ in range(3) if top}
        for span in sorted(spans):
            cut = len(sys_._index(span, "").text)
            length = 4 * max(cut, target_length(span))
            if length * span > 1 << 26:
                continue
            text = grow(tuple(sorted(rules.items())), "a", length)
            assert sys_.factors(span) == windows(text, span), (rules, span)
            checked += 1
            firsts += span in runs
    assert checked > 100 and firsts >= 10, (checked, firsts)


def indexed_length(sys_, span):
    return len(sys_._index(span, "").text)


def test_certified_cut_sizes():
    assert indexed_length(chacon(), 1207) <= 8 * 1207
    fib = fibonacci()
    for span in range(1, 2557):
        assert indexed_length(fib, span) <= 3 * span, span
    # neither fixed point has a certificate past the closed factor lengths:
    # 1^k first occurs after about 10^k letters, and ab^k after none
    for rules in ({"0": "0000000001", "1": "1"}, {"a": "ab", "b": "b"}):
        sys_ = SubstitutionSystem(rules)
        for span in (13, 40, 128, 129, 300):
            assert indexed_length(sys_, span) == max(32 * span, 4096), (rules, span)


# -- the cover and the kept indexes ------------------------------------------------


def positions(mask):
    return [p for p, bit in enumerate(bin(mask)[:1:-1]) if bit == "1"]


def first_windows(text, mask, span):
    """Per distinct window of ``span`` letters at the set bits of ``mask``,
    its first position, scanning from the left.  Windows are told apart by
    hash(), so that spans of thousands of letters keep no window; two
    distinct windows collide with odds of about 2^-64."""
    firsts = {}
    for p in positions(mask):
        firsts.setdefault(hash(text[p : p + span]), p)
    return firsts


def test_cover_holds_every_factor_of_the_span():
    # the cover keeps, of each certified cut's fits positions, one block
    # offset per prefix q of a factor at q's first occurrence
    # (substitution._cover); it must hold every window fits does
    for name, make in {**SYSTEMS, **CERTIFIED_SYSTEMS}.items():
        sys_ = make()
        reach = min(sys_._reach, sys_.max_word_length)
        for span in sorted({*CUT_SPANS, reach} - {0}):
            if span > sys_.max_word_length:
                continue
            index = sys_._index(span, "")
            cover, fits = index.cover, index.fits
            assert cover & ~fits == 0, (name, span)
            firsts = first_windows(index.text, fits, span)
            assert first_windows(index.text, cover, span).keys() == firsts.keys(), (
                name, span,
            )
            if span > sys_._reach:  # no certified cut: every fits position
                assert cover == fits, (name, span)
    # Chacon's cover is one position per factor, p(367) = 733, where fits
    # has 1822
    chacon_index = chacon()._index(367, "")
    assert chacon_index.cover.bit_count() == 733
    assert len(first_windows(chacon_index.text, chacon_index.fits, 367)) == 733
    fibonacci_index = fibonacci()._index(527, "")
    assert fibonacci_index.cover.bit_count() <= 670 < fibonacci_index.fits.bit_count()


def test_kept_indexes_are_the_recent_certified_spans():
    sys_ = chacon()
    spans = range(10, 10 + 2 * _KEPT_INDEXES)
    first = [sys_._index(span, "") for span in spans]
    # the most recent _KEPT_INDEXES spans answer again from their index
    again = [sys_._index(span, "") for span in spans[::-1]]
    kept = _KEPT_INDEXES
    assert all(a is b for a, b in zip(again[:kept], first[::-1]))
    assert not any(a is b for a, b in zip(again[kept:], first[::-1][kept:]))
    # a span past the reach reads a fresh index every time
    slow = SubstitutionSystem({"0": "0000000001", "1": "1"})
    assert slow._index(2, "") is slow._index(2, "")
    assert slow._index(3, "") is not slow._index(3, "")


def test_kept_indexes_stay_small():
    # 250 return sets of 500 distinct words and 156 distinct spans, then
    # the 500 words asked of one kept index, hold about 40 KiB; keeping
    # every index, starts mask and anchor list would hold 380 KiB
    sys_ = chacon()
    rng = random.Random("kept")
    words = rng.sample(sorted(sys_.language(27) - sys_.language(4)), 500)
    spans = set()
    tracemalloc.start()
    try:
        for window, u, v in zip(range(50, 300), words[::2], words[1::2]):
            spans.add(return_set(sys_, CylinderSet(u), CylinderSet(v), window).span)
        index = sys_._index(400, "")
        for w in words:
            require_admissible(sys_, CylinderSet(w), index)
        # blocks parked on the free lists by earlier tests would count
        # as held, so the reading would depend on what ran before
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(spans) >= 100
    assert retained < 64 << 10, retained


# The open defect of the language: a span past its certificate's reach
# reads the 32x expansion, and that misses factors.  The words below are
# factors of their fixed points; the strict xfails hold until every span
# is certified, and fail as soon as one of them is answered right.
SLOW = {"0": "0000000001", "1": "1"}
ABA = {"a": "aba", "b": "bc", "c": "b"}
ABA_WINDOW = (30_937, 612)  # (start, length) in the fixed point of a


def aba_window():
    start, length = ABA_WINDOW
    return grow(tuple(sorted(ABA.items())), "a", start + length)[start:]


def test_the_words_past_the_reach_are_factors():
    # sigma^4(0), the first 7381 letters of the fixed point, ends in
    # 1111, and slow's certificate reaches span 2 only
    assert grow(tuple(sorted(SLOW.items())), "0", 7381).endswith("1111")
    slow = SubstitutionSystem(SLOW)
    assert 2 <= slow._reach < 3
    # a -> aba reaches 611 letters, and the window is one letter longer
    aba = SubstitutionSystem(ABA)
    assert 611 <= aba._reach < 612
    assert len(aba_window()) == 612
    assert aba.is_admissible(aba_window()[1:]) and aba.is_admissible(aba_window()[:-1])


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="1111 first occurs at position 7377, past the 4096 letters a "
    "4-letter question reads",
)
def test_slow_recurrence_admits_1111():
    assert SubstitutionSystem(SLOW).is_admissible("1111")


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the W=200 return set of u = v = 1 holds 123 of its 401 members",
)
def test_slow_recurrence_return_set_holds_every_n():
    got = return_set(SubstitutionSystem(SLOW), CylinderSet("1"), CylinderSet("1"), 200)
    assert got.members == frozenset(range(-200, 201))


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="612 letters is one past the reach of a -> aba; b -> bc; c -> b, "
    "and its 32x expansion misses the window",
)
def test_a_window_one_letter_past_the_reach_is_admissible():
    assert SubstitutionSystem(ABA).is_admissible(aba_window())


# Every letter of these fixed points grows, so the two-block oracle
# holds each one's factors exactly, at any length; the library must hold
# the same ones up to its bound.
TWO_BLOCK_SYSTEMS = {
    "fibonacci": ({"0": "01", "1": "0"}, "0"),
    "thue-morse": ({"0": "01", "1": "10"}, "0"),
    "abb-ac-bca": ({"a": "abb", "b": "ac", "c": "bca"}, "a"),
}
# primitive and minimal, and a 32x expansion misses some of its factors
AAC = {"a": "aac", "b": "caa", "c": "b"}


@pytest.mark.parametrize("length", [60, 300])
@pytest.mark.parametrize("name", sorted(TWO_BLOCK_SYSTEMS))
def test_factors_match_the_two_block_oracle(name, length):
    rules, seed = TWO_BLOCK_SYSTEMS[name]
    got = SubstitutionSystem(rules, seeds=(seed,)).factors(length)
    assert got == two_block_factors(rules, seed, length)


@pytest.mark.parametrize("length", [60, 300])
def test_factors_past_the_reach_are_two_block_factors(length):
    got = SubstitutionSystem(AAC, max_word_length=length).factors(length)
    assert got <= two_block_factors(AAC, "a", length)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the certificate of a -> aac; b -> caa; c -> b reaches 32 letters "
    "at a bound of 60 and 76 at 300, and the 32x expansion holds 394 of the "
    "430 factors of 60 letters and 1773 of the 2192 of 300",
)
def test_factors_past_the_reach_are_every_two_block_factor():
    for length in (60, 300):
        got = SubstitutionSystem(AAC, max_word_length=length).factors(length)
        assert got == two_block_factors(AAC, "a", length), length
