"""The occurrence engine against slow reference scans.

Each oracle below answers a pattern query the direct way: by scanning
the factor set or every position of the expansions.  The library must
agree with it on members, witnesses, and exception types and messages.
"""

import itertools
import random

import pytest

from ipdyn.dynamics import (
    CylinderSet,
    Lemma213Chain,
    SubstitutionSystem,
    WindowTooLarge,
    WitnessExhausted,
    _gamma_shift,
    _pattern_contained_in_cylinder,
    chacon,
    fibonacci,
    find_chain_shifts,
    lemma213_chain,
    pattern_realizable,
    poly_return_set,
    recurrence_search,
    return_set,
)
from ipdyn.gammapoly import parse_gamma_polynomial
from ipdyn.intpoly import parse_polynomial

SYSTEMS = {
    "chacon": chacon,
    "fibonacci": fibonacci,
    "thue-morse": lambda: SubstitutionSystem({"a": "ab", "b": "ba"}),
    # grows, but its iterates are not prefixes of each other
    "non-prefix": lambda: SubstitutionSystem({"0": "10", "1": "0"}),
    # non-growing: closed off periodically, one expansion per seed
    "periodic": lambda: SubstitutionSystem({"a": "a", "b": "b"}, seeds=("a", "b")),
    # sigma^3(0) has 40 letters: longer queries run out of expansion
    "chacon-depth-3": lambda: chacon(depth=3),
    # a small bound, so that quadratic queries exceed it
    "bounded-fibonacci": lambda: fibonacci(max_word_length=60),
}

QUERY_SHAPES = {
    "plain": (None, 60),
    "linear": (["n", "2n"], 40),
    "quadratic": (["n^2", "n^2 + n"], 9),
}


def outcome(fn, *args, **kwargs):
    """The result of a call, or the type and message of its exception."""
    try:
        return fn(*args, **kwargs)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


def expansions_reaching(sys_, span):
    """The expansions a span-letter query reads; every oracle raises the
    same error when none of them is span letters long."""
    texts = sys_.expansions(span)
    if all(len(text) < span for text in texts):
        raise WindowTooLarge(
            f"no expansion reaches length {span}; raise depth or use "
            "automatic growth"
        )
    return texts


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
    factor_set = sys_.factors(max_span) if max_span else None
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


def spelled(cells):
    """The (position, letter) pairs of (offset, word) cells, in order; a
    position repeats where cells overlap, with two letters where they
    conflict."""
    return [(off + i, c) for off, w in cells for i, c in enumerate(w)]


def scan_realizable(sys_, cells):
    letters = spelled(cells)
    if not letters:
        return True
    positions = [pos for pos, _ in letters]
    lo, span = min(positions), max(positions) + 1 - min(positions)
    if span > sys_.max_word_length:
        raise WindowTooLarge(f"pattern span {span} exceeds bound {sys_.max_word_length}")
    for text in expansions_reaching(sys_, span):
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
    for f in sys_.factors(span):
        if all(f[pos - lo] == sym for pos, sym in letters):
            if not all(f[pos - lo] == sym for pos, sym in target):
                return False
    return True


def scan_recurrence(sys_, gammas, length, n_values):
    for n in n_values:
        if n == 0:
            continue
        shifts = tuple(_gamma_shift(g, n) for g in gammas)
        lo = min(0, min(shifts, default=0))
        span = max(shifts, default=0) + length - lo
        if span > sys_.max_word_length:
            raise WindowTooLarge(
                f"shifts at n={n} need words of length {span}, bound is "
                f"{sys_.max_word_length}"
            )
        for text in expansions_reaching(sys_, span):
            for a in range(len(text) - span + 1):
                origin = a - lo
                ref = text[origin : origin + length]
                if all(text[origin + s : origin + s + length] == ref for s in shifts):
                    return n, text[a : a + span], shifts
    return None


def partial_chain(sys_, cylinders, gammas, shifts):
    """The chain of the shifts found so far: none when a search fails at
    depth 0, and lemma213_chain refuses to build a chain of no levels."""
    if not shifts:
        return Lemma213Chain((), (), 1)
    return lemma213_chain(sys_, cylinders, gammas, shifts)


def rebuild_chain_shifts(sys_, cylinders, gammas, depth, search_window):
    """The greedy search rebuilding the whole chain for every candidate."""
    shifts = []
    for n in range(depth + 1):
        prev = shifts[-1] if shifts else 0
        for m in range(max(prev + 1, n + 1), search_window + 1):
            try:
                lemma213_chain(sys_, cylinders, gammas, shifts + [m])
            except WitnessExhausted:
                continue
            shifts.append(m)
            break
        else:
            raise WitnessExhausted(n, partial_chain(sys_, cylinders, gammas, shifts))
    return lemma213_chain(sys_, cylinders, gammas, shifts)


# -- differential tests -------------------------------------------------------------


def test_return_sets_match_factor_scan():
    for name, make in SYSTEMS.items():
        sys_ = make()
        for shape, (poly_texts, max_window) in QUERY_SHAPES.items():
            rng = random.Random(f"{name}/{shape}")
            for _ in range(6):
                window = rng.randint(0, max_window)
                u = random_word(rng, sys_)
                if poly_texts is None:
                    v = random_word(rng, sys_)
                    got = outcome(return_set, sys_, CylinderSet(u), CylinderSet(v), window)
                    want = outcome(
                        scan_poly_members, sys_, u, [v], [parse_polynomial("n")], window
                    )
                else:
                    polys = [parse_polynomial(t) for t in poly_texts]
                    vs = [random_word(rng, sys_) for _ in polys]
                    got = outcome(
                        poly_return_set, sys_, CylinderSet(u),
                        [CylinderSet(v) for v in vs], polys, window,
                    )
                    want = outcome(scan_poly_members, sys_, u, vs, polys, window)
                if not isinstance(got, tuple):
                    got = got.members
                assert got == want, (name, shape, u, window)


def test_admissibility_matches_factor_set():
    for name, make in SYSTEMS.items():
        sys_ = make()
        rng = random.Random(f"{name}/admissible")
        words = ["", "z", sys_.alphabet[0] + "z"]  # "z" is in no alphabet here
        for _ in range(20):
            w = random_word(rng, sys_, max_len=12)
            i = rng.randrange(len(w))
            words += [w, w[:i] + rng.choice(sys_.alphabet) + w[i + 1 :]]
        texts = sys_.expansions(1)
        for text in texts:
            words += [text[:k] for k in (1, 7, 33)] + [text[-k:] for k in (1, 7, 33)]
            # past bounded-fibonacci's bound, past chacon-depth-3's expansion
            words += [(text * 2)[:61], (text * 2)[:41]]
        # across the joint of two seeds' expansions
        words += [a[-2:] + b[:2] for a, b in zip(texts, texts[1:])]
        for w in words:
            assert outcome(sys_.is_admissible, w) == outcome(
                lambda: w == ""
                or (set(w) <= set(sys_.rules) and w in sys_.factors(len(w)))
            ), (name, w)


def test_answers_do_not_depend_on_earlier_queries():
    # 0 -> 0000000001 grows its runs of 1s slowly, so which words its
    # expansions hold depends on how long they are: each answer must be
    # the one for its own span, whatever the previous query indexed
    sys_ = SubstitutionSystem({"0": "0000000001", "1": "1"})
    for window in (300, 0, 300):
        got = return_set(sys_, CylinderSet("1"), CylinderSet("11"), window)
        assert got.members == scan_poly_members(
            sys_, "1", ["11"], [parse_polynomial("n")], window
        )
        for w in ("1111", "0000000001111"):
            assert sys_.is_admissible(w) == (w in sys_.factors(len(w))), (window, w)


def random_pattern(rng, sys_):
    """(offset, word) cells.  Either pieces of one window at or near the
    end of an expansion, which agree where they overlap, or random words
    (some of them empty), which may overlap and conflict."""
    if rng.random() < 0.4:
        text = rng.choice(sys_.expansions(1))
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
                _pattern_contained_in_cylinder, sys_, pattern, CylinderSet(word)
            ) == outcome(scan_contained, sys_, pattern, word), (name, pattern, word)
    assert kinds == {"conflict", "agreeing overlap", "word"}


def test_recurrence_matches_position_scan():
    gamma_sets = [
        ["e"], ["T1^{n}"], ["T1^{-n}", "T1^{2n}"], ["T1^{n^2}"],
    ]
    for name, make in SYSTEMS.items():
        sys_ = make()
        for texts, n_values in itertools.product(gamma_sets, (range(-2, 9), [9])):
            gammas = [parse_gamma_polynomial(t) for t in texts]
            for length in (1, 3, 6):
                got = outcome(recurrence_search, sys_, gammas, length, n_values)
                if got is not None and not isinstance(got, tuple):
                    got = got.n, got.word, got.shifts
                want = outcome(scan_recurrence, sys_, gammas, length, n_values)
                assert got == want, (name, texts, length)


@pytest.mark.parametrize(
    "words, gamma_texts, depth, window, runs_out_at",
    [
        (["1001", "1001"], ["T1^{n}", "T1^{2n}"], 4, 200, None),
        (["01"], ["T1^{n^2}"], 4, 40, None),
        (["1001", "0100"], ["T1^{n}", "T1^{2n}"], 5, 60, 5),
        (["0"], ["T1^{n}"], 3, 0, 0),  # no candidate at all
    ],
)
def test_chain_search_matches_rebuild(words, gamma_texts, depth, window, runs_out_at):
    sys_ = chacon()
    cylinders = [CylinderSet(w) for w in words]
    gammas = [parse_gamma_polynomial(t) for t in gamma_texts]

    def run(search):
        try:
            return search()
        except WitnessExhausted as exc:
            return exc.depth, exc.partial

    got = run(
        lambda: find_chain_shifts(sys_, cylinders, gammas, depth, search_window=window)
    )
    assert got == run(
        lambda: rebuild_chain_shifts(sys_, cylinders, gammas, depth, window)
    )
    if runs_out_at is None:
        assert isinstance(got, Lemma213Chain) and len(got.levels) == depth + 1
    else:
        depth_failed, partial = got
        assert depth_failed == runs_out_at
        assert len(partial.shifts) == len(partial.levels) == runs_out_at
        assert partial == partial_chain(sys_, cylinders, gammas, partial.shifts)
