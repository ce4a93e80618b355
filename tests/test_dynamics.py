import random
import time

import pytest
from growth import expansions, factors
from rotation import Arc, BadModulus, RotationControl, rotation_probe
from test_occurrences import SYSTEMS, outcome, random_word

from ipdyn.dynamics import (
    BadRules,
    CylinderSet,
    HypothesisViolation,
    MinimalityReport,
    ReturnSet,
    SubstitutionSystem,
    WindowTooLarge,
    WitnessExhausted,
    find_chain_shifts,
    lemma213_chain,
    letter_cells,
    minimality_probe,
    pattern_realizable,
    poly_return_set,
    required_span,
    return_set,
    verify_chain,
)
from ipdyn.gammapoly import parse_gamma_polynomial
from ipdyn.intpoly import parse_polynomial

N = parse_polynomial("n")
TWO_N = parse_polynomial("2n")


def cyl(word):
    return CylinderSet(word)


def random_cylinder(rng, sys_, max_len=3):
    length = rng.randint(1, max_len)
    return CylinderSet(rng.choice(sorted(sys_.factors(length))))


def orbit_members(sys_, u, vs, polys, window):
    """Members of a return set by the orbit route: match occurrence
    positions of the cylinder words inside long expansions of the
    substitution, independently of the library's occurrence engine."""
    ns = range(-window, window + 1)
    cells_for = {
        n: [(0, u.word)] + [(p(n), v.word) for p, v in zip(polys, vs)] for n in ns
    }
    span_for = {}
    for n, cells in cells_for.items():
        lo = min(off for off, _ in cells)
        span_for[n] = (lo, max(off + len(w) for off, w in cells) - lo)
    max_span = max(span for _, span in span_for.values())
    words = {w for cells in cells_for.values() for _, w in cells}
    tables = []
    for text in expansions(sys_, max_span):
        table = {}
        for w in words:
            positions = set()
            start = text.find(w)
            while start != -1:
                positions.add(start)
                start = text.find(w, start + 1)
            table[w] = positions
        tables.append((len(text), table))
    members = set()
    for n in ns:
        lo, span = span_for[n]
        for length, table in tables:
            if any(
                0 <= a + lo <= length - span
                and all(a + off in table[w] for off, w in cells_for[n])
                for a in table[u.word]
            ):
                members.add(n)
                break
    return frozenset(members)


class TestLanguage:
    def test_chacon_factors(self, chacon):
        lang = chacon.language(4)
        assert "0010" in lang
        assert "111" not in lang
        assert "11" not in lang

    def test_fibonacci_excludes_square(self, fib):
        assert "11" not in fib.language(3)
        assert "00" in fib.language(2)

    def test_constant_system(self):
        const = SubstitutionSystem({"a": "a"})
        assert const.language(4) == frozenset({"a", "aa", "aaa", "aaaa"})

    def test_factor_closure(self, chacon):
        words = chacon.factors(6)
        shorter = chacon.factors(5)
        for w in words:
            assert w[:5] in shorter and w[1:] in shorter

    def test_right_extendability(self, chacon):
        longer = chacon.factors(8)
        for w in chacon.factors(7):
            assert any(x.startswith(w) for x in longer)

    def test_bad_rules(self):
        with pytest.raises(BadRules):
            SubstitutionSystem({"a": ""})
        with pytest.raises(BadRules):
            SubstitutionSystem({"ab": "a"})
        with pytest.raises(BadRules):
            SubstitutionSystem({"a": "ab"})
        with pytest.raises(BadRules):
            SubstitutionSystem({"a": "a"}, seeds=("b",))
        with pytest.raises(BadRules, match="at least one seed is required"):
            SubstitutionSystem({"a": "a"}, seeds=())
        for bound in (0, -5):
            with pytest.raises(BadRules, match="max word length must be >= 1"):
                SubstitutionSystem({"a": "ab", "b": "a"}, max_word_length=bound)
        with pytest.raises(BadRules, match="at least one rule is required"):
            SubstitutionSystem({})

    def test_window_bound(self, chacon):
        with pytest.raises(WindowTooLarge):
            chacon.factors(chacon.max_word_length + 1)
        with pytest.raises(ValueError, match="factor length must be >= 1"):
            chacon.factors(0)


def scan_minimality_probe(sys_, word_length, scan_limit):
    """The minimality probe the slow way: at each radius, look for every
    short factor, by substring test, in every sorted long factor."""
    if word_length < 1 or scan_limit < word_length:
        raise ValueError("need 1 <= word_length <= scan_limit")
    short = sorted(factors(sys_, word_length))
    missing = None
    for radius in range(word_length, scan_limit + 1):
        missing = None
        for w in sorted(factors(sys_, radius)):
            for u in short:
                if u not in w:
                    missing = (w, u)
                    break
            if missing:
                break
        if missing is None:
            return MinimalityReport(word_length, scan_limit, radius, True, None)
    return MinimalityReport(word_length, scan_limit, None, False, missing)


class TestMinimalityProbe:
    def test_chacon_pairs(self, chacon):
        report = minimality_probe(chacon, 2, 30)
        assert report.passed and report.radius is not None
        assert report.radius <= 30

    def test_lengths_checked(self, chacon):
        with pytest.raises(ValueError, match="need 1 <= word_length <= scan_limit"):
            minimality_probe(chacon, 0, 5)

    def test_single_symbol(self):
        const = SubstitutionSystem({"a": "a"})
        report = minimality_probe(const, 3, 10)
        assert report.passed and report.radius == 3

    def test_disjoint_union_fails(self):
        sys_ = SubstitutionSystem({"a": "a", "b": "b"}, seeds=("a", "b"))
        report = minimality_probe(sys_, 1, 25)
        assert not report.passed
        assert report.radius is None
        assert report.missing is not None

    def test_reports_match_substring_scan(self):
        systems = [
            *(make() for make in SYSTEMS.values()),
            SubstitutionSystem({"0": "0000000001", "1": "1"}),
            # not minimal: the witness is the least word lacking a factor
            SubstitutionSystem({"a": "ab", "b": "b"}),
            # past the bound a radius raises
            SubstitutionSystem(
                {"a": "a", "b": "b"}, seeds=("a", "b"), max_word_length=20
            ),
        ]
        seen = set()
        for sys_ in systems:
            for word_length, scan_limit in ((1, 1), (1, 12), (2, 30), (3, 45), (5, 64)):
                got = outcome(minimality_probe, sys_, word_length, scan_limit)
                want = outcome(scan_minimality_probe, sys_, word_length, scan_limit)
                assert got == want, (sys_, word_length, scan_limit)
                # a report's verdict, or the first word of the error message
                seen.add(got.passed if isinstance(got, MinimalityReport) else got[1][:2])
        assert seen == {True, False, "fa"}


class TestReturnSet:
    def test_whole_space(self, chacon):
        rs = return_set(chacon, cyl(""), cyl(""), 30)
        assert rs.members == frozenset(range(-30, 31))

    def test_zero_cylinder(self, chacon):
        rs = return_set(chacon, cyl("0"), cyl("0"), 50)
        assert 0 in rs
        assert any(n != 0 for n in rs.members)

    def test_disjoint_control_is_empty(self):
        sys_ = SubstitutionSystem({"a": "a", "b": "b"}, seeds=("a", "b"))
        rs = return_set(sys_, cyl("a"), cyl("b"), 20)
        assert rs.members == frozenset()

    def test_inadmissible_cylinder_rejected(self, chacon):
        with pytest.raises(ValueError, match="admissible"):
            return_set(chacon, cyl("11"), cyl("0"), 10)

    def test_symmetry(self, chacon):
        rng = random.Random(17)
        for _ in range(10):
            u = random_cylinder(rng, chacon)
            v = random_cylinder(rng, chacon)
            w = rng.randint(5, 60)
            forward = return_set(chacon, u, v, w).members
            backward = return_set(chacon, v, u, w).members
            assert forward == frozenset(-n for n in backward)

    def test_language_and_orbit_routes_agree(self, chacon, fib):
        rng = random.Random(29)
        for sys_ in (chacon, fib):
            for _ in range(8):
                u = random_cylinder(rng, sys_)
                v = random_cylinder(rng, sys_)
                w = rng.randint(5, 100)
                a = return_set(sys_, u, v, w)
                b = orbit_members(sys_, u, [v], [N], w)
                assert a.members == b
                assert a.span == required_span([N], u, [v], w)

    def test_refining_v_shrinks(self, chacon):
        u = cyl("0")
        assert (
            return_set(chacon, u, cyl("00"), 40).members
            <= return_set(chacon, u, cyl("0"), 40).members
        )


class TestPolyReturnSet:
    def test_identity_polynomial_reduces(self, chacon):
        rng = random.Random(31)
        for _ in range(8):
            u = random_cylinder(rng, chacon)
            v = random_cylinder(rng, chacon)
            w = rng.randint(5, 80)
            assert (
                poly_return_set(chacon, u, [v], [N], w).members
                == return_set(chacon, u, v, w).members
            )

    def test_linear_pair_witnessed(self, chacon):
        rs = poly_return_set(chacon, cyl("0"), [cyl("0"), cyl("0")], [N, TWO_N], 200)
        assert rs.members

    def test_quadratic_pair(self, chacon):
        p1 = parse_polynomial("n^2")
        p2 = parse_polynomial("n^2 + n")
        rs = poly_return_set(chacon, cyl("0"), [cyl("0"), cyl("0")], [p1, p2], 25)
        assert rs.members

    def test_hypothesis_violations(self, chacon):
        with pytest.raises(HypothesisViolation, match="constant"):
            poly_return_set(chacon, cyl("0"), [cyl("0")], [parse_polynomial("3")], 10)
        with pytest.raises(HypothesisViolation, match="differ"):
            poly_return_set(
                chacon,
                cyl("0"),
                [cyl("0"), cyl("0")],
                [N, parse_polynomial("n + 2")],
                10,
            )

    def test_pairs_checked(self, chacon):
        with pytest.raises(ValueError, match="need one polynomial per cylinder"):
            poly_return_set(chacon, cyl("0"), [cyl("0"), cyl("0")], [N], 10)
        with pytest.raises(ValueError, match="need at least one cylinder/polynomial pair"):
            poly_return_set(chacon, cyl("0"), [], [], 10)

    def test_window_too_large(self, chacon):
        with pytest.raises(WindowTooLarge):
            poly_return_set(
                chacon, cyl("0"), [cyl("0")], [parse_polynomial("n^2")], 200
            )

    def test_routes_agree(self, chacon):
        rng = random.Random(43)
        for _ in range(5):
            u = random_cylinder(rng, chacon)
            v1 = random_cylinder(rng, chacon)
            v2 = random_cylinder(rng, chacon)
            w = rng.randint(5, 60)
            a = poly_return_set(chacon, u, [v1, v2], [N, TWO_N], w)
            b = orbit_members(chacon, u, [v1, v2], [N, TWO_N], w)
            assert a.members == b
            assert a.span == required_span([N, TWO_N], u, [v1, v2], w)


def times_n(k):
    """The polynomial k*n: its return set is the return set of T^k."""
    return parse_polynomial(f"{k}n")


def inflated_return_set(sys_, k, u, v, window):
    """The return set of T^k the slow way: the plain return set over a
    window |k| times wider, kept at every k-th n."""
    base = return_set(sys_, u, v, abs(k) * window)
    members = frozenset(
        n for n in range(-window, window + 1) if k * n in base.members
    )
    return ReturnSet(window=window, members=members, span=base.span)


def answer(rs):
    """What a return-set query answers, leaving out its provenance."""
    return rs if isinstance(rs, tuple) else (rs.window, rs.members, rs.span)


class TestPowerAndProduct:
    """Return sets of a power T^k, asked as the polynomial query k*n."""

    def test_powers_match_the_inflated_window(self):
        for name, make in SYSTEMS.items():
            sys_ = make()
            rng = random.Random(f"{name}/power")
            for k in (1, -1, 2, -2, 3, -3, 5):
                for window in (0, 1, 7, 40):
                    u, v = (
                        "" if rng.random() < 0.2 else random_word(rng, sys_)
                        for _ in range(2)
                    )
                    u, v = cyl(u), cyl(v)
                    want = outcome(inflated_return_set, sys_, k, u, v, window)
                    got = outcome(poly_return_set, sys_, u, [v], [times_n(k)], window)
                    assert answer(got) == answer(want), (name, k, u, v, window)
            # check order: the window, then each word, then the bound
            bound = sys_.max_word_length
            for args in ((2, "0", "0", -1), (2, "z", "0", 40),
                         (2, sys_.alphabet[0], "z", 40), (2, "z", "0", bound),
                         (2, sys_.alphabet[0], sys_.alphabet[0], bound)):
                k, u, v, window = args
                assert outcome(
                    poly_return_set, sys_, cyl(u), [cyl(v)], [times_n(k)], window
                ) == outcome(inflated_return_set, sys_, k, cyl(u), cyl(v), window), (
                    name, args,
                )

    def test_power_provenance_records_the_window_asked(self, chacon):
        rs = poly_return_set(chacon, cyl("0"), [cyl("1")], [times_n(-3)], 10)
        assert rs.provenance == (
            ("op", "poly-return-set"),
            ("system", chacon.describe()),
            ("u", "0"),
            ("vs", "1"),
            ("polys", "-3n"),
            ("window", "10"),
        )

    def test_huge_power_fails_fast(self, chacon):
        # the span is 10**7 + 1 letters, far past the bound; the inflated
        # window took seconds and more than a gigabyte to say so
        start = time.perf_counter()
        with pytest.raises(
            WindowTooLarge, match="query needs words of length 10000001, bound is 5000"
        ):
            poly_return_set(chacon, cyl("0"), [cyl("0")], [times_n(10**5)], 100)
        assert time.perf_counter() - start < 1.0

    def test_power_one_is_identity(self, chacon):
        u, v = cyl("0"), cyl("00")
        assert (
            poly_return_set(chacon, u, [v], [times_n(1)], 40).members
            == return_set(chacon, u, v, 40).members
        )

    def test_power_minus_one_mirrors(self, chacon):
        u, v = cyl("0"), cyl("01")
        mirrored = poly_return_set(chacon, u, [v], [times_n(-1)], 40).members
        plain = return_set(chacon, u, v, 40).members
        assert mirrored == frozenset(-n for n in plain)

    def test_power_two_pullback(self, chacon):
        u, v = cyl("0"), cyl("0")
        doubled = poly_return_set(chacon, u, [v], [times_n(2)], 100)
        base = return_set(chacon, u, v, 200)
        assert doubled.members == frozenset(
            n for n in range(-100, 101) if 2 * n in base.members
        )
        assert doubled.span == base.span

    def test_zero_power(self, chacon):
        # T^0 is the constant polynomial 0, which the hypotheses exclude
        with pytest.raises(HypothesisViolation, match="constant"):
            poly_return_set(chacon, cyl("0"), [cyl("0")], [times_n(0)], 10)


class TestLemma213:
    def test_whole_space_chain_is_constant(self, chacon):
        g = parse_gamma_polynomial("T1^{n}")
        chain = lemma213_chain(chacon, [cyl("")], [g], [1, 2, 3])
        for level in chain.levels:
            assert level[0] == ()

    def test_depth_three_chain_verifies(self, chacon):
        g = parse_gamma_polynomial("T1^{n}")
        chain = find_chain_shifts(chacon, [cyl("0")], [g], 3, search_window=300)
        assert len(chain.levels) == 4
        for level in chain.levels:
            assert pattern_realizable(chacon, level[0])
        ok, checks = verify_chain(chacon, [cyl("0")], [g], chain)
        assert ok
        assert len(checks) == sum(range(1, 5))  # levels 0..3, one per j <= n

    def test_levels_descend(self, chacon):
        g = parse_gamma_polynomial("T1^{n^2}")
        chain = find_chain_shifts(chacon, [cyl("0")], [g], 2, search_window=60)
        factor_sets = chacon
        for earlier, later in zip(chain.levels, chain.levels[1:]):
            # semantic inclusion: every realization of the later level
            # matches the earlier one
            later_cells = letter_cells(later[0])
            lo, hi = later_cells[0][0], later_cells[-1][0] + 1
            for f in factor_sets.factors(hi - lo):
                if all(f[p - lo] == s for p, s in later_cells):
                    assert all(
                        0 <= p2 - lo < len(f) and f[p2 - lo] == s2
                        for p2, s2 in letter_cells(earlier[0])
                    )

    def test_conflicting_shift_exhausts(self, chacon):
        g = parse_gamma_polynomial("T1^{n}")
        with pytest.raises(WitnessExhausted) as info:
            lemma213_chain(chacon, [cyl("01")], [g], [1])
        assert info.value.depth == 0
        assert info.value.partial.levels == ()

    def test_empty_chain_rejected(self, chacon):
        g = parse_gamma_polynomial("T1^{n}")
        with pytest.raises(ValueError, match="at least one level"):
            lemma213_chain(chacon, [cyl("0")], [g], [])
        with pytest.raises(ValueError, match="at least one level"):
            find_chain_shifts(chacon, [cyl("0")], [g], -1, search_window=10)

    def test_one_gamma_per_cylinder(self, chacon):
        g = parse_gamma_polynomial("T1^{n}")
        with pytest.raises(ValueError, match="need one exponent element per cylinder"):
            find_chain_shifts(chacon, [cyl("0"), cyl("00")], [g], 1, search_window=10)

    def test_shift_magnitude_checked(self, chacon):
        g = parse_gamma_polynomial("T1^{n}")
        with pytest.raises(ValueError, match="must satisfy"):
            lemma213_chain(chacon, [cyl("0")], [g], [1, 1])

    def test_two_cylinders(self, chacon):
        gs = [parse_gamma_polynomial("T1^{n}"), parse_gamma_polynomial("T1^{2n}")]
        chain = find_chain_shifts(
            chacon, [cyl("0"), cyl("00")], gs, 2, search_window=200
        )
        ok, _ = verify_chain(chacon, [cyl("0"), cyl("00")], gs, chain)
        assert ok


class TestRotation:
    def test_full_arcs_full_window(self):
        ctrl = RotationControl(12, 5)
        rs = rotation_probe(ctrl, Arc(0, 12), Arc(0, 12), Arc(0, 12), window=30)
        assert rs.members == frozenset(range(-30, 31))

    def test_progression_obstruction_empty(self):
        ctrl = RotationControl(1000, 618)
        rs = rotation_probe(
            ctrl, Arc(0, 100), Arc(0, 100), Arc(500, 600), window=2000
        )
        assert rs.members == frozenset()

    def test_widened_target_nonempty(self):
        ctrl = RotationControl(1000, 618)
        rs = rotation_probe(
            ctrl, Arc(0, 100), Arc(0, 100), Arc(0, 300), window=2000
        )
        assert rs.members

    def test_bad_modulus(self):
        with pytest.raises(BadModulus):
            RotationControl(0, 1)

    def test_arc_validation(self):
        with pytest.raises(ValueError):
            Arc(5, 5)
        ctrl = RotationControl(10, 3)
        with pytest.raises(ValueError, match="longer"):
            rotation_probe(ctrl, Arc(0, 11), Arc(0, 1), Arc(0, 1), window=5)

    def test_minimality_flag(self):
        assert RotationControl(10, 3).is_minimal
        assert not RotationControl(1000, 618).is_minimal


class TestPatternCells:
    def test_conflicting_cells_are_never_carried(self, chacon):
        # each pattern spells two letters at one position
        for cells in (
            [(0, "0"), (0, "1")],
            [(0, "01"), (0, "00")],
            [(2, "001"), (3, "1")],
        ):
            assert not pattern_realizable(chacon, cells)

    def test_agreeing_overlaps_are_carried(self, chacon):
        for cells in (
            [(0, "01"), (1, "1")],
            [(0, "001"), (1, "01"), (0, "0")],
            [(5, "0"), (5, "0")],
        ):
            assert pattern_realizable(chacon, cells)
        assert letter_cells([(2, "001"), (3, "01"), (2, "0")]) == (
            (2, "0"), (3, "0"), (4, "1"),
        )
