import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ipdyn.intpoly import (
    IntegralPolynomial,
    NotIntegralPolynomial,
    PolynomialParseError,
    binomial,
    essentially_distinct,
    parse_polynomial,
)


def poly(text):
    return parse_polynomial(text)


def mono_eval(coeffs, n):
    # independent oracle: direct rational evaluation of monomial coefficients
    return sum(Fraction(c) * n**j for j, c in enumerate(coeffs))


def fraction_monomials(p):
    """Ordinary coefficients by Fraction arithmetic: each C(n, k) expanded
    as n(n-1)...(n-k+1) / k!."""
    out = [Fraction(0)] * len(p.coeffs)
    for k, c in enumerate(p.coeffs):
        mono = [Fraction(1)]
        for i in range(k):
            nxt = [Fraction(0)] * (len(mono) + 1)
            for j, m in enumerate(mono):
                nxt[j + 1] += m
                nxt[j] -= m * i
            mono = nxt
        for j, m in enumerate(mono):
            out[j] += c * m / math.factorial(k)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def fraction_str(p):
    """The printed form, from the Fraction coefficients."""
    mono = fraction_monomials(p)
    if not mono:
        return "0"
    parts = []
    for j in range(len(mono) - 1, -1, -1):
        c = mono[j]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = -c if c < 0 else c
        if j == 0:
            body = str(mag)
        else:
            var = "n" if j == 1 else f"n^{j}"
            body = var if mag == 1 else f"{mag}{var}"
        if not parts:
            parts.append(body if sign == "+" else f"-{body}")
        else:
            parts.append(f" {sign} {body}")
    return "".join(parts)


def monomials_oracle(coefficients):
    """from_monomials by Fraction forward differences: the j-th binomial
    coordinate is (Delta^j p)(0), read off the values p(0), ..., p(deg)."""
    mono = [Fraction(c) for c in coefficients]
    while mono and mono[-1] == 0:
        mono.pop()
    level = [sum((c * x**j for j, c in enumerate(mono)), Fraction(0)) for x in range(len(mono))]
    coords = []
    while level:
        c = level[0]
        if c.denominator != 1:
            raise NotIntegralPolynomial(
                f"coefficient of C(n,{len(coords)}) is {c}, not an integer"
            )
        coords.append(int(c))
        level = [b - a for a, b in zip(level, level[1:])]
    return coords


def conversion(fn, *args):
    """The coordinates a conversion gives, or its exception's type and message."""
    try:
        result = fn(*args)
    except (NotIntegralPolynomial, PolynomialParseError) as exc:
        return type(exc), str(exc)
    return tuple(result.coeffs) if isinstance(result, IntegralPolynomial) else tuple(result)


def random_rational(rng):
    if rng.random() < 0.3:
        return 0
    den = rng.choice([1, 1, 2, 3, 4, 6, 12, 24, 120, 7, 10**12])
    return Fraction(rng.randint(-40, 40), den)


class TestBasisConversion:
    def test_square_to_binomial(self):
        # n^2 = C(n,1) + 2 C(n,2)
        assert IntegralPolynomial.from_monomials([0, 0, 1]).coeffs == (0, 1, 2)

    def test_choose_two(self):
        # n(n-1)/2 stored as the single coordinate of C(n,2)
        p = IntegralPolynomial.from_monomials([0, Fraction(-1, 2), Fraction(1, 2)])
        assert p.coeffs == (0, 0, 1)

    def test_half_n_rejected(self):
        with pytest.raises(NotIntegralPolynomial):
            IntegralPolynomial.from_monomials([0, Fraction(1, 2)])

    def test_matches_fraction_forward_differences(self):
        # integer-valued ones built from coordinates, and arbitrary rationals,
        # some with trailing zeros: equal coordinates or an equal error
        rng = random.Random(20261019)
        cases = [[], [0], [0, 0], [Fraction(1, 2)], [0, Fraction(1, 3), 0, 0]]
        for _ in range(600):
            coords = tuple(rng.randint(-50, 50) for _ in range(rng.randint(0, 7)))
            cases.append(list(IntegralPolynomial(coords).to_monomials()) + [0] * rng.randint(0, 2))
            cases.append([random_rational(rng) for _ in range(rng.randint(0, 7))])
        errors = 0
        for mono in cases:
            got = conversion(IntegralPolynomial.from_monomials, mono)
            assert got == conversion(monomials_oracle, mono), mono
            errors += got[:1] == (NotIntegralPolynomial,)
        assert 100 < errors < len(cases) - 600

    def test_round_trip_random(self):
        rng = random.Random(20260810)
        for _ in range(1000):
            degree = rng.randint(0, 6)
            coords = tuple(rng.randint(-100, 100) for _ in range(degree + 1))
            p = IntegralPolynomial(coords)
            mono = p.to_monomials()
            assert IntegralPolynomial.from_monomials(mono).coeffs == p.coeffs
            for n in range(-20, 21):
                assert p(n) == mono_eval(mono, n)


class TestEval:
    def test_square(self):
        assert poly("n^2")(3) == 9

    def test_choose_two(self):
        assert poly("1/2n^2 - 1/2n")(4) == 6

    def test_cube_negative(self):
        p = poly("n^3")
        for n in range(-10, 11):
            assert p(n) == n**3
        assert p(-5) == -125

    def test_binomial_negative_n(self):
        assert binomial(-1, 2) == 1
        assert binomial(-2, 3) == -4
        assert binomial(4, 2) == 6

    def test_binomial_negative_k(self):
        with pytest.raises(ValueError, match="k must be nonnegative"):
            binomial(3, -1)


class TestValues:
    @given(
        st.lists(st.integers(-60, 60), min_size=1, max_size=5).map(tuple),
        st.integers(-80, 80),
        st.integers(0, 40),
    )
    def test_values_are_the_pointwise_evaluations(self, coords, start, count):
        # degree 0 to 4 in the binomial basis, any start, count 0 included
        p = IntegralPolynomial(coords)
        assert p.values(start, count) == [p(n) for n in range(start, start + count)]

    def test_zero_polynomial_and_empty_range(self):
        assert IntegralPolynomial.zero().values(-3, 4) == [0, 0, 0, 0]
        assert poly("n^2").values(-5, 0) == []


def comb(n, k):
    """C(n, k) by math.comb: directly for n >= 0, and for n < 0 by
    C(n, k) = (-1)^k C(k - n - 1, k), the upper negation identity."""
    return math.comb(n, k) if n >= 0 else (-1) ** k * math.comb(k - n - 1, k)


def comb_eval(coords, n):
    return sum(c * comb(n, j) for j, c in enumerate(coords))


class TestExactEvaluation:
    """Binomials, evaluation, translation and values against math.comb,
    for degrees 0 to 8 and |n| <= 60."""

    NS = range(-60, 61)

    def random_coords(self, rng, degree):
        coords = [rng.randint(-10**6, 10**6) for _ in range(degree + 1)]
        coords[-1] = coords[-1] or 1
        return tuple(coords)

    def test_binomial(self):
        for k in range(9):
            for n in self.NS:
                assert binomial(n, k) == comb(n, k), (n, k)

    def test_call(self):
        rng = random.Random("exact-call")
        for degree in range(9):
            for _ in range(5):
                coords = self.random_coords(rng, degree)
                p = IntegralPolynomial(coords)
                assert [p(n) for n in self.NS] == [comb_eval(coords, n) for n in self.NS]

    def test_translate(self):
        rng = random.Random("exact-translate")
        for degree in range(9):
            coords = self.random_coords(rng, degree)
            p = IntegralPolynomial(coords)
            for m in range(-60, 61, 7):
                moved = p.translate(m)
                assert moved.degree == degree, (coords, m)
                for n in range(-60 - min(m, 0), 61 - max(m, 0), 5):
                    assert moved(n) == comb_eval(coords, n + m), (coords, m, n)

    def test_values(self):
        rng = random.Random("exact-values")
        for degree in range(9):
            coords = self.random_coords(rng, degree)
            p = IntegralPolynomial(coords)
            for start in (-60, -13, 0, 7):
                count = 61 - start
                want = [comb_eval(coords, n) for n in range(start, start + count)]
                assert p.values(start, count) == want, (coords, start)


class TestArith:
    def test_add(self):
        assert poly("n^2") + poly("n") == poly("n^2 + n")

    def test_sub_self_is_zero(self):
        p = poly("n^3 + 2n")
        assert (p - p).is_zero

    def test_neg_matches_brute_force(self):
        p = poly("n^2 + n")
        q = -p
        for n in range(-10, 11):
            assert q(n) == -p(n)
        assert q(2) == -6

    def test_eval_additive_random(self):
        rng = random.Random(7)
        for _ in range(200):
            a = IntegralPolynomial(tuple(rng.randint(-50, 50) for _ in range(rng.randint(1, 5))))
            b = IntegralPolynomial(tuple(rng.randint(-50, 50) for _ in range(rng.randint(1, 5))))
            for n in (-7, -1, 0, 2, 9):
                assert (a + b)(n) == a(n) + b(n)
                assert (a - b)(n) == a(n) - b(n)


class TestShiftDiff:
    def test_quadratic_cross_term(self):
        # p = a n^2 + b n gives p(n+m) - p(m) - p(n) = 2 a m n
        for a, b in [(1, 0), (2, 3), (-1, 5)]:
            p = IntegralPolynomial.from_monomials([0, b, a])
            for m in (1, 2, 5):
                expected = IntegralPolynomial.from_monomials([0, 2 * a * m])
                assert p.shift_diff(m) == expected

    def test_linear_vanishes(self):
        p = poly("7n")
        for m in (-3, 1, 4):
            assert p.shift_diff(m).is_zero

    def test_cubic(self):
        q = poly("n^3").shift_diff(1)
        assert q == poly("3n^2 + 3n")
        for n in range(-10, 11):
            assert q(n) == (n + 1) ** 3 - 1 - n**3

    def test_cocycle_identity(self):
        rng = random.Random(99)
        for _ in range(200):
            p = IntegralPolynomial(
                (0,) + tuple(rng.randint(-30, 30) for _ in range(rng.randint(1, 5)))
            )
            m = rng.choice([x for x in range(-10, 11) if x != 0])
            q = p.shift_diff(m)
            assert q(0) == 0  # zero constant term inputs
            for n in range(-12, 13):
                assert p(n + m) == p(n) + p(m) + q(n)

    def test_degree_drop(self):
        rng = random.Random(4)
        for _ in range(300):
            degree = rng.randint(1, 6)
            coords = [rng.randint(-40, 40) for _ in range(degree)] + [
                rng.choice([c for c in range(-40, 41) if c])
            ]
            p = IntegralPolynomial(tuple(coords))
            m = rng.choice([x for x in range(-10, 11) if x != 0])
            assert p.shift_diff(m).degree <= p.degree - 1


class TestClassify:
    def test_distinct_by_linear_term(self):
        assert essentially_distinct(poly("n^2"), poly("n^2 + n"))

    def test_constant_difference_not_distinct(self):
        assert not essentially_distinct(poly("n^2"), poly("n^2 + 5"))

    def test_zero_normalized(self):
        # p - p(0) vanishes at 0 and keeps the degree of p
        p = poly("n^2 + 7")
        normalized = p - IntegralPolynomial.constant(p(0))
        assert normalized == poly("n^2")
        assert normalized(0) == 0
        assert p.degree == 2
        assert not p.is_constant

    def test_constant_flags(self):
        p = poly("5")
        assert p.is_constant and p.degree == 0
        assert not essentially_distinct(p, p)
        assert IntegralPolynomial.zero().is_constant
        assert IntegralPolynomial.zero().degree == -1


class TestParse:
    def test_named_examples(self):
        assert poly("n^2 + 3n").to_monomials() == (Fraction(0), Fraction(3), Fraction(1))
        assert poly("1/2n^2 - 1/2n").coeffs == (0, 0, 1)

    def test_star_and_constants(self):
        assert poly("2*n^3") == poly("2n^3")
        assert poly("-n") == IntegralPolynomial.from_monomials([0, -1])
        assert poly("0").is_zero

    def test_trailing_divisor(self):
        with pytest.raises(NotIntegralPolynomial):
            poly("n/2")

    def test_zero_divisor(self):
        for text in ("n/0", "1/0n", "3n^2/0", "n + 1/0"):
            with pytest.raises(PolynomialParseError, match="division by zero"):
                poly(text)

    def test_zeroth_power_is_one(self):
        assert poly("n^0") == poly("1") == poly("3n^0 - 2")
        assert poly("n^0 + n") == poly("n + 1")
        assert poly("-n^0") == poly("-1")
        assert poly("n^0/2 + 1/2") == poly("1")
        assert poly("n^2 - n^0") == poly("n^2 - 1")
        with pytest.raises(NotIntegralPolynomial, match=r"C\(n,0\) is 1/2"):
            poly("n^0/2")

    def test_high_power_parses_quickly(self):
        # forward differences over 601 Fraction values took about 3 s
        start = time.perf_counter()
        p = poly("n^600")
        assert time.perf_counter() - start < 1.0
        assert p.degree == 600 and p(2) == 2**600 and p(-3) == 3**600

    def test_matches_fraction_parsing(self):
        # random sums of terms like 3/4n^2, n/6, 5*n, -2/3: the coordinates,
        # or the error, of converting their summed Fraction coefficients
        rng = random.Random(1019)
        for _ in range(1500):
            mono, parts = [Fraction(0)] * 8, []
            for _ in range(rng.randint(1, 5)):
                power = rng.choice([0, 0, 1, 1, 2, 3, 7])
                num, den = rng.randint(0, 30), rng.choice([1, 1, 2, 3, 6, 9])
                var = "" if power == 0 and rng.random() < 0.7 else (
                    "n" if power == 1 else f"n^{power}"
                )
                forms = [f"{num}/{den}{var}", f"{num}{var}/{den}"] if var else [f"{num}/{den}"]
                if var and den % 3 == 0:  # both divisors, as 5/3n^2/2
                    forms.append(f"{num}/3{var}/{den // 3}")
                if den == 1:
                    forms += [f"{num}{var}", f"{num}*{var}" if var else str(num)]
                    if num == 1 and var:
                        forms.append(var)
                sign = rng.choice([1, -1])
                parts.append(("- " if sign < 0 else "+ ") + rng.choice(forms))
                mono[power] += sign * Fraction(num, den)
            text = " ".join(parts)
            assert conversion(parse_polynomial, text) == conversion(monomials_oracle, mono), text

    def test_error_names_token(self):
        with pytest.raises(PolynomialParseError, match="'x'"):
            poly("n^2 + x")
        with pytest.raises(PolynomialParseError, match=r"\^"):
            poly("n^")
        with pytest.raises(PolynomialParseError):
            poly("")
        with pytest.raises(PolynomialParseError, match="expected integer after '/'"):
            poly("n/")
        with pytest.raises(PolynomialParseError, match="expected 'n' after '\\*'"):
            poly("3*2")
        with pytest.raises(PolynomialParseError, match="expected '\\+' or '-' in 'n n', got 'n'"):
            poly("n n")

    @given(
        st.lists(st.integers(-60, 60), min_size=0, max_size=6).map(tuple)
    )
    def test_str_round_trip(self, coords):
        p = IntegralPolynomial(coords)
        assert parse_polynomial(str(p)) == p

    def test_monomials_and_str_match_fraction_arithmetic(self):
        rng = random.Random(20261018)
        cases = [(), (0,), (1,), (-1,), (0, 1), (0, 0, 1), (0, 0, 0, 1), (3, -2, 1)]
        for _ in range(1000):
            degree = rng.randint(0, 7)
            bound = rng.choice([1, 3, 100, 10**30])
            cases.append(tuple(rng.randint(-bound, bound) for _ in range(degree + 1)))
        for coords in cases:
            p = IntegralPolynomial(coords)
            assert p.to_monomials() == fraction_monomials(p), coords
            assert str(p) == fraction_str(p), coords
        assert str(poly("1/2n^2 - 1/2n")) == "1/2n^2 - 1/2n"
        assert str(poly("-n^3/6 + n/6 - 4")) == "-1/6n^3 + 1/6n - 4"
