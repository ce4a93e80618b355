"""Exact arithmetic for integer-valued polynomials.

A polynomial with rational coefficients takes an integer value at every
integer if and only if all of its coordinates in the binomial basis
C(n,0), C(n,1), C(n,2), ... are integers.  Polynomials are therefore
stored as integer coordinate vectors in that basis: membership testing
is structural, evaluation is exact with arbitrary-precision integers,
and nothing ever touches floating point.

Parsing collects integer numerators over one common denominator and
converts them to the basis with integers alone; `fractions.Fraction`
appears only in the monomial view that `to_monomials` and
`leading_coefficient` return.  Printing reads the same coefficients as
integer numerators over deg!.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, Union

from ._record import Record

Rational = Union[int, Fraction]


class NotIntegralPolynomial(ValueError):
    """The coefficients describe a polynomial that is not integer-valued."""


class PolynomialParseError(ValueError):
    """A polynomial expression could not be parsed; names the offending token."""


def binomial(n: int, k: int) -> int:
    """C(n, k) for arbitrary integer n and k >= 0.

    The running product C(n, i + 1) = C(n, i) (n - i) / (i + 1) divides
    exactly at every step, even for negative n, since C(n, i) (n - i) =
    C(n, i + 1) (i + 1) holds for every integer n.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    num = 1
    for i in range(k):
        num = num * (n - i) // (i + 1)
    return num


@lru_cache(maxsize=None)
def _stirling_row(k: int) -> tuple[int, ...]:
    # Binomial coordinates of n^k: j! S(k, j) for j = 0..k, with S the
    # Stirling numbers of the second kind (the inverse of the row below).
    row = [1]
    for i in range(1, k + 1):
        row = [0] + [j * (a + b) for j, a, b in zip(range(1, i + 1), row[1:] + [0], row)]
    return tuple(row)


def _coordinates(numerators: list[int], denominator: int) -> tuple[int, ...]:
    """The binomial coordinates of the polynomial with monomial
    coefficients numerators[k] / denominator (denominator > 0): j-th is
    sum_k numerators[k] j! S(k, j) over the denominator.  Raises
    NotIntegralPolynomial at the first that is not an integer."""
    terms = [(k, a) for k, a in enumerate(numerators) if a]
    coords = []
    for j in range(terms[-1][0] + 1 if terms else 0):
        total = sum(a * _stirling_row(k)[j] for k, a in terms if k >= j)
        coord, rest = divmod(total, denominator)
        if rest:
            raise NotIntegralPolynomial(
                f"coefficient of C(n,{j}) is {Fraction(total, denominator)}, not an integer"
            )
        coords.append(coord)
    return tuple(coords)


@lru_cache(maxsize=None)
def _falling_factorial(k: int) -> tuple[int, ...]:
    # Monomial coefficients of n(n-1)...(n-k+1) = k! C(n, k), constant
    # first: the signed Stirling numbers of the first kind.
    coeffs = [1]
    for i in range(k):
        nxt = [0] * (len(coeffs) + 1)
        for j, c in enumerate(coeffs):
            nxt[j + 1] += c
            nxt[j] -= c * i
        coeffs = nxt
    return tuple(coeffs)


class IntegralPolynomial(Record):
    """An integer-valued polynomial, stored in the binomial basis.

    ``coeffs[j]`` is the coordinate of C(n, j); trailing zeros are
    stripped, so the representation is canonical.  The zero polynomial
    has ``coeffs == ()`` and degree -1 by convention.
    """

    coeffs: tuple[int, ...]

    # its own constructor, without the generic binding: polynomial
    # arithmetic and ``values`` build one per step
    def __init__(self, coeffs: Iterable[int]) -> None:
        cs = tuple(coeffs)
        for c in cs:
            if not isinstance(c, int):
                raise TypeError(f"binomial coordinates must be int, got {c!r}")
        while cs and cs[-1] == 0:
            cs = cs[:-1]
        object.__setattr__(self, "coeffs", cs)

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls) -> "IntegralPolynomial":
        return cls(())

    @classmethod
    def constant(cls, c: int) -> "IntegralPolynomial":
        return cls((c,))

    @classmethod
    def from_monomials(cls, coefficients: Iterable[Rational]) -> "IntegralPolynomial":
        """Convert ordinary coefficients (constant first) to binomial basis.

        Raises NotIntegralPolynomial when the polynomial is not integer
        valued, naming the first non-integral binomial coordinate.
        """
        mono = [Fraction(c) for c in coefficients]
        denominator = math.lcm(*(c.denominator for c in mono))
        return cls(_coordinates(
            [c.numerator * (denominator // c.denominator) for c in mono], denominator
        ))

    # -- basic queries ---------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def __call__(self, n: int) -> int:
        total, term = 0, 1  # term is C(n, j), by the running product of ``binomial``
        for j, c in enumerate(self.coeffs):
            total += c * term
            term = term * (n - j) // (j + 1)
        return total

    def _monomial_numerators(self) -> tuple[list[int], int]:
        """Ordinary coefficients (constant first) as integer numerators
        over one denominator, deg!; the leading numerator is nonzero."""
        denominator = math.factorial(max(len(self.coeffs) - 1, 0))
        out = [0] * len(self.coeffs)
        for k, c in enumerate(self.coeffs):
            if c:
                scale = c * (denominator // math.factorial(k))
                for j, s in enumerate(_falling_factorial(k)):
                    out[j] += scale * s
        return out, denominator

    def to_monomials(self) -> tuple[Fraction, ...]:
        """Ordinary coefficients (constant first), exact rationals."""
        numerators, denominator = self._monomial_numerators()
        return tuple(Fraction(c, denominator) for c in numerators)

    def leading_coefficient(self) -> Fraction:
        """Leading monomial coefficient; 0 for the zero polynomial."""
        if not self.coeffs:
            return Fraction(0)
        k = self.degree
        return Fraction(self.coeffs[k], math.factorial(k))

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "IntegralPolynomial") -> "IntegralPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return IntegralPolynomial(tuple(map(operator.add, a, b)) + a[len(b):])

    def __sub__(self, other: "IntegralPolynomial") -> "IntegralPolynomial":
        return self + (-other)

    def __neg__(self) -> "IntegralPolynomial":
        return IntegralPolynomial(map(operator.neg, self.coeffs))

    def values(self, start: int, count: int) -> list[int]:
        """[p(start), p(start + 1), ..., p(start + count - 1)].

        The coordinates of p(n + start) are the forward differences
        (Delta^j p)(start) = sum_k c_k C(start, k - j), so each value is
        a running sum of the level above it: no binomial per value.
        """
        if count <= 0:
            return []
        *diffs, top = self.translate(start).coeffs or (0,)
        level = [top] * count
        for d in reversed(diffs):
            level = list(itertools.accumulate(level[:-1], initial=d))
        return level

    def translate(self, m: int) -> "IntegralPolynomial":
        """p(n + m) as a polynomial in n (Vandermonde convolution): the
        i-th coordinate is sum_j c_(i+j) C(m, j), with C(m, j) by the
        running product of ``binomial``."""
        cs = self.coeffs
        row = [1]  # C(m, 0), C(m, 1), ..., C(m, len(cs) - 1)
        for j in range(len(cs) - 1):
            row.append(row[-1] * (m - j) // (j + 1))
        return IntegralPolynomial(
            [sum(map(operator.mul, cs[i:], row)) for i in range(len(cs))]
        )

    def shift_diff(self, m: int) -> "IntegralPolynomial":
        """The cross term q_m(n) = p(n+m) - p(m) - p(n).

        Its degree is strictly below deg p whenever deg p >= 1, and it
        vanishes identically when p is linear with zero constant term.
        q_m(0) = -p(0), so it has zero constant term exactly when p does.
        """
        return self.translate(m) - IntegralPolynomial.constant(self(m)) - self

    # -- rendering -------------------------------------------------------

    def __str__(self) -> str:
        return self._text

    @cached_property
    def _text(self) -> str:
        """The monomial rendering, worked out once: every return set
        prints its polynomials into its provenance."""
        numerators, denominator = self._monomial_numerators()
        if not numerators:
            return "0"
        parts: list[str] = []
        for j in range(len(numerators) - 1, -1, -1):
            c = numerators[j]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            common = math.gcd(c, denominator)
            num, den = abs(c) // common, denominator // common
            mag = str(num) if den == 1 else f"{num}/{den}"
            if j == 0:
                body = mag
            else:
                var = "n" if j == 1 else f"n^{j}"
                body = var if num == den == 1 else f"{mag}{var}"
            if not parts:
                parts.append(body if sign == "+" else f"-{body}")
            else:
                parts.append(f" {sign} {body}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"IntegralPolynomial({self.coeffs!r})"


def essentially_distinct(p: IntegralPolynomial, q: IntegralPolynomial) -> bool:
    """True when p - q is nonconstant (differs by more than an additive
    shift): some coordinate of C(n, j), j >= 1, differs."""
    return p.coeffs[1:] != q.coeffs[1:]


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<var>n)|(?P<op>[\^+\-*/])|(?P<bad>\S))"
)


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        assert kind is not None
        if kind == "bad":
            raise PolynomialParseError(
                f"unexpected token {m.group('bad')!r} in polynomial {text!r}"
            )
        tokens.append((kind, m.group(kind)))
    return tokens


def parse_polynomial(text: str) -> IntegralPolynomial:
    """Parse monomial syntax such as ``n^2 + 3n`` or ``1/2n^2 - 1/2n``.

    Coefficients may be integers or exact fractions ``a/b``; an optional
    ``*`` may separate a coefficient from ``n``.  Raises
    PolynomialParseError naming the offending token, or
    NotIntegralPolynomial when the result is not integer-valued.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise PolynomialParseError(f"empty polynomial expression {text!r}")
    terms: list[tuple[int, int, int]] = []  # (numerator, denominator, power)
    i = 0

    def peek() -> tuple[str, str]:
        return tokens[i] if i < len(tokens) else ("end", "")

    def divisor() -> int:
        """The integer after a '/' at position i, which it consumes."""
        nonlocal i
        i += 1
        kind, val = peek()
        if kind != "num":
            raise PolynomialParseError(
                f"expected integer after '/' in {text!r}, got {val!r}"
            )
        i += 1
        if int(val) == 0:
            raise PolynomialParseError(f"division by zero in {text!r}")
        return int(val)

    sign = 1
    if peek() == ("op", "-"):
        sign, i = -1, i + 1
    elif peek() == ("op", "+"):
        i += 1
    while True:
        coeff: int | None = None
        den = 1
        kind, val = peek()
        if kind == "num":
            coeff = int(val)
            i += 1
            if peek() == ("op", "/"):
                den = divisor()
            if peek() == ("op", "*"):
                i += 1
                if peek()[0] != "var":
                    raise PolynomialParseError(
                        f"expected 'n' after '*' in {text!r}"
                    )
        power = 0
        kind, val = peek()
        variable = kind == "var"
        if variable:
            power = 1
            i += 1
            if peek() == ("op", "^"):
                i += 1
                kind, val = peek()
                if kind != "num":
                    raise PolynomialParseError(
                        f"expected integer exponent after '^' in {text!r}, got {val!r}"
                    )
                power = int(val)
                i += 1
            if peek() == ("op", "/"):
                # trailing divisor, e.g. n/2 or 3n^2/4
                den *= divisor()
        if coeff is None and not variable:
            raise PolynomialParseError(
                f"expected a term in {text!r}, got {peek()[1]!r}"
            )
        terms.append((sign * (1 if coeff is None else coeff), den, power))
        kind, val = peek()
        if kind == "end":
            break
        if (kind, val) == ("op", "+"):
            sign, i = 1, i + 1
        elif (kind, val) == ("op", "-"):
            sign, i = -1, i + 1
        else:
            raise PolynomialParseError(
                f"expected '+' or '-' in {text!r}, got {val!r}"
            )
    # integer numerators over one common denominator
    denominator = math.lcm(*(d for _, d, _ in terms))
    mono = [0] * (max(p for _, _, p in terms) + 1)
    for c, d, p in terms:
        mono[p] += c * (denominator // d)
    return IntegralPolynomial(_coordinates(mono, denominator))
