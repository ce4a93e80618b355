"""Acceptance suite: one test per criterion, each printing a PASS line
with its measured runtime (run with ``pytest -v -s`` to see them)."""

import itertools
import random
import time

import rotation

from ipdyn import cli
from ipdyn import dynamics as dyn
from ipdyn import gammapoly as gp
from ipdyn import ipsets
from ipdyn.intpoly import IntegralPolynomial, parse_polynomial


class Budget:
    """Context manager asserting a wall-clock budget and printing the
    one-line verdict the suite is contracted to emit."""

    def __init__(self, number, description, seconds):
        self.number = number
        self.description = description
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            print(
                f"PASS  criterion {self.number:02d}: {self.description} "
                f"({elapsed:.2f}s < {self.seconds}s)"
            )
            assert elapsed < self.seconds, (
                f"criterion {self.number} exceeded its {self.seconds}s budget: "
                f"{elapsed:.2f}s"
            )
        else:
            print(f"FAIL  criterion {self.number:02d}: {self.description}")
        return False


def gamma(text, d=None):
    return gp.parse_gamma_polynomial(text, d)


def test_criterion_01_golden_weights():
    with Budget(1, "golden weights and eleven-member weight vector", 1.0):
        assert gamma("T1^{n}").weight() == gp.Weight(1, 1)
        assert gamma("T2^{n}").weight() == gp.Weight(2, 1)
        assert gamma("T1^{n} * T2^{n^3}").weight() == gp.Weight(2, 3)
        system = gp.parse_system(
            "T1^{n}; T1^{2n}; T1^{3n}; T1^{n^2}; T1^{n^2 + n};"
            "T2^{3n^2 + 2n}; T1^{n^6} * T2^{3n^2 + n};"
            "T1^{n^4 + n^3 + n} * T2^{3n^2 + 2n}; T1^{n} * T3^{n^3};"
            "T2^{n^5} * T3^{2n^3 + n^2}; T1^{n^2} * T2^{n} * T3^{3n^3 + 2n^2}"
        )
        assert len(system) == 11
        assert gp.weight_vector(system).entries == (
            (3, gp.Weight(1, 1)),
            (1, gp.Weight(1, 2)),
            (1, gp.Weight(2, 2)),
            (3, gp.Weight(3, 3)),
        )


def test_criterion_02_golden_reduction():
    with Budget(2, "reduction of two quadratics matches the worked display", 1.0):
        system = gp.parse_system("T1^{n^2}; T1^{2n^2}")
        f = gamma("T1^{n^2}")
        for m in (1, 2, 3):
            reduced = gp.step2_reduce(system, f, [m])
            assert reduced == gp.parse_system(
                f"T1^{{{2 * m}n}}; T1^{{n^2 + {4 * m}n}}"
            )


def _random_system(rng):
    members = []
    for _ in range(rng.randint(1, 4)):
        while True:
            exps = []
            for _ in range(2):
                degree = rng.randint(0, 3)
                coords = (0,) + tuple(
                    rng.randint(-6, 6) for _ in range(degree)
                )
                exps.append(IntegralPolynomial(coords))
            g = gp.GammaPolynomial(tuple(exps))
            if not g.is_identity:
                break
        if g not in members:
            members.append(g)
    return gp.PolySystem(tuple(members))


def test_criterion_03_descent_and_termination():
    with Budget(3, "descent and termination over 500 random systems", 60.0):
        rng = random.Random(160_803)
        for _ in range(500):
            system = _random_system(rng)
            f = gp.minimal_weight_member(system)
            shifts = rng.sample(range(1, 40), rng.randint(1, 2))
            try:
                reduced = gp.step2_reduce(system, f, shifts)
            except gp.ShiftCollision:
                reduced = None
            if reduced is not None and not reduced.is_empty:
                assert (
                    gp.compare(gp.weight_vector(reduced), gp.weight_vector(system))
                    is gp.Ordering.PRECEDES
                )
            chain = gp.pet_chain(system, max_steps=10_000)
            assert len(chain) - 1 <= 10_000
            for a, b in zip(chain, chain[1:]):
                vb = (
                    gp.WeightVector.empty()
                    if b.is_empty
                    else gp.weight_vector(b)
                )
                assert gp.compare(vb, gp.weight_vector(a)) is gp.Ordering.PRECEDES


def test_criterion_04_group_and_order_laws():
    with Budget(4, "1000-case group, equivalence and order axiom suites", 10.0):
        rng = random.Random(417)

        def rand_gamma():
            while True:
                exps = []
                for _ in range(3):
                    degree = rng.randint(0, 4)
                    coords = (0,) + tuple(
                        rng.randint(-9, 9) for _ in range(degree)
                    )
                    exps.append(IntegralPolynomial(coords))
                g = gp.GammaPolynomial(tuple(exps))
                if not g.is_identity:
                    return g

        e = gp.GammaPolynomial.identity(3)
        for _ in range(1000):
            g, h, k = rand_gamma(), rand_gamma(), rand_gamma()
            assert (g * h) * k == g * (h * k)
            assert g * e == g and e * g == g
            assert (g * g.inverse()).is_identity

        pool = [rand_gamma() for _ in range(40)]
        checked = 0
        for g in pool:
            assert gp.equivalent(g, g)
        for g, h in itertools.combinations(pool, 2):
            assert gp.equivalent(g, h) == gp.equivalent(h, g)
            checked += 1
        for g, h, k in itertools.combinations(pool, 3):
            if checked >= 1000:
                break
            if gp.equivalent(g, h) and gp.equivalent(h, k):
                assert gp.equivalent(g, k)
            checked += 1

        vectors = [gp.weight_vector(_random_system(rng)) for _ in range(80)]
        for v in vectors:
            assert gp.compare(v, v) is gp.Ordering.EQUAL
        cases = 0
        for a, b, c in itertools.combinations(vectors, 3):
            ab = gp.compare(a, b)
            ba = gp.compare(b, a)
            if ab is gp.Ordering.EQUAL:
                assert ba is gp.Ordering.EQUAL
            else:
                assert {ab, ba} == {gp.Ordering.PRECEDES, gp.Ordering.SUCCEEDS}
            if ab is gp.Ordering.PRECEDES and gp.compare(b, c) is gp.Ordering.PRECEDES:
                assert gp.compare(a, c) is gp.Ordering.PRECEDES
            cases += 1
            if cases >= 1000:
                break
        assert cases >= 1000


def test_criterion_05_shift_diff_golden():
    with Budget(5, "quadratic cross terms equal 2amn with cocycle identity", 1.0):
        for a, b in ((1, 0), (2, 3), (-1, 5)):
            p = IntegralPolynomial.from_monomials([0, b, a])
            for m in (1, 2, 5):
                q = p.shift_diff(m)
                assert q == IntegralPolynomial.from_monomials([0, 2 * a * m])
                for n in range(-20, 21):
                    assert p(n + m) == p(n) + p(m) + q(n)


def _oracle_schur_triple(coloring):
    # independent brute force: x <= y with x + y inside the range, all in
    # one cell (x = y allowed)
    n = len(coloring)
    for x in range(1, n + 1):
        for y in range(x, n + 1):
            if x + y > n:
                break
            if coloring[x - 1] == coloring[y - 1] == coloring[x + y - 1]:
                return (x, y, x + y)
    return None


def test_criterion_06_finite_hindman_schur():
    with Budget(6, "exhaustive Schur verification at 5 and failure at 4", 5.0):
        for coloring in itertools.product(range(2), repeat=5):
            assert _oracle_schur_triple(coloring) is not None
        outcome = ipsets.verify_all_colorings(5, 2, 2)
        assert isinstance(outcome, ipsets.HindmanVerified)

        failing = ipsets.verify_all_colorings(4, 2, 2)
        assert isinstance(failing, ipsets.HindmanFailure)
        assert _oracle_schur_triple(failing.coloring) is None
        witnessed = sum(
            1
            for coloring in itertools.product(range(2), repeat=4)
            if _oracle_schur_triple(coloring) is None
        )
        assert witnessed >= 1


def test_criterion_07_window_identities(chacon):
    with Budget(7, "window identities on randomized queries", 60.0):
        rng = random.Random(70_707)
        n_poly = parse_polynomial("n")
        for _ in range(20):
            u = dyn.CylinderSet(rng.choice(sorted(chacon.factors(rng.randint(1, 3)))))
            v = dyn.CylinderSet(rng.choice(sorted(chacon.factors(rng.randint(1, 3)))))
            w = rng.randint(10, 100)

            plain = dyn.return_set(chacon, u, v, w)
            via_poly = dyn.poly_return_set(chacon, u, [v], [n_poly], w)
            assert via_poly.members == plain.members

            u2 = dyn.CylinderSet(rng.choice(sorted(chacon.factors(rng.randint(1, 2)))))
            v2 = dyn.CylinderSet(rng.choice(sorted(chacon.factors(rng.randint(1, 2)))))
            product = dyn.product_return_set(
                [chacon, chacon], [u, u2], [v, v2], w
            )
            assert product.members == (
                plain.members & dyn.return_set(chacon, u2, v2, w).members
            )

            doubled = dyn.power_return_set(chacon, 2, u, v, w)
            base = dyn.return_set(chacon, u, v, 2 * w)
            assert doubled.members == frozenset(
                n for n in range(-w, w + 1) if 2 * n in base.members
            )

            swapped = dyn.return_set(chacon, v, u, w)
            assert plain.members == frozenset(-n for n in swapped.members)


def test_criterion_08_polynomial_probe(chacon):
    with Budget(8, "linear pair probe intersects both truncations", 120.0):
        zero = dyn.CylinderSet("0")
        result = dyn.poly_return_set(
            chacon,
            zero,
            [zero, zero],
            [parse_polynomial("n"), parse_polynomial("2n")],
            200,
        )
        assert result.members, "polynomial return set came back empty"
        for generators in ((1, 3, 9), (2, 5)):
            fs = ipsets.enumerate_fs(generators)
            witness = ipsets.ip_witness(lambda n: n in result.members, fs)
            assert witness is not None, (
                f"no witness against the truncation over {generators}: "
                "red flag for the candidate system"
            )


def test_criterion_09_chain_with_independent_verification(chacon):
    with Budget(9, "depth-3 descending chain re-verified independently", 30.0):
        v = dyn.CylinderSet("0")
        g = gamma("T1^{n}")
        chain = dyn.find_chain_shifts(chacon, [v], [g], 3, search_window=300)
        assert len(chain.levels) == 4
        for level in chain.levels:
            assert dyn.pattern_realizable(chacon, level[0])
        ok, checks = dyn.verify_chain(chacon, [v], [g], chain)
        assert ok and len(checks) == 10
        assert all(c.holds for c in checks)


def test_criterion_10_rotation_negative_control():
    with Budget(10, "rotation probe empty with independent exhaustive scan", 10.0):
        ctrl = rotation.RotationControl(1000, 618)
        probe = rotation.rotation_probe(
            ctrl,
            rotation.Arc(0, 100),
            rotation.Arc(0, 100),
            rotation.Arc(500, 600),
            window=10_000,
        )
        assert probe.members == frozenset()

        # independent scan: membership depends on n only through
        # n*618 mod 1000, so exhausting every residue covers the window
        q = 1000
        for residue in range(q):
            for x in range(0, 100):
                in_v1 = (x + residue) % q < 100
                in_v2 = 0 <= ((x + 2 * residue) % q) - 500 < 100
                assert not (in_v1 and in_v2)

        # literal scan over a subwindow, no shortcuts at all
        for n in range(-500, 501):
            for x in range(0, 100):
                a = (x + n * 618) % q
                b = (x + 2 * n * 618) % q
                assert not (0 <= a < 100 and 500 <= b < 600)


def test_criterion_11_cli_determinism(tmp_path):
    with Budget(11, "byte-identical CSV artifacts on rerun", 120.0):
        shared = tmp_path / "exp.cfg"
        shared.write_text(
            """
[system chacon]
kind = substitution
rules = 0 -> 0010; 1 -> 1

[set U]
system = chacon
word = 0

[set V]
system = chacon
word = 0

[set V2]
system = chacon
word = 00

[poly p1]
expr = n

[poly p2]
expr = 2n

[fs F1]
generators = 1, 3, 9

[fs F2]
generators = 2, 5

[gamma-system S]
members = T1^{n^2}; T1^{2n^2}

[run]
system = chacon
u = U
v = V
vs = V, V2
polys = p1, p2
window = 40
truncations = F1, F2
gamma-system = S
generators = 1,3,9
""",
            encoding="utf-8",
        )
        lemma = tmp_path / "lemma.cfg"
        lemma.write_text(
            """
[system chacon]
kind = substitution
rules = 0 -> 0010; 1 -> 1

[set V]
system = chacon
word = 0

[gamma g]
expr = T1^{n}

[run]
system = chacon
vs = V
gammas = g
depth = 2
window = 150
""",
            encoding="utf-8",
        )
        cfg = str(shared)
        invocations = [
            ["pet-trace", "--config", cfg],
            ["weights", "--config", cfg],
            ["fs", "--config", cfg],
            ["hindman", "--N", "5", "--r", "2", "--depth", "2", "--all"],
            ["density", "--predicate", "evens", "--lo", "0", "--hi", "60",
             "--length", "6"],
            ["return-set", "--config", cfg],
            ["poly-return", "--config", cfg],
            ["lemma213", "--config", str(lemma)],
            ["mixing-report", "--config", cfg],
        ]
        for args in invocations:
            out_a = tmp_path / ("a-" + args[0])
            out_b = tmp_path / ("b-" + args[0])
            assert cli.main(args + ["--out", str(out_a)]) == 0
            assert cli.main(args + ["--out", str(out_b)]) == 0
            csv_name = args[0] + ".csv"
            with open(out_a / csv_name, "rb") as fh:
                first = fh.read()
            with open(out_b / csv_name, "rb") as fh:
                second = fh.read()
            assert first == second, f"{csv_name} differed between reruns"


def test_criterion_12_schur_four():
    # S(4) = 44 (Baumert 1965): a 4-coloring of 1..44 with no x + y = z
    # in one cell exists, and the search reaches the least one
    with Budget(12, "failing 4-coloring of 1..44 under the default budget", 30.0):
        failing = ipsets.verify_all_colorings(44, 4, 2)
        assert isinstance(failing, ipsets.HindmanFailure)
        assert len(failing.coloring) == 44
        assert _oracle_schur_triple(failing.coloring) is None
