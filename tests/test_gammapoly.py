import itertools
import random
from collections import Counter

import pytest

from ipdyn.gammapoly import (
    ChainStep,
    DimensionMismatch,
    EmptySystem,
    GammaPolynomial,
    NonTermination,
    Ordering,
    PolySystem,
    ShiftCollision,
    Weight,
    WeightVector,
    compare,
    equivalent,
    minimal_weight_member,
    parse_gamma_polynomial,
    parse_system,
    pet_chain,
    step1_reduce,
    step2_reduce,
    traced_pet_chain,
    weight_vector,
)
from ipdyn.intpoly import IntegralPolynomial


def gamma(text, d=None):
    return parse_gamma_polynomial(text, d)


def system(text, d=None):
    return parse_system(text, d)


def random_gamma(rng, d, max_degree=4, coeff=12):
    while True:
        exps = []
        for _ in range(d):
            degree = rng.randint(0, max_degree)
            coords = (0,) + tuple(
                rng.randint(-coeff, coeff) for _ in range(degree)
            )
            exps.append(IntegralPolynomial(coords))
        g = GammaPolynomial(tuple(exps))
        if not g.is_identity:
            return g


def random_system(rng, d=2, max_degree=3, max_members=4):
    members = []
    for _ in range(rng.randint(1, max_members)):
        g = random_gamma(rng, d, max_degree, coeff=6)
        if g not in members:
            members.append(g)
    return PolySystem(tuple(members))


class TestWeight:
    def test_named_weights(self):
        assert gamma("T1^{n}").weight() == Weight(1, 1)
        assert gamma("T2^{n}").weight() == Weight(2, 1)
        assert gamma("T1^{n} * T2^{n^3}").weight() == Weight(2, 3)

    def test_identity_weight(self):
        assert GammaPolynomial.identity(3).weight() == Weight(0, 0)

    def test_equivalent_pair_shares_weight(self):
        assert gamma("T1^{n^6} * T3^{n^2 + 3n}", 3).weight() == Weight(3, 2)
        assert gamma("T3^{n^2}", 3).weight() == Weight(3, 2)

    def test_weight_order(self):
        assert Weight(2, 3) > Weight(2, 1) > Weight(1, 1) > Weight(0, 0)


class TestEquivalence:
    def test_named_equivalences(self):
        a = gamma("T3^{n^2}", 3)
        b = gamma("T1^{n^6} * T3^{n^2 + 3n}", 3)
        c = gamma("T1^{n} * T2^{n^3 + 3n} * T3^{n^2 + 5n}", 3)
        assert equivalent(a, b) and equivalent(b, c) and equivalent(a, c)

    def test_reflexive(self):
        g = gamma("T1^{n^2} * T2^{n}")
        assert equivalent(g, g)

    def test_leading_coefficients_differ(self):
        assert not equivalent(gamma("T1^{n}"), gamma("T1^{2n}"))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            equivalent(gamma("T1^{n}"), gamma("T2^{n}", 2))

    def test_equivalence_relation_random(self):
        rng = random.Random(11)
        pool = [random_gamma(rng, 2, 3, 4) for _ in range(60)]
        for g in pool:
            assert equivalent(g, g)
        for g, h in itertools.combinations(pool, 2):
            assert equivalent(g, h) == equivalent(h, g)
        for g, h, k in itertools.combinations(pool, 3):
            if equivalent(g, h) and equivalent(h, k):
                assert equivalent(g, k)


class TestGroupLaws:
    def test_product_adds_exponents(self):
        t = gamma("T1^{n}")
        assert t * t == gamma("T1^{2n}")
        g = gamma("T1^{n^2} * T2^{n}")
        assert g * gamma("T1^{n}", 2) == gamma("T1^{n^2 + n} * T2^{n}")

    def test_inverse(self):
        g = gamma("T1^{n^2} * T2^{3n}")
        assert (g * g.inverse()).is_identity

    def test_exponent_evaluation(self):
        g = gamma("T1^{n^2} * T2^{n}") * gamma("T1^{n}", 2)
        for n in range(-10, 11):
            assert g.exps[0](n) == n * n + n
            assert g.exps[1](n) == n

    def test_axioms_random(self):
        rng = random.Random(23)
        e = GammaPolynomial.identity(3)
        for _ in range(1000):
            g = random_gamma(rng, 3)
            h = random_gamma(rng, 3)
            k = random_gamma(rng, 3)
            assert (g * h) * k == g * (h * k)
            assert g * e == g and e * g == g
            assert (g * g.inverse()).is_identity

    def test_zero_constant_term_required(self):
        with pytest.raises(ValueError, match="constant term"):
            GammaPolynomial((IntegralPolynomial((1, 1)),))


class TestWeightVector:
    def test_eleven_member_system(self):
        s = system(
            "T1^{n}; T1^{2n}; T1^{3n}; T1^{n^2}; T1^{n^2 + n};"
            "T2^{3n^2 + 2n}; T1^{n^6} * T2^{3n^2 + n};"
            "T1^{n^4 + n^3 + n} * T2^{3n^2 + 2n}; T1^{n} * T3^{n^3};"
            "T2^{n^5} * T3^{2n^3 + n^2}; T1^{n^2} * T2^{n} * T3^{3n^3 + 2n^2}"
        )
        assert len(s) == 11
        vec = weight_vector(s)
        assert vec.entries == (
            (3, Weight(1, 1)),
            (1, Weight(1, 2)),
            (1, Weight(2, 2)),
            (3, Weight(3, 3)),
        )
        assert str(vec) == "(3(1,1), 1(1,2), 1(2,2), 3(3,3))"

    def test_empty_system_raises(self):
        with pytest.raises(EmptySystem):
            weight_vector(PolySystem(()))
        with pytest.raises(EmptySystem, match="no members to choose from"):
            minimal_weight_member(PolySystem(()))

    def test_compare_multiplicities(self):
        one = WeightVector(((1, Weight(1, 1)),))
        two = WeightVector(((2, Weight(1, 1)),))
        assert compare(one, two) is Ordering.PRECEDES
        assert compare(two, one) is Ordering.SUCCEEDS
        assert compare(one, one) is Ordering.EQUAL

    def test_compare_mixed_weights(self):
        lhs = WeightVector(((7, Weight(1, 1)), (1, Weight(1, 2))))
        rhs = WeightVector(((2, Weight(1, 2)),))
        assert compare(lhs, rhs) is Ordering.PRECEDES

    def test_compare_chain_fragments(self):
        w11, w12 = Weight(1, 1), Weight(1, 2)
        chain = [
            WeightVector(((1, w11),)),
            WeightVector(((2, w11),)),
            WeightVector(((9, w11),)),
            WeightVector(((1, w12),)),
            WeightVector(((1, w11), (1, w12))),
            WeightVector(((5, w11), (1, w12))),
            WeightVector(((2, w12),)),
        ]
        for a, b in zip(chain, chain[1:]):
            assert compare(a, b) is Ordering.PRECEDES

    def test_empty_vector_precedes_everything(self):
        assert compare(WeightVector.empty(), WeightVector(((1, Weight(1, 1)),))) is Ordering.PRECEDES

    def test_strict_order_random(self):
        rng = random.Random(37)
        vectors = [weight_vector(random_system(rng)) for _ in range(120)]
        for v in vectors:
            assert compare(v, v) is Ordering.EQUAL
        for a, b in itertools.combinations(vectors, 2):
            ab, ba = compare(a, b), compare(b, a)
            if ab is Ordering.EQUAL:
                assert ba is Ordering.EQUAL
            else:
                assert {ab, ba} == {Ordering.PRECEDES, Ordering.SUCCEEDS}
        for a, b, c in itertools.combinations(vectors, 3):
            if compare(a, b) is Ordering.PRECEDES and compare(b, c) is Ordering.PRECEDES:
                assert compare(a, c) is Ordering.PRECEDES


class TestStep1:
    def test_square_reduces_to_linear(self):
        assert step1_reduce(gamma("T1^{n^2}"), 1) == gamma("T1^{2n}")

    def test_homomorphism_gives_identity(self):
        f = gamma("T1^{n}")
        for m in (-2, 1, 3):
            assert step1_reduce(f, m).is_identity

    def test_identity_rejected(self):
        with pytest.raises(ValueError, match="requires a non-identity element"):
            step1_reduce(GammaPolynomial((IntegralPolynomial.zero(),)), 1)

    def test_two_generator_case(self):
        f = gamma("T1^{n^2} * T2^{n}")
        assert step1_reduce(f, 2) == gamma("T1^{4n}", 2)

    def test_weight_drops(self):
        rng = random.Random(5)
        for _ in range(200):
            f = random_gamma(rng, 2, 4, 6)
            if f.is_homomorphism():
                continue
            m = rng.choice([x for x in range(-8, 9) if x])
            h = step1_reduce(f, m)
            assert h.weight() < f.weight()


class TestStep2:
    def test_named_reduction(self):
        s = system("T1^{n^2}; T1^{2n^2}")
        f = gamma("T1^{n^2}")
        for m in (1, 2, 3):
            reduced = step2_reduce(s, f, [m])
            expected = system(f"T1^{{{2 * m}n}}; T1^{{n^2 + {4 * m}n}}")
            assert reduced == expected

    def test_shared_quadratic_head(self):
        # all members a n^2 + b_i n against the first one: every result linear
        s = system("T1^{2n^2 + n}; T1^{2n^2 + 3n}; T1^{2n^2 + 4n}")
        f = minimal_weight_member(s)
        reduced = step2_reduce(s, f, [2])
        assert all(g.weight() == Weight(1, 1) for g in reduced)

    def test_linear_system_collapses(self):
        s = system("T1^{3n}")
        reduced = step2_reduce(s, gamma("T1^{3n}"), [4])
        assert reduced.is_empty

    def test_collision_detected_and_carries_collapsed_system(self):
        s = system("T1^{n}; T1^{2n}")
        with pytest.raises(ShiftCollision) as info:
            step2_reduce(s, gamma("T1^{n}"), [1, 2])
        assert info.value.system == system("T1^{n}")
        assert info.value.pairs

    def test_preconditions(self):
        s = system("T1^{n}; T1^{n^2}")
        with pytest.raises(ValueError, match="minimal"):
            step2_reduce(s, gamma("T1^{n^2}"), [1])
        with pytest.raises(ValueError, match="belong"):
            step2_reduce(s, gamma("T1^{5n}"), [1])
        with pytest.raises(ValueError, match="distinct"):
            step2_reduce(s, gamma("T1^{n}"), [1, 1])
        with pytest.raises(ValueError, match="nonzero"):
            step2_reduce(s, gamma("T1^{n}"), [0])
        with pytest.raises(ValueError, match="at least one shift is required"):
            step2_reduce(s, gamma("T1^{n}"), [])

    def test_descent_random(self):
        rng = random.Random(81)
        for _ in range(300):
            s = random_system(rng)
            f = minimal_weight_member(s)
            shifts = rng.sample(range(1, 30), rng.randint(1, 2))
            try:
                reduced = step2_reduce(s, f, shifts)
            except ShiftCollision:
                continue
            if reduced.is_empty:
                continue
            assert compare(weight_vector(reduced), weight_vector(s)) is Ordering.PRECEDES


class TestPetChain:
    def test_two_quadratics(self):
        chain = pet_chain(system("T1^{n^2}; T1^{2n^2}"))
        assert len(chain) >= 2
        final = chain[-1]
        assert all(g.is_homomorphism() for g in final)
        # intermediate shapes mirror the worked cases: mixed, quadratic, linear
        assert chain[1] == system("T1^{2n}; T1^{n^2 + 4n}")

    def test_distinct_linear_is_base_case(self):
        s = system("T1^{n}; T1^{2n}; T1^{5n}")
        assert pet_chain(s) == [s]

    def test_chain_strictly_decreases(self):
        rng = random.Random(13)
        for _ in range(100):
            s = random_system(rng)
            chain = pet_chain(s)
            for a, b in zip(chain, chain[1:]):
                va = weight_vector(a)
                vb = WeightVector.empty() if b.is_empty else weight_vector(b)
                assert compare(vb, va) is Ordering.PRECEDES

    def test_nontermination_guard(self):
        with pytest.raises(NonTermination):
            pet_chain(system("T1^{n^2}; T1^{2n^2}"), max_steps=1)

    def test_traced_chain_records_shifts(self):
        steps = traced_pet_chain(system("T1^{n^2}; T1^{2n^2}"))
        assert steps[0].reducer == gamma("T1^{n^2}")
        assert steps[0].shifts == (1,)
        assert steps[-1].reducer is None


class TestParsing:
    def test_round_trip(self):
        for text in ("T1^{n^2} * T2^{3n}", "T1^{n}", "e"):
            g = parse_gamma_polynomial(text, 2)
            assert parse_gamma_polynomial(str(g), 2) == g

    def test_repeated_generator_multiplies(self):
        assert gamma("T1^{n} * T1^{n^2}") == gamma("T1^{n^2 + n}")

    def test_rejects_garbage(self):
        with pytest.raises(Exception):
            parse_gamma_polynomial("T0^{n}")
        with pytest.raises(Exception):
            parse_gamma_polynomial("S1^{n}")

    def test_system_duplicates_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            parse_system("T1^{n}; T1^{n}")


# -- the object-level reductions, as oracles ----------------------------------------


def class_key_oracle(g):
    """An element's equivalence class: its weight and the Fraction leading
    coefficient of its weight-level exponent."""
    return g.weight(), g.leading_coefficient()


def weight_vector_oracle(system):
    classes = {class_key_oracle(g) for g in system.members}
    per_weight = Counter(w for w, _ in classes)
    return WeightVector(tuple((per_weight[w], w) for w in sorted(per_weight)))


def reduce_member_oracle(g, f, m):
    # g(m)^{-1} g(n + m) f(n)^{-1}, exponent-wise, on IntegralPolynomials
    return GammaPolynomial(tuple(
        p.translate(m) - IntegralPolynomial.constant(p(m)) - q
        for p, q in zip(g.exps, f.exps)
    ))


def step2_oracle(system, f, shifts):
    produced, collisions = {}, []
    for t, g in enumerate(system.members):
        for j, m in enumerate(shifts):
            h = reduce_member_oracle(g, f, m)
            if h.is_identity:
                continue
            if h in produced:
                collisions.append((produced[h], (t, j)))
            else:
                produced[h] = (t, j)
    collapsed = PolySystem(tuple(produced))
    if collisions:
        raise ShiftCollision(tuple(shifts), collisions, collapsed)
    return collapsed


def chain_oracle(system, max_steps=10_000):
    """traced_pet_chain on objects: reduce against the minimal-weight
    member with the first shift in 1..64 that does not collide."""
    steps, current = [], system
    for step in itertools.count():
        base = current.is_empty or (
            all(g.is_homomorphism() for g in current)
            and len({class_key_oracle(g) for g in current}) == len(current)
        )
        vector = WeightVector.empty() if current.is_empty else weight_vector_oracle(current)
        if base:
            steps.append(ChainStep(current, vector, None, ()))
            return steps
        if step >= max_steps:
            raise NonTermination(f"chain exceeded {max_steps} steps")
        f = minimal_weight_member(current)
        for m in range(1, 65):
            try:
                nxt = step2_oracle(current, f, (m,))
                break
            except ShiftCollision as exc:
                last = exc
        else:
            raise last
        steps.append(ChainStep(current, vector, f, (m,)))
        current = nxt


def reduction(fn, *args, **kwargs):
    """A result, or the type, message and contents of the exception."""
    try:
        return fn(*args, **kwargs)
    except ShiftCollision as exc:
        return ShiftCollision, str(exc), exc.shifts, exc.pairs, exc.system
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


class TestCoordinateReductions:
    def test_chains_match_the_object_level_chain(self):
        lengths = Counter()
        for seed in range(400):
            rng = random.Random(seed)
            s = random_system(
                rng, d=rng.randint(1, 3), max_degree=rng.randint(1, 4),
                max_members=rng.randint(1, 5),
            )
            got, want = traced_pet_chain(s), chain_oracle(s)
            assert got == want, seed
            lengths[min(len(got), 4)] += 1
            max_steps = rng.randint(0, len(got))
            assert reduction(traced_pet_chain, s, max_steps=max_steps) == reduction(
                chain_oracle, s, max_steps
            ), seed
        assert set(lengths) == {1, 2, 3, 4}

    def test_reductions_match_the_object_level_reduction(self):
        rng = random.Random(1017)
        collided = 0
        for _ in range(600):
            s = random_system(rng, d=rng.randint(1, 3), max_members=5)
            f = minimal_weight_member(s)
            shifts = rng.sample([m for m in range(-9, 10) if m], rng.randint(1, 4))
            got = reduction(step2_reduce, s, f, shifts)
            assert got == reduction(step2_oracle, s, f, shifts), (s, f, shifts)
            collided += got[0] is ShiftCollision if isinstance(got, tuple) else 0
        assert collided > 20

    def test_one_shift_never_collides(self):
        rng = random.Random(5)
        for _ in range(300):
            s = random_system(rng, d=2, max_members=5)
            step2_reduce(s, minimal_weight_member(s), [rng.randint(1, 9)])

    def test_classes_match_the_fraction_classes(self):
        rng = random.Random(29)
        pool = [random_gamma(rng, 2, 3, 4) for _ in range(80)]
        pool += [gamma("T1^{2n^2}", 2), gamma("T1^{2n^2 + 5n} * T2^{0}", 2)]
        for g, h in itertools.product(pool, repeat=2):
            assert equivalent(g, h) == (class_key_oracle(g) == class_key_oracle(h))
        for _ in range(200):
            s = random_system(rng, d=3, max_members=6)
            assert weight_vector(s) == weight_vector_oracle(s)

    def test_system_elements_are_parsed_once(self, monkeypatch):
        import ipdyn.gammapoly as gp

        calls = []
        parse = gp.parse_polynomial
        monkeypatch.setattr(gp, "parse_polynomial", lambda t: calls.append(t) or parse(t))
        s = parse_system("T1^{n^2}; T1^{2n^2}; T1^{n^3} * T2^{n}; T2^{n^2 + n}")
        assert len(calls) == 5
        assert [g.generators for g in s] == [2] * 4
        assert s == parse_system("T1^{n^2}; T1^{2n^2}; T1^{n^3} * T2^{n}; T2^{n^2 + n}", 2)

    def test_system_errors_come_in_element_order(self):
        for text, error in [
            ("T1^{n + 1}; T2^{n^}", "nonzero constant term"),
            ("T1^{n^}; T2^{n + 1}", "exponent after"),
            ("T2^{n}; e", "identity"),
            ("T1^{n/2}; T3^{x}", "C\\(n,1\\) is 1/2"),
        ]:
            with pytest.raises(ValueError, match=error):
                parse_system(text)
        with pytest.raises(DimensionMismatch, match="T3 exceeds declared count 2"):
            parse_system("T1^{n}; T3^{n}; T1^{x}", 2)
