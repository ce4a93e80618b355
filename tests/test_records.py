"""The value types against literal expectations: construction by
position and by name, defaults, equality within one class, the hash of
the field tuple (set orders and the golden files under every hash seed
rest on it), the repr, immutability, copy and pickle, the checks their
constructors make, and the order of weights."""

import copy
import pickle

import pytest

from ipdyn.config import CylinderSpec, ExperimentConfig
from ipdyn.dynamics import (
    ContainmentCheck,
    CylinderSet,
    Lemma213Chain,
    MinimalityReport,
    ReturnSet,
)
from ipdyn.gammapoly import (
    ChainStep,
    DimensionMismatch,
    GammaPolynomial,
    PolySystem,
    Weight,
    WeightVector,
)
from ipdyn.intpoly import IntegralPolynomial
from ipdyn.ipsets import (
    HindmanFailure,
    HindmanVerified,
    MonochromaticFS,
    StructureReport,
    WindowSet,
)

N = IntegralPolynomial((0, 1))
N2 = IntegralPolynomial((0, 0, 2))
T1N = GammaPolynomial((N,))
T1N2 = GammaPolynomial((N2,))
W11 = Weight(1, 1)
SYSTEM = PolySystem((T1N, T1N2))
VECTOR = WeightVector(((1, W11), (1, Weight(1, 2))))

# class, fields by name in order, repr
CASES = [
    (
        CylinderSpec,
        {"system": "chacon", "word": "0010"},
        "CylinderSpec(system='chacon', word='0010')",
    ),
    (CylinderSet, {"word": "1001"}, "CylinderSet(word='1001')"),
    (
        ReturnSet,
        {
            "window": 3,
            "members": frozenset({2}),
            "provenance": (("op", "return-set"), ("window", "3")),
            "span": 7,
        },
        "ReturnSet(window=3, members=frozenset({2}), "
        "provenance=(('op', 'return-set'), ('window', '3')), span=7)",
    ),
    (
        MinimalityReport,
        {
            "word_length": 2,
            "scan_limit": 9,
            "radius": None,
            "passed": False,
            "missing": ("001000100", "11"),
        },
        "MinimalityReport(word_length=2, scan_limit=9, radius=None, "
        "passed=False, missing=('001000100', '11'))",
    ),
    (
        Lemma213Chain,
        {
            "shifts": (4, 9),
            "levels": ((((0, "1001"),),), (((0, "1001"), (4, "1"))),),
            "base_power": 1,
        },
        "Lemma213Chain(shifts=(4, 9), levels=((((0, '1001'),),), ((0, '1001'), "
        "(4, '1'))), base_power=1)",
    ),
    (
        ContainmentCheck,
        {"level": 1, "cylinder_index": 0, "shift_index": 2, "holds": True},
        "ContainmentCheck(level=1, cylinder_index=0, shift_index=2, holds=True)",
    ),
    (Weight, {"level": 2, "degree": 3}, "Weight(level=2, degree=3)"),
    (
        GammaPolynomial,
        {"exps": (N, N2)},
        "<GammaPolynomial T1^{n} * T2^{n^2 - n} over 2 generators>",
    ),
    (
        PolySystem,
        {"members": (T1N2, T1N)},
        "PolySystem(members=(<GammaPolynomial T1^{n^2 - n} over 1 generators>, "
        "<GammaPolynomial T1^{n} over 1 generators>))",
    ),
    (
        WeightVector,
        {"entries": ((1, W11), (2, Weight(2, 1)))},
        "WeightVector(entries=((1, Weight(level=1, degree=1)), "
        "(2, Weight(level=2, degree=1))))",
    ),
    (
        ChainStep,
        {"system": SYSTEM, "vector": VECTOR, "reducer": T1N, "shifts": (1,)},
        "ChainStep(system=PolySystem(members=(<GammaPolynomial T1^{n^2 - n} over 1 "
        "generators>, <GammaPolynomial T1^{n} over 1 generators>)), "
        "vector=WeightVector(entries=((1, Weight(level=1, degree=1)), "
        "(1, Weight(level=1, degree=2)))), reducer=<GammaPolynomial T1^{n} over "
        "1 generators>, shifts=(1,))",
    ),
    (IntegralPolynomial, {"coeffs": (0, 1, 2)}, "IntegralPolynomial((0, 1, 2))"),
    (
        WindowSet,
        {"lo": -2, "hi": 5, "members": frozenset({4})},
        "WindowSet(lo=-2, hi=5, members=frozenset({4}))",
    ),
    (
        MonochromaticFS,
        {"generators": (1, 3), "color": 0, "sums": (1, 3, 4)},
        "MonochromaticFS(generators=(1, 3), color=0, sums=(1, 3, 4))",
    ),
    (
        HindmanVerified,
        {"n_max": 8, "colors": 2, "depth": 2},
        "HindmanVerified(n_max=8, colors=2, depth=2)",
    ),
    (
        HindmanFailure,
        {"n_max": 9, "colors": 3, "depth": 2, "coloring": (0, 1, 1, 0, 2)},
        "HindmanFailure(n_max=9, colors=3, depth=2, coloring=(0, 1, 1, 0, 2))",
    ),
    (
        StructureReport,
        {
            "member_count": 5,
            "max_gap": 3,
            "max_run": 2,
            "syndetic_bound": None,
            "thick_runs": 0,
            "syndetic_indicator": True,
            "thick_indicator": False,
            "piecewise_syndetic_indicator": True,
            "thickly_syndetic_indicator": False,
            "run_threshold": 4,
            "gap_threshold": 6,
        },
        "StructureReport(member_count=5, max_gap=3, max_run=2, syndetic_bound=None, "
        "thick_runs=0, syndetic_indicator=True, thick_indicator=False, "
        "piecewise_syndetic_indicator=True, thickly_syndetic_indicator=False, "
        "run_threshold=4, gap_threshold=6)",
    ),
]
IDS = [cls.__name__ for cls, _, _ in CASES]


@pytest.mark.parametrize("cls, fields, text", CASES, ids=IDS)
def test_construction_equality_hash_and_repr(cls, fields, text):
    values = tuple(fields.values())
    x = cls(*values)
    assert tuple(getattr(x, name) for name in fields) == values
    assert cls(**fields) == x
    assert cls(*values[:1], **dict(list(fields.items())[1:])) == x
    assert hash(x) == hash(values)
    assert repr(x) == text
    # equal only to a record of its own class: not to its field tuple,
    # nor to a subclass with the same fields
    assert x != values
    assert type("Sub", (cls,), {})(*values) != x
    assert cls(*values) is not x and {x, cls(*values)} == {x}


def test_equal_fields_in_two_classes_are_unequal():
    assert WeightVector(()) != PolySystem(())
    assert hash(WeightVector(())) == hash(PolySystem(())) == hash(((),))
    assert CylinderSet("01") != CylinderSpec("01", "01")


def test_defaults():
    got = ReturnSet(window=4, members=frozenset({1}))
    assert got.provenance == () and got.span == 0
    assert got == ReturnSet(4, frozenset({1}), (), 0)
    assert ReturnSet(4, frozenset({1}), span=2).span == 2


@pytest.mark.parametrize(
    "call",
    [
        lambda: CylinderSet(),
        lambda: CylinderSet("0", "1"),
        lambda: CylinderSet(letters="0"),
        lambda: CylinderSet("0", word="1"),
        lambda: ReturnSet(window=1),
        lambda: IntegralPolynomial(),
    ],
    ids=["missing", "too-many", "unknown-name", "twice", "missing-by-name", "no-coeffs"],
)
def test_calls_that_match_no_signature_raise_type_error(call):
    with pytest.raises(TypeError):
        call()


@pytest.mark.parametrize("cls, fields, text", CASES, ids=IDS)
def test_records_are_immutable(cls, fields, text):
    x = cls(*fields.values())
    name = next(iter(fields))
    before = getattr(x, name)
    with pytest.raises(AttributeError):
        setattr(x, name, before)
    with pytest.raises(AttributeError):
        x.extra = 1
    with pytest.raises(AttributeError):
        delattr(x, name)
    assert getattr(x, name) is before and repr(x) == text


@pytest.mark.parametrize("cls, fields, text", CASES, ids=IDS)
def test_copy_and_pickle_round_trips(cls, fields, text):
    x = cls(*fields.values())
    protocols = range(pickle.HIGHEST_PROTOCOL + 1)
    pickled = [pickle.loads(pickle.dumps(x, protocol)) for protocol in protocols]
    for y in (copy.copy(x), copy.deepcopy(x), *pickled):
        assert type(y) is cls and y == x and hash(y) == hash(x) and repr(y) == text
        with pytest.raises(AttributeError):
            setattr(y, next(iter(fields)), None)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda: IntegralPolynomial((1, 2.0)),
            TypeError,
            "binomial coordinates must be int, got 2.0",
        ),
        (lambda: GammaPolynomial(()), ValueError, "at least one generator is required"),
        (
            lambda: GammaPolynomial((N, 1)),
            TypeError,
            "exponent of T2 must be IntegralPolynomial",
        ),
        (
            lambda: GammaPolynomial((IntegralPolynomial((3, 1)),)),
            ValueError,
            "exponent of T1 has nonzero constant term: n + 3",
        ),
        (
            lambda: PolySystem((T1N, GammaPolynomial((N, N)))),
            DimensionMismatch,
            "all members must share one generator count",
        ),
        (
            lambda: PolySystem((T1N, GammaPolynomial.identity(1))),
            ValueError,
            "the identity cannot belong to a system",
        ),
        (
            lambda: PolySystem((T1N, T1N)),
            ValueError,
            "system members must be pairwise distinct",
        ),
        (
            lambda: WeightVector(((1, Weight(1, 2)), (1, W11))),
            ValueError,
            "weights must be strictly increasing",
        ),
        (
            lambda: WeightVector(((1, W11), (1, W11))),
            ValueError,
            "weights must be strictly increasing",
        ),
        (lambda: WeightVector(((0, W11),)), ValueError, "multiplicities must be positive"),
        (lambda: WindowSet(3, 3, frozenset()), ValueError, "empty window [3, 3)"),
        (
            lambda: WindowSet(0, 3, frozenset({3})),
            ValueError,
            "members must lie inside the window",
        ),
    ],
)
def test_constructor_checks(call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error and str(caught.value) == message


def test_constructors_normalize():
    assert IntegralPolynomial([0, 1, 0, 0]).coeffs == (0, 1)
    assert IntegralPolynomial((0, 1, 0)) == N
    assert IntegralPolynomial(()) == IntegralPolynomial.zero()
    assert GammaPolynomial([N]).exps == (N,)
    # sorted by the binomial coordinates of the exponents
    assert PolySystem([T1N, T1N2]).members == (T1N2, T1N)
    assert WeightVector([(1, W11)]).entries == ((1, W11),)
    got = WindowSet(0, 5, [True, 4])
    assert got.members == frozenset({1, 4}) and all(type(m) is int for m in got.members)


def test_weights_are_ordered_as_level_then_degree():
    weights = [Weight(2, 0), Weight(1, 3), Weight(0, 0), Weight(1, 1)]
    assert sorted(weights) == [Weight(0, 0), Weight(1, 1), Weight(1, 3), Weight(2, 0)]
    assert Weight(1, 3) < Weight(2, 0) and Weight(2, 0) > Weight(1, 3)
    assert Weight(1, 1) <= W11 and W11 >= Weight(1, 1)
    assert not Weight(1, 1) < W11 and not W11 > Weight(1, 1)
    assert max(weights) == Weight(2, 0)
    with pytest.raises(TypeError):
        Weight(1, 1) < (1, 2)
    # only weights are ordered
    with pytest.raises(TypeError):
        CylinderSet("0") < CylinderSet("1")


def test_experiment_config_is_mutable_with_a_fresh_run_dict():
    names = ("systems", "sets", "polys", "gammas", "gamma_systems", "truncations")
    spec = CylinderSpec("s", "01")
    fields = ({}, {"u": spec}, {"p": N}, {"g": T1N}, {"G": SYSTEM}, {"F": (1, 3)})
    a, b = ExperimentConfig(*fields), ExperimentConfig(**dict(zip(names, fields)))
    for name, value in zip(names, fields):
        assert getattr(a, name) is value and getattr(b, name) is value
    assert a.run == b.run == {} and a.run is not b.run
    a.run["system"] = "s"
    assert b.run == {}
    run = {"u": "u"}
    assert ExperimentConfig(*fields, run=run).run is run
    a.run = {"window": "5"}
    assert a.run == {"window": "5"}
    for c in (copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(c) is ExperimentConfig and c is not a
        assert [getattr(c, name) for name in (*names, "run")] == [
            getattr(a, name) for name in (*names, "run")
        ]
