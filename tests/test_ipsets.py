import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ipdyn.ipsets import (
    BadLength,
    BudgetExceeded,
    HindmanFailure,
    HindmanVerified,
    IndexOutOfRange,
    IPRingTruncation,
    TruncationTooLarge,
    WindowSet,
    builtin_predicate,
    enumerate_fs,
    hindman_search,
    ip_witness,
    monochromatic_fs,
    restrict_to_ring,
    structure_classify,
    verify_all_colorings,
    window_density,
)


class TestFSTruncation:
    def test_powers_of_two_fill_a_range(self):
        fs = enumerate_fs([1, 2, 4])
        assert fs.values() == tuple(range(1, 8))
        assert len(list(fs.items())) == 7

    def test_singleton(self):
        assert enumerate_fs([5]).values() == (5,)

    def test_repeats_allowed(self):
        fs = enumerate_fs([1, 1])
        assert fs.value_multiset() == (1, 1, 2)
        assert fs.values() == (1, 2)

    def test_additivity_over_disjoint_sets(self):
        rng = random.Random(3)
        for _ in range(50):
            gens = [rng.randint(-20, 20) for _ in range(rng.randint(1, 6))]
            fs = enumerate_fs(gens)
            k = len(gens)
            indices = list(range(1, k + 1))
            for _ in range(20):
                rng.shuffle(indices)
                cut = rng.randint(1, k)
                alpha = frozenset(indices[:cut])
                beta = frozenset(indices[cut:])
                if not beta:
                    continue
                assert fs.value(alpha | beta) == fs.value(alpha) + fs.value(beta)

    def test_size_bound(self):
        with pytest.raises(TruncationTooLarge):
            enumerate_fs(list(range(1, 25)))

    def test_value_validates_indices(self):
        fs = enumerate_fs([1, 2])
        with pytest.raises(IndexOutOfRange):
            fs.value({3})


class TestRingRestriction:
    def test_block_sums(self):
        fs = enumerate_fs([1, 2, 4])
        ring = IPRingTruncation([{1}, {2, 3}])
        restricted = restrict_to_ring(fs, ring)
        assert restricted.generators == (1, 6)
        assert restricted.values() == (1, 6, 7)

    def test_singleton_blocks_are_identity(self):
        fs = enumerate_fs([3, -1, 7])
        ring = IPRingTruncation([{1}, {2}, {3}])
        assert restrict_to_ring(fs, ring).value_multiset() == fs.value_multiset()

    def test_merged_block(self):
        fs = enumerate_fs([3, 3])
        assert restrict_to_ring(fs, IPRingTruncation([{1, 2}])).values() == (6,)

    def test_matches_direct_union_enumeration(self):
        fs = enumerate_fs([2, 3, 5, 7])
        ring = IPRingTruncation([{1, 2}, {4}])
        restricted = restrict_to_ring(fs, ring)
        direct = sorted({fs.value(alpha) for alpha in ring.unions()})
        assert list(restricted.values()) == direct

    def test_block_ordering_enforced(self):
        with pytest.raises(ValueError, match="ordered"):
            IPRingTruncation([{2}, {1, 3}])

    def test_out_of_range_block(self):
        fs = enumerate_fs([1, 2])
        with pytest.raises(IndexOutOfRange):
            restrict_to_ring(fs, IPRingTruncation([{1}, {5}]))


class TestIpWitness:
    def test_multiples_of_three(self):
        ws = WindowSet.from_predicate(lambda n: n % 3 == 0, 0, 101)
        alpha, value = ip_witness(ws, enumerate_fs([1, 2, 4]))
        assert alpha == frozenset({1, 2}) and value == 3

    def test_full_window_always_witnessed(self):
        ws = WindowSet.from_predicate(lambda n: True, 0, 101)
        assert ip_witness(ws, enumerate_fs([2, 3])) == (frozenset({1}), 2)

    def test_parity_obstruction(self):
        ws = WindowSet.from_predicate(lambda n: n % 2 == 1, 0, 101)
        assert ip_witness(ws, enumerate_fs([2, 4, 8])) is None

    def test_predicate_target(self):
        assert ip_witness(lambda n: n == 7, enumerate_fs([1, 2, 4])) == (
            frozenset({1, 2, 3}),
            7,
        )


class TestHindman:
    def test_every_two_coloring_of_five(self):
        outcome = verify_all_colorings(5, 2, 2)
        assert isinstance(outcome, HindmanVerified)
        assert outcome.colorings_checked == 32

    def test_failing_coloring_on_four(self):
        outcome = verify_all_colorings(4, 2, 2)
        assert isinstance(outcome, HindmanFailure)
        assert outcome.coloring == (0, 1, 1, 0)
        assert monochromatic_fs(outcome.coloring, 2) is None

    def test_single_cell_witness(self):
        witness = monochromatic_fs([0] * 7, 2)
        assert witness is not None
        assert witness.generators == (1, 2)
        assert witness.sums == (1, 2, 3)

    def test_degenerate_witness_used_when_needed(self):
        # no strictly increasing witness exists here, but repeats save it
        witness = monochromatic_fs((0, 0, 1, 1), 2)
        assert witness is not None
        assert witness.generators == (1, 1)
        assert witness.sums == (1, 2)

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            verify_all_colorings(30, 2, 2, budget=1000)

    def test_dispatch(self):
        assert isinstance(hindman_search(5, 2, 2), HindmanVerified)
        w = hindman_search(7, 1, 2, coloring=[0] * 7)
        assert w is not None and w.generators == (1, 2)

    @pytest.mark.parametrize(
        "n_max, colors, depth", [(0, 2, 2), (5, 0, 2), (5, -1, 2), (5, 2, 0)]
    )
    def test_sizes_below_one_rejected(self, n_max, colors, depth):
        with pytest.raises(ValueError, match="must be >= 1"):
            verify_all_colorings(n_max, colors, depth)
        with pytest.raises(ValueError, match="must be >= 1"):
            hindman_search(n_max, colors, depth, coloring=[0] * n_max)

    def test_witness_cell_survives_foreign_splits(self):
        """Splitting a cell disjoint from the found witness never
        destroys verification, checked exhaustively at (5, 2, 2)."""
        n_max, colors, depth = 5, 2, 2
        assert isinstance(verify_all_colorings(n_max, colors, depth), HindmanVerified)
        for coloring in itertools.product(range(colors), repeat=n_max):
            witness = monochromatic_fs(coloring, depth)
            assert witness is not None
            for cell in range(colors):
                if cell == witness.color:
                    continue
                positions = [i for i, c in enumerate(coloring) if c == cell]
                for r in range(1, len(positions)):
                    for moved in itertools.combinations(positions, r):
                        refined = list(coloring)
                        for i in moved:
                            refined[i] = colors  # new cell index
                        survived = monochromatic_fs(tuple(refined), depth)
                        assert survived is not None


class TestWindowDensity:
    def test_periodic_set(self):
        ws = WindowSet.from_predicate(lambda n: n % 2 == 0, 0, 100)
        assert window_density(ws, 10) == (Fraction(1, 2), Fraction(1, 2))

    def test_empty_set(self):
        ws = WindowSet(0, 50, frozenset())
        assert window_density(ws, 5) == (Fraction(0), Fraction(0))

    def test_block_plus_evens(self):
        members = frozenset(range(50)) | frozenset(range(0, 200, 2))
        ws = WindowSet(0, 200, members)
        assert window_density(ws, 50) == (Fraction(1), Fraction(1, 2))

    def test_bad_length(self):
        ws = WindowSet(0, 10, frozenset({1}))
        with pytest.raises(BadLength):
            window_density(ws, 11)
        with pytest.raises(BadLength):
            window_density(ws, 0)

    @given(
        members=st.sets(st.integers(0, 79), max_size=60),
        length=st.integers(1, 40),
        factor=st.integers(1, 3),
    )
    def test_bounds_and_multiple_monotonicity(self, members, length, factor):
        ws = WindowSet(0, 80, frozenset(members))
        upper, lower = window_density(ws, length)
        assert 0 <= lower <= upper <= 1
        longer = length * factor
        if longer <= ws.length:
            upper2, _ = window_density(ws, longer)
            assert upper2 <= upper


class TestStructure:
    def test_evens(self):
        ws = WindowSet.from_predicate(lambda n: n % 2 == 0, 0, 101)
        report = structure_classify(ws)
        assert report.max_gap == 2
        assert report.max_run == 1
        assert report.syndetic_indicator

    def test_full_window(self):
        ws = WindowSet.from_predicate(lambda n: True, 0, 50)
        report = structure_classify(ws)
        assert report.max_gap == 1
        assert report.max_run == 50

    def test_growing_runs(self):
        members = set()
        for k in range(21):
            members.update(range(k * k, min(k * k + k + 1, 401)))
        ws = WindowSet(0, 401, frozenset(members))
        report = structure_classify(ws, run_threshold=10)
        assert report.max_run == 20
        assert report.thick_indicator
        assert not report.syndetic_indicator

    def test_empty(self):
        report = structure_classify(WindowSet(0, 20, frozenset()))
        assert report.max_gap is None
        assert report.max_run == 0
        assert report.syndetic_bound is None

    def test_thickly_syndetic_full_window(self):
        ws = WindowSet.from_predicate(lambda n: True, 0, 60)
        report = structure_classify(ws, run_threshold=5, gap_threshold=3)
        assert report.thickly_syndetic_indicator
        assert report.piecewise_syndetic_indicator


class TestWindowSetIngestion:
    def test_predicates(self):
        assert builtin_predicate("evens")(4)
        assert builtin_predicate("squares")(49)
        assert not builtin_predicate("squares")(-4)
        assert builtin_predicate("squares")((2**60 + 1) ** 2)
        assert not builtin_predicate("squares")(10**400 + 1)
        assert builtin_predicate("squares")(10**400)
        assert builtin_predicate("multiples:7")(21)
        with pytest.raises(ValueError):
            builtin_predicate("nonsense")

    def test_csv_round_trip(self):
        text = "3\n5\n\n8\n"
        ws = WindowSet.from_csv_text(text)
        assert ws.lo == 3 and ws.hi == 9
        assert ws.members == frozenset({3, 5, 8})

    def test_csv_bad_line(self):
        with pytest.raises(ValueError, match="line 2"):
            WindowSet.from_csv_text("3\nfoo\n")

    def test_members_must_fit_window(self):
        with pytest.raises(ValueError):
            WindowSet(0, 5, frozenset({9}))
