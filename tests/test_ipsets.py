import itertools
import random
import re
import time
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
    StructureReport,
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
from ipdyn.ipsets import _candidate_generators, _partitions, _subset_sums


def subset_sums_oracle(gens):
    """The sum over each nonempty bitmask, ascending, each from the mask
    without its lowest bit."""
    sums = [0] * (1 << len(gens))
    for mask in range(1, len(sums)):
        low = mask & -mask
        sums[mask] = sums[mask ^ low] + gens[low.bit_length() - 1]
    return sums[1:]


def index_sets_oracle(k):
    """The nonempty subsets of 1..k in ascending bitmask order."""
    return [
        frozenset(i + 1 for i in range(k) if mask >> i & 1) for mask in range(1, 1 << k)
    ]


def enumerate_colorings(n_max, colors, depth):
    """Oracle: walk all colors**n_max colorings in lex order and search
    each for a monochromatic witness."""
    for coloring in itertools.product(range(colors), repeat=n_max):
        if monochromatic_fs(coloring, depth) is None:
            return HindmanFailure(n_max, colors, depth, coloring)
    return HindmanVerified(n_max, colors, depth)


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

    def test_doubling_tables_match_the_bitmask_loop(self):
        rng = random.Random(1019)
        cases = [(), (0,), (5,), (1, 1), (1, 3, 9, 27, 81, 243, 729, 2187, 6561)]
        cases += [
            tuple(rng.randint(-50, 50) for _ in range(rng.randint(1, 12))) for _ in range(60)
        ]
        for gens in cases:
            assert _subset_sums(gens) == subset_sums_oracle(gens), gens
            if gens:
                fs = enumerate_fs(gens)
                assert fs.sums() == subset_sums_oracle(gens)
                assert list(fs.items()) == list(
                    zip(index_sets_oracle(len(gens)), subset_sums_oracle(gens))
                )

    def test_items_stop_at_the_first_witness(self):
        # a witness among the first sums reads no later level's sets
        fs = enumerate_fs(list(range(1, 21)))
        start = time.perf_counter()
        assert ip_witness(lambda n: n == 3, fs) == (frozenset({1, 2}), 3)
        assert time.perf_counter() - start < 0.05

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
        # the budget counts integers coloured; the lex-least failing
        # 4-coloring of 1..44 takes about a million of them
        with pytest.raises(BudgetExceeded):
            verify_all_colorings(44, 4, 2, budget=1000)

    @pytest.mark.parametrize(
        "n_max, colors, depth",
        itertools.product(range(1, 9), range(1, 4), range(1, 4)),
    )
    def test_search_matches_product_enumeration(self, n_max, colors, depth):
        assert verify_all_colorings(n_max, colors, depth) == enumerate_colorings(
            n_max, colors, depth
        )

    def test_least_failing_three_coloring_of_thirteen(self):
        outcome = verify_all_colorings(13, 3, 2)
        assert outcome == HindmanFailure(
            13, 3, 2, (0, 1, 1, 0, 2, 2, 0, 2, 2, 0, 1, 1, 0)
        )

    def test_every_three_coloring_of_fourteen(self):
        # S(3) = 13; the 3**14 colorings outnumber the default node budget
        outcome = verify_all_colorings(14, 3, 2)
        assert isinstance(outcome, HindmanVerified)
        assert outcome.colorings_checked == 3**14

    @pytest.mark.parametrize("parts", range(5))
    def test_partitions_are_the_candidate_tuples_of_one_sum(self, parts):
        for total in range(14):
            assert sorted(_partitions(total, parts)) == sorted(
                t for t in _candidate_generators(total, parts) if sum(t) == total
            )

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


def density_oracle(ws, length):
    """window_density by prefix sums over every integer of the window."""
    if not 1 <= length <= ws.length:
        raise BadLength(
            f"length {length} does not fit window [{ws.lo}, {ws.hi})"
        )
    prefix = [0]
    for n in range(ws.lo, ws.hi):
        prefix.append(prefix[-1] + (1 if n in ws.members else 0))
    counts = [
        prefix[s + length] - prefix[s] for s in range(ws.length - length + 1)
    ]
    return Fraction(max(counts), length), Fraction(min(counts), length)


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

    def test_matches_prefix_sum_oracle(self):
        rng = random.Random(15)
        for trial in range(400):
            lo = rng.randint(-60, 40)
            hi = lo + rng.randint(1, 90)
            shape = trial % 4
            if shape == 0:  # empty or full
                members = range(lo, hi) if rng.random() < 0.5 else ()
            elif shape == 1:  # dense
                members = [n for n in range(lo, hi) if rng.random() < 0.8]
            elif shape == 2:  # sparse
                members = rng.sample(range(lo, hi), min(3, hi - lo))
            else:
                members = [n for n in range(lo, hi) if rng.random() < 0.4]
            ws = WindowSet(lo, hi, frozenset(members))
            width = hi - lo
            lengths = {1, width, rng.randint(1, width), width + 1, 0, -rng.randint(1, 3)}
            for length in lengths:
                try:
                    want = density_oracle(ws, length)
                except BadLength as exc:
                    with pytest.raises(BadLength, match=re.escape(str(exc))):
                        window_density(ws, length)
                else:
                    assert window_density(ws, length) == want, (ws, length)

    def test_sparse_members_in_a_wide_window(self):
        # the prefix sums walk all 10**7 integers: about 3 s and 170 MB
        ws = WindowSet.from_csv_text("5\n17\n9999990\n", 0, 10**7)
        start = time.perf_counter()
        assert window_density(ws, 13) == (Fraction(2, 13), Fraction(0))
        assert window_density(ws, 10**7) == (Fraction(3, 10**7),) * 2
        assert window_density(ws, 10**7 - 6) == (
            Fraction(3, 10**7 - 6), Fraction(2, 10**7 - 6)
        )
        assert time.perf_counter() - start < 1.0


def structure_oracle(ws, run_threshold, gap_threshold):
    """structure_classify by brute force: runs and pieces found by
    separate scans, and run_threshold-runs by testing every start."""
    members = sorted(ws.members)
    max_gap = None
    if len(members) >= 2:
        max_gap = max(b - a for a, b in zip(members, members[1:]))

    runs = []
    i = 0
    while i < len(members):
        j = i
        while j + 1 < len(members) and members[j + 1] == members[j] + 1:
            j += 1
        runs.append(j - i + 1)
        i = j + 1
    max_run = max(runs, default=0)

    syndetic_bound = None
    if members:
        stretches = [members[0] - ws.lo, ws.hi - 1 - members[-1]]
        stretches += [b - a - 1 for a, b in zip(members, members[1:])]
        syndetic_bound = max(stretches) + 1

    piece_spans = []
    i = 0
    while i < len(members):
        j = i
        while j + 1 < len(members) and members[j + 1] - members[j] <= gap_threshold:
            j += 1
        piece_spans.append(members[j] - members[i] + 1)
        i = j + 1

    starts = [
        p
        for p in range(ws.lo, ws.hi - run_threshold + 1)
        if all(q in ws.members for q in range(p, p + run_threshold))
    ]
    thickly = False
    if starts:
        gaps = [starts[0] - ws.lo, ws.hi - run_threshold - starts[-1]]
        gaps += [b - a - 1 for a, b in zip(starts, starts[1:])]
        thickly = max(gaps) <= gap_threshold

    return StructureReport(
        member_count=len(members),
        max_gap=max_gap,
        max_run=max_run,
        syndetic_bound=syndetic_bound,
        thick_runs=sum(1 for r in runs if r >= run_threshold),
        syndetic_indicator=(
            syndetic_bound is not None and syndetic_bound <= gap_threshold
        ),
        thick_indicator=max_run >= run_threshold,
        piecewise_syndetic_indicator=any(
            span >= run_threshold for span in piece_spans
        ),
        thickly_syndetic_indicator=thickly,
        run_threshold=run_threshold,
        gap_threshold=gap_threshold,
    )


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

    @given(
        lo=st.integers(-30, 30),
        bits=st.lists(st.booleans(), min_size=1, max_size=80),
        run_threshold=st.integers(1, 12),
        gap_threshold=st.integers(1, 12),
    )
    def test_matches_oracle(self, lo, bits, run_threshold, gap_threshold):
        members = frozenset(lo + i for i, bit in enumerate(bits) if bit)
        ws = WindowSet(lo, lo + len(bits), members)
        assert structure_classify(
            ws, run_threshold=run_threshold, gap_threshold=gap_threshold
        ) == structure_oracle(ws, run_threshold, gap_threshold)

    @pytest.mark.parametrize(
        ("run_threshold", "gap_threshold"), [(0, 10), (10, 0), (-1, -1)]
    )
    def test_thresholds_below_one(self, run_threshold, gap_threshold):
        ws = WindowSet.from_predicate(lambda n: True, 0, 20)
        with pytest.raises(ValueError, match="thresholds must be >= 1"):
            structure_classify(
                ws, run_threshold=run_threshold, gap_threshold=gap_threshold
            )


class TestWindowSetIngestion:
    def test_predicates(self):
        assert builtin_predicate("evens")(4)
        assert builtin_predicate("squares")(49)
        assert not builtin_predicate("squares")(-4)
        assert builtin_predicate("squares")((2**60 + 1) ** 2)
        assert not builtin_predicate("squares")(10**400 + 1)
        assert builtin_predicate("squares")(10**400)
        assert builtin_predicate("multiples:7")(21)
        assert builtin_predicate("multiples:-3")(-6)
        with pytest.raises(ValueError):
            builtin_predicate("nonsense")
        with pytest.raises(ValueError, match="^multiples:0 is not a valid predicate$"):
            builtin_predicate("multiples:0")

    @pytest.mark.parametrize("name, text", [
        ("multiples:x", "x"), ("multiples:", ""), ("multiples:1.5", "1.5"),
    ])
    def test_multiples_names_a_non_integer_k(self, name, text):
        message = f"predicate {name!r}: k is not an integer: {text!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            builtin_predicate(name)

    def test_catalogue_lists_the_members_of_the_scan(self):
        def scan(predicate, lo, hi):
            return WindowSet(lo, hi, frozenset(n for n in range(lo, hi) if predicate(n)))

        def outcome(fn, *args):
            try:
                return fn(*args)
            except ValueError as exc:  # an empty window
                return type(exc), str(exc)

        rng = random.Random(7)
        names = ["evens", "squares"] + [
            f"multiples:{k}" for k in (1, 2, 3, -3, 7, -1, -250, 250)
        ]
        for _ in range(2000):
            predicate = builtin_predicate(rng.choice(names))
            r = rng.choice([0, 1, 2, 5, 40, 10**6])
            lo = rng.randint(-300, 300) + r * r
            hi = lo + rng.choice([-2, 0, 1, 1, rng.randint(2, 600)])
            got = outcome(WindowSet.from_predicate, predicate, lo, hi)
            assert got == outcome(scan, predicate, lo, hi), (lo, hi)

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
