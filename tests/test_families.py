import itertools
import random
import time
import tracemalloc
from functools import reduce
from operator import or_

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from franklopt.families import (
    MAX_GROUND_SET,
    Family,
    add_largest_missing_set,
    clone_element,
    degree,
    delete_element,
    elements_from_mask,
    falgas_ravry_sets,
    family_from_masks,
    family_from_text,
    family_to_text,
    frequencies,
    is_union_closed,
    make_family,
    mask_from_elements,
    min_nontrivial_twin_count,
    relabel_elements,
    remove_smallest_set,
    sort_by_frequency,
    twin_counts,
    union_closure,
)

INTRO = make_family(3, [[], [1, 2], [1, 3], [1, 2, 3]])


def power_set_family(n):
    return family_from_masks(n, range(1 << n))


def random_family(rng, n):
    population = range(1 << n)
    k = rng.randint(0, 1 << n)
    return family_from_masks(n, rng.sample(population, k))


# Independent check used as the oracle for closure/twin assertions: sets of
# frozensets, no bitmask tricks shared with the implementation.
def uc_by_frozensets(fam):
    sets = [frozenset(elements_from_mask(m)) for m in fam.sets]
    members = set(sets)
    return all(a | b in members for a in sets for b in sets)


def all_union_closed_families(n):
    """Every union-closed family on [n], enumerated by brute force."""
    out = []
    for bits in range(1 << (1 << n)):
        masks = [s for s in range(1 << n) if bits >> s & 1]
        fam = family_from_masks(n, masks)
        if uc_by_frozensets(fam):
            out.append(fam)
    return out


class TestMakeFamily:
    def test_intro_family(self):
        assert INTRO.m == 4
        assert INTRO.n == 3

    def test_single_empty_set(self):
        fam = make_family(1, [[]])
        assert fam.m == 1
        assert degree(fam) == 0

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            make_family(2, [[1], [1]])

    def test_element_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            make_family(2, [[3]])

    def test_n_out_of_range(self):
        with pytest.raises(ValueError):
            make_family(17, [[1]])
        with pytest.raises(ValueError):
            make_family(0, [])

    def test_order_insensitive_and_canonical(self):
        a = make_family(3, [[1, 2], [], [1, 2, 3], [1, 3]])
        b = make_family(3, [[3, 1], [2, 1], [1, 2, 3], []])
        assert a == b == INTRO
        assert list(a.sets) == sorted(a.sets)


class TestUnionClosed:
    def test_intro_is_union_closed(self):
        assert is_union_closed(INTRO)

    def test_missing_union(self):
        assert not is_union_closed(make_family(2, [[1], [2]]))

    def test_empty_family_vacuous(self):
        assert is_union_closed(family_from_masks(2, []))

    def test_matches_frozenset_oracle_on_random_families(self):
        rng = random.Random(7)
        for _ in range(300):
            fam = random_family(rng, rng.randint(1, 5))
            assert is_union_closed(fam) == uc_by_frozensets(fam)


@st.composite
def generator_lists(draw):
    """n = 1..16 and up to 10 masks on [n], repeats allowed."""
    n = draw(st.integers(1, MAX_GROUND_SET))
    return n, draw(st.lists(st.integers(0, (1 << n) - 1), max_size=10))


class TestUnionClosure:
    def test_singletons_generate_nonempty_subsets(self):
        fam = make_family(3, [[1], [2], [3]])
        closed = union_closure(fam)
        assert closed.sets == tuple(range(1, 8))

    def test_forced_single_union(self):
        fam = make_family(2, [[1], [2]])
        assert union_closure(fam).sets == (1, 2, 3)

    def test_idempotent_extensive_monotone(self):
        rng = random.Random(11)
        for _ in range(200):
            n = rng.randint(1, 5)
            fam = random_family(rng, n)
            closed = union_closure(fam)
            assert is_union_closed(closed)
            assert set(closed.sets) >= set(fam.sets)
            assert union_closure(closed) == closed
            sub = family_from_masks(
                n, [m for m in fam.sets if rng.random() < 0.5]
            )
            assert set(union_closure(sub).sets) <= set(closed.sets)

    def test_union_closed_input_unchanged(self):
        assert union_closure(INTRO) == INTRO

    @given(generator_lists())
    def test_unions_of_all_nonempty_generator_subsets(self, drawn):
        n, generators = drawn
        unions = {
            reduce(or_, subset)
            for k in range(1, len(generators) + 1)
            for subset in itertools.combinations(generators, k)
        }
        assert union_closure(family_from_masks(n, generators)) == family_from_masks(n, unions)

    def test_64_random_generators_at_n16_close_fast(self):
        # the closure is linear in its size times the generators: about
        # 2,100 sets here, closed in milliseconds
        rng = random.Random(5)
        fam = family_from_masks(16, [rng.getrandbits(16) for _ in range(64)])
        start = time.perf_counter()
        closed = union_closure(fam)
        assert time.perf_counter() - start < 5.0
        assert set(closed.sets) >= set(fam.sets)
        assert is_union_closed(closed)


class TestFrequencies:
    def test_intro(self):
        assert frequencies(INTRO) == (3, 2, 2)
        assert degree(INTRO) == 3

    def test_empty_family(self):
        assert frequencies(family_from_masks(4, [])) == (0, 0, 0, 0)
        assert degree(family_from_masks(4, [])) == 0

    def test_power_set(self):
        assert frequencies(power_set_family(3)) == (4, 4, 4)
        assert degree(power_set_family(4)) == 8

    def test_degree_of_empty_set_only(self):
        assert degree(make_family(2, [[]])) == 0

    def test_frequency_sum_equals_total_size(self):
        rng = random.Random(23)
        for _ in range(100):
            fam = random_family(rng, rng.randint(1, 5))
            assert sum(frequencies(fam)) == sum(m.bit_count() for m in fam.sets)
            if fam.sets:
                assert degree(fam) == max(frequencies(fam))


def scan_twin_pairs(fam, e):
    """Oracle: quadratic scan for member pairs differing exactly in e."""
    found = []
    for a, b in itertools.combinations(fam.sets, 2):
        if a ^ b == 1 << (e - 1):
            little, big = min(a, b), max(a, b)
            found.append((little, big))
    return sorted(found)


class TestMinNontrivialTwinCount:
    def test_intro(self):
        assert min_nontrivial_twin_count(INTRO) == 0

    def test_power_set_3(self):
        assert min_nontrivial_twin_count(power_set_family(3)) == 3

    def test_empty_set_family(self):
        assert min_nontrivial_twin_count(make_family(2, [[]])) == 0

    def test_twin_counts_power_set_4(self):
        nontrivial, total = twin_counts(power_set_family(4))
        assert nontrivial == (7, 7, 7, 7)
        assert total == (8, 8, 8, 8)


def direct_frequencies(fam):
    """Oracle: walk the bits of every member set."""
    counts = [0] * fam.n
    for mask in fam.sets:
        for k in range(fam.n):
            if mask >> k & 1:
                counts[k] += 1
    return tuple(counts)


def assert_predicates_match_definitions(fam):
    assert is_union_closed(fam) == uc_by_frozensets(fam)
    freq = direct_frequencies(fam)
    assert frequencies(fam) == freq
    assert degree(fam) == max(freq, default=0)
    pairs = [scan_twin_pairs(fam, e) for e in range(1, fam.n + 1)]
    total = tuple(map(len, pairs))
    nontrivial = tuple(sum(big != fam.full_mask for _, big in found) for found in pairs)
    assert twin_counts(fam) == (nontrivial, total)
    assert min_nontrivial_twin_count(fam) == min(nontrivial)


@st.composite
def families_with_generators(draw):
    """A family of up to 64 sets on [n], n = 1..16, and the union closure
    of its drawn sets: all of them for n <= 8 (at most 256 sets), the
    first six above (at most 63 sets), so the quadratic reference checks
    stay fast at any n."""
    n = draw(st.integers(1, MAX_GROUND_SET))
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=64))
    generators = masks if n <= 8 else masks[:6]
    return family_from_masks(n, masks), union_closure(family_from_masks(n, generators))


def seeded_family_and_closure(n, seed):
    """64 seeded random sets on [n] and the closure of all of them.  The
    drawn lists above are short (17 sets at most in the profile's 100
    examples), so their closures stay small; this one adds a large one."""
    rng = random.Random(seed)
    masks = [rng.getrandbits(n) for _ in range(64)]
    return family_from_masks(n, masks), union_closure(family_from_masks(n, masks))


class TestPredicatesAgainstDefinitions:
    """The bitset predicates against their direct definitions: pairwise
    unions, a per-set bit walk and a quadratic scan for twin pairs."""

    @given(families_with_generators())
    @example(seeded_family_and_closure(8, 0))  # 178-set closure
    def test_drawn_families_and_closures(self, drawn):
        fam, closure = drawn
        assert_predicates_match_definitions(fam)
        assert is_union_closed(closure)
        assert_predicates_match_definitions(closure)

    @pytest.mark.parametrize("masks", [[], [0]], ids=["empty", "empty_set_only"])
    @pytest.mark.parametrize("n", [1, 2, 5, 16])
    def test_no_element_in_any_set(self, n, masks):
        fam = family_from_masks(n, masks)
        assert_predicates_match_definitions(fam)
        assert frequencies(fam) == (0,) * n
        assert twin_counts(fam) == ((0,) * n, (0,) * n)

    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_power_set(self, n):
        fam = power_set_family(n)
        assert_predicates_match_definitions(fam)
        half = 1 << (n - 1)
        assert twin_counts(fam) == ((half - 1,) * n, (half,) * n)

    @pytest.mark.parametrize("n,e", [(1, 1), (3, 2), (6, 1), (6, 6), (16, 9)])
    def test_full_set_and_full_less_one(self, n, e):
        # the only twin pair is the trivial one, (full - {e}, full)
        full = (1 << n) - 1
        fam = family_from_masks(n, [full, full ^ 1 << (e - 1)])
        assert_predicates_match_definitions(fam)
        expected = tuple(int(k == e) for k in range(1, n + 1))
        assert twin_counts(fam) == ((0,) * n, expected)

    def test_wide_power_set_memory(self):
        # the counts build no object per pair: there are 32,768 pairs
        # per element here
        fam = power_set_family(16)
        tracemalloc.start()
        try:
            counts = twin_counts(fam)
            freq = frequencies(fam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts == (((1 << 15) - 1,) * 16, (1 << 15,) * 16)
        assert freq == (1 << 15,) * 16
        assert peak < 1_000_000


class TestCloneElement:
    def test_clone_intro(self):
        got = clone_element(INTRO, 1)
        assert got == make_family(4, [[], [1, 2, 4], [1, 3, 4], [1, 2, 3, 4]])
        assert is_union_closed(got)
        assert degree(got) == 3

    def test_clone_empty_set_family(self):
        assert clone_element(make_family(1, [[]]), 1) == make_family(2, [[]])

    def test_clone_singleton(self):
        got = clone_element(make_family(2, [[2]]), 2)
        assert got == make_family(3, [[2, 3]])
        assert degree(got) == 1

    def test_width_cap(self):
        fam = family_from_masks(16, [1])
        with pytest.raises(ValueError):
            clone_element(fam, 1)

    def test_preserves_invariants_and_inverts(self):
        rng = random.Random(31)
        for _ in range(100):
            n = rng.randint(1, 5)
            fam = union_closure(random_family(rng, n))
            e = rng.randint(1, n)
            grown = clone_element(fam, e)
            assert grown.m == fam.m
            assert degree(grown) == degree(fam)
            assert is_union_closed(grown)
            assert delete_element(grown, n + 1) == fam


class TestDeleteElement:
    def test_delete_intro(self):
        got = delete_element(INTRO, 2)
        assert got == make_family(2, [[], [1], [1, 2]])
        assert got.m == 3

    def test_delete_unused_element(self):
        fam = make_family(3, [[1], [1, 2]])
        got = delete_element(fam, 3)
        assert got.m == fam.m
        assert got == make_family(2, [[1], [1, 2]])

    def test_n1_rejected(self):
        with pytest.raises(ValueError):
            delete_element(make_family(1, [[1]]), 1)

    def test_merge_count_equals_twin_pairs_on_all_uc_families_n3(self):
        for fam in all_union_closed_families(3):
            for e in (1, 2, 3):
                k = len(scan_twin_pairs(fam, e))
                shrunk = delete_element(fam, e)
                assert shrunk.m == fam.m - k
                if fam.sets:
                    assert is_union_closed(shrunk)


class TestAddLargestMissingSet:
    def test_intro_gets_23(self):
        got = add_largest_missing_set(INTRO)
        assert got.m == 5
        assert set(got.sets) - set(INTRO.sets) == {mask_from_elements([2, 3], 3)}

    def test_power_set_minus_full(self):
        fam = family_from_masks(3, range(7))
        assert add_largest_missing_set(fam) == power_set_family(3)

    def test_empty_family_gets_full(self):
        fam = family_from_masks(2, [])
        assert add_largest_missing_set(fam).sets == (3,)

    def test_full_power_set_rejected(self):
        with pytest.raises(ValueError):
            add_largest_missing_set(power_set_family(2))

    def test_preserves_union_closedness_and_bumps_freqs_by_at_most_1(self):
        rng = random.Random(43)
        for _ in range(100):
            fam = union_closure(random_family(rng, rng.randint(1, 5)))
            if fam.m == 1 << fam.n:
                continue
            grown = add_largest_missing_set(fam)
            assert is_union_closed(grown)
            before, after = frequencies(fam), frequencies(grown)
            assert all(0 <= b - a <= 1 for a, b in zip(before, after))


class TestRemoveSmallestSet:
    def test_intro_drops_empty_set(self):
        got = remove_smallest_set(INTRO)
        assert got.m == 3
        assert 0 not in got.sets

    def test_tie_break_smallest_mask(self):
        fam = make_family(2, [[1], [2], [1, 2]])
        got = remove_smallest_set(fam)
        assert got == make_family(2, [[2], [1, 2]])
        assert is_union_closed(got)

    def test_single_set(self):
        fam = family_from_masks(3, [7])
        assert remove_smallest_set(fam).sets == ()

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            remove_smallest_set(family_from_masks(2, []))

    def test_preserves_union_closedness(self):
        rng = random.Random(59)
        for _ in range(100):
            fam = union_closure(random_family(rng, rng.randint(1, 5)))
            if not fam.sets:
                continue
            assert is_union_closed(remove_smallest_set(fam))


class TestFalgasRavry:
    def test_nonempty_power_set(self):
        fam = family_from_masks(3, range(1, 8))
        got = falgas_ravry_sets(fam)
        assert got is not None
        assert len(got) == 3
        assert len(set(got)) == 3
        top = frequencies(fam).index(max(frequencies(fam))) + 1
        bit = 1 << (top - 1)
        assert all(mask & bit for mask in got)
        assert all(mask in fam.sets for mask in got)

    def test_intro_not_applicable(self):
        # every member containing 2 also contains 1: ordered pair (2,1) has
        # no separating set
        assert falgas_ravry_sets(INTRO) is None

    def test_identical_element_columns_not_applicable(self):
        fam = make_family(2, [[1, 2]])
        assert falgas_ravry_sets(fam) is None

    def test_full_set_required(self):
        fam = make_family(2, [[1], [2]])
        assert falgas_ravry_sets(fam) is None

    def test_degree_at_least_n_whenever_applicable(self):
        rng = random.Random(61)
        seen = 0
        for _ in range(500):
            n = rng.randint(1, 5)
            fam = union_closure(random_family(rng, n))
            got = falgas_ravry_sets(fam)
            if got is None:
                continue
            seen += 1
            assert len(got) == n
            assert len(set(got)) == n
            assert all(mask in fam.sets for mask in got)
            assert degree(fam) >= n
        assert seen > 10


class TestRelabel:
    def test_sort_by_frequency(self):
        fam = make_family(3, [[3], [2, 3], [1, 2, 3]])
        got = sort_by_frequency(fam)
        fr = frequencies(got)
        assert all(fr[i] >= fr[i + 1] for i in range(len(fr) - 1))
        assert got.m == fam.m
        assert sorted(frequencies(fam)) == sorted(fr)

    def test_relabel_identity(self):
        assert relabel_elements(INTRO, [1, 2, 3]) == INTRO

    def test_relabel_bad_perm(self):
        with pytest.raises(ValueError):
            relabel_elements(INTRO, [1, 1, 2])


class TestTextFormat:
    def test_round_trip_bit_exact(self):
        rng = random.Random(71)
        for _ in range(50):
            fam = random_family(rng, rng.randint(1, 6))
            text = family_to_text(fam)
            assert family_from_text(text) == fam
            assert family_to_text(family_from_text(text)) == text

    def test_intro_format(self):
        assert family_to_text(INTRO) == "n=3\n{}\n1,2\n1,3\n1,2,3\n"

    def test_comments_and_blank_lines(self):
        text = "# intro family\nn=3\n{}\n1,2  # pair\n\n1,3\n1,2,3\n"
        assert family_from_text(text) == INTRO

    def test_missing_header(self):
        with pytest.raises(ValueError):
            family_from_text("{}\n")
