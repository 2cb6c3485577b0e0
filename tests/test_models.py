import itertools
import random
import tracemalloc
from pathlib import Path

import pytest

from franklopt.families import (
    MAX_GROUND_SET,
    clone_element,
    family_from_masks,
    is_union_closed,
    make_family,
    min_nontrivial_twin_count,
    read_family,
)
from franklopt.models import (
    ModelInstance,
    ModelKind,
    build,
    check_feasible,
    objective_value,
    var_x,
)

GOLDEN = Path(__file__).parent / "golden"
INTRO = make_family(3, [[], [1, 2], [1, 3], [1, 2, 3]])


def count_union_pairs(n):
    """Oracle: unordered pairs of distinct proper subsets of their union."""
    count = 0
    for s in range(1 << n):
        for t, u in itertools.combinations(range(1 << n), 2):
            if t | u == s and t != s and u != s:
                count += 1
    return count


def assignment_from_bits(n, bits):
    return {var_x(m): bits >> m & 1 for m in range(1 << n)}


def union_rows_satisfied(system, assignment):
    return all(c.evaluate(assignment) for c in system.by_prefix("u"))


class TestModelInstance:
    def test_kind_parse(self):
        assert ModelKind("ft") is ModelKind.FT
        for token in ("FT", "F", "q"):
            with pytest.raises(ValueError):
                ModelKind(token)

    def test_validation(self):
        with pytest.raises(ValueError):
            ModelInstance(ModelKind.F, 0, 1)
        with pytest.raises(ValueError):
            ModelInstance(ModelKind.F, 17, 1)
        with pytest.raises(ValueError):
            ModelInstance(ModelKind.G, 3, 0)

    def test_overfull_g_instance_constructible(self):
        ModelInstance(ModelKind.G, 2, 5)  # solves to infeasible, still legal


class TestBuild:
    def test_f22_shape(self):
        system = build(ModelInstance(ModelKind.F, 2, 2))
        assert len(system.by_prefix("u")) == 1
        assert len(system.by_prefix("deg")) == 2
        assert len(system.binaries) == 4
        assert system.maximize
        assert not system.unit_interval

    def test_union_row_counts_match_enumeration(self):
        for n in (1, 2, 3):
            system = build(ModelInstance(ModelKind.F, n, 2))
            assert len(system.by_prefix("u")) == count_union_pairs(n)
        assert len(build(ModelInstance(ModelKind.F, 3, 1)).by_prefix("u")) == 9

    def test_g_rows(self):
        system = build(ModelInstance(ModelKind.G, 3, 5))
        assert len(system.by_prefix("ord")) == 2
        assert len(system.by_prefix("card")) == 1
        assert not system.maximize
        (card,) = system.by_prefix("card")
        assert card.rhs == 5
        assert len(card.terms) == 8

    def test_ord_rows_cancel_shared_masks(self):
        system = build(ModelInstance(ModelKind.G, 3, 5))
        for row in system.by_prefix("ord"):
            names = [var for _, var in row.terms]
            assert len(names) == len(set(names))

    def test_twin_rows(self):
        n = 3
        system = build(ModelInstance(ModelKind.FT, n, 4))
        # one z per (element, little) with little not containing the element
        assert len(system.unit_interval) == n * (1 << (n - 1))
        assert len(system.by_prefix("tl")) == 2 * len(system.unit_interval)
        covers = system.by_prefix("tc")
        assert len(covers) == n
        # trivial little twins (size n-1) are excluded from the cover sums
        for row in covers:
            assert len(row.terms) == (1 << (n - 1)) - 1

    def test_deterministic(self):
        a = build(ModelInstance(ModelKind.GT, 3, 6))
        b = build(ModelInstance(ModelKind.GT, 3, 6))
        assert a == b

    def test_param_free_blocks_shared_across_kinds_and_params(self):
        f = build(ModelInstance(ModelKind.F, 5, 3))
        gt = build(ModelInstance(ModelKind.GT, 5, 20))
        ft = build(ModelInstance(ModelKind.FT, 5, 7))
        assert len(f.by_prefix("u")) == count_union_pairs(5)
        assert all(a is b for a, b in zip(f.by_prefix("u"), gt.by_prefix("u"), strict=True))
        assert all(a is b for a, b in zip(ft.by_prefix("t"), gt.by_prefix("t"), strict=True))
        assert ft.unit_interval is gt.unit_interval
        assert all(a is b for a, b in zip(f.binaries, gt.binaries, strict=True))
        # the per-parameter rows are not shared
        assert ft.by_prefix("deg")[0].rhs == 7
        assert f.by_prefix("deg")[0].rhs == 3

    def test_held_systems_share_memory(self):
        # every n=8 system holds the same 26,335 union rows; held as
        # separate copies, 16 systems took 235.7 MB
        build(ModelInstance(ModelKind.GT, 8, 9))
        tracemalloc.start()
        try:
            held = [build(ModelInstance(k, 8, p)) for k in ModelKind for p in (5, 9, 20, 40)]
            traced = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(held) == 16
        assert traced < 16 * 2**20

    def test_union_rows_characterize_union_closedness_n3(self):
        system = build(ModelInstance(ModelKind.F, 3, 8))
        for bits in range(1 << 8):
            fam = family_from_masks(3, [m for m in range(8) if bits >> m & 1])
            got = union_rows_satisfied(system, assignment_from_bits(3, bits))
            assert got == is_union_closed(fam)

    def test_union_rows_characterize_union_closedness_n4_sampled(self):
        system = build(ModelInstance(ModelKind.F, 4, 8))
        rng = random.Random(5)
        for _ in range(500):
            bits = rng.getrandbits(16)
            fam = family_from_masks(4, [m for m in range(16) if bits >> m & 1])
            got = union_rows_satisfied(system, assignment_from_bits(4, bits))
            assert got == is_union_closed(fam)

    def test_ord_chain_implies_all_pairwise(self):
        system = build(ModelInstance(ModelKind.G, 4, 8))
        rng = random.Random(9)
        for _ in range(300):
            bits = rng.getrandbits(16)
            assignment = assignment_from_bits(4, bits)
            if not all(c.evaluate(assignment) for c in system.by_prefix("ord")):
                continue
            freq = [
                sum(bits >> m & 1 for m in range(16) if m >> e & 1) for e in range(4)
            ]
            assert all(freq[i] >= freq[j] for i in range(4) for j in range(i, 4))


class TestCheckFeasible:
    def test_intro_feasible_f33(self):
        assert check_feasible(ModelInstance(ModelKind.F, 3, 3), INTRO).feasible

    def test_intro_degree_violation(self):
        report = check_feasible(ModelInstance(ModelKind.F, 3, 2), INTRO)
        assert not report.feasible
        assert "deg1" in report.violations

    def test_intro_twin_cover_violation(self):
        report = check_feasible(ModelInstance(ModelKind.FT, 3, 3), INTRO)
        assert not report.feasible
        assert "tc1" in report.violations

    def test_non_union_closed_flagged(self):
        fam = make_family(2, [[1], [2]])
        report = check_feasible(ModelInstance(ModelKind.F, 2, 2), fam)
        assert not report.feasible
        assert any(v.startswith("u") for v in report.violations)

    def test_ground_set_mismatch(self):
        with pytest.raises(ValueError):
            check_feasible(ModelInstance(ModelKind.F, 4, 3), INTRO)

    def test_twin_cover_matches_family_core_on_all_uc_families_n3(self):
        problem = ModelInstance(ModelKind.FT, 3, 8)
        for bits in range(1, 1 << 8):
            fam = family_from_masks(3, [m for m in range(8) if bits >> m & 1])
            if not is_union_closed(fam):
                continue
            expected = min_nontrivial_twin_count(fam) >= 1
            report = check_feasible(problem, fam)
            tc_ok = not any(v.startswith("tc") for v in report.violations)
            assert tc_ok == expected

    def test_frequency_order_violation(self):
        # element 2 is in four sets, element 1 in only two
        fam = make_family(3, [[], [2], [1, 2], [2, 3], [1, 2, 3]])
        report = check_feasible(ModelInstance(ModelKind.G, 3, 5), fam)
        assert report.violations == ("ord1",)

    def test_set_count_violation(self):
        report = check_feasible(ModelInstance(ModelKind.G, 3, 5), INTRO)
        assert report.violations == ("card",)

    def test_widest_ground_set(self):
        fam = read_family(GOLDEN / "f_n6_a24.fam")
        while fam.n < MAX_GROUND_SET:
            fam = clone_element(fam, 1)
        inst = ModelInstance(ModelKind.F, MAX_GROUND_SET, 24)
        assert check_feasible(inst, fam).feasible
        assert objective_value(inst, fam) == 43


class TestObjectiveValue:
    def test_intro_values(self):
        assert objective_value(ModelInstance(ModelKind.F, 3, 3), INTRO) == 4
        assert objective_value(ModelInstance(ModelKind.G, 3, 4), INTRO) == 3

    def test_empty_family(self):
        empty = family_from_masks(3, [])
        assert objective_value(ModelInstance(ModelKind.F, 3, 1), empty) == 0
        assert objective_value(ModelInstance(ModelKind.G, 3, 1), empty) == 0

    def test_mismatch(self):
        with pytest.raises(ValueError):
            objective_value(ModelInstance(ModelKind.F, 2, 1), INTRO)
