import hashlib
import random

import pytest

from franklopt import reference
from franklopt.families import family_from_masks, make_family
from franklopt.models import ModelInstance, ModelKind
from franklopt.solver import SearchBudget, Status, solve
from franklopt.verify import (
    PASS,
    VACUOUS,
    WARNING,
    TableEntry,
    ValueTable,
    append_cache,
    check_falgas_ravry,
    check_properties,
    check_stability,
    compare_to_reference,
    compute_grid,
    load_cache,
)


def small_grid(**kwargs):
    table = compute_grid(ModelKind.F, range(1, 5), range(1, 9), **kwargs)
    table.merge(compute_grid(ModelKind.G, range(3, 5), range(2, 17), **kwargs))
    return table


class TestReferenceData:
    def test_fingerprint_pinned(self):
        assert reference.fingerprint() == reference.PINNED_FINGERPRINT

    def test_tables_overlap_consistently(self):
        for key, value in reference.CORE_F.items():
            if key in reference.EXTENDED_F:
                assert reference.EXTENDED_F[key] == value
        for key, value in reference.CORE_G.items():
            if value is not None and key in reference.EXTENDED_G:
                assert reference.EXTENDED_G[key] == value

    def test_core_f_trivial_regime(self):
        for (_, n, a), value in reference.CORE_F.items():
            if a >= 1 << (n - 1):
                assert value == 1 << n

    def test_core_g_dashes_exactly_where_overfull(self):
        for (_, n, m), value in reference.CORE_G.items():
            assert (value is None) == (m > 1 << n)

    def test_erratum_cells_present_verbatim(self):
        assert reference.EXTENDED_F["f", 6, 24] == 43
        assert reference.EXTENDED_F["f", 7, 24] == 42
        assert reference.TWIN_FT["ft", 2, 2] is None

    def test_erratum_allow_list(self):
        # the witness-refuted published 42s of the a=24 row, not its n=6 43
        assert reference.SUSPECTED_ERRATA == {
            ("f", 7, 24),
            ("f", 8, 24),
            ("f", 9, 24),
            ("ft", 2, 2),
        }

    def test_lookup_returns_all_occurrences(self):
        tags = {tag for tag, _ in reference.lookup("f", 3, 3)}
        assert tags == {"f-core", "f-extended"}


class TestComputeGrid:
    def test_values_match_reference(self):
        # cells with a >= 2^(n-1) are filled as 2^n with no search
        table = compute_grid(ModelKind.F, range(1, 5), range(1, 9))
        assert len(table.entries) == 32
        for (kind, n, a), entry in table.entries.items():
            assert entry.value == reference.CORE_F[kind, n, a]
            assert entry.provenance == ("trivial" if a >= 1 << (n - 1) else "solver")

    def test_skip_trivial_tags_analytic_cells(self):
        # the trivial rule needs no switch: f(3,7) is filled as 2^3 unsearched
        table = compute_grid(ModelKind.F, range(3, 5), range(1, 9))
        entry = table.get("f", 3, 7)
        assert entry.value == 8
        assert entry.provenance == "trivial"
        assert table.get("f", 3, 3).provenance == "solver"

    @pytest.mark.parametrize("n", [0, 17])
    def test_ground_size_out_of_range_rejected(self, n):
        # trivial cells too: f(17, 2^16) would otherwise read 2^17 unchecked
        with pytest.raises(ValueError, match="out of range"):
            compute_grid(ModelKind.F, [n], [1 << 16])

    def test_budget_abort_leaves_missing_cell_and_warning(self):
        table = compute_grid(
            ModelKind.F, [5], [12], budget=SearchBudget(max_nodes=1000)
        )
        assert table.get("f", 5, 12) is None
        assert any("budget exhausted" in w for w in table.warnings)

    def test_parallel_workers_match_sequential(self):
        seq = compute_grid(ModelKind.GT, range(2, 5), range(2, 9))
        par = compute_grid(ModelKind.GT, range(2, 5), range(2, 9), workers=2)
        assert seq.entries == par.entries

    def test_single_cell_solve_matches_sequential(self):
        # one cell to solve runs in this process, whatever the worker count
        seq = compute_grid(ModelKind.F, [5], [9])
        par = compute_grid(ModelKind.F, [5], [9], workers=2)
        assert par.entries == seq.entries == {("f", 5, 9): TableEntry(17, "solver")}
        assert not par.warnings

    @pytest.mark.parametrize("workers,size", [(8, 3), (2, 2)])
    def test_pool_no_larger_than_cells_left(self, monkeypatch, tmp_path, workers, size):
        # a recording stand-in for the pool: it solves in this process
        import multiprocessing

        class RecordingPool:
            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, func, jobs, chunksize=None):
                chunks.append(chunksize)
                return [func(job) for job in jobs]

        sizes, chunks = [], []
        monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
        path = tmp_path / "cache.txt"
        compute_grid(ModelKind.F, [4], [1, 2], cache_path=path)  # two cells cached
        table = compute_grid(ModelKind.F, [4], range(1, 6), cache_path=path, workers=workers)
        assert sizes == [size]
        assert chunks == [1]  # one cell per task: cell times differ widely
        assert table.entries == compute_grid(ModelKind.F, [4], range(1, 6)).entries

    def test_params_iterator_covers_every_n(self):
        # params is read once, not once per n
        listed = compute_grid(ModelKind.F, [2, 3], [1, 2])
        iterated = compute_grid(ModelKind.F, [2, 3], iter([1, 2]))
        assert len(listed.entries) == 4
        assert iterated.entries == listed.entries

    def test_unwritable_cache_fails_before_any_solve(self, monkeypatch, tmp_path):
        def fail(*args, **kwargs):
            raise AssertionError("solve called before the cache was opened")

        monkeypatch.setattr("franklopt.verify.solve", fail)
        path = tmp_path / "missing" / "c.txt"
        with pytest.raises(OSError):
            compute_grid(ModelKind.F, [3], [1, 2], cache_path=path)
        assert not path.parent.exists()

    def test_single_cell_budget_abort(self):
        table = compute_grid(
            ModelKind.F, [5], [12], budget=SearchBudget(max_nodes=1000), workers=2
        )
        assert not table.entries
        assert len(table.warnings) == 1
        assert table.warnings[0].startswith("f(5,12): budget exhausted")


class TestCache:
    def test_round_trip_and_reuse(self, tmp_path):
        path = tmp_path / "cache.txt"
        table = compute_grid(ModelKind.F, range(1, 4), range(1, 5), cache_path=path)
        again = compute_grid(ModelKind.F, range(1, 4), range(1, 5), cache_path=path)
        assert again.entries == table.entries
        loaded = load_cache(path)
        assert loaded.entries == table.entries

    def test_last_writer_wins(self, tmp_path):
        path = tmp_path / "cache.txt"
        append_cache(path, {("f", 3, 3): TableEntry(99, "solver")})
        append_cache(path, {("f", 3, 3): TableEntry(5, "solver")})
        assert load_cache(path).value("f", 3, 3) == 5

    def test_infeasible_serialized_as_inf(self, tmp_path):
        path = tmp_path / "cache.txt"
        compute_grid(ModelKind.G, [2], [5], cache_path=path)
        assert "g 2 5 INF solver" in path.read_text()
        assert load_cache(path).get("g", 2, 5).value is None

    def test_malformed_record_rejected(self, tmp_path):
        path = tmp_path / "cache.txt"
        path.write_text("f 3 3 5\n")
        with pytest.raises(ValueError, match="malformed"):
            load_cache(path)

    @pytest.mark.parametrize(
        "record",
        [
            "F 3 3 5 solver",
            "q 3 3 5 solver",
            "f 0 3 5 solver",
            "f 17 3 5 solver",
            "f 3 -2 7 whatever",
            "f 3 x 5 solver",
            "f 3 3 -1 solver",
            "f 3 3 five solver",
            "f 3 3 5 solver extra",
            "f 3 3 5 whatever",
            "f 3 3 5 oracle",
        ],
    )
    def test_invalid_record_rejected(self, tmp_path, record):
        # a key no lookup reaches, an instance that does not exist, a
        # value that is neither INF nor a non-negative integer, or an
        # unknown provenance (nothing writes oracle)
        path = tmp_path / "cache.txt"
        path.write_text(f"# header\nf 3 2 4 solver\n{record}\n")
        with pytest.raises(ValueError, match="cache.txt:3: malformed"):
            load_cache(path)

    def test_trivial_rule_overrides_cache(self, tmp_path):
        path = tmp_path / "cache.txt"
        append_cache(path, {("f", 3, 4): TableEntry(7, "solver")})
        table = compute_grid(ModelKind.F, [3], [4], cache_path=path)
        assert table.get("f", 3, 4) == TableEntry(8, "trivial")
        assert load_cache(path).get("f", 3, 4) == TableEntry(8, "trivial")
        text = path.read_text()
        compute_grid(ModelKind.F, [3], [4], cache_path=path)
        assert path.read_text() == text  # a matching record is not appended again

    def test_spot_check_revalidates_against_fresh_solves(self, tmp_path):
        path = tmp_path / "cache.txt"
        compute_grid(ModelKind.G, range(3, 5), range(2, 17), cache_path=path)
        loaded = load_cache(path)
        rng = random.Random(3)
        cells = rng.sample(sorted(loaded.entries), 5)
        for kind, n, param in cells:
            out = solve(ModelInstance(ModelKind(kind), n, param))
            fresh = out.value if out.status is Status.OPTIMAL else None
            assert loaded.value(kind, n, param) == fresh


class TestCompareToReference:
    def test_clean_grid_all_pass(self):
        report = compare_to_reference(small_grid())
        assert report.ok
        assert report.counts()[PASS] > 0
        assert WARNING not in report.counts()

    def test_injected_fault_fails_with_both_values(self):
        table = ValueTable()
        table.put("f", 3, 3, TableEntry(6, "solver"))
        report = compare_to_reference(table)
        assert not report.ok
        assert any("computed=6" in i.detail and "reference=5" in i.detail for i in report.failures)

    def test_erratum_cell_downgrades_to_warning_with_solver_value(self):
        table = ValueTable()
        table.put("ft", 2, 2, TableEntry(4, "solver"))
        report = compare_to_reference(table)
        assert report.ok
        items = [i for i in report.items if i.verdict == WARNING]
        assert len(items) == 1
        assert "computed=4" in items[0].detail
        assert "reference=INF" in items[0].detail
        assert "erratum" in items[0].detail

    def test_erratum_downgrade_requires_computed_provenance(self):
        table = ValueTable()
        table.put("ft", 2, 2, TableEntry(4, "reference"))
        assert not compare_to_reference(table).ok

    def test_refuting_witness_on_erratum_cell_warns_with_both_values(self):
        # the power set of [2] meets the ft(2,2) constraints; published "-"
        witness = family_from_masks(2, range(4))
        report = compare_to_reference(ValueTable(), {("ft", 2, 2): witness})
        assert report.ok
        items = [i for i in report.items if i.verdict == WARNING]
        assert [i.cell for i in items] == ["ft(2,2)@ft-twin"]
        assert "computed>=4" in items[0].detail
        assert "reference=INF" in items[0].detail
        assert "erratum" in items[0].detail

    def test_refuting_witness_off_the_allow_list_fails(self, monkeypatch):
        monkeypatch.setattr(reference, "SUSPECTED_ERRATA", frozenset())
        witness = family_from_masks(2, range(4))
        report = compare_to_reference(ValueTable(), {("ft", 2, 2): witness})
        assert [i.cell for i in report.failures] == ["ft(2,2)@ft-twin"]
        assert "computed>=4 reference=INF" in report.failures[0].detail
        assert WARNING not in report.counts()

    def test_consistent_witness_bounds_pass(self):
        # f(3,3)=5 >= 4 sets; g(3,5)=3 <= frequency 4 of element 1
        witnesses = {
            ("f", 3, 3): make_family(3, [[], [1], [1, 2], [1, 2, 3]]),
            ("g", 3, 5): make_family(3, [[], [1], [1, 2], [1, 3], [1, 2, 3]]),
        }
        report = compare_to_reference(ValueTable(), witnesses)
        assert report.counts() == {PASS: 4}

    def test_witness_failing_recheck_fails(self):
        # {1} and {2} without their union; also a family on the wrong [n]
        witnesses = {
            ("f", 3, 3): make_family(3, [[1], [2]]),
            ("f", 4, 3): make_family(3, [[1]]),
        }
        report = compare_to_reference(ValueTable(), witnesses)
        assert [i.cell for i in report.failures] == ["f(3,3)@witness", "f(4,3)@witness"]
        assert "violates" in report.failures[0].detail
        assert report.failures[0].detail == "witness violates union"
        assert not any(i.verdict == PASS for i in report.items)

    def test_machine_lines_format(self):
        table = ValueTable()
        table.put("f", 3, 3, TableEntry(5, "solver"))
        lines = compare_to_reference(table).machine_lines()
        assert "CHECK reference f(3,3)@f-core pass" in lines


class TestCheckProperties:
    def test_clean_grid_passes(self):
        report = check_properties(small_grid())
        assert report.ok
        assert report.counts()[PASS] > 50

    def test_single_n_mostly_vacuous(self):
        table = compute_grid(ModelKind.F, [3], range(1, 9))
        report = check_properties(table)
        assert report.ok
        assert all(
            item.verdict == VACUOUS
            for item in report.items
            if item.cell.startswith("P1")
        )

    def test_injected_fault_detected(self):
        table = small_grid()
        table.put("g", 4, 10, TableEntry(5, "solver"))
        report = check_properties(table)
        assert not report.ok

    def test_twin_properties_on_table2_range(self):
        table = compute_grid(ModelKind.FT, range(1, 5), range(1, 9))
        table.merge(compute_grid(ModelKind.GT, range(1, 5), range(1, 17)))
        report = check_properties(table)
        assert report.ok
        assert any(i.cell.startswith("T1") and i.verdict == PASS for i in report.items)
        assert any(i.cell.startswith("T2") and i.verdict == PASS for i in report.items)
        assert any(i.cell.startswith("T3") and i.verdict == PASS for i in report.items)
        # beyond saturation (a > 2^(n-1)) the inversion is not claimed:
        # gt(2, ft(2,3)) = gt(2,4) = 2 != 3 is fine and must stay vacuous
        saturated = [i for i in report.items if i.cell == "T2:gt(2,ft(2,3))=3"]
        assert [i.verdict for i in saturated] == [VACUOUS]


class TestCheckStability:
    def test_f_and_g_columns_stable(self):
        report = check_stability(small_grid())
        assert report.ok
        # 7 f-column pairs and 7 g-column pairs are covered by this grid;
        # the n=4 cells have no n=5 partner and stay vacuous
        assert report.counts()[PASS] == 14
        assert report.counts()[VACUOUS] > 0

    def test_missing_next_column_vacuous(self):
        table = compute_grid(ModelKind.F, [3], [2])
        report = check_stability(table)
        assert [i.verdict for i in report.items] == [VACUOUS]

    def test_counterexample_flagged(self):
        table = ValueTable()
        table.put("f", 3, 2, TableEntry(4, "solver"))
        table.put("f", 4, 2, TableEntry(5, "solver"))
        report = check_stability(table)
        assert not report.ok
        assert "counterexample" in report.failures[0].detail

    def test_below_threshold_not_asserted(self):
        # f(1,2)=2 vs f(2,2)=4 differ, but n=1 < ceil(log2 2)+1 = 2
        table = ValueTable()
        table.put("f", 1, 2, TableEntry(2, "solver"))
        table.put("f", 2, 2, TableEntry(4, "solver"))
        report = check_stability(table)
        assert all(not i.cell.startswith("S:f(1,2)") for i in report.items)
        assert report.ok


class TestCheckFalgasRavry:
    def test_constant_rows_pass(self):
        table = compute_grid(ModelKind.F, range(1, 7), range(1, 5))
        report = check_falgas_ravry(table)
        assert report.ok
        assert report.counts()[PASS] >= 9  # (n,a) pairs with n > a, n <= 6, a <= 4

    def test_empty_applicable_range_vacuous(self):
        table = compute_grid(ModelKind.F, [3], [8])
        report = check_falgas_ravry(table)
        assert report.items == []
        assert report.ok

    def test_missing_previous_column_vacuous(self):
        table = ValueTable()
        table.put("f", 4, 3, TableEntry(5, "solver"))
        report = check_falgas_ravry(table)
        assert [i.verdict for i in report.items] == [VACUOUS]


def published_table():
    table = ValueTable()
    for cells in reference.REFERENCE_TABLES.values():
        for cell, value in cells.items():
            table.put(*cell, TableEntry(value, "reference"))
    return table


def perturbed(base, rng, mode):
    """A copy of `base` with a few cells deleted (mode 0), set infeasible
    (1) or moved by +-1 or +-2 (2), or a random sub-table (3)."""
    if mode == 3:
        keep = rng.random()
        return ValueTable({c: e for c, e in base.entries.items() if rng.random() < keep})
    table = ValueTable(dict(base.entries))
    for cell in rng.sample(sorted(base.entries), rng.randint(1, 12)):
        value = table.entries[cell].value
        if mode == 0:
            del table.entries[cell]
        elif mode == 1:
            table.entries[cell] = TableEntry(None, "reference")
        elif value is not None:
            table.entries[cell] = TableEntry(value + rng.choice((-2, -1, 1, 2)), "reference")
    return table


# sha256 over render(), machine_lines() and the item details of each
# checker on the published table and 200 seeded perturbations of it
PINNED_CHECKER_DIGESTS = {
    "check_properties": "70848c4617d662992872825ed0b1ae8fcc71511e6147031efe0eb1786d1930ae",
    "check_stability": "472a927ba4a6d72c50bc2c4279c6f107a4c7d34ecd2ab515b2814c607e02aaf3",
    "check_falgas_ravry": "9fe3c72ba89ef2d99a95dab9d1afb9e7ffb83db93e41ac9ba04ff4cad02c38dd",
}


class TestCheckerDigests:
    def test_reports_pinned_on_perturbed_tables(self):
        base = published_table()
        rng = random.Random(11)
        tables = [base] + [perturbed(base, rng, i % 4) for i in range(200)]
        digests = {}
        for checker in (check_properties, check_stability, check_falgas_ravry):
            digest = hashlib.sha256()
            for table in tables:
                report = checker(table)
                digest.update(report.render().encode())
                digest.update("\n".join(report.machine_lines()).encode())
                # render() prints no vacuous detail, so pin those reasons too
                digest.update("\n".join(item.detail for item in report.items).encode())
            digests[checker.__name__] = digest.hexdigest()
        assert digests == PINNED_CHECKER_DIGESTS
