import hashlib
import random
import re
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import pytest

from franklopt import reference
from franklopt.families import (
    Family,
    degree,
    family_from_masks,
    frequencies,
    is_union_closed,
    min_nontrivial_twin_count,
)
from franklopt.models import (
    ModelInstance,
    ModelKind,
    check_feasible,
    objective_value,
)
from franklopt.solver import (
    CUTS,
    SearchBudget,
    Status,
    _block,
    _family_catalog,
    _most,
    _settle,
    exhaustive_oracle,
    solve,
)
from franklopt.verify import cell_name


GOLDEN_COUNTS = Path(__file__).parent / "golden" / "solver_counts.txt"


def inst(kind, n, param):
    return ModelInstance(ModelKind(kind), n, param)


def pinned_cells():
    """Every published n <= 4 cell, one n = 5 cell of each kind, and the
    two infeasible n = 5 twin cells the twin pairs refute."""
    cells = set()
    for table in reference.REFERENCE_TABLES.values():
        cells.update(c for c in table if c[1] <= 4)
    cells.update({("f", 5, 15), ("g", 5, 28), ("ft", 5, 15), ("gt", 5, 7)})
    cells.update({("ft", 5, 5), ("gt", 5, 6)})
    return sorted(cells)


def search_fingerprint(kind, n, param):
    """One golden line: what a single-worker solve returns and how much
    search it took to get there."""
    out = solve(inst(kind, n, param))
    masks = " ".join(map(str, out.witness.sets)) if out.witness else "-"
    cuts = " ".join(str(out.stats.cuts[reason]) for reason in CUTS)
    return (
        f"{kind} {n} {param} {out.status.value} {out.value} "
        f"{out.stats.nodes} {cuts} {masks}"
    )


COUNT_COLUMNS = ("nodes",) + CUTS


def split_fingerprint(line):
    """The answer columns (kind, n, param, status, value, witness) and the
    count columns (COUNT_COLUMNS) of one golden line."""
    cols = line.split()
    end = 5 + len(COUNT_COLUMNS)
    return cols[:5] + cols[end:], cols[5:end]


class TestSolveKnownValues:
    @pytest.mark.parametrize(
        "kind,n,param,value",
        [
            ("f", 3, 3, 5),
            ("f", 4, 7, 12),
            ("f", 4, 8, 16),
            ("f", 5, 13, 23),
            ("g", 3, 6, 4),
            ("g", 4, 10, 6),
            ("g", 5, 24, 14),
            ("ft", 4, 6, 10),
            ("ft", 5, 9, 15),
            ("gt", 4, 9, 6),
            ("gt", 5, 16, 10),
            ("gt", 5, 12, 8),
        ],
    )
    def test_optimal_values(self, kind, n, param, value):
        out = solve(inst(kind, n, param))
        assert out.status is Status.OPTIMAL
        assert out.value == value

    @pytest.mark.parametrize(
        "kind,n,param",
        [
            ("g", 2, 5),  # m > 2^n
            ("ft", 5, 5),
            ("ft", 4, 4),
            ("ft", 1, 3),
            ("gt", 4, 5),
            ("gt", 3, 9),
        ],
    )
    def test_infeasible(self, kind, n, param):
        out = solve(inst(kind, n, param))
        assert out.status is Status.INFEASIBLE
        assert out.value is None
        assert out.witness is None

    def test_trivial_regime_full_power_set(self):
        out = solve(inst("f", 4, 8))
        assert out.value == 16
        assert out.witness == family_from_masks(4, range(16))

    def test_degenerate_g_m1(self):
        out = solve(inst("g", 3, 1))
        assert out.status is Status.OPTIMAL
        assert out.value == 0
        assert out.witness.sets == (0,)

    def test_wide_ground_set_trivial_regime(self):
        # descends 2^12 decisions deep in one loop, so it needs neither a
        # higher recursion limit nor a thread with a bigger stack
        saved = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        threads = threading.active_count()
        try:
            out = solve(inst("f", 12, 1 << 11))
            assert sys.getrecursionlimit() == 1000
        finally:
            sys.setrecursionlimit(saved)
        assert threading.active_count() == threads
        assert out.status is Status.OPTIMAL
        assert out.value == 1 << 12

    def test_wide_ground_set_memory(self):
        # the search builds no per-mask table of 2^n-bit ints: one of each
        # mask's supersets alone would add 0.65 MB here
        tracemalloc.start()
        try:
            out = solve(inst("f", 11, 1 << 10))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.value == 1 << 11
        assert peak < 1_000_000


class TestSearchPinned:
    def test_counts_match_golden(self):
        # the answers never change; node and propagation counts change only
        # when the search explores a different tree: refresh the file (run
        # this module as a script) only for a change meant to alter the tree
        expected = [split_fingerprint(line) for line in GOLDEN_COUNTS.read_text().splitlines()]
        got = [split_fingerprint(search_fingerprint(*cell)) for cell in pinned_cells()]
        assert len(got) == len(expected)
        answers = [(g[0], e[0]) for g, e in zip(got, expected) if g[0] != e[0]]
        assert not answers, answers[:5]
        counts = [(g, e) for g, e in zip(got, expected) if g[1] != e[1]]
        assert not counts, counts[:5]


class TestCutReasons:
    @pytest.mark.parametrize(
        "kind,n,param,nodes,cuts",
        [
            ("g", 2, 5, 1, {"count": 1}),  # m > 2^n, cut at the root
            ("ft", 1, 3, 1, {"scan": 1}),
            ("f", 3, 3, 21, {"scan": 2, "bound": 6}),
            ("gt", 5, 6, 2552, {"count": 15, "scan": 945, "bound": 5, "cover": 216, "refused": 191}),
        ],
    )
    def test_tiny_cells(self, kind, n, param, nodes, cuts):
        stats = solve(inst(kind, n, param)).stats
        assert stats.nodes == nodes
        assert stats.cuts == {reason: cuts.get(reason, 0) for reason in CUTS}

    @pytest.mark.parametrize("n", range(1, 9))
    def test_finished_solve_closes_whole_tree(self, n):
        # the first path includes every set and reaches the power set; on
        # the way back up each exclusion is one more node, closed by a cut,
        # as no finished solve stops before its root closes
        out = solve(inst("f", n, 1 << (n - 1)))
        assert out.status is Status.OPTIMAL
        assert out.witness == family_from_masks(n, range(1 << n))
        assert out.stats.nodes == (1 << (n + 1)) + 1

    def test_every_reason_fires_on_some_golden_cell(self):
        fired = dict.fromkeys(CUTS, 0)
        for cell in pinned_cells():
            stats = solve(inst(*cell)).stats
            assert list(stats.cuts) == list(CUTS), cell
            assert stats.propagations == sum(stats.cuts.values()), cell
            assert stats.propagations <= stats.nodes, cell
            for reason, count in stats.cuts.items():
                fired[reason] += count > 0
        assert all(fired.values()), fired


def naive_blocked(included, excluded, size):
    return sum(
        1 << m for m in range(size) if any(t | m in excluded for t in included)
    )


class TestBlockedSets:
    @pytest.mark.parametrize("n", [3, 4])
    def test_incremental_update_matches_naive(self, n):
        # random include/exclude sequences in the search's decision order
        size = 1 << n
        order = sorted(range(size), key=lambda s: (-s.bit_count(), -s))
        refused = 0
        for seed in range(200):
            rng = random.Random(seed)
            p_include = rng.choice([0.3, 0.5, 0.8])
            included, excluded = set(), set()
            blocked = outbits = 0
            for mask in order:
                pairwise = all(
                    t | mask in (t, mask) or t | mask in included for t in included
                )
                assert (not blocked >> mask & 1) == pairwise, (seed, mask)
                if pairwise and rng.random() < p_include:
                    blocked = _block(blocked, outbits, mask, size - 1)
                    included.add(mask)
                else:
                    refused += not pairwise
                    outbits |= 1 << mask
                    excluded.add(mask)
                assert blocked == naive_blocked(included, excluded, size), (seed, mask)
        assert refused > 0


def naive_tie(n, order, side, first_out):
    """The tie-break state by direct comparison: for each pair of labels
    i, i+1, compare the decided sets of the family with those of its copy
    with i and i+1 swapped, in decision order."""
    tie = 0
    for i in range(n - 1):
        for mask in order:
            if mask not in side:
                break
            bits = mask >> i & 3
            swapped = mask ^ (3 << i) if bits in (1, 2) else mask
            if swapped not in side:
                break  # the copy's side here is still open
            if side[mask] != side[swapped]:
                tie |= 1 << i
                if side[mask] != first_out:  # the copy comes first
                    tie |= 1 << (n + i)
                break
    return tie


class TestTieBreak:
    @pytest.mark.parametrize("n", [3, 4])
    def test_incremental_state_matches_naive(self, n):
        # random include/exclude sequences in the search's decision order,
        # for both child orders
        size = 1 << n
        order = sorted(range(size), key=lambda s: (-s.bit_count(), -s))
        unfavourable = 0
        for seed in range(200):
            rng = random.Random(seed)
            first_out = seed % 2
            p_include = rng.choice([0.3, 0.5, 0.8])
            side = {}  # 1 for an excluded set
            tie = outbits = 0
            for mask in order:
                side[mask] = int(rng.random() >= p_include)
                outbits |= side[mask] << mask
                tie = _settle(tie, mask, outbits, n, first_out)
                assert tie == naive_tie(n, order, side, first_out), (seed, mask)
            unfavourable += tie >> n != 0
        assert 0 < unfavourable < 200


class TestClosureCounts:
    def test_most_is_largest_k_whose_pairs_fit(self):
        # most[t]: the most sets whose k(k-1)/2 pairwise unions fit in t
        most = _most(80)
        assert len(most) == 81
        for t, k in enumerate(most):
            assert k == max(j for j in range(1, 20) if j * (j - 1) // 2 <= t), t


class TestWitnessSoundness:
    @pytest.mark.parametrize(
        "kind,n,param",
        [
            ("f", 4, 5),
            ("f", 5, 11),
            ("g", 4, 13),
            ("g", 5, 19),
            ("ft", 5, 7),
            ("gt", 5, 14),
        ],
    )
    def test_witness_passes_model_check(self, kind, n, param):
        problem = inst(kind, n, param)
        out = solve(problem)
        assert out.status is Status.OPTIMAL
        report = check_feasible(problem, out.witness)
        assert report.feasible, report.violations
        assert objective_value(problem, out.witness) == out.value

    def test_g_witness_frequency_sorted(self):
        out = solve(inst("g", 4, 11))
        freqs = frequencies(out.witness)
        assert all(freqs[i] >= freqs[i + 1] for i in range(len(freqs) - 1))
        assert freqs[0] == out.value


def brute_force_catalog(n):
    """The oracle's catalog by its definition: every non-empty subset of
    the power set, in increasing family-bitmask order, kept when it is
    union-closed, with (m, degree, has twin cover, family bitmask)."""
    catalog = []
    for bits in range(1, 1 << (1 << n)):
        masks = tuple(s for s in range(1 << n) if bits >> s & 1)
        fam = Family(n, masks)
        if is_union_closed(fam):
            cover = min_nontrivial_twin_count(fam) >= 1
            catalog.append((len(masks), degree(fam), cover, bits))
    return tuple(catalog)


# sha256 over the status, value, witness sets and node count of every
# oracle answer for the four kinds, n = 1..4 and param = 1..2^n + 2
ORACLE_DIGEST = "24a70543e54821e4cd615555912fd87396920e39b10b495ef30480ff390dcaf3"


class TestOracle:
    @pytest.mark.parametrize("n,count", [(1, 3), (2, 13), (3, 121), (4, 4959)])
    def test_catalog_matches_brute_force(self, n, count):
        # entry for entry, so the oracle's first-best witnesses are unchanged
        catalog = _family_catalog(n)
        assert len(catalog) == count
        assert catalog == brute_force_catalog(n)

    def test_every_answer_pinned(self):
        # pins the first best witness in catalog order, which no value
        # check sees
        queries = [
            ModelInstance(kind, n, param)
            for kind in ModelKind
            for n in range(1, 5)
            for param in range(1, (1 << n) + 3)
        ]
        assert len(queries) == 152
        digest = hashlib.sha256()
        for q in queries:
            out = exhaustive_oracle(q)
            sets = out.witness.sets if out.witness else None
            fields = (q.kind.value, q.n, q.param, out.status.value, out.value, sets, out.stats.nodes)
            digest.update((" ".join(map(str, fields)) + "\n").encode())
        assert digest.hexdigest() == ORACLE_DIGEST

    @pytest.mark.parametrize(
        "kind,n,param,value",
        [
            ("f", 3, 4, 8),
            ("f", 4, 6, 10),
            ("g", 3, 6, 4),
            ("ft", 4, 6, 10),
            ("gt", 4, 8, 5),
        ],
    )
    def test_known_values(self, kind, n, param, value):
        out = exhaustive_oracle(inst(kind, n, param))
        assert out.status is Status.OPTIMAL
        assert out.value == value

    def test_rejects_large_n(self):
        with pytest.raises(ValueError):
            exhaustive_oracle(inst("f", 5, 3))

    def test_oracle_witness_is_union_closed_and_feasible(self):
        problem = inst("gt", 4, 10)
        out = exhaustive_oracle(problem)
        assert is_union_closed(out.witness)
        assert check_feasible(problem, out.witness).feasible

    def test_matches_solve_spot_checks(self):
        # the full sweep runs in the acceptance suite
        for kind in ModelKind:
            for n in (2, 3):
                for param in (1, 2, 3, 5, (1 << n) + 1):
                    problem = ModelInstance(kind, n, param)
                    a, b = solve(problem), exhaustive_oracle(problem)
                    assert a.status is b.status, problem
                    assert a.value == b.value, problem


class TestDeterminismAndWorkers:
    def test_single_worker_runs_identical(self):
        problem = inst("f", 4, 5)
        a, b = solve(problem), solve(problem)
        assert a.value == b.value
        assert a.witness == b.witness
        assert a.stats == b.stats

    def test_workers_other_than_one_rejected(self):
        # a solve is one serial search; grids fan cells out instead
        with pytest.raises(ValueError):
            solve(inst("f", 3, 3), workers=2)


class TestBudget:
    def test_aborted_reports_incumbent_not_value(self):
        out = solve(inst("f", 5, 12), SearchBudget(max_nodes=2000))
        assert out.status is Status.ABORTED
        assert out.value is None
        assert out.witness is None
        assert out.incumbent_value is not None
        assert out.incumbent_value <= 21  # true optimum bounds any incumbent
        problem = inst("f", 5, 12)
        assert check_feasible(problem, out.incumbent_witness).feasible
        assert objective_value(problem, out.incumbent_witness) == out.incumbent_value

    def test_aborted_reports_cuts_so_far(self):
        # the aborted search is a prefix of the complete one, and the node
        # it stopped at is still open
        problem = inst("f", 5, 12)
        aborted = solve(problem, SearchBudget(max_nodes=2000)).stats
        full = solve(problem).stats
        assert aborted.nodes == 2001
        assert 0 < aborted.propagations == sum(aborted.cuts.values()) < aborted.nodes
        assert all(aborted.cuts[reason] <= full.cuts[reason] for reason in CUTS)

    @pytest.mark.parametrize("kind, param, incumbent", [("g", 40, 24), ("gt", 30, 17)])
    def test_aborted_minimizing_reports_incumbent_not_value(self, kind, param, incumbent):
        problem = inst(kind, 6, param)
        out = solve(problem, SearchBudget(max_nodes=3000))
        assert out.status is Status.ABORTED
        assert out.value is None and out.witness is None
        assert out.incumbent_value == incumbent
        # check_feasible includes the frequency order, so the witness is sorted
        assert check_feasible(problem, out.incumbent_witness).feasible
        assert objective_value(problem, out.incumbent_witness) == incumbent

    def test_aborted_before_any_leaf_has_no_incumbent(self):
        out = solve(inst("g", 6, 40), SearchBudget(max_nodes=1))
        assert out.status is Status.ABORTED
        assert out.value is None and out.witness is None
        assert out.incumbent_value is None and out.incumbent_witness is None

    def test_infeasible_detected_before_budget(self):
        out = solve(inst("g", 4, 17), SearchBudget(max_nodes=10))
        assert out.status is Status.INFEASIBLE

    def test_feasible_family_under_tiny_budget(self):
        out = solve(inst("f", 6, 24), SearchBudget(max_nodes=3000))
        assert out.status is Status.ABORTED
        assert out.incumbent_value is not None
        assert check_feasible(inst("f", 6, 24), out.incumbent_witness).feasible

    @pytest.mark.parametrize(
        "limits",
        [{"max_nodes": 0}, {"max_nodes": -1}, {"max_seconds": 0}, {"max_seconds": -3}],
        ids=["nodes0", "nodes-1", "seconds0", "seconds-3"],
    )
    def test_nonpositive_budget_rejected(self, limits):
        # max_nodes=0 would abort at the root, and max_seconds=0 would go
        # unread by a search under 1,024 nodes
        with pytest.raises(ValueError):
            SearchBudget(**limits)

    def test_seconds_budget_bounds_solve(self):
        problem = inst("f", 6, 24)
        started = time.monotonic()
        out = solve(problem, SearchBudget(max_seconds=0.3))
        assert time.monotonic() - started < 3
        assert out.status is Status.ABORTED
        assert check_feasible(problem, out.incumbent_witness).feasible
        assert objective_value(problem, out.incumbent_witness) == out.incumbent_value


def test_readme_library_example():
    """The README's library example runs as written (it asserts g(5,24) = 14)."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = re.search(r"## Library use\n\n```python\n(.*?)```", readme, re.S)
    exec(block.group(1), {})


def count_totals(old_lines, new_lines):
    """Per kind, each count column summed over the cells both golden lists
    hold, old -> new, then the cells only the new one holds."""
    old = {tuple(a[:3]): c for a, c in map(split_fingerprint, old_lines)}
    sums, added = {}, []
    for answer, counts in map(split_fingerprint, new_lines):
        cell = tuple(answer[:3])
        if cell not in old:
            listed = ", ".join(f"{name} {c}" for name, c in zip(COUNT_COLUMNS, counts))
            added.append(f"new: {cell_name(*cell)} {listed}")
            continue
        total = sums.setdefault(cell[0], [[0, 0] for _ in COUNT_COLUMNS])
        for pair, a, b in zip(total, old[cell], counts):
            pair[0] += int(a)
            pair[1] += int(b)
    return [
        f"{kind}: " + ", ".join(f"{name} {a} -> {b}" for name, (a, b) in zip(COUNT_COLUMNS, total))
        for kind, total in sorted(sums.items())
    ] + added


if __name__ == "__main__":
    # only the counts may be refreshed: a changed answer is a bug to fix
    # (a cell new to the file has no answer to keep)
    old_lines = GOLDEN_COUNTS.read_text().splitlines()
    old = {tuple(answer[:3]): answer for answer, _ in map(split_fingerprint, old_lines)}
    lines = [search_fingerprint(*cell) for cell in pinned_cells()]
    changed = []
    for line in lines:
        answer = split_fingerprint(line)[0]
        if old.get(tuple(answer[:3]), answer) != answer:
            changed.append(line)
    if changed:
        sys.exit("answer columns differ, golden file not written:\n" + "\n".join(changed[:5]))
    GOLDEN_COUNTS.write_text("".join(line + "\n" for line in lines))
    print("\n".join(count_totals(old_lines, lines)))
