"""Acceptance gate: ten criteria, one test and one printed verdict each.

Criteria 1-3 reproduce the published value tables at n <= 5 under wall
time caps; 4 cross-checks the search against the exhaustive oracle; 5-7
run the structural checkers over the computed grids; 8 revalidates every
witness; 9 freezes the LP dialect; 10 exercises the suspected-erratum
handling on the a=24 row of the published f table.  That row reads 43 at
n=6 and 42 at n=7..9; the committed 43-set witness on [6]
(golden/f_n6_a24.fam), re-checked exactly and lifted by element cloning,
shows f(n,24) >= 43 for n=6..9, so the published 42s are the errata.
The criterion needs no search and no cache.
"""

import time
from pathlib import Path

import pytest

from franklopt import reference
from franklopt.families import clone_element, family_from_masks, read_family
from franklopt.lp import assignment_feasible, export, parse_lp
from franklopt.models import (
    ModelInstance,
    ModelKind,
    build,
    check_feasible,
    objective_value,
    var_x,
)
from franklopt.solver import Status, exhaustive_oracle, solve
from franklopt.verify import (
    PASS,
    WARNING,
    TableEntry,
    ValueTable,
    check_falgas_ravry,
    check_properties,
    check_stability,
    compare_to_reference,
)

GOLDEN = Path(__file__).parent / "golden"


def verdict(num: int, ok: bool, desc: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num}: {desc}"


class GridRun:
    def __init__(self):
        self.outcomes = {}
        self.elapsed = 0.0

    def solve_cells(self, cells):
        start = time.monotonic()
        for kind, n, param in cells:
            self.outcomes[kind.value, n, param] = solve(ModelInstance(kind, n, param))
        self.elapsed += time.monotonic() - start
        return self

    def value(self, kind, n, param):
        out = self.outcomes[kind, n, param]
        return out.value if out.status is Status.OPTIMAL else None

    def table(self) -> ValueTable:
        table = ValueTable()
        for (kind, n, param), out in self.outcomes.items():
            if out.status is not Status.ABORTED:
                table.put(kind, n, param, TableEntry(self.value(kind, n, param), "solver"))
        return table


@pytest.fixture(scope="module")
def run_f():
    return GridRun().solve_cells(
        [(ModelKind.F, n, a) for n in range(1, 6) for a in range(1, 17)]
    )


@pytest.fixture(scope="module")
def run_g():
    return GridRun().solve_cells(
        [(ModelKind.G, n, m) for n in range(3, 6) for m in range(2, 33)]
    )


def twin_cells():
    cells = [(ModelKind.FT, n, a) for (_, n, a) in sorted(reference.TWIN_FT) if n <= 5]
    cells += [(ModelKind.GT, n, m) for (_, n, m) in sorted(reference.TWIN_GT) if n <= 5]
    return cells


@pytest.fixture(scope="module")
def run_twin():
    return GridRun().solve_cells(twin_cells())


def test_criterion_1_table_f_reproduction(run_f):
    mismatches = [
        (n, a, run_f.value("f", n, a), reference.CORE_F["f", n, a])
        for n in range(1, 6)
        for a in range(1, 17)
        if run_f.value("f", n, a) != reference.CORE_F["f", n, a]
    ]
    ok = not mismatches and run_f.elapsed <= 300
    verdict(
        1,
        ok,
        f"f(n,a) exact on 80 cells (n<=5, a<=16) in {run_f.elapsed:.1f}s"
        + (f"; mismatches={mismatches[:3]}" if mismatches else ""),
    )


def test_criterion_2_table_g_reproduction(run_g):
    mismatches = []
    for n in range(3, 6):
        for m in range(2, 33):
            if m > 1 << n:
                expected = None
            else:
                refs = reference.lookup("g", n, m)
                assert refs, f"reference tables miss g({n},{m})"
                expected = refs[0][1]
            got = run_g.value("g", n, m)
            if got != expected:
                mismatches.append((n, m, got, expected))
    ok = not mismatches and run_g.elapsed <= 600
    verdict(
        2,
        ok,
        f"g(n,m) exact on 93 cells (3<=n<=5, m<=32, dashes included) in {run_g.elapsed:.1f}s"
        + (f"; mismatches={mismatches[:3]}" if mismatches else ""),
    )


def test_criterion_3_twin_table_reproduction(run_twin):
    mismatches = []
    errata_checked = []
    for kind_tag, table in (("ft", reference.TWIN_FT), ("gt", reference.TWIN_GT)):
        for (_, n, param), ref_value in sorted(table.items()):
            if n > 5:
                continue
            got = run_twin.value(kind_tag, n, param)
            if (kind_tag, n, param) in reference.SUSPECTED_ERRATA:
                # table and recomputation disagree here by design: require
                # oracle agreement plus a loud warning, not a silent result
                oracle = exhaustive_oracle(
                    ModelInstance(ModelKind(kind_tag), n, param)
                )
                ora_value = oracle.value if oracle.status is Status.OPTIMAL else None
                report = compare_to_reference(run_twin.table())
                warned = [
                    item
                    for item in report.items
                    if item.verdict == WARNING and f"{kind_tag}({n},{param})" in item.cell
                ]
                errata_checked.append(
                    got == ora_value and bool(warned) and not report.failures
                )
                continue
            if got != ref_value:
                mismatches.append((kind_tag, n, param, got, ref_value))
    spot = (
        run_twin.value("ft", 5, 5) is None
        and run_twin.value("ft", 4, 8) == 16
        and run_twin.value("gt", 5, 12) == 8
    )
    ok = not mismatches and spot and all(errata_checked) and run_twin.elapsed <= 600
    verdict(
        3,
        ok,
        f"ft/gt exact on all published cells n<=5 incl. every infeasible dash "
        f"in {run_twin.elapsed:.1f}s (1 allow-listed erratum cell warned)"
        + (f"; mismatches={mismatches[:3]}" if mismatches else ""),
    )


def test_criterion_4_oracle_equivalence():
    start = time.monotonic()
    disagreements = []
    for kind in ModelKind:
        for n in range(1, 5):
            for param in range(1, (1 << n) + 2):
                inst = ModelInstance(kind, n, param)
                a, b = solve(inst), exhaustive_oracle(inst)
                if a.status is not b.status or a.value != b.value:
                    disagreements.append((kind.value, n, param, a, b))
    elapsed = time.monotonic() - start
    ok = not disagreements and elapsed <= 300
    verdict(
        4,
        ok,
        f"solve == exhaustive oracle on all kinds, n<=4, param<=2^n+1 "
        f"(136 instances) in {elapsed:.1f}s"
        + (f"; first disagreement={disagreements[:1]}" if disagreements else ""),
    )


def test_criterion_5_property_suite(run_f, run_g, run_twin):
    table = run_f.table().merge(run_g.table()).merge(run_twin.table())
    report = check_properties(table)
    failures = [f"{i.cell}: {i.detail}" for i in report.failures]
    verdict(
        5,
        not failures,
        f"all monotonicity/inversion properties hold on the computed grid "
        f"({report.counts().get('pass', 0)} assertions)"
        + (f"; failures={failures[:3]}" if failures else ""),
    )


def test_criterion_6_stability_suite(run_f, run_g):
    table = run_f.table().merge(run_g.table())
    report = check_stability(table)
    failures = [f"{i.cell}: {i.detail}" for i in report.failures]
    passes = report.counts().get("pass", 0)
    verdict(
        6,
        not failures and passes > 0,
        f"f and g columns stable in n across the desk-scale grid "
        f"({passes} equalities; n=6 is a stretch target via --budget flags)"
        + (f"; failures={failures[:3]}" if failures else ""),
    )


def test_criterion_7_falgas_ravry_suite(run_f):
    table = run_f.table()
    extra = GridRun().solve_cells([(ModelKind.F, 6, a) for a in range(1, 5)])
    table.merge(extra.table())
    report = check_falgas_ravry(table)
    failures = [f"{i.cell}: {i.detail}" for i in report.failures]
    passes = report.counts().get("pass", 0)
    verdict(
        7,
        not failures and passes >= 9,
        f"f(n-1,a) = f(n,a) on all covered cells with n > a, a<=4, n<=6 "
        f"({passes} equalities)" + (f"; failures={failures[:3]}" if failures else ""),
    )


def test_criterion_8_witness_soundness(run_f, run_g, run_twin):
    checked = 0
    bad = []
    for run in (run_f, run_g, run_twin):
        for (kind, n, param), out in run.outcomes.items():
            if out.status is not Status.OPTIMAL:
                continue
            checked += 1
            inst = ModelInstance(ModelKind(kind), n, param)
            report = check_feasible(inst, out.witness)
            if not report.feasible or objective_value(inst, out.witness) != out.value:
                bad.append((kind, n, param, report.violations))
    verdict(
        8,
        checked > 0 and not bad,
        f"100% of {checked} optimal witnesses re-validate "
        f"(feasibility + objective recomputation)"
        + (f"; bad={bad[:3]}" if bad else ""),
    )


def test_criterion_9_lp_export():
    golden_cases = [
        (ModelKind.F, 2, 2, "f_n2_p2.lp"),
        (ModelKind.G, 3, 5, "g_n3_p5.lp"),
        (ModelKind.FT, 3, 4, "ft_n3_p4.lp"),
        (ModelKind.GT, 4, 9, "gt_n4_p9.lp"),
    ]
    byte_equal = all(
        export(build(ModelInstance(kind, n, p))).text == (GOLDEN / name).read_text()
        for kind, n, p, name in golden_cases
    )
    agree = True
    for kind in ModelKind:
        inst = ModelInstance(kind, 3, 4)
        parsed = parse_lp(export(build(inst)).text)
        for bits in range(1 << 8):
            x_values = {var_x(m): bits >> m & 1 for m in range(8)}
            fam = family_from_masks(3, [m for m in range(8) if bits >> m & 1])
            if assignment_feasible(parsed, x_values) != check_feasible(inst, fam).feasible:
                agree = False
                break
    verdict(
        9,
        byte_equal and agree,
        "golden-file byte equality for (f,2,2),(g,3,5),(ft,3,4),(gt,4,9); "
        "round-trip reader agrees with the model checker on exhaustive n=3",
    )


def plain_union_closed_degrees(n, masks):
    """Closure under pairwise union and per-element counts, straight from
    the bitmasks and independent of the package's checkers."""
    members = set(masks)
    closed = all(s | t in members for s in members for t in members)
    return closed, [sum(1 for s in members if s >> e & 1) for e in range(n)]


def test_criterion_10_erratum_handling():
    fam = read_family(GOLDEN / "f_n6_a24.fam")
    witnesses = {("f", 6, 24): fam}
    for n in (7, 8, 9):
        fam = clone_element(fam, 1)
        witnesses["f", n, 24] = fam
    plain_ok = True
    for (_, n, _), wit in witnesses.items():
        closed, degrees = plain_union_closed_degrees(n, wit.sets)
        plain_ok &= wit.n == n and len(set(wit.sets)) == 43 and closed and max(degrees) <= 24

    report = compare_to_reference(ValueTable(), witnesses)
    warned = [i for i in report.items if i.verdict == WARNING]
    bounds_ok = (
        len(report.items) == 4
        and not report.failures
        and [i.cell for i in warned] == [f"f({n},24)@f-extended" for n in (7, 8, 9)]
        and all(
            "computed>=43" in i.detail and "reference=42" in i.detail and "erratum" in i.detail
            for i in warned
        )
        and [i.verdict for i in report.items if i.cell.startswith("f(6,24)")] == [PASS]
    )

    # never silent: an exact 42 at f(6,24) contradicts the witness and the
    # published 43, and that cell is not allow-listed
    stale = ValueTable()
    stale.put("f", 6, 24, TableEntry(42, "solver"))
    stale_failures = [i.cell for i in compare_to_reference(stale).failures]

    verdict(
        10,
        plain_ok and bounds_ok and stale_failures == ["f(6,24)@f-extended"],
        "a=24 row: the re-checked 43-set witness on [6], cloned up to n=9, "
        "agrees with the published f(6,24)=43 and raises exactly one warning "
        "carrying both values on each published 42 at n=7..9 (never fatal); "
        "a solver 42 at f(6,24) fails (never silent)",
    )
