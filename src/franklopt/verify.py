"""Value grids, persistence, reference comparison and property checkers.

A ValueTable maps (kind, n, param) to an optimal value or infeasibility,
with a provenance tag per entry (solver | reference | trivial).
Computed F cells with a >= 2^(n-1) always read 2^n with provenance
trivial: the family of all subsets is optimal there, so no search runs.
Aborted solves never enter a table; they surface as warnings.

Checkers turn the proven structural facts about f and g into grid
assertions and report one verdict per assertion: pass, fail, vacuous
(quantifier not covered by the table) or warning (reserved for the
suspected-erratum cells of the reference comparison).  Reports carry the
violating cells and values; nothing is skipped silently.

The results cache is a line-oriented text file, one record per line:

    <kind> <n> <param> <value|INF> <provenance>

appended in deterministic order; on reload the last writer wins.

Grid cells are independent and may fan out to worker processes, one
whole cell per task; all cache appends happen in the coordinating
process, and checkers are pure functions over an immutable snapshot of a
table.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field
from typing import Iterable, Optional

from . import reference
from .families import Family
from .models import ModelInstance, ModelKind, check_feasible, objective_value
from .solver import UNLIMITED, SearchBudget, Status, solve

Cell = tuple[str, int, int]  # (kind value, n, param)
PROVENANCES = ("solver", "reference", "trivial")


def _ceil_log2(x: int) -> int:
    return (x - 1).bit_length()


def cell_name(kind: str, n: int, param: int) -> str:
    return f"{kind}({n},{param})"


@dataclass(frozen=True)
class TableEntry:
    """One cell's value and where it came from.  compute_grid tags every
    F cell with a >= 2^(n-1) as trivial, with value 2^n."""

    value: Optional[int]  # None marks infeasible
    provenance: str  # solver | reference | trivial


@dataclass
class ValueTable:
    entries: dict[Cell, TableEntry] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)

    def get(self, kind: str, n: int, param: int) -> Optional[TableEntry]:
        return self.entries.get((kind, n, param))

    def value(self, kind: str, n: int, param: int) -> Optional[int]:
        entry = self.entries.get((kind, n, param))
        return entry.value if entry is not None else None

    def put(self, kind: str, n: int, param: int, entry: TableEntry) -> None:
        self.entries[kind, n, param] = entry

    def merge(self, other: "ValueTable") -> "ValueTable":
        self.entries.update(other.entries)
        self.warnings.extend(other.warnings)
        return self


# -- results cache ----------------------------------------------------------


class CacheError(ValueError):
    """A results-cache record that ``load_cache`` rejects."""


def load_cache(path) -> ValueTable:
    """Read a results cache.  Each record must name a valid instance,
    hold INF or a non-negative integer and carry one of the PROVENANCES;
    any other record raises CacheError naming its path and line."""
    table = ValueTable()
    if not os.path.exists(path):
        return table
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                kind, n, param, value, provenance = line.split()
                inst = ModelInstance(ModelKind(kind), int(n), int(param))
                number = None if value == "INF" else int(value)
                if number is not None and number < 0:
                    raise ValueError(f"negative value {number}")
                if provenance not in PROVENANCES:
                    raise ValueError(f"unknown provenance {provenance!r}")
            except ValueError as exc:
                raise CacheError(
                    f"{path}:{lineno}: malformed cache record {raw!r}: {exc}"
                ) from None
            table.put(kind, inst.n, inst.param, TableEntry(number, provenance))
    return table


def append_cache(path, records: dict[Cell, TableEntry]) -> None:
    with open(path, "a", encoding="utf-8") as fh:
        for (kind, n, param) in sorted(records):
            entry = records[kind, n, param]
            value = "INF" if entry.value is None else str(entry.value)
            fh.write(f"{kind} {n} {param} {value} {entry.provenance}\n")


# -- grid computation --------------------------------------------------------


def compute_grid(
    kind: ModelKind,
    ns: Iterable[int],
    params: Iterable[int],
    budget: SearchBudget = UNLIMITED,
    cache_path=None,
    workers: int = 1,
) -> ValueTable:
    """Solve every cell of a (n, param) rectangle into a ValueTable.

    F cells in the forced regime a >= 2^(n-1) are filled exactly as 2^n
    with provenance "trivial", whatever the cache holds; other cached
    cells are reused.  Budget-aborted cells are left missing and reported
    in warnings.  Every cell, the trivial ones included, must name a valid
    instance (ModelInstance raises ValueError otherwise).  A cache that
    cannot be opened for append raises OSError before any cell is solved.

    With workers > 1 and more than one cell to solve, the cells are
    solved side by side in a pool of that many processes, or one per cell
    when fewer cells are left, handed out one cell at a time (cell times
    differ by orders of magnitude), each cell one serial search under the
    full budget; otherwise they are solved in this process.  Every worker count
    gives the same table when no budget is set.
    """
    table = ValueTable()
    cached = load_cache(cache_path) if cache_path else ValueTable()
    fresh: dict[Cell, TableEntry] = {}
    todo: list[ModelInstance] = []
    params = tuple(params)  # walked once per n

    for n in ns:
        for param in params:
            inst = ModelInstance(kind, n, param)  # rejects n or param out of range
            cell = (kind.value, n, param)
            if kind is ModelKind.F and param >= 1 << (n - 1):
                entry = TableEntry(1 << n, "trivial")
                if cached.entries.get(cell) != entry:  # no duplicate records
                    fresh[cell] = entry
            else:
                entry = cached.entries.get(cell)
            if entry is None:
                todo.append(inst)
            else:
                table.entries[cell] = entry

    if cache_path and todo:
        open(cache_path, "a", encoding="utf-8").close()
    solve_cell = functools.partial(solve, budget=budget)
    if workers > 1 and len(todo) > 1:
        import multiprocessing

        with multiprocessing.Pool(min(workers, len(todo))) as pool:
            outcomes = pool.map(solve_cell, todo, chunksize=1)
    else:
        outcomes = map(solve_cell, todo)

    for inst, outcome in zip(todo, outcomes):
        cell = (kind.value, inst.n, inst.param)
        if outcome.status is Status.ABORTED:
            table.warnings.append(
                f"{cell_name(*cell)}: budget exhausted after {outcome.stats.nodes} nodes"
                + (
                    f" (incumbent {outcome.incumbent_value})"
                    if outcome.incumbent_value is not None
                    else ""
                )
            )
            continue
        value = outcome.value if outcome.status is Status.OPTIMAL else None
        table.entries[cell] = fresh[cell] = TableEntry(value, "solver")

    if cache_path and fresh:
        append_cache(cache_path, fresh)
    return table


# -- check reports ------------------------------------------------------------

PASS, FAIL, VACUOUS, WARNING = "pass", "fail", "vacuous", "warning"


@dataclass(frozen=True)
class CheckItem:
    cell: str
    verdict: str
    detail: str = ""


@dataclass
class CheckReport:
    check_id: str
    scope: str
    items: list[CheckItem] = field(default_factory=list)

    def add(self, cell: str, verdict: str, detail: str = "") -> None:
        self.items.append(CheckItem(cell, verdict, detail))

    @property
    def failures(self) -> list[CheckItem]:
        return [item for item in self.items if item.verdict == FAIL]

    @property
    def ok(self) -> bool:
        return not self.failures

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for item in self.items:
            out[item.verdict] = out.get(item.verdict, 0) + 1
        return out

    def machine_lines(self) -> list[str]:
        return [f"CHECK {self.check_id} {item.cell} {item.verdict}" for item in self.items]

    def render(self) -> str:
        counts = ", ".join(f"{v}={c}" for v, c in sorted(self.counts().items()))
        lines = [f"[{self.check_id}] {self.scope}: {counts or 'no assertions'}"]
        for item in self.items:
            if item.verdict in (FAIL, WARNING):
                lines.append(f"  {item.verdict.upper()} {item.cell}: {item.detail}")
        return "\n".join(lines)


# -- reference comparison ------------------------------------------------------


def _fmt(value: Optional[int]) -> str:
    return "INF" if value is None else str(value)


def _add_mismatch(report: CheckReport, name: str, cell: Cell, detail: str) -> None:
    if cell in reference.SUSPECTED_ERRATA:
        report.add(name, WARNING, detail + " (suspected published erratum)")
    else:
        report.add(name, FAIL, detail)


def compare_to_reference(
    table: ValueTable, witnesses: Optional[dict[Cell, Family]] = None
) -> CheckReport:
    """Cell-by-cell comparison of computed values against the embedded
    reference tables.

    An exact table entry must equal the published value.  A mismatch on
    a suspected-erratum cell downgrades to a warning (with both values
    printed) once the computed value has solver provenance; everything
    else mismatching fails.

    ``witnesses`` maps a cell to a family claimed feasible for it.  Each
    family is re-checked exactly (check_feasible, objective_value) and
    gives a bound only: the optimum is >= its objective for f/ft and <=
    it for g/gt.  A published value the bound allows passes; one it
    refutes is a warning on a suspected-erratum cell and a failure on any
    other.  A witness that does not re-check fails.  Bounds are reported
    here and never stored as values.
    """
    witnesses = witnesses or {}
    scope = f"{len(table.entries)} computed cells"
    if witnesses:
        scope += f", {len(witnesses)} witness bounds"
    report = CheckReport("reference", scope)
    for cell in sorted(table.entries):
        kind, n, param = cell
        entry = table.entries[cell]
        for tag, ref_value in reference.lookup(kind, n, param):
            name = f"{cell_name(kind, n, param)}@{tag}"
            if entry.value == ref_value:
                report.add(name, PASS)
                continue
            detail = f"computed={_fmt(entry.value)} reference={_fmt(ref_value)}"
            if entry.provenance == "solver":
                _add_mismatch(report, name, cell, detail)
            else:
                report.add(name, FAIL, detail)

    for cell in sorted(witnesses):
        kind, n, param = cell
        fam = witnesses[cell]
        inst = ModelInstance(ModelKind(kind), n, param)
        label = cell_name(kind, n, param)
        if fam.n != n:
            report.add(f"{label}@witness", FAIL, f"witness is a family on [{fam.n}]")
            continue
        violated = check_feasible(inst, fam).violations
        if violated:
            report.add(f"{label}@witness", FAIL, f"witness violates {', '.join(violated)}")
            continue
        bound = objective_value(inst, fam)
        for tag, ref_value in reference.lookup(kind, n, param):
            name = f"{label}@{tag}"
            allowed = ref_value is not None and (
                ref_value >= bound if inst.kind.maximize else ref_value <= bound
            )
            if allowed:
                report.add(name, PASS)
                continue
            relation = ">=" if inst.kind.maximize else "<="
            _add_mismatch(
                report, name, cell, f"computed{relation}{bound} reference={_fmt(ref_value)}"
            )
    return report


# -- structural property checks ------------------------------------------------


def _cells(table: ValueTable, kind: str) -> list[tuple[int, int, Optional[int]]]:
    """(n, param, value) of every `kind` cell of the table, sorted."""
    return sorted((n, p, e.value) for (k, n, p), e in table.entries.items() if k == kind)


def _against(report: CheckReport, name: str, other, missing: str, holds, detail) -> None:
    """One assertion against a neighbouring cell: vacuous with the text
    `missing` when `other` is None, else pass when `holds(other)` and fail
    with `detail(other)` otherwise.  `other` is the neighbour's value or,
    where an infeasible neighbour must be told apart, its entry."""
    if other is None:
        report.add(name, VACUOUS, missing)
    elif holds(other):
        report.add(name, PASS)
    else:
        report.add(name, FAIL, detail(other))


def check_properties(table: ValueTable) -> CheckReport:
    """Grid assertions for the six proven f/g monotonicity and inversion
    properties plus their three twin-model analogues.

    P1-P6 treat an infeasible neighbour as not covered.  T1 reports it as
    vacuous, and T2 and T3 fail on it."""
    report = CheckReport("properties", f"{len(table.entries)} cells")
    value_at = table.value

    for n, a, value in _cells(table, "f"):
        if value is None:
            report.add(f"P?:{cell_name('f', n, a)}", FAIL, "f cell unexpectedly infeasible")
            continue
        if n >= _ceil_log2(a) + 1:  # (1) non-decreasing in n
            _against(report, f"P1:f({n},{a})<=f({n + 1},{a})", value_at("f", n + 1, a),
                     "next column not covered", lambda v: value <= v, lambda v: f"{value} > {v}")
        if n > _ceil_log2(a) + 1:  # (3) strictly increasing in a; (5) g(n, f(n,a)) = a
            _against(report, f"P3:f({n},{a})<f({n},{a + 1})", value_at("f", n, a + 1),
                     "next row not covered", lambda v: value < v, lambda v: f"{value} >= {v}")
            _against(report, f"P5:g({n},f({n},{a}))={a}", value_at("g", n, value),
                     f"g({n},{value}) not covered", lambda v: v == a,
                     lambda v: f"g({n},{value})={v}")

    for n, m, value in _cells(table, "g"):
        if n < _ceil_log2(m):
            continue  # published tables leave these infeasible cells out
        if value is None:
            report.add(
                f"P?:{cell_name('g', n, m)}", FAIL, "g cell infeasible inside the feasible regime"
            )
            continue
        # (2) non-increasing in n
        _against(report, f"P2:g({n},{m})>=g({n + 1},{m})", value_at("g", n + 1, m),
                 "next column not covered", lambda v: value >= v, lambda v: f"{value} < {v}")
        if m + 1 <= 1 << n:  # (4) non-decreasing in m
            _against(report, f"P4:g({n},{m})<=g({n},{m + 1})", value_at("g", n, m + 1),
                     "next row not covered", lambda v: value <= v, lambda v: f"{value} > {v}")
        # (6) f(n, g(n,m)) >= m
        _against(report, f"P6:f({n},g({n},{m}))>={m}", value_at("f", n, value),
                 f"f({n},{value}) not covered", lambda v: v >= m,
                 lambda v: f"f({n},{value})={v}")

    # twin-model analogues
    for n, a, value in _cells(table, "ft"):
        if value is None:
            continue
        if a < 1 << (n - 1):
            covered = ("ft", n, a + 1) in table.entries
            _against(report, f"T1:ft({n},{a})<ft({n},{a + 1})", value_at("ft", n, a + 1),
                     "next row infeasible" if covered else "next row not covered",
                     lambda v: value < v, lambda v: f"{value} >= {v}")
        # the inversion below is proven by chaining strict increases, so it
        # only holds up to the saturation point a = 2^(n-1)
        name = f"T2:gt({n},ft({n},{a}))={a}"
        if a > 1 << (n - 1):
            report.add(name, VACUOUS, "degree cap saturated; inversion not asserted")
            continue
        _against(report, name, table.get("gt", n, value), f"gt({n},{value}) not covered",
                 lambda e: e.value == a,
                 lambda e: f"gt({n},{value})={e.value}" if e.value is not None
                 else f"gt({n},{value}) infeasible but ft({n},{a})={value}")

    for n, m, value in _cells(table, "gt"):
        if value is None:
            continue
        _against(report, f"T3:ft({n},gt({n},{m}))>={m}", table.get("ft", n, value),
                 f"ft({n},{value}) not covered",
                 lambda e: e.value is not None and e.value >= m,
                 lambda e: f"ft({n},{value})={e.value}" if e.value is not None
                 else f"ft({n},{value}) infeasible but gt({n},{m})={value}")

    return report


def check_stability(table: ValueTable) -> CheckReport:
    """The observed invariance of f and g in n, asserted as equalities.

    A counterexample here would be a headline result, so failures carry
    both values.  A missing n+1 column is vacuous: partial grids are the
    norm under budgets.
    """
    report = CheckReport("stability", f"{len(table.entries)} cells")
    for kind in ("f", "g"):
        for n, param, value in _cells(table, kind):
            if n < _ceil_log2(param) + (kind == "f"):
                continue
            name = f"S:{kind}({n},{param})={kind}({n + 1},{param})"
            if value is None:
                report.add(name, FAIL, "cell infeasible inside the stable regime")
                continue
            _against(report, name, table.get(kind, n + 1, param), "next column not covered",
                     lambda e: e.value == value,
                     lambda e: f"{value} != {_fmt(e.value)} (conjecture counterexample?)")
    return report


def check_falgas_ravry(table: ValueTable) -> CheckReport:
    """f(n-1, a) = f(n, a) on every covered cell with n > a (proven)."""
    report = CheckReport("falgas-ravry", f"{len(table.entries)} cells")
    for n, a, value in _cells(table, "f"):
        if n > a:
            _against(report, f"FR:f({n - 1},{a})=f({n},{a})", table.get("f", n - 1, a),
                     f"f({n - 1},{a}) not covered", lambda e: e.value == value,
                     lambda e: f"{_fmt(e.value)} != {_fmt(value)}")
    return report
