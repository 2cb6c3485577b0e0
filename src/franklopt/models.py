"""Constraint systems for the four union-closed optimization problems.

Problem kinds:
  F   maximize the number of sets subject to a per-element degree cap a.
  G   minimize the frequency of element 1 (forced to be a most frequent
      element by an ordering chain) subject to an exact set count m.
  FT / GT  the same objectives with every element additionally required
      to be a non-trivial twin difference, via continuous link variables.

A built ConstraintSystem is an immutable value consumed by the LP
writer.  The witness check here reads the family itself, condition by
condition, and the exact search in ``solver`` works on the problems
directly; tests hold the rows to the same conditions.

The union rows and the twin rows depend on n alone.  Each block is
built once per n and shared by every system of that size, whatever its
kind or parameter, down to one string object per variable name.
Sharing is safe because every row is a Constraint, a named tuple whose
terms are tuples, so no system can change a row another one holds.  Only
the deg, ord and card rows and the objective are made per build.
The union rows number about 4x more per element (465,761 at n=10, with
a peak near 200 MB), so ``build`` refuses n > MAX_LP_GROUND_SET.

Variable naming: ``x_<d>`` is the 0/1 indicator of the subset whose bit
pattern has decimal value d; ``z_<d>_e<k>`` is the twin link variable for
little twin d and element k.  Constraint rows are named u<i> (union),
deg<e>, ord<i>, card, tl<i> (twin link), tc<e> (twin cover), numbered in
canonical order, and every build is byte-deterministic.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple

from .families import Family, MAX_GROUND_SET, frequencies, is_union_closed, twin_counts

MAX_LP_GROUND_SET = 10


class ModelKind(enum.Enum):
    F = "f"
    G = "g"
    FT = "ft"
    GT = "gt"

    @property
    def maximize(self) -> bool:
        return self in (ModelKind.F, ModelKind.FT)

    @property
    def twin(self) -> bool:
        return self in (ModelKind.FT, ModelKind.GT)


@dataclass(frozen=True)
class ModelInstance:
    """One optimization problem: kind plus (n, a) or (n, m).

    G/GT instances with param > 2^n are constructible; they solve to
    infeasible.
    """

    kind: ModelKind
    n: int
    param: int

    def __post_init__(self):
        if not 1 <= self.n <= MAX_GROUND_SET:
            raise ValueError(f"n={self.n} out of range 1..{MAX_GROUND_SET}")
        if self.param < 1:
            raise ValueError(f"param must be positive, got {self.param}")

    def __str__(self):
        return f"{self.kind.value}(n={self.n},{'a' if self.kind.maximize else 'm'}={self.param})"


def var_x(mask: int) -> str:
    return f"x_{mask}"


def var_z(little: int, e: int) -> str:
    return f"z_{little}_e{e}"


class Constraint(NamedTuple):
    """One row: the sum of coefficient * variable over ``terms``, compared
    with ``rhs`` by ``sense``.  A named tuple, so it is immutable and cheap
    to build by the hundred thousand (the LP reader makes one per row)."""

    name: str
    terms: tuple[tuple[int, str], ...]
    sense: str  # "<=", ">=", "="
    rhs: int

    def evaluate(self, assignment) -> bool:
        lhs = sum(coef * assignment[var] for coef, var in self.terms)
        if self.sense == "<=":
            return lhs <= self.rhs
        if self.sense == ">=":
            return lhs >= self.rhs
        return lhs == self.rhs


@dataclass(frozen=True)
class ConstraintSystem:
    inst: ModelInstance
    maximize: bool
    objective: tuple[tuple[int, str], ...]
    constraints: tuple[Constraint, ...]
    binaries: tuple[str, ...]  # 0/1 set variables
    unit_interval: tuple[str, ...]  # continuous twin variables in [0, 1]


@functools.cache
def _x_terms(n: int) -> tuple[tuple[tuple[int, str], ...], tuple[tuple[int, str], ...]]:
    """The (1, x_<m>) and (-1, x_<m>) terms of every mask, indexed by mask.

    Every row of an n-element system takes its x terms from these two
    tuples, so all rows share one string object per variable name.
    """
    names = [var_x(m) for m in range(1 << n)]
    return tuple((1, v) for v in names), tuple((-1, v) for v in names)


@functools.cache
def _union_rows(n: int) -> tuple[Constraint, ...]:
    """One row x_t + x_u - x_{t|u} <= 1 per pair of sets t < u whose union
    is neither of them (t & ~u: with t < u the union is never t), in the
    order of (t|u, t, u)."""
    plus, minus = _x_terms(n)
    triples = sorted((t | u, t, u) for t, u in combinations(range(1 << n), 2) if t & ~u)
    return tuple(
        Constraint(f"u{i}", (plus[t], plus[u], minus[s]), "<=", 1)
        for i, (s, t, u) in enumerate(triples, 1)
    )


@functools.cache
def _twin_rows(n: int) -> tuple[tuple[Constraint, ...], tuple[str, ...]]:
    """The twin link rows tl<i> and cover rows tc<e>, and the z names.

    z variables come in canonical order: e ascending, little ascending.
    """
    _, minus = _x_terms(n)
    z_terms = {
        (little, e): (1, var_z(little, e))
        for e in range(1, n + 1)
        for little in range(1 << n)
        if not little & (1 << (e - 1))
    }
    rows = []
    for (little, e), z in z_terms.items():
        for member in (little, little | (1 << (e - 1))):
            rows.append(Constraint(f"tl{len(rows) + 1}", (z, minus[member]), "<=", 0))
    for e in range(1, n + 1):
        bit = 1 << (e - 1)
        # trivial little twins (size n-1) are left out of the cover sums
        terms = tuple(
            z_terms[m, e] for m in range(1 << n) if not m & bit and m.bit_count() != n - 1
        )
        rows.append(Constraint(f"tc{e}", terms, ">=", 1))
    return tuple(rows), tuple(z for _, z in z_terms.values())


def build(inst: ModelInstance) -> ConstraintSystem:
    """Emit the complete, duplicate-free constraint system for an instance.

    The union and twin blocks come from the per-n caches; only the deg,
    ord and card rows and the objective are made per call.  Raises
    ValueError for n > MAX_LP_GROUND_SET, before any row is built.
    """
    n = inst.n
    if n > MAX_LP_GROUND_SET:
        raise ValueError(f"n={n} too large to build; at most {MAX_LP_GROUND_SET}")
    kind = inst.kind
    all_masks = range(1 << n)
    plus, minus = _x_terms(n)

    param_rows = []
    if kind.maximize:
        for e in range(1, n + 1):
            bit = 1 << (e - 1)
            terms = tuple(plus[m] for m in all_masks if m & bit)
            param_rows.append(Constraint(f"deg{e}", terms, "<=", inst.param))
        objective = plus
    else:
        for i in range(1, n):
            bit_i = 1 << (i - 1)
            bit_j = 1 << i
            # shared masks (containing both i and i+1) cancel
            pos = tuple(plus[m] for m in all_masks if m & bit_i and not m & bit_j)
            neg = tuple(minus[m] for m in all_masks if m & bit_j and not m & bit_i)
            param_rows.append(Constraint(f"ord{i}", pos + neg, ">=", 0))
        param_rows.append(Constraint("card", plus, "=", inst.param))
        objective = plus[1::2]  # the masks that contain element 1

    twin_rows, unit_interval = _twin_rows(n) if kind.twin else ((), ())
    return ConstraintSystem(
        inst=inst,
        maximize=kind.maximize,
        objective=objective,
        constraints=(*_union_rows(n), *param_rows, *twin_rows),
        binaries=tuple(v for _, v in plus),
        unit_interval=unit_interval,
    )


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    violations: tuple[str, ...]


def check_feasible(inst: ModelInstance, fam: Family) -> FeasibilityReport:
    """Test a family against every condition of its instance.

    Returns the names of the violated conditions, in this order; empty
    means feasible:
      union    the family is not union-closed;
      deg<e>   element e is in more than a sets (F, FT);
      ord<i>   element i is in fewer sets than element i+1 (G, GT);
      card     the family does not have exactly m sets (G, GT);
      tc<e>    element e is not a non-trivial twin difference (FT, GT).
    The names follow the prefixes of the constraint rows that ``build``
    emits for the same conditions.
    """
    if fam.n != inst.n:
        raise ValueError(f"family over [{fam.n}] checked against n={inst.n} instance")
    violated = [] if is_union_closed(fam) else ["union"]
    freq = frequencies(fam)
    if inst.kind.maximize:
        violated += [f"deg{e}" for e, f in enumerate(freq, 1) if f > inst.param]
    else:
        violated += [f"ord{i}" for i in range(1, inst.n) if freq[i - 1] < freq[i]]
        if fam.m != inst.param:
            violated.append("card")
    if inst.kind.twin:
        nontrivial, _ = twin_counts(fam)
        violated += [f"tc{e}" for e, c in enumerate(nontrivial, 1) if not c]
    return FeasibilityReport(not violated, tuple(violated))


def objective_value(inst: ModelInstance, fam: Family) -> int:
    """m(F) for the maximization kinds, m_1(F) for the minimization kinds."""
    if fam.n != inst.n:
        raise ValueError(f"family over [{fam.n}] evaluated against n={inst.n} instance")
    if inst.kind.maximize:
        return fam.m
    return frequencies(fam)[0]
