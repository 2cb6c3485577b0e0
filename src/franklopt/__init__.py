"""Exact optimization toolkit for union-closed set families.

Computes f(n,a), the largest union-closed family on [n] with every
element in at most a sets, and g(n,m), the smallest possible frequency
of a most frequent element among union-closed families with exactly m
sets, together with their twin-constrained variants ft and gt.  Ships a
bespoke exact solver, an exhaustive small-n oracle, an LP-format model
writer, embedded published reference tables with checkers, and a CLI.
"""

from .families import (
    Family,
    add_largest_missing_set,
    clone_element,
    degree,
    delete_element,
    falgas_ravry_sets,
    family_from_masks,
    family_from_text,
    family_to_text,
    frequencies,
    is_union_closed,
    make_family,
    min_nontrivial_twin_count,
    read_family,
    remove_smallest_set,
    union_closure,
    write_family,
)
from .lp import LpDocument, export, parse_lp, write_lp
from .models import (
    ConstraintSystem,
    ModelInstance,
    ModelKind,
    build,
    check_feasible,
    objective_value,
)
from .solver import (
    SearchBudget,
    SolveOutcome,
    Status,
    UNLIMITED,
    exhaustive_oracle,
    solve,
)
from .verify import (
    CheckReport,
    TableEntry,
    ValueTable,
    check_falgas_ravry,
    check_properties,
    check_stability,
    compare_to_reference,
    compute_grid,
)

__version__ = "0.1.0"
