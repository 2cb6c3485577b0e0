"""Command-line frontend.

Subcommands: solve, grid, verify, export-lp, closure, inspect.  Grids are
printed with parameter rows and ground-set-size columns so they can be
eyeballed against the published tables; infeasible cells print "-".

Exit codes: 0 success, 1 failed checks or no value to report (infeasible
or budget-aborted solve), 2 usage errors.  FRANKLOPT_CACHE sets the
default results-cache path for grid and verify.
"""

from __future__ import annotations

import argparse
import os
import sys

from .families import (
    MAX_GROUND_SET,
    degree,
    family_to_text,
    frequencies,
    is_union_closed,
    read_family,
    twin_counts,
    union_closure,
    write_family,
)
from .lp import export, write_lp
from .models import ModelInstance, ModelKind, build
from .solver import SearchBudget, Status, solve
from . import verify as verify_mod

CACHE_ENV = "FRANKLOPT_CACHE"
CHECKS = ("reference", "properties", "stability", "falgas-ravry")


# Argument types: argparse turns their errors into usage errors (exit 2).


def _ground_size(text: str) -> int:
    n = int(text)
    if not 1 <= n <= MAX_GROUND_SET:
        raise argparse.ArgumentTypeError(f"n={n} out of range 1..{MAX_GROUND_SET}")
    return n


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _positive_seconds(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _range_of(item):
    """Type for A or A..B with A <= B, each end parsed by `item`."""

    def _range(text: str) -> range:
        lo, dots, hi = text.partition("..")
        lo, hi = item(lo), item(hi if dots else lo)
        if hi < lo:
            raise argparse.ArgumentTypeError(f"empty range {text!r}; expected A..B with A <= B")
        return range(lo, hi + 1)

    return _range


def _grid_spec(text: str):
    """model:A..B:C..D -> (kind, ns, params)."""
    try:
        model, ns, params = text.split(":")
        return ModelKind(model), _range_of(_ground_size)(ns), _range_of(_positive)(params)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad --grid-spec {text!r}; expected model:A..B:C..D")


def _checks(text: str) -> tuple[str, ...]:
    wanted = CHECKS if text == "all" else tuple(text.split(","))
    for check in wanted:
        if check not in CHECKS:
            raise argparse.ArgumentTypeError(
                f"unknown check {check!r}; expected one of {', '.join(CHECKS)} or all"
            )
    return wanted


def _budget(args) -> SearchBudget:
    return SearchBudget(max_nodes=args.budget_nodes, max_seconds=args.budget_seconds)


def _add_budget_flags(parser) -> None:
    parser.add_argument("--budget-nodes", type=_positive, default=None, metavar="N")
    parser.add_argument("--budget-seconds", type=_positive_seconds, default=None, metavar="S")


def _add_threads_flag(parser) -> None:
    parser.add_argument(
        "--threads",
        type=_positive,
        default=1,
        metavar="K",
        help="worker processes that solve grid cells side by side; every "
        "worker count gives the same table when no budget is set",
    )


def _cache_path(args):
    return args.cache or os.environ.get(CACHE_ENV) or None


def cmd_solve(args) -> int:
    inst = ModelInstance(ModelKind(args.model), args.n, args.param)
    outcome = solve(inst, _budget(args))
    if outcome.status is Status.OPTIMAL:
        print(f"value={outcome.value}")
        if args.witness:
            write_family(outcome.witness, args.witness)
        return 0
    if outcome.status is Status.INFEASIBLE:
        print("infeasible")
        return 1
    print("aborted")
    if outcome.incumbent_value is not None:
        print(
            f"incumbent={outcome.incumbent_value} (feasible, optimality unproven)",
            file=sys.stderr,
        )
        if args.witness and outcome.incumbent_witness is not None:
            write_family(outcome.incumbent_witness, args.witness)
    return 1


def _render_grid(table, kind, ns, params, fmt) -> str:
    head = "a\\n" if kind.maximize else "m\\n"
    ns = list(ns)

    def cell(n, p):
        entry = table.get(kind.value, n, p)
        if entry is None:
            return ""
        return "-" if entry.infeasible else str(entry.value)

    rows = [[str(p)] + [cell(n, p) for n in ns] for p in params]
    if fmt == "markdown":
        lines = ["| " + " | ".join([head] + [str(n) for n in ns]) + " |"]
        lines.append("|" + "---|" * (len(ns) + 1))
        lines += ["| " + " | ".join(row) + " |" for row in rows]
        return "\n".join(lines)
    lines = ["\t".join([head] + [str(n) for n in ns])]
    lines += ["\t".join(row) for row in rows]
    return "\n".join(lines)


def cmd_grid(args) -> int:
    kind = ModelKind(args.model)
    table = verify_mod.compute_grid(
        kind,
        args.n,
        args.param,
        budget=_budget(args),
        cache_path=_cache_path(args),
        workers=args.threads,
    )
    print(_render_grid(table, kind, args.n, args.param, args.format))
    for warning in table.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return 0


def cmd_verify(args) -> int:
    table = verify_mod.ValueTable()
    for kind, ns, params in args.grid_spec:
        table.merge(
            verify_mod.compute_grid(
                kind,
                ns,
                params,
                budget=_budget(args),
                cache_path=_cache_path(args),
                workers=args.threads,
            )
        )
    for warning in table.warnings:
        print(f"warning: {warning}", file=sys.stderr)

    runners = {
        "reference": verify_mod.compare_to_reference,
        "properties": verify_mod.check_properties,
        "stability": verify_mod.check_stability,
        "falgas-ravry": verify_mod.check_falgas_ravry,
    }
    failed = False
    for check in args.checks:
        report = runners[check](table)
        print(report.render())
        for line in report.machine_lines():
            print(line)
        failed = failed or not report.ok
    return 1 if failed else 0


def cmd_export_lp(args) -> int:
    system = build(ModelInstance(ModelKind(args.model), args.n, args.param))
    if args.out == "-":
        sys.stdout.write(export(system).text)
    else:
        write_lp(system, args.out)
    return 0


def cmd_closure(args) -> int:
    fam = read_family(args.infile)
    sys.stdout.write(family_to_text(union_closure(fam)))
    return 0


def cmd_inspect(args) -> int:
    fam = read_family(args.infile)
    deg = degree(fam)
    print(
        f"m={fam.m} n={fam.n} degree={deg} ratio={deg}/{fam.m} "
        f"union_closed={'true' if is_union_closed(fam) else 'false'}"
    )
    print("frequencies=" + ",".join(map(str, frequencies(fam))))
    nontrivial, total = twin_counts(fam)
    print(
        "twins: "
        + " ".join(
            f"e{e}={nt}/{tot}"
            for e, (nt, tot) in enumerate(zip(nontrivial, total), start=1)
        )
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="franklopt",
        description="Exact optimization over union-closed set families",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one instance to optimality")
    p.add_argument("--model", required=True, choices=["f", "g", "ft", "gt"])
    p.add_argument("--n", type=_ground_size, required=True)
    p.add_argument("--param", type=_positive, required=True, help="degree cap a or set count m")
    p.add_argument("--witness", metavar="PATH", help="write the witness family here")
    _add_budget_flags(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("grid", help="solve a rectangle of instances")
    p.add_argument("--model", required=True, choices=["f", "g", "ft", "gt"])
    p.add_argument("--n", type=_range_of(_ground_size), required=True, metavar="A..B")
    p.add_argument("--param", type=_range_of(_positive), required=True, metavar="C..D")
    p.add_argument("--cache", metavar="PATH")
    p.add_argument("--format", choices=["tsv", "markdown"], default="tsv")
    _add_budget_flags(p)
    _add_threads_flag(p)
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("verify", help="run the grid checkers")
    p.add_argument("--checks", type=_checks, default="all", help="comma list: " + ",".join(CHECKS))
    p.add_argument(
        "--grid-spec",
        type=_grid_spec,
        action="append",
        required=True,
        metavar="MODEL:A..B:C..D",
        help="grid to compute and check; repeatable",
    )
    p.add_argument("--cache", metavar="PATH")
    _add_budget_flags(p)
    _add_threads_flag(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("export-lp", help="write one instance in LP text format")
    p.add_argument("--model", required=True, choices=["f", "g", "ft", "gt"])
    p.add_argument("--n", type=_ground_size, required=True)
    p.add_argument("--param", type=_positive, required=True)
    p.add_argument("--out", required=True, metavar="PATH", help="target path or - for stdout")
    p.set_defaults(func=cmd_export_lp)

    p = sub.add_parser("closure", help="union closure of a family file")
    p.add_argument("--in", dest="infile", required=True, metavar="PATH")
    p.set_defaults(func=cmd_closure)

    p = sub.add_parser("inspect", help="statistics of a family file")
    p.add_argument("--in", dest="infile", required=True, metavar="PATH")
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
