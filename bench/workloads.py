"""The benchmark workloads: seeded inputs, one timed pass, and the
correctness gate that checks every answer of the pass.

Each workload is a generator (seed -> inputs) and a pass (inputs ->
measurements).  The program only ever sees the generated cells and
families.  Every answer is checked: values against the published
tables, every witness and lifted family against its model and the family
predicates.  A pass counts each checked operation in ``attempted`` and
each wrong one in ``failed``.

A "cell" is the unit a workload times one by one: one solve on
``prove-n5``, the re-checks of all lifts of one oracle witness on
``certify``.  A pass is split into parts (see ``part``), each run in its
own process.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import resource
import time
import traceback
from pathlib import Path

from franklopt import cli, families, lp, models, reference, solver, verify
from franklopt.models import ModelInstance, ModelKind
from franklopt.solver import UNLIMITED, Status

from spans import Tracer

# How many parts, each run in its own process, a pass is split into.
# prove-n5: interleaved shares of its independent cells.  certify stays
# whole: its stages share the oracle's catalogues and the model cache,
# so any split would repeat their cold builds.
PARTS = {"prove-n5": 12, "certify": 1}

LP_PARAM = 8

# Checker items the published tables are known to fail: the a=24 row of
# the f table breaks monotonicity and stability in n, and ft(2,2) is
# published infeasible while gt(2,4)=2 exhibits a feasible family.
KNOWN_CHECKER_FAILURES = frozenset({
    "P1:f(6,24)<=f(7,24)",
    "S:f(6,24)=f(7,24)",
    "P6:f(7,g(7,43))>=43",
    "P6:f(8,g(8,43))>=43",
    "T3:ft(2,gt(2,4))>=4",
})
# The oracle's exact ft(2,2)=4 disagrees with the published dash (the same
# suspected erratum, listed in reference.SUSPECTED_ERRATA).
KNOWN_VALUE_MISMATCHES = frozenset({("ft", 2, 2)})


def published_cells() -> list[tuple[str, int, int]]:
    cells = set()
    for table in reference.REFERENCE_TABLES.values():
        cells.update(table)
    return sorted(cells)


def generate(workload: str, seed: int, tiny: bool) -> dict:
    """The inputs of one pass.  The same seed gives the same inputs."""
    rng = random.Random(f"{workload}:{seed}")
    cells = published_cells()
    if workload == "prove-n5":
        todo = [c for c in cells if c[1] == (3 if tiny else 5)]
        rng.shuffle(todo)
        return {"cells": todo}
    if workload == "certify":
        small, top = (3, 5) if tiny else (4, 8)
        oracle = [c for c in cells if c[1] <= small]
        rng.shuffle(oracle)
        # clone_picks[cell][k]: which element to clone at the k-th lift,
        # as a fraction of the current ground-set size
        picks = {c: [rng.random() for _ in range(top)] for c in sorted(oracle)}
        return {
            "oracle": oracle,
            "top": top,
            "clone_picks": picks,
            "lp_ns": list(range(top - 3, top + 1)),
            "cli_n": top - 2,
            "cli_pick": rng.random(),
        }
    raise ValueError(f"unknown workload {workload!r}")


def part(workload: str, inputs: dict, index: int) -> dict:
    """The inputs of the index-th of the PARTS[workload] parts of a pass."""
    if workload == "prove-n5":
        return dict(inputs, cells=inputs["cells"][index::PARTS[workload]])
    return inputs


class Pass:
    """What one pass measured and checked."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.cell_times: list[float] = []
        self.proved = 0
        self.hits = 0
        self.witnesses = 0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        # row count of each instance built in this pass; the systems
        # themselves stay in the model's own cache only, so the pass does
        # not change what that cache keeps alive
        self.rows: dict[ModelInstance, int] = {}

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 40:
                self.failures.append(what)
        return ok

    def span(self, name: str, **counts):
        return self.tracer.span(name, **counts)


def _instance(cell) -> ModelInstance:
    kind, n, param = cell
    return ModelInstance(ModelKind(kind), n, param)


def _published(p: Pass, cell):
    with p.span("reference.lookup"):
        found = reference.lookup(*cell)
    return found[0][1]


def _build(p: Pass, inst: ModelInstance) -> models.ConstraintSystem:
    """The instance's constraint system; the first call per instance in a
    pass is traced as the build."""
    if inst in p.rows:
        return models.build(inst)
    with p.span("models.build"):
        system = models.build(inst)
    p.rows[inst] = len(system.constraints)
    return system


def _check(p: Pass, inst: ModelInstance, fam: families.Family):
    if inst not in p.rows:
        _build(p, inst)
    with p.span("models.check_feasible", rows=p.rows[inst]) as sp:
        report = models.check_feasible(inst, fam)
        sp.set(feasible=int(report.feasible))
    with p.span("models.objective_value"):
        objective = models.objective_value(inst, fam)
    with p.span("families.is_union_closed"):
        closed = families.is_union_closed(fam)
    return report, objective, closed


def _recheck(p: Pass, inst: ModelInstance, fam: families.Family, value: int) -> None:
    report, objective, closed = _check(p, inst, fam)
    p.witnesses += 1
    p.check(
        report.feasible and closed and objective == value,
        f"{inst}: family for value {value} rejected "
        f"(violations {report.violations[:3]}, union-closed {closed}, objective {objective})",
    )


def _solve_cell(p: Pass, cell) -> None:
    inst = _instance(cell)
    name = verify.cell_name(*cell)
    started = time.perf_counter()
    with p.span("solver.solve") as sp:
        out = solver.solve(inst, UNLIMITED, workers=1)
        sp.set(nodes=out.stats.nodes, propagations=out.stats.propagations)
    p.cell_times.append(time.perf_counter() - started)
    expected = _published(p, cell)
    if not p.check(out.status is not Status.ABORTED, f"{name}: aborted without a budget"):
        return
    value = out.value if out.status is Status.OPTIMAL else None
    p.proved += 1
    p.hits += p.check(value == expected, f"{name}: computed {value}, published {expected}")
    if out.status is Status.OPTIMAL:
        _recheck(p, inst, out.witness, out.value)


# -- workloads -----------------------------------------------------------------


def _prove(p: Pass, inputs: dict, scratch: Path) -> None:
    for cell in inputs["cells"]:
        _solve_cell(p, cell)


def _certify(p: Pass, inputs: dict, scratch: Path) -> None:
    top = inputs["top"]

    # 1. the exhaustive oracle on every published cell at small n
    witnesses = []
    cold_ns = set()
    for cell in inputs["oracle"]:
        inst = _instance(cell)
        with p.span("solver.exhaustive_oracle", cold=int(inst.n not in cold_ns)):
            out = solver.exhaustive_oracle(inst)
        cold_ns.add(inst.n)
        expected = _published(p, cell)
        value = out.value if out.status is Status.OPTIMAL else None
        p.proved += out.status in (Status.OPTIMAL, Status.INFEASIBLE)
        p.hits += value == expected
        p.check(
            value == expected or cell in KNOWN_VALUE_MISMATCHES,
            f"oracle {verify.cell_name(*cell)}={value}, published {expected}",
        )
        if out.status is Status.OPTIMAL:
            witnesses.append((cell, out.value, out.witness))

    # 2. lift every optimal witness one cloned element at a time up to n=top
    lifted: dict[ModelInstance, list] = {}
    for chain, (cell, value, fam) in enumerate(witnesses):
        kind = ModelKind(cell[0])
        picks = inputs["clone_picks"][cell]
        for step in range(fam.n, top):
            with p.span("families.clone_element"):
                fam = families.clone_element(fam, 1 + int(picks[step] * fam.n))
            if not kind.maximize:
                with p.span("families.sort_by_frequency"):
                    fam = families.sort_by_frequency(fam)
            lifted.setdefault(ModelInstance(kind, fam.n, cell[2]), []).append((fam, value, chain))

    # re-check each lifted family and cross-check the verdict against the
    # family predicates; instances in canonical order so the model cache
    # behaves the same for every seed.  A cell is one witness's chain of
    # lifts: its re-check times summed, cold builds left out.
    order = sorted(lifted, key=lambda i: (i.kind.value, i.n, i.param))
    chain_times = [0.0] * len(witnesses)
    for inst in order:
        _build(p, inst)
        for fam, value, chain in lifted[inst]:
            started = time.perf_counter()
            report, objective, closed = _check(p, inst, fam)
            if inst.kind.maximize:
                with p.span("families.degree"):
                    within = families.degree(fam) <= inst.param
            else:
                with p.span("families.frequencies"):
                    freq = families.frequencies(fam)
                within = fam.m == inst.param and all(a >= b for a, b in zip(freq, freq[1:]))
            covered = True
            if inst.kind.twin:
                with p.span("families.min_nontrivial_twin_count"):
                    covered = families.min_nontrivial_twin_count(fam) >= 1
            chain_times[chain] += time.perf_counter() - started
            p.witnesses += 1
            expect = closed and within and covered
            p.check(
                report.feasible == expect,
                f"{inst}: check_feasible says {report.feasible}, predicates say {expect}",
            )
            if report.feasible:
                p.check(objective == value, f"{inst}: objective {objective} != {value}")
    p.cell_times.extend(chain_times)

    for inst in order:
        for fam, _, _ in lifted[inst]:
            with p.span("families.family_to_text"):
                text = families.family_to_text(fam)
            with p.span("families.family_from_text"):
                back = families.family_from_text(text)
            with p.span("families.union_closure"):
                closure = families.union_closure(fam)
            p.check(back == fam, f"{inst}: text round trip changed the family")
            p.check(closure == fam, f"{inst}: union closure of a union-closed family grew")

    # 3. LP export and parse round trip
    for n in inputs["lp_ns"]:
        for kind in ModelKind:
            system = _build(p, ModelInstance(kind, n, LP_PARAM))
            with p.span("lp.export") as sp:
                text = lp.export(system).text
                sp.set(bytes=len(text))
            with p.span("lp.parse_lp", bytes=len(text)):
                parsed = lp.parse_lp(text)
            p.check(
                parsed.maximize == system.maximize
                and parsed.objective == system.objective
                and parsed.rows == system.constraints
                and parsed.binaries == system.binaries
                and parsed.bounded == system.unit_interval,
                f"LP round trip of {system.inst} differs from the built model",
            )

    # 4. the checkers over every published cell
    table = verify.ValueTable()
    for tag, cells in reference.REFERENCE_TABLES.items():
        for cell, value in cells.items():
            table.put(*cell, verify.TableEntry(value, "reference"))
    failing = set()
    for checker in (
        verify.compare_to_reference,
        verify.check_properties,
        verify.check_stability,
        verify.check_falgas_ravry,
    ):
        with p.span(f"verify.{checker.__name__}") as sp:
            report = checker(table)
            sp.set(items=len(report.items))
        for item in report.items:
            if item.verdict == verify.FAIL:
                failing.add(item.cell)
                p.check(item.cell in KNOWN_CHECKER_FAILURES, f"checker failure {item.cell}: {item.detail}")
    for name in sorted(KNOWN_CHECKER_FAILURES):
        p.check(name in failing, f"known checker failure {name} not reported")

    # 5. the results cache: append, then load back
    path = scratch / f"cache-{os.getpid()}.txt"
    path.unlink(missing_ok=True)
    try:
        with p.span("verify.append_cache", records=len(table.entries)):
            verify.append_cache(path, table.entries)
        with p.span("verify.load_cache"):
            loaded = verify.load_cache(path)
    finally:
        path.unlink(missing_ok=True)
    p.check(loaded.entries == table.entries, "cache round trip changed the table")

    # 6. the command line on one lifted family of each kind
    for kind in ModelKind:
        choices = [
            (inst, fam) for inst in order if inst.kind is kind and inst.n == inputs["cli_n"]
            for fam, _, _ in lifted[inst]
        ]
        if not choices:
            continue
        inst, fam = choices[int(inputs["cli_pick"] * len(choices))]
        text = families.family_to_text(fam)
        path = scratch / f"family-{os.getpid()}.fam"
        path.write_text(text, encoding="utf-8")
        try:
            inspect = _cli(p, ["inspect", "--in", str(path)])
            closure = _cli(p, ["closure", "--in", str(path)])
        finally:
            path.unlink(missing_ok=True)
        exported = _cli(p, [
            "export-lp", "--model", kind.value, "--n", str(inst.n),
            "--param", str(inst.param), "--out", "-",
        ])
        head = f"m={fam.m} n={fam.n} degree={families.degree(fam)} "
        p.check(
            inspect.startswith(head) and "union_closed=true" in inspect,
            f"cli inspect of a {inst} family: {inspect.splitlines()[:1]}",
        )
        p.check(closure == text, f"cli closure of a {inst} family changed it")
        with p.span("lp.export") as sp:
            expected = lp.export(_build(p, inst)).text
            sp.set(bytes=len(expected))
        p.check(exported == expected, f"cli export-lp of {inst} differs from lp.export")


def _cli(p: Pass, argv: list[str]) -> str:
    out = io.StringIO()
    with p.span("cli.main"), contextlib.redirect_stdout(out):
        code = cli.main(argv)
    p.check(code == 0, f"cli {argv[0]} exited {code}")
    return out.getvalue()


_PASSES = {"prove-n5": _prove, "certify": _certify}


def run_pass(workload: str, inputs: dict, traced: bool, spawned_at: float, run_id: str,
             scratch: Path) -> dict:
    """One timed part of a pass; ``spawned_at`` is the monotonic time the
    process was started, so the set-up time covers interpreter start,
    imports and input generation."""
    tracer = Tracer(traced, run_id)
    p = Pass(tracer)
    started = time.perf_counter()
    setup_s = time.monotonic() - spawned_at
    with p.span("reference.fingerprint"):
        pinned = reference.fingerprint() == reference.PINNED_FINGERPRINT
    p.check(pinned, "reference tables differ from the pinned fingerprint")
    try:
        _PASSES[workload](p, inputs, scratch)
    except Exception as exc:  # one failed operation; the pass reports it
        traceback.print_exc()
        p.check(False, f"exception: {exc!r}")
    wall_s = time.perf_counter() - started
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cell_times": p.cell_times,
        "proved": p.proved,
        "incumbent_hits": p.hits,
        "witnesses": p.witnesses,
        "peak_rss_mb": rss / 1024,
        "attempted": p.attempted,
        "failed": p.failed,
        "failures": p.failures,
        "traced": traced,
    }
    if traced:
        result["spans"] = tracer.records()
    return result

