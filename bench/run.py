"""franklopt benchmark: one command, two seeded workloads.

    python3 bench/run.py --workload prove-n5 --seed 1 --seconds 60 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` of that checkout and nowhere else.  Workloads (see
``BENCHMARK.json`` for why each was chosen):

  prove-n5     every published n=5 cell solved to optimality, serially
  certify      oracle, witness lifting and re-checks, LP round trips,
               checkers, results cache and CLI; no search

A pass of a workload is split into parts (``workloads.PARTS``), each run
in a fresh interpreter, so every part starts cold, as a user's command
does.  The run repeats rounds of parts, one part after another, while
another part fits in ``--seconds``; every part runs at least once.  Each
part's time, and each cell's, is the median of its repetitions, and a
pass's wall time is the sum of its parts' medians.  On a shared host the
speed of the processor swings by tens of percent over seconds, so the
run spreads every part's repetitions over its whole length rather than
timing one pass.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds (at least two whole rounds) and reports the
per-layer metrics of the traced rounds, their self times and the tracing
overhead (traced minus untraced pass wall time).  Every answer is
checked, and the counts of each part must repeat in every round; the
last line of standard output is one JSON object, and the exit code is 1
when any check failed.  Details, including every span, go to
``.bench_out/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import PER_LAYER_UNITS, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Two workloads: on a shared host a run needs its full 60 s to give steady
# figures, and no more workloads of that length fit in the time the whole
# benchmark may take.
WORKLOADS = ("prove-n5", "certify")
CHILD_TIMEOUT_S = 170
# Processes started only to time set-up, so that a workload run in few
# parts still has several set-up samples.
SETUP_PROBES = 9
# Counts each part reports; they must repeat in every round.
COUNTS = ("proved", "incumbent_hits", "witnesses", "attempted", "failed")

# End-to-end metrics:
#   setup_s          process start to the first timed call (interpreter,
#                    imports, input generation), median over the set-up
#                    probes and every part process of the run
#   wall_s           a pass's wall time after set-up: the sum over its
#                    parts of each part's median time
#   cell_p50_s       median over the cells of a cell's median time (see
#                    workloads.py for what a cell is on each workload)
#   cell_tail_s      tail_percentile of the cells' median times
#   proved           cells finished OPTIMAL or INFEASIBLE (by search or
#                    by the exhaustive oracle), per pass
#   incumbent_hits   cells whose proved value or proved infeasibility
#                    equals the published value, per pass
#   witnesses_per_s  witnesses and lifted families re-checked per pass,
#                    over wall_s
#   peak_rss_mb      largest ru_maxrss of a part process (median over its
#                    repetitions), KiB / 1024
# Failed checks over attempted ones (fail_frac) is printed beside them
# and carried by the "attempted" and "failed" fields of the result.
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cell_p50_s": "s",
    "cell_tail_s": "s",
    "proved": "count",
    "incumbent_hits": "count",
    "witnesses_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def tail_percentile(samples: list[float]) -> tuple[float, int]:
    """The highest nearest-rank percentile with at least ten samples
    beyond it, as (value, percentile).  With fewer than 21 samples that
    percentile would lie below the median, so the maximum is reported
    instead, as p100."""
    xs = sorted(samples)
    n = len(xs)
    for pct in range(99, 49, -1):
        idx = math.ceil(pct * n / 100) - 1
        if n - 1 - idx >= 10:
            return xs[idx], pct
    return xs[-1], 100


def loadavg() -> str:
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return fh.read().strip()
    except OSError:
        return "unavailable"


def environment() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "commit": commit,
        "loadavg_before": loadavg(),
    }


# -- child: one part of a pass, or a set-up probe ----------------------------


def child_main(args) -> int:
    sys.path.insert(0, str(SRC))
    import franklopt

    if Path(franklopt.__file__).resolve().parent != (SRC / "franklopt").resolve():
        print(f"franklopt imported from {franklopt.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    inputs = workloads.generate(args.workload, args.seed, args.tiny)
    if args.part is None:
        print(json.dumps({"setup_s": time.monotonic() - args.spawned_at}))
        return 0
    inputs = workloads.part(args.workload, inputs, args.part)
    OUT.mkdir(exist_ok=True)
    result = workloads.run_pass(
        args.workload, inputs, bool(args.traced), args.spawned_at,
        f"{args.workload}-{args.seed}-{os.getpid()}", OUT,
    )
    print(json.dumps(result))
    return 0


def spawn(args, part: int | None, traced: bool = False) -> dict:
    """Run one part in a fresh interpreter, or with ``part`` None a set-up
    probe."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    cmd = [
        sys.executable, str(HERE / "run.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--child",
        "--traced", str(int(traced)),
    ] + (["--tiny"] if args.tiny else []) + ([] if part is None else ["--part", str(part)])
    started = time.monotonic()
    proc = subprocess.run(
        cmd + ["--spawned-at", repr(started)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        what = "set-up probe" if part is None else f"part {part}"
        raise RuntimeError(f"{what} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["child_s"] = time.monotonic() - started
    return result


def measure(args, parts: int) -> tuple[list[float], list[dict]]:
    """Set-up probes, then rounds of part processes while the next part
    fits in --seconds; the first round (the first two when tracing)
    always runs whole."""
    whole = 2 if args.trace else 1
    longest = [0.0] * parts
    runs: list[dict] = []
    start = time.monotonic()
    setups = [spawn(args, None)["setup_s"] for _ in range(SETUP_PROBES)]
    rnd = 0
    while True:
        traced = bool(args.trace) and rnd % 2 == 1
        for part in range(parts):
            if rnd >= whole and time.monotonic() - start + longest[part] > args.seconds:
                return setups, runs
            result = spawn(args, part, traced)
            longest[part] = max(longest[part], result["child_s"])
            runs.append(dict(result, round=rnd, part=part, traced=traced))
        rnd += 1


# -- parent: medians, report -------------------------------------------------


def by_part(runs: list[dict], parts: int) -> list[list[dict]]:
    return [[r for r in runs if r["part"] == part] for part in range(parts)]


def pass_wall(runs: list[dict], parts: int) -> float:
    return sum(statistics.median(r["wall_s"] for r in mine) for mine in by_part(runs, parts))


def end_to_end(setups: list[float], runs: list[dict], parts: int) -> tuple[dict, dict]:
    median = statistics.median
    grouped = by_part(runs, parts)
    # a part's cells come in the same order every round
    cells = [median(times) for mine in grouped for times in zip(*(r["cell_times"] for r in mine))]
    tail, pct = tail_percentile(cells)
    wall = pass_wall(runs, parts)
    first = [mine[0] for mine in grouped]
    values = {
        "setup_s": median(setups + [r["setup_s"] for r in runs]),
        "wall_s": wall,
        "cell_p50_s": median(cells),
        "cell_tail_s": tail,
        "proved": sum(r["proved"] for r in first),
        "incumbent_hits": sum(r["incumbent_hits"] for r in first),
        "witnesses_per_s": sum(r["witnesses"] for r in first) / wall,
        "peak_rss_mb": max(median(r["peak_rss_mb"] for r in mine) for mine in grouped),
    }
    notes = {
        "cell_tail_percentile": pct,
        "cells_per_pass": len(cells),
        "runs_per_part": [len(mine) for mine in grouped],
    }
    return values, notes


def merged_spans(round_runs: list[dict]) -> list[dict]:
    spans: list[dict] = []
    for run in round_runs:
        offset = len(spans)
        spans += [
            dict(s, parent=s["parent"] + offset if s["parent"] >= 0 else -1)
            for s in run["spans"]
        ]
    return spans


def per_layer(runs: list[dict], parts: int) -> tuple[dict, dict]:
    rounds: dict[int, list[dict]] = {}
    for run in runs:
        if run["traced"]:
            rounds.setdefault(run["round"], []).append(run)
    layers = [layer_metrics(merged_spans(rs)) for rs in rounds.values() if len(rs) == parts]
    values = {key: statistics.median(m[key] for m in layers) for key in layers[0]}
    values["trace.overhead_s"] = pass_wall([r for r in runs if r["traced"]], parts) - pass_wall(
        [r for r in runs if not r["traced"]], parts
    )
    return values, {"traced_rounds": len(layers), "runs": len(runs)}


def repeat_failures(runs: list[dict], parts: int) -> list[str]:
    """Parts whose counts differ between rounds."""
    failures = []
    for part, mine in enumerate(by_part(runs, parts)):
        for run in mine[1:]:
            if any(run[key] != mine[0][key] for key in COUNTS):
                failures.append(
                    f"part {part}: counts of round {run['round']} differ from round 0: "
                    + ", ".join(f"{key} {mine[0][key]}->{run[key]}" for key in COUNTS)
                )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke tests")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--part", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--traced", type=int, default=0, help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "franklopt" / "__init__.py").is_file():
        print(f"no franklopt sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.child:
        return child_main(args)

    sys.path.insert(0, str(SRC))
    from workloads import PARTS

    parts = PARTS[args.workload]
    env = environment()
    try:
        setups, runs = measure(args, parts)
    except (RuntimeError, subprocess.SubprocessError, ValueError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    env["loadavg_after"] = loadavg()

    if args.trace:
        values, notes = per_layer(runs, parts)
        units = PER_LAYER_UNITS
    else:
        values, notes = end_to_end(setups, runs, parts)
        units = END_TO_END_UNITS
    repeats = repeat_failures(runs, parts)
    attempted = sum(r["attempted"] for r in runs) + len(runs) - parts
    failed = sum(r["failed"] for r in runs) + len(repeats)
    failures = [f for r in runs for f in r["failures"]] + repeats
    notes["fail_frac"] = failed / attempted
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    OUT.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "environment": env, "notes": notes,
        "metrics": metrics, "failures": failures, "runs": runs,
    }
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1), encoding="utf-8")

    for name, metric in metrics.items():
        print(f"{name:28s} {metric['value']:.6g} {metric['unit']}")
    print(f"{'fail_frac':28s} {notes['fail_frac']:.6g} ratio ({failed}/{attempted})")
    if not args.trace:
        print(
            f"cell_tail_s is p{notes['cell_tail_percentile']} of {notes['cells_per_pass']} "
            f"cells per pass; runs per part {notes['runs_per_part']}"
        )
    for failure in failures:
        print(f"FAILED {failure}")
    print("environment " + json.dumps(env))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
