"""LP text format for the built constraint systems.

The writer emits the classic solver-readable layout: an objective
section, "Subject To", "Bounds" (twin kinds only), "Binary", "End".
Output is byte-deterministic: a fixed header comment block records the
instance and generator version, rows appear in canonical build order,
rows are normalized (shared terms cancelled, so no variable appears
twice), and lines longer than 255 characters wrap onto continuation
lines.

``parse_lp`` reads this dialect back, and only this dialect; it exists
so round trips can be checked against the model builder, not to consume
third-party files.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .models import ConstraintSystem, Constraint

GENERATOR = "franklopt-lp v1"
NAMING = "mask-decimal-v1"
MAX_LINE = 255
_SUBSET_COMMENT_LIMIT = 6  # ground sets this wide get a full mask table


@dataclass(frozen=True)
class LpDocument:
    lines: tuple[str, ...]

    @property
    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def _wrap(head: str, tokens: list[str], out: list[str]) -> None:
    line = head
    for tok in tokens:
        if len(line) + 1 + len(tok) > MAX_LINE:
            out.append(line)
            line = "   " + tok
        else:
            line = line + " " + tok
    out.append(line)


def _term_tokens(terms) -> list[str]:
    tokens: list[str] = []
    for coef, var in terms:
        if coef >= 0:
            if tokens:
                tokens.append("+")
        else:
            tokens.append("-")
        if abs(coef) != 1:
            tokens.append(str(abs(coef)))
        tokens.append(var)
    return tokens


def _set_braces(mask: int) -> str:
    elems = []
    e = 1
    while mask:
        if mask & 1:
            elems.append(str(e))
        mask >>= 1
        e += 1
    return "{" + ",".join(elems) + "}"


def export(system: ConstraintSystem) -> LpDocument:
    inst = system.inst
    lines = [
        f"\\ generator={GENERATOR}",
        f"\\ naming={NAMING}",
        f"\\ model={inst.kind.value} n={inst.n} param={inst.param}",
    ]
    if not inst.kind.maximize:
        lines.append("\\ ord rows are normalized: terms shared by both sides cancelled")
    if inst.n <= _SUBSET_COMMENT_LIMIT:
        lines.append("\\ subset encoding:")
        for mask in range(1 << inst.n):
            lines.append(f"\\   x_{mask} = {_set_braces(mask)}")
    else:
        lines.append("\\ x_<d> = subset whose characteristic bit pattern equals d")

    lines.append("Maximize" if system.maximize else "Minimize")
    _wrap(" obj:", _term_tokens(system.objective), lines)
    lines.append("Subject To")
    for row in system.constraints:
        _wrap(f" {row.name}:", _term_tokens(row.terms) + [row.sense, str(row.rhs)], lines)
    if system.unit_interval:
        lines.append("Bounds")
        for var in system.unit_interval:
            lines.append(f" 0 <= {var} <= 1")
    lines.append("Binary")
    for var in system.binaries:
        lines.append(f" {var}")
    lines.append("End")
    return LpDocument(tuple(lines))


def write_lp(system: ConstraintSystem, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(export(system).text)


# -- reader for this dialect ----------------------------------------------


@dataclass(frozen=True)
class ParsedLp:
    maximize: bool
    objective: tuple[tuple[int, str], ...]
    rows: tuple[Constraint, ...]
    bounded: tuple[str, ...]
    binaries: tuple[str, ...]


# One term is [coef] var; every term but the first follows a + or - sign.
_TERM = r"(?:\d+\s+)?[xz]_\w+"
_TERMS = rf"(?:(?:[+-]\s+)?{_TERM}(?:\s+[+-]\s+{_TERM})*)?"
_ROW_START_RE = re.compile(r"[A-Za-z]\w*:")
_ROW_RE = re.compile(rf"([A-Za-z]\w*):\s*({_TERMS})\s*(<=|>=|=)\s*(-?\d+)")
_OBJECTIVE_RE = re.compile(rf"([A-Za-z]\w*):\s*({_TERMS})")
_TERM_RE = re.compile(rf"[+-]?\s*{_TERM}")
_SECTIONS = {
    "Maximize": "objective",
    "Minimize": "objective",
    "Subject To": "rows",
    "Bounds": "bounds",
    "Binary": "binary",
}


class _Terms(dict):
    """Term text ("x_3", "- x_5", "+ 2 z_1_e1") -> (coefficient, var).

    One instance per document, so equal terms are one shared object.
    """

    def __missing__(self, text):
        *head, var = text.split()
        coef = int(head[-1]) if head and head[-1].isdigit() else 1
        term = self[text] = (-coef if head and head[0] == "-" else coef, var)
        return term

    def of(self, body: str) -> tuple[tuple[int, str], ...]:
        """The terms of a body that matched ``_TERMS``."""
        return tuple(map(self.__getitem__, _TERM_RE.findall(body)))


def parse_lp(text: str) -> ParsedLp:
    """Read a document in this dialect; anything else raises ValueError."""
    section = None
    maximize = None
    objective_lines: list[str] = []
    row_lines: list[str] = []
    bounded: list[str] = []
    binaries: list[str] = []

    for raw in text.splitlines():
        line = raw.strip()
        if not line or line[0] == "\\":
            continue
        if line in _SECTIONS:
            section = _SECTIONS[line]
            if section == "objective":
                maximize = line == "Maximize"
            continue
        if line == "End":
            break
        if section == "objective":
            objective_lines.append(line)
        elif section == "rows":
            if _ROW_START_RE.match(line):
                row_lines.append(line)
            elif row_lines:
                row_lines[-1] += " " + line  # continuation line
            else:
                raise ValueError(f"continuation line before any row: {line}")
        elif section == "bounds":
            tokens = line.split()
            if len(tokens) != 5 or tokens[0] != "0" or tokens[4] != "1":
                raise ValueError(f"unsupported bounds line: {line}")
            bounded.append(tokens[2])
        elif section == "binary":
            binaries.extend(line.split())
        else:
            raise ValueError(f"line outside any section: {line}")

    if maximize is None:
        raise ValueError("missing objective section")
    terms = _Terms()
    obj_terms: tuple[tuple[int, str], ...] = ()
    if objective_lines:
        match = _OBJECTIVE_RE.fullmatch(" ".join(objective_lines))
        if match is None:
            raise ValueError("objective must be named and hold terms only")
        obj_terms = terms.of(match[2])

    rows = []
    for line in row_lines:
        match = _ROW_RE.fullmatch(line)
        if match is None:
            raise ValueError(f"malformed row: {line}")
        name, body, sense, rhs = match.groups()
        rows.append(Constraint(name, terms.of(body), sense, int(rhs)))

    return ParsedLp(maximize, obj_terms, tuple(rows), tuple(bounded), tuple(binaries))


def assignment_feasible(parsed: ParsedLp, x_values: dict[str, int]) -> bool:
    """Feasibility of fixed 0/1 set variables in a parsed document.

    Continuous z variables are set to their largest value allowed by the
    link rows (min of the linked x values, capped at 1), which is optimal
    for the cover rows.
    """
    z_cap: dict[str, int] = {var: 1 for var in parsed.bounded}
    pure_rows = []
    z_rows = []
    for row in parsed.rows:
        z_terms = [(c, v) for c, v in row.terms if v.startswith("z_")]
        if not z_terms:
            pure_rows.append(row)
        elif len(row.terms) == 2 and row.sense == "<=" and row.rhs == 0:
            (zc, zv), (xc, xv) = (
                row.terms if row.terms[0][1].startswith("z_") else row.terms[::-1]
            )
            if zc != 1 or xc != -1:
                raise ValueError(f"unsupported link row {row.name}")
            z_cap[zv] = min(z_cap[zv], x_values[xv])
        else:
            z_rows.append(row)

    for row in pure_rows:
        if not row.evaluate(x_values):
            return False
    values = dict(x_values)
    values.update(z_cap)
    return all(row.evaluate(values) for row in z_rows)
