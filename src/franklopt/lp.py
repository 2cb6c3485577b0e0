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


_NAME_RE = re.compile(r"^[A-Za-z]\w*:$")
_VAR_RE = re.compile(r"^[xz]_\w+$")


def _parse_terms(tokens: list[str]):
    """Token list -> (terms, sense, rhs); rhs absent for the objective."""
    terms = []
    sign = 1
    coef = None
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if tok in ("<=", ">=", "="):
            rhs = int(tokens[i + 1])
            return tuple(terms), tok, rhs
        if tok == "+":
            sign = 1
        elif tok == "-":
            sign = -1
        elif _VAR_RE.match(tok):
            terms.append((sign * (coef if coef is not None else 1), tok))
            sign, coef = 1, None
        else:
            coef = int(tok)
        i += 1
    return tuple(terms), None, None


def parse_lp(text: str) -> ParsedLp:
    section = None
    maximize = None
    objective_tokens: list[str] = []
    row_tokens: list[list[str]] = []
    bounded: list[str] = []
    binaries: list[str] = []

    for raw in text.splitlines():
        line = raw.rstrip()
        if not line or line.lstrip().startswith("\\"):
            continue
        stripped = line.strip()
        if stripped in ("Maximize", "Minimize"):
            section = "objective"
            maximize = stripped == "Maximize"
            continue
        if stripped == "Subject To":
            section = "rows"
            continue
        if stripped == "Bounds":
            section = "bounds"
            continue
        if stripped == "Binary":
            section = "binary"
            continue
        if stripped == "End":
            break
        tokens = stripped.split()
        if section == "objective":
            objective_tokens.extend(tokens)
        elif section == "rows":
            if _NAME_RE.match(tokens[0]):
                row_tokens.append(tokens)
            else:
                row_tokens[-1].extend(tokens)  # continuation line
        elif section == "bounds":
            if len(tokens) != 5 or tokens[0] != "0" or tokens[4] != "1":
                raise ValueError(f"unsupported bounds line: {stripped}")
            bounded.append(tokens[2])
        elif section == "binary":
            binaries.extend(tokens)
        else:
            raise ValueError(f"line outside any section: {stripped}")

    if maximize is None:
        raise ValueError("missing objective section")
    if objective_tokens and not _NAME_RE.match(objective_tokens[0]):
        raise ValueError("objective must be named")
    obj_terms, sense, _ = _parse_terms(objective_tokens[1:])
    if sense is not None:
        raise ValueError("objective must not carry a relation")

    rows = []
    for tokens in row_tokens:
        name = tokens[0][:-1]
        terms, sense, rhs = _parse_terms(tokens[1:])
        if sense is None:
            raise ValueError(f"row {name} has no relation")
        rows.append(Constraint(name, terms, sense, rhs))

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
