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
third-party files.  It takes the layout the writer emits:

- lines end in "\n"; a line may be indented by spaces, and nothing
  follows its last token;
- tokens are separated by single spaces, so "x_0  + x_1" (two spaces)
  and "x_0 + x_1\t" are malformed;
- blank lines, and comment lines (a backslash after optional spaces),
  are skipped wherever they occur;
- each section header stands alone on its line, each section appears
  at most once (one objective, Maximize or Minimize), and reading stops
  at "End";
- in the objective and in Subject To, a line that does not open a named
  row ("name:") continues the line above it;
- row names are unique.

Both directions work on whole sections: the writer renders each row from
a per-document table of term texts, and the reader splits the document
at its headers and matches each section's lines in one regex scan.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import itemgetter

from .families import elements_from_mask
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


def _wrap(line: str, out: list[str]) -> None:
    """Append a row line, split onto continuation lines if longer than MAX_LINE."""
    _, head, *tokens = line.split(" ")
    line = " " + head
    for tok in tokens:
        if len(line) + 1 + len(tok) > MAX_LINE:
            out.append(line)
            line = "   " + tok
        else:
            line = line + " " + tok
    out.append(line)


class _Tokens(dict):
    """Term (coefficient, var) -> its text with sign: " + x_3", " - 2 z_1_e1".

    One instance per document, so each distinct term is rendered once.
    """

    def __missing__(self, term):
        coef, var = term
        sign = "-" if coef < 0 else "+"
        text = self[term] = f" {sign} {var}" if abs(coef) == 1 else f" {sign} {abs(coef)} {var}"
        return text


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
            elems = ",".join(map(str, elements_from_mask(mask)))
            lines.append(f"\\   x_{mask} = {{{elems}}}")
    else:
        lines.append("\\ x_<d> = subset whose characteristic bit pattern equals d")

    # a body is its terms' texts joined; the first term carries no "+"
    text = _Tokens().__getitem__
    lines.append("Maximize" if system.maximize else "Minimize")
    _wrap(f" obj:{''.join(map(text, system.objective)).removeprefix(' +')}", lines)
    lines.append("Subject To")
    for name, terms, sense, rhs in system.constraints:
        line = f" {name}:{''.join(map(text, terms)).removeprefix(' +')} {sense} {rhs}"
        if len(line) > MAX_LINE:
            _wrap(line, lines)
        else:
            lines.append(line)
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


# Every line of a section body, the first one included, starts with "\n":
# the reader puts one in front of the document, and the header split
# leaves one in front of each line that follows a header.
_SKIP_RE = re.compile(r"\n *(?:\\.*)?(?=\n|\Z)")
_HEADER_RE = re.compile(r"\n *(Maximize|Minimize|Subject To|Bounds|Binary|End)(?=\n|\Z)")
_CONTINUATION_RE = re.compile(r"\n(?! *[A-Za-z]\w*:) *")
_OBJECTIVE_LINE_RE = re.compile(r"\n *[A-Za-z]\w*:(?: (.+))?")
_ROW_LINE_RE = re.compile(r"\n *([A-Za-z]\w*):(?: (.+))? (<=|>=|=) (-?\d+)(?=\n|\Z)")
_BOUND_LINE_RE = re.compile(r"\n *0 <= (\S+) <= 1(?=\n|\Z)")
# One term of a body split by _Terms.of: only the first may lack a sign.
_ONE_TERM_RE = re.compile(r"(?:([+-]) )?(?:(\d+) )?([xz]_\w+)")


class _Terms(dict):
    """Term text ("x_3", "- x_5", "+ 2 z_1_e1") -> (coefficient, var).

    One instance per document, so equal terms are one shared object.  A
    text met for the first time must match the one-term grammar.
    """

    def __missing__(self, text):
        match = _ONE_TERM_RE.fullmatch(text)
        if match is None:
            raise ValueError(f"malformed term: {text}")
        sign, coef, var = match.groups()
        coef = int(coef) if coef else 1
        term = self[text] = (-coef if sign == "-" else coef, var)
        return term

    def of(self, body: str | None) -> tuple[tuple[int, str], ...]:
        """The terms of a row body, cut in front of each " + " and " - ".

        Every piece after the first starts with the sign it was cut at,
        and the one-term grammar allows one sign at most, so a missing
        operator or a doubled sign leaves a piece that fails it.
        """
        if body is None:
            return ()
        pieces = body.replace(" + ", "\n+ ").replace(" - ", "\n- ").split("\n")
        return (*map(self.__getitem__, pieces),)  # faster than tuple(map(...))


def _sections(text: str) -> tuple[bool, dict[str, str]]:
    """Split a document at its section headers.

    Returns whether it maximizes, and each section's body by header.
    """
    preamble, *parts = _HEADER_RE.split(_SKIP_RE.sub("", "\n" + text))
    if preamble:
        line = preamble[1:].partition("\n")[0]
        raise ValueError(f"line outside any section: {line.strip()}")
    sections: dict[str, str] = {}
    maximize = None
    for header, body in zip(parts[::2], parts[1::2]):
        if header == "End":
            break
        if header in ("Maximize", "Minimize"):
            if maximize is not None:
                raise ValueError(f"repeated section: {header} after another objective")
            maximize = header == "Maximize"
        elif header in sections:
            raise ValueError(f"repeated section: {header}")
        sections[header] = body
    if maximize is None:
        raise ValueError("missing objective section")
    return maximize, sections


def _rows(body: str, terms: _Terms) -> list[Constraint]:
    """The rows of a Subject To body.

    One substitution joins the continuation lines and one regex scan
    reads the rows.  ``_ROW_LINE_RE`` matches whole lines only, so a line
    it skips shows as a short count; on any failure a rescan names the
    first malformed line.
    """
    body = _CONTINUATION_RE.sub(" ", body)
    if body[:1] == " ":  # the first line did not open a row
        line = body.partition("\n")[0]
        raise ValueError(f"continuation line before any row: {line.strip()}")
    try:
        rows = [
            Constraint(name, terms.of(text), sense, int(rhs))
            for name, text, sense, rhs in map(re.Match.groups, _ROW_LINE_RE.finditer(body))
        ]
    except ValueError:  # a malformed term
        rows = None
    if rows is not None and len(rows) == body.count("\n"):
        return rows
    for line in body.split("\n")[1:]:
        match = _ROW_LINE_RE.fullmatch("\n" + line)
        if match is not None:
            try:
                terms.of(match[2])
                continue
            except ValueError:
                pass
        raise ValueError(f"malformed row: {line.strip()}")
    raise AssertionError("a failed scan left no malformed row")


def parse_lp(text: str) -> ParsedLp:
    """Read a document in this dialect; anything else raises ValueError."""
    maximize, sections = _sections(text)
    terms = _Terms()
    objective = ()
    body = _CONTINUATION_RE.sub(" ", sections.pop("Maximize" if maximize else "Minimize"))
    if body:
        match = _OBJECTIVE_LINE_RE.fullmatch(body)
        if match is None:
            raise ValueError("objective must be named and hold terms only")
        objective = terms.of(match[1])

    # popped, so that each section's text is freed once it is read
    rows = _rows(sections.pop("Subject To", ""), terms)
    if len(set(map(itemgetter(0), rows))) != len(rows):
        seen: set[str] = set()
        name = next(row.name for row in rows if row.name in seen or seen.add(row.name))
        raise ValueError(f"duplicate row name: {name}")

    body = sections.pop("Bounds", "")
    bounded = tuple(m[1] for m in _BOUND_LINE_RE.finditer(body))
    if len(bounded) != body.count("\n"):
        line = next(l for l in body.split("\n")[1:] if not _BOUND_LINE_RE.fullmatch("\n" + l))
        raise ValueError(f"unsupported bounds line: {line.strip()}")
    binaries = tuple(sections.pop("Binary", "").split())
    return ParsedLp(maximize, objective, tuple(rows), bounded, binaries)


def assignment_feasible(parsed: ParsedLp, x_values: dict[str, int]) -> bool:
    """Feasibility of fixed 0/1 set variables in a parsed document.

    Continuous z variables are set to their largest value allowed by the
    link rows (min of the linked x values, capped at 1), which is optimal
    for the cover rows.  A row variable that is neither in ``x_values``
    nor bounded in the document raises ValueError.
    """
    z_cap: dict[str, int] = {var: 1 for var in parsed.bounded}
    pure_rows = []
    z_rows = []
    try:
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
    except KeyError as exc:
        raise ValueError(f"no value for variable {exc.args[0]}: not in x_values or Bounds") from None
