import hashlib
import random
import re
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from franklopt.families import family_from_masks, sort_by_frequency, union_closure
from franklopt.lp import MAX_LINE, assignment_feasible, export, parse_lp, write_lp
from franklopt.models import ModelInstance, ModelKind, build, check_feasible, var_x

GOLDEN = Path(__file__).parent / "golden"

GOLDEN_CASES = [
    (ModelKind.F, 2, 2, "f_n2_p2.lp"),
    (ModelKind.G, 3, 5, "g_n3_p5.lp"),
    (ModelKind.FT, 3, 4, "ft_n3_p4.lp"),
    (ModelKind.GT, 4, 9, "gt_n4_p9.lp"),
]

# sha256 of export(build(kind, n, 9)).text, above the golden files' n <= 4
PINNED_DIGESTS = {
    (ModelKind.F, 6): "93bb7492e1739c3b3fa33d626542434df2a26cbe7ce1af59066bba3f9b34669a",
    (ModelKind.G, 6): "f36d9ed235c39bef0dfedf3ed52ba6f7a50ea42f7945378cdd8677cd383a6bb7",
    (ModelKind.FT, 6): "38298c6d8005e4b60ad7e6d602b850ca3a168b7418045594fa1cd16b5e07a52d",
    (ModelKind.GT, 6): "26739c2f0334b1648f38ef1d0430438952f1677269839f55870eb054e09cd1ce",
    (ModelKind.F, 7): "ca4d71486ee85ec70c3f171cde4f3d5b0dc7971063d9d5f513ce2dd1d9d6e112",
    (ModelKind.G, 7): "15946812e9166ac3bb1c2e32ed29e7d784a382d8e5326991e235c71db93a2066",
    (ModelKind.FT, 7): "5052677086b86701df8694b2a25ce23ab807c25338fade9dfabf08cd835c1b2d",
    (ModelKind.GT, 7): "c8a5fc5ba9b6a87a4599bc072231120d4261db3bad31c119cdc031bf78007863",
    (ModelKind.F, 8): "5cb6fb78aba37d29f00d099de54e416ff76f9bd0ef09f37dc34a3148d16dbb89",
    (ModelKind.G, 8): "caaa234ee080a3f1e63c0cc6ed04592fecb282de06dc864eb14d1f4187c8c7f1",
    (ModelKind.FT, 8): "6a53a1cafe918cfd4a858bfb674fae1f18ecef051057e37e5f5ecf7dfd03d336",
    (ModelKind.GT, 8): "5c9d892a299afe838609e9b1e8cc0b76fe53ca17fec0b06f576fc48d88bd85e4",
}

# Reference: the reader's row grammar as it stood when rows were read one
# regex match and one term scan at a time.  A row is accepted exactly when
# this grammar matches it whole.
_REF_TERM = r"(?:\d+\s+)?[xz]_\w+"
_REF_TERMS = rf"(?:(?:[+-]\s+)?{_REF_TERM}(?:\s+[+-]\s+{_REF_TERM})*)?"
_REF_ROW_RE = re.compile(rf"([A-Za-z]\w*):\s*({_REF_TERMS})\s*(<=|>=|=)\s*(-?\d+)")
_REF_TERM_RE = re.compile(rf"[+-]?\s*{_REF_TERM}")


def reference_row(line):
    """(name, terms, sense, rhs) of a row line, or None if it is malformed."""
    match = _REF_ROW_RE.fullmatch(line)
    if match is None:
        return None
    name, body, sense, rhs = match.groups()
    terms = []
    for text in _REF_TERM_RE.findall(body):
        *head, var = text.split()
        coef = int(head[-1]) if head and head[-1].isdigit() else 1
        terms.append((-coef if head and head[0] == "-" else coef, var))
    return name, tuple(terms), sense, int(rhs)


def row_fields(row):
    return row.name, row.terms, row.sense, row.rhs


ROW_NAMES = st.sampled_from(["r", "u", "tc", "deg_", "R", "_r", "9r", "r-"])
SIGNS = st.sampled_from(["+", "-"])
COEFFICIENTS = st.sampled_from(["1", "2", "17", "305"])
VARIABLES = st.sampled_from(["x_0", "x_12", "z_3_e1", "z_1", "x_ab"])
SENSES = st.sampled_from(["<=", ">=", "="])
RHS = st.sampled_from(["0", "1", "-2", "40"])
JUNK = st.sampled_from(
    ["+", "-", "7", "x_", "y_1", "3x_1", "+-", "-x_1", "x_1+", "1.5", "r2:", "<=", "=<", "==", ":"]
)


@st.composite
def row_lines(draw, index):
    """A single-spaced row, well formed or broken by one token."""
    tokens = []
    for i in range(draw(st.integers(0, 5))):
        if i or draw(st.booleans()):
            tokens.append(draw(SIGNS))
        if draw(st.booleans()):
            tokens.append(draw(COEFFICIENTS))
        tokens.append(draw(VARIABLES))
    tokens += [draw(SENSES), draw(RHS)]
    if draw(st.booleans()):
        where = draw(st.integers(0, len(tokens) - 1))
        if draw(st.booleans()):
            del tokens[where]
        else:
            tokens.insert(where, draw(JUNK))
    return " ".join([f"{draw(ROW_NAMES)}{index}:", *tokens])


@st.composite
def row_blocks(draw):
    return [draw(row_lines(i)) for i in range(draw(st.integers(1, 3)))]


N4_PARAMS = {
    ModelKind.F: (3, 5, 8),
    ModelKind.G: (5, 7, 10),
    ModelKind.FT: (5, 8, 12),
    ModelKind.GT: (6, 8, 11),
}


class TestGolden:
    @pytest.mark.parametrize("kind,n,param,name", GOLDEN_CASES)
    def test_byte_equality(self, kind, n, param, name):
        doc = export(build(ModelInstance(kind, n, param)))
        assert doc.text == (GOLDEN / name).read_text()

    def test_row_rendering(self):
        text = (GOLDEN / "f_n2_p2.lp").read_text()
        assert " obj: x_0 + x_1 + x_2 + x_3" in text
        assert " u1: x_1 + x_2 - x_3 <= 1" in text
        assert text.count(" deg") == 2

    def test_deterministic(self):
        inst = ModelInstance(ModelKind.GT, 4, 9)
        assert export(build(inst)).text == export(build(inst)).text

    def test_pinned_digests_from_warm_blocks(self):
        # kinds, sizes and params interleaved, with every size's blocks
        # built first, so each document comes from blocks other builds made
        for n in (6, 7, 8):
            build(ModelInstance(ModelKind.GT, n, 20))
        cases = [(kind, n, param) for kind, n in PINNED_DIGESTS for param in (9, 4, 30)]
        random.Random(8).shuffle(cases)
        digests = {}
        for kind, n, param in cases:
            system = build(ModelInstance(kind, n, param))
            if param == 9:
                digests[kind, n] = hashlib.sha256(export(system).text.encode()).hexdigest()
        assert digests == PINNED_DIGESTS

    def test_write_lp(self, tmp_path):
        inst = ModelInstance(ModelKind.F, 2, 2)
        out = tmp_path / "model.lp"
        write_lp(build(inst), out)
        assert out.read_text() == export(build(inst)).text


class TestDocumentShape:
    @pytest.mark.parametrize("kind,n,param,name", GOLDEN_CASES)
    def test_section_order(self, kind, n, param, name):
        lines = export(build(ModelInstance(kind, n, param))).lines
        keywords = [
            l for l in lines if l in ("Maximize", "Minimize", "Subject To", "Bounds", "Binary", "End")
        ]
        expect = ["Maximize" if kind.maximize else "Minimize", "Subject To"]
        if kind.twin:
            expect.append("Bounds")
        expect += ["Binary", "End"]
        assert keywords == expect

    def test_no_variable_repeats_within_a_row(self):
        for kind, n, param, _ in GOLDEN_CASES:
            system = build(ModelInstance(kind, n, param))
            for row in system.constraints:
                names = [var for _, var in row.terms]
                assert len(names) == len(set(names)), row.name

    def test_line_width_cap_and_wrap(self):
        doc = export(build(ModelInstance(ModelKind.G, 6, 20)))
        assert all(len(line) <= MAX_LINE for line in doc.lines)
        # the cardinality row over 64 variables must have wrapped
        card_idx = next(i for i, l in enumerate(doc.lines) if l.startswith(" card:"))
        assert doc.lines[card_idx + 1].startswith("   ")

    def test_header_records_instance(self):
        text = export(build(ModelInstance(ModelKind.FT, 3, 4))).text
        assert "\\ model=ft n=3 param=4" in text
        assert "\\ generator=" in text


class TestReader:
    def test_parse_round_trip_structure(self):
        system = build(ModelInstance(ModelKind.GT, 3, 6))
        parsed = parse_lp(export(system).text)
        assert not parsed.maximize
        assert len(parsed.rows) == len(system.constraints)
        assert parsed.binaries == system.binaries
        assert parsed.bounded == system.unit_interval
        for ours, theirs in zip(system.constraints, parsed.rows):
            assert ours.name == theirs.name
            assert ours.terms == theirs.terms
            assert ours.sense == theirs.sense
            assert ours.rhs == theirs.rhs

    def test_parse_wrapped_rows(self):
        system = build(ModelInstance(ModelKind.G, 6, 20))
        parsed = parse_lp(export(system).text)
        card = next(r for r in parsed.rows if r.name == "card")
        assert len(card.terms) == 64
        assert card.rhs == 20

    @pytest.mark.parametrize(
        "kind,n,param",
        [(ModelKind.F, 3, 3), (ModelKind.G, 3, 5), (ModelKind.FT, 3, 4), (ModelKind.GT, 3, 6)],
    )
    def test_feasibility_matches_model_check_exhaustively(self, kind, n, param):
        inst = ModelInstance(kind, n, param)
        parsed = parse_lp(export(build(inst)).text)
        for bits in range(1 << (1 << n)):
            x_values = {var_x(m): bits >> m & 1 for m in range(1 << n)}
            fam = family_from_masks(n, [m for m in range(1 << n) if bits >> m & 1])
            feasible = check_feasible(inst, fam).feasible
            assert assignment_feasible(parsed, x_values) == feasible, (kind, bits)

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_feasibility_matches_model_check_on_sampled_n4_families(self, kind):
        rng = random.Random(4)
        verdicts = set()
        for param in N4_PARAMS[kind]:
            inst = ModelInstance(kind, 4, param)
            parsed = parse_lp(export(build(inst)).text)
            for i in range(200):
                fam = family_from_masks(4, rng.sample(range(16), rng.randint(0, 8)))
                if i % 4:
                    # closed and frequency-sorted, so that feasible families occur
                    fam = sort_by_frequency(union_closure(fam))
                x_values = {var_x(m): int(m in fam.sets) for m in range(16)}
                feasible = assignment_feasible(parsed, x_values)
                assert feasible == check_feasible(inst, fam).feasible, (param, fam.sets)
                verdicts.add(feasible)
        assert verdicts == {True, False}

    @pytest.mark.parametrize(
        "row",
        ["x_0 + x_1 <= 1 x_1", "x_0 + 3 <= 1", "x_0 x_1 <= 1", "x_0 + x_1 <=", "x_0  + x_1 <= 1"],
        ids=["token-after-rhs", "dangling-coefficient", "missing-operator", "missing-rhs", "two-spaces"],
    )
    def test_rejects_malformed_row(self, row):
        with pytest.raises(ValueError, match="malformed row"):
            parse_lp(f"Maximize\n obj: x_0\nSubject To\n r1: {row}\nBinary\n x_0\n x_1\nEnd\n")

    def test_reads_well_formed_row(self):
        parsed = parse_lp("Maximize\n obj: x_0\nSubject To\n r1: - x_0 + 3 x_1 >= -2\nEnd\n")
        assert parsed.rows[0].terms == ((-1, "x_0"), (3, "x_1"))
        assert (parsed.rows[0].sense, parsed.rows[0].rhs) == (">=", -2)

    @given(row_blocks())
    @settings(max_examples=300)
    def test_rows_against_reference_grammar(self, lines):
        text = "Maximize\n obj: x_0\nSubject To\n" + "".join(f" {l}\n" for l in lines) + "End\n"
        expected = [reference_row(line) for line in lines]
        if None in expected:
            with pytest.raises(ValueError):
                parse_lp(text)
        else:
            assert [row_fields(row) for row in parse_lp(text).rows] == expected

    def test_reads_empty_body(self):
        parsed = parse_lp("Maximize\n obj:\nSubject To\n r1: <= 1\nEnd\n")
        assert parsed.objective == ()
        assert row_fields(parsed.rows[0]) == ("r1", (), "<=", 1) == reference_row("r1: <= 1")

    @pytest.mark.parametrize("kind", list(ModelKind))
    @pytest.mark.parametrize("n", range(1, 9))
    def test_build_export_parse_equality(self, kind, n):
        system = build(ModelInstance(kind, n, 3))
        parsed = parse_lp(export(system).text)
        assert parsed.maximize == system.maximize
        assert parsed.objective == system.objective
        assert parsed.rows == system.constraints
        assert parsed.binaries == system.binaries
        assert parsed.bounded == system.unit_interval

    def test_rejects_foreign_content(self):
        with pytest.raises(ValueError):
            parse_lp("Garbage\n x + y <= 1\nEnd\n")

    def test_skips_blank_and_comment_lines_anywhere(self):
        text = "\\ head\nMaximize\n\n obj: x_0\n \\ note\nSubject To\n r1: x_0\n\n   + x_1 <= 1\nEnd\n"
        parsed = parse_lp(text)
        assert parsed.objective == ((1, "x_0"),)
        assert [row_fields(row) for row in parsed.rows] == [("r1", ((1, "x_0"), (1, "x_1")), "<=", 1)]

    def test_rejects_continuation_before_any_row(self):
        with pytest.raises(ValueError, match="continuation line before any row: x_0 <= 1"):
            parse_lp("Maximize\n obj: x_0\nSubject To\n   x_0 <= 1\nEnd\n")

    @pytest.mark.parametrize(
        "sections,message",
        [
            ("Subject To\n r1: x_0 <= 1\nSubject To\n r1: x_1 <= 1\n", "repeated section: Subject To"),
            ("Minimize\n obj: x_1\n", "repeated section: Minimize"),
            ("Binary\n x_0\nBinary\n x_1\n", "repeated section: Binary"),
            ("Subject To\n r1: x_0 <= 1\n r2: x_1 <= 1\n r1: x_1 >= 0\n", "duplicate row name: r1"),
        ],
        ids=["rows", "objective", "binary", "duplicate-row"],
    )
    def test_rejects_repeated_sections_and_rows(self, sections, message):
        with pytest.raises(ValueError, match=message):
            parse_lp(f"Maximize\n obj: x_0\n{sections}End\n")

    def test_reading_stops_at_end(self):
        parsed = parse_lp("Maximize\n obj: x_0\nEnd\nSubject To\n r1: x_0 <= 1\n")
        assert parsed.rows == ()

    def test_parse_memory(self):
        # the largest certify document: gt(8,8), 1.02 MB of text.  Rows are
        # read from one streamed regex scan; collecting every match first
        # would hold a second copy of the section's rows.
        system = build(ModelInstance(ModelKind.GT, 8, 8))
        text = export(system).text
        tracemalloc.start()
        try:
            parsed = parse_lp(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(parsed.rows) == len(system.constraints)
        assert peak < 14 * 2**20


class TestAssignmentFeasible:
    def test_link_row_variable_without_bounds(self):
        parsed = parse_lp("Maximize\n obj: x_0\nSubject To\n tl1: z_0_e1 - x_0 <= 0\nEnd\n")
        with pytest.raises(ValueError, match="z_0_e1"):
            assignment_feasible(parsed, {"x_0": 1})

    def test_row_variable_missing_from_assignment(self):
        parsed = parse_lp("Maximize\n obj: x_0\nSubject To\n r1: x_0 + x_9 <= 1\nEnd\n")
        with pytest.raises(ValueError, match="x_9"):
            assignment_feasible(parsed, {"x_0": 1})
