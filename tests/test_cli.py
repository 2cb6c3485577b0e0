from pathlib import Path

import pytest

from franklopt.cli import main
from franklopt.families import family_from_text, is_union_closed, read_family

GOLDEN = Path(__file__).parent / "golden"

INTRO_TEXT = "n=3\n{}\n1,2\n1,3\n1,2,3\n"


@pytest.fixture
def intro_file(tmp_path):
    path = tmp_path / "intro.fam"
    path.write_text(INTRO_TEXT)
    return str(path)


class TestSolve:
    def test_value_line(self, capsys):
        assert main(["solve", "--model", "f", "--n", "3", "--param", "3"]) == 0
        assert capsys.readouterr().out == "value=5\n"

    def test_infeasible_exit_1(self, capsys):
        assert main(["solve", "--model", "ft", "--n", "5", "--param", "5"]) == 1
        assert capsys.readouterr().out == "infeasible\n"

    def test_witness_file(self, tmp_path, capsys):
        witness = tmp_path / "w.fam"
        code = main(
            ["solve", "--model", "f", "--n", "4", "--param", "8", "--witness", str(witness)]
        )
        assert code == 0
        fam = read_family(witness)
        assert fam.m == 16 and is_union_closed(fam)

    def test_aborted_exit_1(self, capsys):
        code = main(
            ["solve", "--model", "f", "--n", "5", "--param", "12", "--budget-nodes", "500"]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == "aborted\n"
        assert "incumbent=" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--model", "q", "--n", "3", "--param", "3"],
            ["solve", "--model", "f", "--n", "0", "--param", "3"],
            ["solve", "--model", "f", "--n", "17", "--param", "3"],
            ["solve", "--model", "f", "--n", "3", "--param", "0"],
            ["grid", "--model", "f", "--n", "3..x", "--param", "1..2"],
            ["verify", "--grid-spec", "f:1..2"],
            ["verify", "--checks", "bogus", "--grid-spec", "f:1..2:1..2"],
            ["solve", "--model", "f", "--n", "3", "--param", "3", "--threads", "2"],
            ["solve", "--model", "f", "--n", "3", "--param", "3", "--budget-nodes", "0"],
            ["solve", "--model", "f", "--n", "3", "--param", "3", "--budget-nodes", "-5"],
            ["solve", "--model", "f", "--n", "3", "--param", "3", "--budget-seconds", "0"],
            ["solve", "--model", "f", "--n", "3", "--param", "3", "--budget-seconds", "-1.5"],
            ["solve", "--model", "f", "--n", "3", "--param", "3", "--budget-seconds", "nan"],
            ["grid", "--model", "f", "--n", "3..2", "--param", "1..2"],
            ["grid", "--model", "f", "--n", "3", "--param", "4..1"],
            ["verify", "--grid-spec", "f:3..2:1..2"],
            ["verify", "--grid-spec", "F:3..3:1..2"],
            ["grid", "--model", "f", "--n", "3", "--param", "1..4", "--skip-trivial"],
        ],
        ids=[
            "model", "n0", "n17", "param0", "grid-range", "grid-spec", "checks",
            "solve-threads", "nodes0", "nodes-neg", "seconds0", "seconds-neg", "seconds-nan",
            "grid-n-reversed", "grid-param-reversed", "grid-spec-reversed", "grid-spec-kind-case",
            "skip-trivial-gone",
        ],
    )
    def test_usage_error_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err


class TestGrid:
    def test_tsv_matches_published_block(self, capsys):
        main(["grid", "--model", "gt", "--n", "3..5", "--param", "5..8"])
        out = capsys.readouterr().out
        assert out == (
            "m\\n\t3\t4\t5\n"
            "5\t4\t-\t-\n"
            "6\t4\t5\t-\n"
            "7\t4\t5\t6\n"
            "8\t4\t5\t6\n"
        )

    def test_tsv_byte_stable(self, capsys):
        main(["grid", "--model", "f", "--n", "1..3", "--param", "1..4"])
        first = capsys.readouterr().out
        main(["grid", "--model", "f", "--n", "1..3", "--param", "1..4"])
        assert capsys.readouterr().out == first

    def test_markdown_format(self, capsys):
        main(["grid", "--model", "f", "--n", "2..3", "--param", "1..2", "--format", "markdown"])
        out = capsys.readouterr().out
        assert out.startswith("| a\\n | 2 | 3 |")

    def test_budget_warning_on_stderr(self, capsys):
        main(["grid", "--model", "f", "--n", "5", "--param", "12", "--budget-nodes", "500"])
        captured = capsys.readouterr()
        assert "warning" in captured.err and "budget exhausted" in captured.err
        # the aborted cell renders as empty, not as a value or a dash
        assert captured.out == "a\\n\t5\n12\t\n"

    def test_cache_env_var(self, tmp_path, monkeypatch, capsys):
        cache = tmp_path / "cache.txt"
        monkeypatch.setenv("FRANKLOPT_CACHE", str(cache))
        main(["grid", "--model", "f", "--n", "2..3", "--param", "1..3"])
        capsys.readouterr()
        assert cache.exists()
        assert "f 3 3 5 solver" in cache.read_text()

    def test_threads_same_table(self, capsys):
        main(["grid", "--model", "g", "--n", "3..4", "--param", "2..8"])
        seq = capsys.readouterr().out
        main(["grid", "--model", "g", "--n", "3..4", "--param", "2..8", "--threads", "2"])
        assert capsys.readouterr().out == seq

    @pytest.mark.parametrize(
        "flags",
        [
            ["--budget-nodes", "0"],
            ["--budget-nodes", "-5"],
            ["--budget-seconds", "0"],
            ["--budget-seconds", "-1.5"],
            ["--threads", "0"],
            ["--threads", "-2"],
        ],
        ids=["nodes0", "nodes-neg", "seconds0", "seconds-neg", "threads0", "threads-neg"],
    )
    @pytest.mark.parametrize(
        "command",
        [
            ["grid", "--model", "f", "--n", "2..3", "--param", "1..2"],
            ["verify", "--checks", "reference", "--grid-spec", "f:2..3:1..2"],
        ],
        ids=["grid", "verify"],
    )
    def test_usage_error_exit_2(self, command, flags, capsys):
        # a budget or worker count that allows no work is refused before any solve
        with pytest.raises(SystemExit) as exc:
            main(command + flags)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err and captured.out == ""


class TestVerify:
    def test_clean_run_exit_0(self, capsys):
        code = main(
            [
                "verify",
                "--checks",
                "reference,stability",
                "--grid-spec",
                "f:1..4:1..8",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "[reference]" in out and "[stability]" in out
        assert "CHECK reference f(3,3)@f-core pass" in out

    def test_unknown_check_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--checks", "nope", "--grid-spec", "f:1..3:1..4"])
        assert exc.value.code == 2

    def test_bad_grid_spec_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--grid-spec", "f:1..3"])
        assert exc.value.code == 2


class TestExportLp:
    def test_stdout_matches_golden(self, capsys):
        main(["export-lp", "--model", "f", "--n", "2", "--param", "2", "--out", "-"])
        assert capsys.readouterr().out == (GOLDEN / "f_n2_p2.lp").read_text()

    def test_file_output(self, tmp_path):
        out = tmp_path / "m.lp"
        main(["export-lp", "--model", "gt", "--n", "4", "--param", "9", "--out", str(out)])
        assert out.read_text() == (GOLDEN / "gt_n4_p9.lp").read_text()


class TestClosureInspect:
    def test_closure(self, tmp_path, capsys):
        path = tmp_path / "s.fam"
        path.write_text("n=2\n1\n2\n")
        main(["closure", "--in", str(path)])
        out = capsys.readouterr().out
        assert family_from_text(out).sets == (1, 2, 3)

    def test_closure_idempotent_on_intro(self, intro_file, capsys):
        main(["closure", "--in", intro_file])
        assert capsys.readouterr().out == INTRO_TEXT

    def test_inspect_intro(self, intro_file, capsys):
        assert main(["inspect", "--in", intro_file]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "m=4 n=3 degree=3 ratio=3/4 union_closed=true"
        assert out[1] == "frequencies=3,2,2"
        assert out[2] == "twins: e1=0/0 e2=0/1 e3=0/1"

    def test_inspect_non_union_closed(self, tmp_path, capsys):
        path = tmp_path / "open.fam"
        path.write_text("n=2\n1\n2\n")
        main(["inspect", "--in", str(path)])
        assert "union_closed=false" in capsys.readouterr().out
