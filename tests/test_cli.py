import hashlib
from pathlib import Path

import pytest

from franklopt import cli
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

    @pytest.mark.parametrize(
        "command",
        [
            ["grid", "--model", "f", "--n", "3", "--param", "1..2"],
            ["verify", "--checks", "reference", "--grid-spec", "f:3..3:1..2"],
        ],
        ids=["grid", "verify"],
    )
    def test_malformed_cache_exit_2(self, tmp_path, command, capsys):
        # one error line naming the record, not a traceback
        cache = tmp_path / "cache.txt"
        cache.write_text("F 3 3 5 solver\n")
        assert main(command + ["--cache", str(cache)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {cache}:1: malformed cache record")
        assert captured.err.count("\n") == 1

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

    def test_large_n_usage_error_builds_nothing(self, tmp_path, monkeypatch, capsys):
        def no_build(inst):
            raise AssertionError(f"built {inst}")

        monkeypatch.setattr(cli, "build", no_build)
        out = tmp_path / "m.lp"
        argv = ["export-lp", "--model", "f", "--n", "11", "--param", "3", "--out", str(out)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(errors) == 1 and "n=11 too large to build; at most 10" in errors[0]
        assert not out.exists()


class TestUnwritableOutput:
    @pytest.mark.parametrize(
        "command,flag",
        [
            (["solve", "--model", "f", "--n", "3", "--param", "3"], "--witness"),
            (["export-lp", "--model", "f", "--n", "2", "--param", "2"], "--out"),
            (["grid", "--model", "f", "--n", "3", "--param", "1..2"], "--cache"),
        ],
        ids=["solve-witness", "export-lp-out", "grid-cache"],
    )
    def test_missing_directory_exit_2(self, tmp_path, command, flag, capsys):
        # one error line naming the path, not a traceback and exit 1
        path = tmp_path / "missing" / "out.txt"
        assert main(command + [flag, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert str(path) in captured.err
        assert captured.err.count("\n") == 1
        assert not path.parent.exists()


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

    @pytest.mark.parametrize(
        "text", ["n=3\n1,4\n", "n=3\n1,2\n2,1\n", None], ids=["out-of-range", "duplicate", "missing"]
    )
    @pytest.mark.parametrize("command", ["closure", "inspect"])
    def test_bad_family_file_usage_error(self, tmp_path, command, text, capsys):
        path = tmp_path / "bad.fam"
        if text is not None:
            path.write_text(text)
        with pytest.raises(SystemExit) as exc:
            main([command, "--in", str(path)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        named = [line for line in captured.err.splitlines() if str(path) in line]
        assert len(named) == 1 and "error:" in named[0]


# Every case runs main() in order, with no results cache (None) or on one
# fresh cache prefilled with the given records; the pin is sha256 over
# each run's exit code, stdout and stderr, then the cache file as the case
# left it.
OUTPUT_CASES = {
    "grid-tsv": (None, [["grid", "--model", "f", "--n", "1..4", "--param", "1..8"]]),
    "grid-markdown": (
        None,
        [["grid", "--model", "g", "--n", "2..4", "--param", "1..9", "--format", "markdown"]],
    ),
    "grid-tsv-cache": ("", [["grid", "--model", "ft", "--n", "3..4", "--param", "3..8"]] * 2),
    "grid-markdown-cache": (
        "gt 3 6 4 solver\n",
        [["grid", "--model", "gt", "--n", "3..4", "--param", "4..9", "--format", "markdown"]] * 2,
    ),
    "grid-budget-warning": (
        None,
        [["grid", "--model", "f", "--n", "4..5", "--param", "10..12", "--budget-nodes", "500"]],
    ),
    **{
        f"verify-{check}": (
            None,
            [["verify", "--checks", check, "--grid-spec", "f:1..4:1..8", "--grid-spec", "g:1..4:1..10"]],
        )
        for check in ("reference", "properties", "stability", "falgas-ravry", "all")
    },
    "verify-budget-warning": (
        "",
        [["verify", "--grid-spec", "f:4..5:10..12", "--grid-spec", "g:3..4:2..9", "--budget-nodes", "500"]],
    ),
    "verify-failing-cache": (
        "f 3 3 6 solver\n",
        [["verify", "--checks", "reference,properties", "--grid-spec", "f:2..4:1..8"]] * 2,
    ),
}

PINNED_OUTPUT_DIGESTS = {
    "grid-budget-warning": "3e1a4d99b0a3d6d0608be7621198e147ccf7df176e567cbc42a644478c7279ab",
    "grid-markdown": "40290986d67aad41b3302e4d768b85240511ca7781fa583b32f81cac695f2a40",
    "grid-markdown-cache": "0bd72b10041aaa67a4f2d634edd1a1438281bdad6719df00d346ff6781798f76",
    "grid-tsv": "4564d2f159fd002787763af9ed55ff1965fe8777c008ef7ec3d09a3c4f7d0b2a",
    "grid-tsv-cache": "2f38720efb61a5428971f9d25ef8c5eca1929afe5514008790fea68949b96df8",
    "verify-all": "2acc874f3fe586db3a967901456c5156d3574e5646c1e18596e353170af39eca",
    "verify-budget-warning": "617d8014fc0d6d93f03e6b9ad7b358b8a9e33277ccf4c0c02b79353d49cdf95f",
    "verify-failing-cache": "7ee1397d195873fa9f9bb98e305161f633247b38cde98e985c8e0fac1691e564",
    "verify-falgas-ravry": "5297ddc4fa9077dd45085fb387939173be5d9ea61086bfca707ee7b0a7779182",
    "verify-properties": "2cd531952e1589e9cf86fa61c4d16b3d63cd88fd40af3a23435719b1a4338c78",
    "verify-reference": "339e36bda98dafeb89a39326fec17c597bbb10ee9d132400debca4e24c95207b",
    "verify-stability": "97d2ba996811850ef9ad12118f89989f7f0fd19112ebdc50533e10414ebed00f",
}


def output_digest(cache_text, runs, cache, capsys):
    flags = []
    if cache_text is not None:
        cache.write_text(cache_text)
        flags = ["--cache", str(cache)]
    digest = hashlib.sha256()
    for argv in runs:
        code = main(argv + flags)
        captured = capsys.readouterr()
        digest.update(f"{code}\n{captured.out}\0{captured.err}\0".encode())
    if flags:
        digest.update(cache.read_bytes())
    return digest.hexdigest()


class TestOutputPins:
    @pytest.mark.parametrize("case", sorted(OUTPUT_CASES))
    def test_output_pinned(self, case, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("FRANKLOPT_CACHE", raising=False)
        cache_text, runs = OUTPUT_CASES[case]
        got = output_digest(cache_text, runs, tmp_path / "cache.txt", capsys)
        assert got == PINNED_OUTPUT_DIGESTS[case]
