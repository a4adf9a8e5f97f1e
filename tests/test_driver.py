"""Golden-file runs, exit codes, state threading, and the CLI."""

import gc
import os

import pytest

from conftest import CORPUS, GOLDENS
from corpus_config import CORPUS_RUNS
from hygex.cli import main
from hygex.driver import Diagnostic, RunConfig, Runner, run_string
from hygex.parser import ParserTable
from hygex.syntax import Name

UPDATE = os.environ.get("HYGEX_UPDATE_GOLDENS") == "1"


class TestGoldens:
    @pytest.mark.parametrize("name", sorted(CORPUS_RUNS))
    def test_corpus_output_matches_golden(self, name):
        kw, expected_code = CORPUS_RUNS[name]
        runner = Runner(RunConfig(**kw))
        code = runner.run_files([str(CORPUS / f"{name}.hyg")])
        golden_path = GOLDENS / f"{name}.txt"
        if UPDATE:
            golden_path.write_text(runner.output, encoding="utf-8")
        golden = golden_path.read_text(encoding="utf-8")
        assert runner.output == golden
        assert code == expected_code

    @pytest.mark.parametrize("name", sorted(CORPUS_RUNS))
    def test_two_runs_are_byte_identical(self, name):
        kw, _ = CORPUS_RUNS[name]

        def once():
            runner = Runner(RunConfig(**kw))
            runner.run_files([str(CORPUS / f"{name}.hyg")])
            return runner.output

        assert once() == once()


class TestStateThreading:
    def test_split_file_equals_one_file(self, tmp_path):
        whole = (CORPUS / "macro_tower.hyg").read_text(encoding="utf-8")
        lines = whole.splitlines(keepends=True)
        split_at = next(i for i, l in enumerate(lines) if l.startswith("m f"))
        a = tmp_path / "a.hyg"
        b = tmp_path / "b.hyg"
        a.write_text("".join(lines[:split_at]), encoding="utf-8")
        b.write_text("".join(lines[split_at:]), encoding="utf-8")

        one = Runner(RunConfig())
        one.run_files([str(CORPUS / "macro_tower.hyg")])
        two = Runner(RunConfig())
        two.run_files([str(a), str(b)])
        assert one.output == two.output
        assert set(one.state.gctx) == set(two.state.gctx)

    def test_processing_continues_past_a_diagnostic(self):
        code, out = run_string(
            "def x := nope\ndef y := 1\n", RunConfig()
        )
        assert code == 1
        assert "unknown identifier 'nope'" in out
        assert "def y := 1" in out


class TestNoCyclicGarbage:
    """A dropped runner is freed by reference counting alone: nothing of a
    run (its state, its transformers, a kept parse error) sits in a cycle
    that waits for the garbage collector."""

    @pytest.mark.parametrize(
        "name, kw",
        [(name, CORPUS_RUNS[name][0]) for name in sorted(CORPUS_RUNS)]
        + [("tactics", dict(stage="elaborate", trace_expansion=True, trace_tactics=True))],
    )
    def test_dropped_runner_leaves_no_cycles(self, name, kw):
        gc.collect()
        gc.disable()
        try:
            runner = Runner(RunConfig(**kw))
            runner.run_files([str(CORPUS / f"{name}.hyg")])
            del runner
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestRunnerConstruction:
    def test_only_a_run_without_the_prelude_builds_a_parser_table(self, monkeypatch):
        Runner(RunConfig())  # the prelude's prototype exists from here on
        built = []
        init = ParserTable.__init__

        def counted(table):
            built.append(table)
            init(table)

        monkeypatch.setattr(ParserTable, "__init__", counted)
        with_prelude = Runner(RunConfig())
        assert len(built) == 0
        without = Runner(RunConfig(prelude=False))
        assert built == [without.state.table]
        with_prelude.run_source("def x := (1, 2)\n")
        without.run_source("def x := 1\n")
        assert with_prelude.output == "def x := Prod.mk 1 2\n"
        assert without.output == "def x := 1\n"


class TestParseRecovery:
    BROKEN = "def x := \ndef y := 2\n"

    def test_resync_skips_to_the_next_command(self):
        code, out = run_string(self.BROKEN, RunConfig())
        assert code == 1
        assert "def y := 2" in out
        assert "<missing>" not in out

    def test_resync_stops_at_a_user_command(self):
        # the table, not a fixed list of words, says what starts a command
        code, out = run_string(
            'syntax "mk" ident : command\n'
            "macro_rules | `(mk $x) => `(def $x := 1)\n"
            "def a := (\n"
            "mk b\n"
            "mk c\n"
            "def d := b\n"
        )
        assert code == 1
        assert out.splitlines()[2:] == [
            "error: expected term, found 'mk' @4:1",
            "def b := 1",
            "def c := 1",
            "def d := b",
        ]

    def test_recover_mode_inserts_missing(self):
        code, out = run_string(self.BROKEN, RunConfig(recover=True))
        assert code == 1
        assert "<missing>" in out
        assert "def y := 2" in out


class TestOneDiagnosticPerBadCommand:
    """A bad command yields exactly one diagnostic, at its own position,
    and the run goes on with the next command."""

    ELAB = RunConfig(stage="elaborate")
    LOOP = (
        'syntax "loop" term : term\n'
        "macro_rules\n"
        "  | `(loop $e) => `(loop $e)\n"
        "def x := loop 1\n"
    )
    AGAIN = (
        'syntax "again" : command\n'
        "macro_rules\n"
        "  | `(again) => `(again)\n"
        "again\n"
    )
    NEST = (
        'syntax "nest" term : term\n'
        "macro_rules\n"
        "  | `(nest $e) => `(1 + nest $e)\n"
        "def x := nest 1\n"
    )

    def test_parse_error_in_a_later_command(self):
        code, out = run_string("def a := 1\ndef b := )\ndef y := 2\n", self.ELAB)
        assert code == 1
        assert out.splitlines() == [
            "def a : nat := natLit(1)",
            "error: expected term, found ')' @2:10",
            "def y : nat := natLit(2)",
        ]

    def test_ambiguous_quotation(self):
        code, out = run_string(
            'syntax "foo" : term\n'
            'syntax "foo" : command\n'
            'syntax "k" : term\n'
            "macro_rules | `(k) => `(foo)\n"
            "def y := 2\n"
        )
        assert code == 1
        assert out.splitlines()[3:] == [
            "error: ambiguous quotation: parses as both a term and a command @4:25",
            "def y := 2",
        ]

    def test_parse_error_in_the_first_command(self):
        code, out = run_string("def a := )\ndef b := 2\n", self.ELAB)
        assert code == 1
        assert out.splitlines() == [
            "error: expected term, found ')' @1:10",
            "def b : nat := natLit(2)",
        ]

    @pytest.mark.parametrize(
        "bad, depth, error",
        [
            # each level of a nesting macro still costs a Python frame, so
            # a high enough limit lets the stack run out first
            (
                NEST,
                2000,
                "error: recursion limit reached while processing this command @4:1",
            ),
            (
                "def x := " + "(" * 400 + "1" + ")" * 400 + "\n",
                512,
                "error: recursion limit reached while parsing this command @1:1",
            ),
        ],
        ids=["nesting_macro_2000", "nested_parens"],
    )
    def test_running_out_of_stack_is_a_diagnostic(self, bad, depth, error):
        cfg = RunConfig(stage="elaborate", max_expansion_depth=depth)
        code, out = run_string(bad + "def y := 2\n", cfg)
        assert code == 1
        lines = out.splitlines()
        assert [line for line in lines if line.startswith("error:")] == [error]
        assert lines[-1] == "def y : nat := natLit(2)"

    @pytest.mark.parametrize(
        "bad, depth, kind",
        [
            (LOOP, 512, "loop"),
            (AGAIN, 512, "again"),
            (LOOP, 2000, "loop"),
            (AGAIN, 2000, "again"),
            (NEST, 100, "nest"),
            (NEST, 512, "nest"),
            (NEST, 700, "nest"),
        ],
        ids=[
            "self_recursive_macro",
            "command_chain",
            "self_recursive_macro_2000",
            "command_chain_2000",
            "nesting_macro_100",
            "nesting_macro",
            "nesting_macro_700",
        ],
    )
    def test_depth_limit_fires(self, bad, depth, kind):
        # a chain of steps at one position unfolds in a loop, and a nesting
        # macro costs one Python frame per level, so the limit fires before
        # the Python stack runs out
        runner = Runner(RunConfig(stage="elaborate", max_expansion_depth=depth))
        runner.run_source(bad + "def y := 2\n")
        [diag] = runner.diagnostics
        assert diag.message == "macro expansion depth exceeded"
        assert [str(k) for k, _ in diag.frames] == [kind] * (depth + 1)
        lines = runner.output.splitlines()
        # the command being processed, since macro output has no position
        at = lines.index("error: macro expansion depth exceeded @4:1")
        assert lines[at + 1 : at + 11] == [f"  in expansion of {kind}"] * 10
        assert lines[at + 11] == f"  ... {depth + 1 - 20} more frames"
        assert lines[at + 12 :] == [f"  in expansion of {kind}"] * 10 + [
            "def y : nat := natLit(2)"
        ]

    @pytest.mark.parametrize(
        "bad, error",
        [
            ("macro : term => `(1)\n", "error: empty macro rule @1:1"),
            ("notation => 1\n", "error: empty notation rule @1:1"),
            (
                'syntax "mk" : command\n'
                "macro_rules | `(mk) => `(macro : term => `(1))\n"
                "mk\n",
                "error: empty macro rule",
            ),
            # an empty string item, found by the corpus-mutation suite,
            # used to crash the lexer
            ('syntax "big" "" term : term\n', "error: empty token in syntax rule @1:14"),
            ('macro "" e:term : term => `($e)\n', "error: empty token in syntax rule @1:7"),
            ('notation "x" "" e => e\n', "error: empty token in syntax rule"),
        ],
        ids=[
            "macro",
            "notation",
            "macro_from_a_macro",
            "empty_token_in_syntax",
            "empty_token_in_macro",
            "empty_token_in_notation",
        ],
    )
    def test_an_empty_item_list_is_a_diagnostic(self, bad, error):
        code, out = run_string(bad + "def y := 2\n", self.ELAB)
        assert code == 1
        lines = out.splitlines()
        assert [line for line in lines if line.startswith("error:")] == [error]
        assert lines[-1] == "def y : nat := natLit(2)"


class TestLongSpines:
    """Long spines run at the default limits: the parser takes two Python
    frames per level of a right `→` chain and five per nested tuple, the
    expander one per level of a tree, and the core printer one per `+`,
    walking the function side of an `App` spine in a loop."""

    EXPAND = RunConfig(stage="expand")

    @pytest.mark.parametrize(
        "src",
        [
            "def x := " + " + ".join(["1"] * 800) + "\n",
            "def f := 1\ndef x := f" + " 1" * 800 + "\n",
            "theorem t (p : Prop) : " + " → ".join(["p"] * 400) + " := by intro h; exact h\n",
        ],
        ids=["sum_of_800", "application_of_800", "arrow_chain_of_400"],
    )
    def test_it_expands_and_prints(self, src):
        assert run_string(src, self.EXPAND) == (0, src)

    def test_160_nested_parentheses_parse_and_print(self):
        # a level costs five Python frames: under CPython 3.11's default
        # recursion limit 197 levels parse
        src = "def x := " + "(" * 160 + "1" + ")" * 160 + "\n"
        assert run_string(src) == (0, "def x := 1\n")
        assert run_string(src, RunConfig(stage="elaborate")) == (0, "def x : nat := natLit(1)\n")

    def test_a_sum_of_800_elaborates_and_prints(self):
        term = "natLit(1)"
        for _ in range(799):
            term = f"app(app(const(Nat.add), {term}), natLit(1))"
        src = "def x := " + " + ".join(["1"] * 800) + "\n"
        assert run_string(src, RunConfig(stage="elaborate")) == (0, f"def x : nat := {term}\n")


class TestBacktraceElision:
    """A long backtrace renders its 10 outermost and 10 innermost frames;
    the diagnostic itself keeps every frame."""

    @staticmethod
    def frames(n):
        return tuple((Name.of(f"m{i}"), i) for i in range(n))

    def test_twenty_frames_render_in_full(self):
        diag = Diagnostic("deep", None, self.frames(20))
        assert diag.render().splitlines() == ["error: deep"] + [
            f"  in expansion of m{i} (scope {i})" for i in range(20)
        ]

    @pytest.mark.parametrize("n", [21, 513])
    def test_the_middle_is_elided(self, n):
        diag = Diagnostic("deep", None, self.frames(n))
        lines = diag.render().splitlines()
        assert lines == (
            ["error: deep"]
            + [f"  in expansion of m{i} (scope {i})" for i in range(10)]
            + [f"  ... {n - 20} more frames"]
            + [f"  in expansion of m{i} (scope {i})" for i in range(n - 10, n)]
        )
        assert len(diag.frames) == n


class TestConfig:
    def test_bad_stage_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(stage="parse")

    def test_caps_must_be_positive(self):
        with pytest.raises(ValueError):
            RunConfig(max_repeat=0)

    def test_no_prelude_has_no_notation(self):
        for src in ['notation "const" e => fun x => e', 'macro "x" : term => `(1)']:
            code, out = run_string(src + "\n", RunConfig(prelude=False))
            assert code == 1
            assert out == f"error: unknown command, found '{src.split()[0]}' @1:1\n"


class TestCli:
    def test_run_corpus_file(self, capsys):
        code = main(
            ["run", str(CORPUS / "const.hyg"), "--stage", "expand", "--trace-expansion"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out.endswith("def y := fun x.1 => x\n")

    def test_exit_code_on_diagnostics(self, capsys):
        code = main(["run", str(CORPUS / "precheck_err.hyg")])
        out = capsys.readouterr().out
        assert code == 1
        assert "unknown identifier 'z'" in out

    def test_missing_file(self, capsys):
        code = main(["run", "does-not-exist.hyg"])
        assert code == 2

    @pytest.mark.parametrize(
        "flag, value", [("--max-expansion-depth", "0"), ("--max-repeat", "-5")]
    )
    def test_a_non_positive_limit_is_a_usage_error(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exit_:
            main(["run", flag, value, str(CORPUS / "const.hyg")])
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert f"error: argument {flag}: must be a positive integer" in err
        assert "Traceback" not in err

    def test_flags_reach_the_config(self, capsys):
        code = main(
            [
                "run",
                str(CORPUS / "notation_noprecheck.hyg"),
                "--no-notation-precheck",
            ]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "in expansion of ∃∃" in out
