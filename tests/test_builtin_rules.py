"""Built-in commands, `match`, `fun | …` and brackets as rules of the table.

`def`, `theorem`, `syntax`, `macro_rules`, `match`, `fun | …`, tuples, `⟨…⟩`
and the tactic `( … )` are rules that `ParserTable` registers before any
user rule, with the `Many` repetition item for their sequences; the prelude
registers `macro` and `notation`.  The items of `syntax`, `macro` and
`notation` are categories of their own.  `WrittenOutParser` keeps the forms
they replace as the reference of a differential: on the corpus, the
prelude sources and generated corpus mutations, both parsers give every
command the same tree and end position or the same error, apart from the
differences that `known_difference` names.
"""

from typing import List, Optional

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import CORPUS
from corpus_config import CORPUS_RUNS
from hygex import driver, prelude
from hygex.driver import RunConfig, Runner, run_string
from hygex.errors import LexError
from hygex.parser import (
    K_TUPLE,
    Lexer,
    Parser,
    _lexes_alone,
    iter_commands,
)
from hygex.syntax import Atom, Name, Node
from test_generated_inputs import COMMAND_HEADS, mutated_corpus_files
from written_out_parser import WrittenOutParser, known_difference, outcome


def checked_iter_commands(found: List[Optional[str]]):
    """`iter_commands` that parses every command again with both parsers on
    the table of that moment and checks that the outcomes agree or differ
    as listed; `found` gets None per agreement and the difference's name
    per listed difference."""

    def checked(text, table, on_error=None):
        def compare(pos, new):
            old = outcome(WrittenOutParser, text, table, pos)
            if old == new:
                found.append(None)
                return
            difference = known_difference(text, table, old, new)
            assert difference is not None, (text[pos:][:80], old, new)
            found.append(difference)

        def on_error_checked(err, start):
            compare(start, (type(err).__name__, err.message, err.info))
            return on_error(err, start)

        for info, cmd in iter_commands(text, table, on_error and on_error_checked):
            new = outcome(Parser, text, table, info.offset)
            assert new[0] == cmd
            compare(info.offset, new)
            yield info, cmd

    return checked


class TestSameOutcomesAsTheWrittenOutForms:
    @pytest.mark.parametrize("name", sorted(CORPUS_RUNS))
    def test_corpus(self, name, monkeypatch):
        found: List[Optional[str]] = []
        monkeypatch.setattr(driver, "iter_commands", checked_iter_commands(found))
        kw, code = CORPUS_RUNS[name]
        assert Runner(RunConfig(**kw)).run_files([str(CORPUS / f"{name}.hyg")]) == code
        assert found and set(found) == {None}

    def test_prelude_sources(self, monkeypatch):
        found: List[Optional[str]] = []
        monkeypatch.setattr(prelude, "iter_commands", checked_iter_commands(found))
        prelude._build_prelude()
        assert found == [None] * 5

    @settings(max_examples=150)
    @given(case=mutated_corpus_files())
    def test_mutated_corpus_files(self, case):
        name, src = case
        found: List[Optional[str]] = []
        cfg = RunConfig(**dict(CORPUS_RUNS[name][0], stage="expand"))
        runner = Runner(cfg)
        raw = driver.iter_commands
        driver.iter_commands = checked_iter_commands(found)
        try:
            runner.run_source(src)
        finally:
            driver.iter_commands = raw
        assert found


class TestListedDifferences:
    """The outcomes that changed when the forms became rules, one test
    each, with the written-out form's outcome beside the rule's."""

    table = Runner().state.table

    def both(self, src: str):
        return outcome(WrittenOutParser, src, self.table, 0), outcome(Parser, src, self.table, 0)

    @pytest.mark.parametrize(
        "src, col, message",
        [
            ("theorem t (p : : Prop) : p := by skip", 16, "expected 'Prop', found ':'"),
            ("theorem t (p : Nat) : p := by skip", 16, "expected 'Prop', found 'Nat'"),
            ("theorem t ( : Prop) : p := by skip", 13, "expected identifier, found ':'"),
        ],
    )
    def test_a_theorem_binder_commits_at_its_parenthesis(self, src, col, message):
        old, new = self.both(src)
        assert old[1:] == ("expected ':', found '('", old[2])
        assert old[2].col == 11
        assert new[1] == message and new[2].col == col
        assert known_difference(src, self.table, old, new) == "theorem binder committed at '('"
        assert run_string(src) == (1, f"error: {message} @1:{col}\n")

    def test_an_empty_macro_rules_names_the_bar(self):
        src = "macro_rules\ndef x := 1\n"
        old, new = self.both(src)
        assert old[1] == "macro_rules needs at least one alternative"
        assert new[1] == "expected at least one '|' alternative"
        assert old[2] == new[2]
        assert known_difference(src, self.table, old, new) == "empty macro_rules"
        assert run_string(src) == (
            1, "error: expected at least one '|' alternative @2:1\ndef x := 1\n"
        )

    # Inside a quotation the built-in forms now read holes as every rule
    # does.  No generated input meets these; each is pinned here.

    def test_a_splice_group_takes_a_whole_built_in_slot(self):
        src = "def y := `(def x := $[a]* + 1)"
        old, new = self.both(src)
        assert isinstance(old[0], Node) and old[1] == len(src)
        # the body is read as a command, which ends after the splice group
        assert new[1:] == ("unknown command, found '+'", new[2]) and new[2].col == 27
        _, ok = self.both("def y := `(def $[$x]* := 1)")
        assert isinstance(ok[0], Node)

    @pytest.mark.parametrize(
        "body",
        ["theorem t $bs* : p := by skip", "theorem t ($p : Prop) : p := by skip",
         "macro_rules $alts*"],
    )
    def test_holes_stand_for_binders_and_macro_rules_alternatives(self, body):
        src = f"def y := `({body})"
        old, new = self.both(src)
        assert old[1] == f"expected term, found '{body.split()[0]}'"
        assert isinstance(new[0], Node) and new[1] == len(src)

    def test_an_alternative_sequence_takes_one_splice(self):
        src = "def y := `(match x with $alts:alt* $more:alt*)"
        old, new = self.both(src)
        assert isinstance(old[0], Node)
        assert new[1:] == ("at most one splice per sequence", new[2]) and new[2].col == 46

    @pytest.mark.parametrize(
        "src, name, old_message, message",
        [
            (
                'syntax "q" [ : term', "syntax item",
                "expected string literal or category, found '['",
                "expected syntax item, found '['",
            ),
            (
                'macro "r" 5 : term => `(1)', "macro item",
                "expected macro item or ':', found '5'", "expected identifier, found '5'",
            ),
            (
                'notation "k" 5 => 1', "notation item",
                "expected notation item or '=>', found '5'", "expected notation item, found '5'",
            ),
            ("syntax : term", "empty syntax", "empty syntax rule", "expected at least one syntax item"),
        ],
        ids=["syntax_item", "macro_item", "notation_item", "empty_syntax"],
    )
    def test_an_item_category_names_the_item_it_expected(self, src, name, old_message, message):
        old, new = self.both(src)
        assert old[1] == old_message and new[1] == message and old[2] == new[2]
        assert known_difference(src, self.table, old, new) == name
        assert run_string(src) == (1, f"error: {message} @1:{new[2].col}\n")

    @pytest.mark.parametrize(
        "body",
        ["syntax $x : term", "syntax $xs* : term", "macro x:$c : term => `(1)",
         'notation "a" $[$x]* => 1'],
    )
    def test_holes_stand_for_command_items(self, body):
        src = f"def y := `({body})"
        old, new = self.both(src)
        assert old[1] == f"expected term, found '{body.split()[0]}'"
        assert isinstance(new[0], Node) and new[1] == len(src)

    def test_an_unlisted_difference_is_not_one(self):
        src = "def x := )"
        old, _ = self.both(src)
        assert known_difference(src, self.table, old, ("ParseError", "other", old[2])) is None


class TestNewerRulesShadowTheBuiltInOnes:
    def test_a_rule_led_by_a_parenthesis_backtracks_to_the_tuple(self):
        src = (
            'syntax "(" term "|" term ")" : term\n'
            "macro_rules | `(($a | $b)) => `($a + $b)\n"
        )
        runner = Runner()
        runner.run_source(src)
        assert not runner.diagnostics, runner.output
        table = runner.state.table
        pair = Parser("(1, 2)", table).parse_term()
        assert pair.kind == K_TUPLE
        assert Parser("(1 | 2)", table).parse_term().kind == Name.of("(")
        code, out = run_string(src + "def a := (1 | 2)\ndef b := (1, 2)\n")
        assert code == 0, out
        assert out.splitlines()[-2:] == ["def a := 1 + 2", "def b := Prod.mk 1 2"]

    def test_a_rule_led_by_def_backtracks_to_the_built_in_one(self):
        src = (
            'syntax "def" ident "!" : command\n'
            "macro_rules | `(def $x !) => `(def $x := 0)\n"
            "def a !\n"
            "def b := a\n"
            "def c : Nat := b\n"
        )
        code, out = run_string(src)
        assert code == 0, out
        assert out.splitlines()[-3:] == ["def a := 0", "def b := a", "def c : Nat := b"]


class TestDeadLiterals:
    """A literal that can never be lexed as one token makes a dead rule; it
    is rejected where it is declared, placed at the string."""

    @pytest.mark.parametrize("lit", ["«<", "$$", "`x", "--", "a b"])
    def test_a_literal_that_never_lexes_is_rejected_and_the_run_goes_on(self, lit):
        code, out = run_string(f'def a := 1\nsyntax "{lit}" term : term\ndef b := a\n')
        assert code == 1
        assert out.splitlines() == [
            "def a := 1",
            f"error: '{lit}' can never be lexed as one token @2:8",
            "def b := a",
        ]

    def test_macro_and_notation_reject_it_too(self):
        code, out = run_string(
            'macro "$$" x:term : term => `($x)\nnotation "a b" e => e\ndef c := 1\n'
        )
        assert code == 1
        lines = out.splitlines()
        assert lines[0] == "error: '$$' can never be lexed as one token @1:7"
        assert lines[1] == "  in expansion of macroDecl"
        assert lines[2] == "error: 'a b' can never be lexed as one token"
        assert lines[-1] == "def c := 1"

    @pytest.mark.parametrize("lit", ["$", "1+", "→", "x.y", "α"])
    def test_a_literal_that_lexes_is_accepted(self, lit):
        runner = Runner()
        runner.run_source(f'syntax "{lit}" term : term\n')
        assert runner.diagnostics == []
        use = Parser(f"{lit} 2", runner.state.table).parse_term()
        assert use.kind == Name((lit,)) and use.children[0] == Atom(lit, use.children[0].info)

    @settings(max_examples=300)
    @example("$[")
    @example("x.")
    @example("x.y")
    @example(" x")
    @example("-")
    @given(
        st.text(
            st.sampled_from(list("ax_.1'«»\"`$[(-+→ α²٣\n")), min_size=1, max_size=4
        )
    )
    def test_the_check_agrees_with_a_lexer_of_the_literal(self, text):
        lexer = Lexer(text, frozenset((text,)))
        try:
            tok = lexer.token(0)
            lexes = tok.kind in ("keyword", "special") and (tok.text, tok.end) == (
                text, len(text)
            )
        except LexError:
            lexes = False
        assert _lexes_alone(text) == lexes


class TestShadowedCommands:
    """A newer rule shadows `syntax`, `macro`, `notation` and the tactic
    `( … )` as any other, and backtracks to them when it fails."""

    def test_a_rule_led_by_macro_backtracks_to_the_prelude_s(self):
        code, out = run_string(
            'syntax "macro" "!" : command\n'
            "macro_rules | `(macro !) => `(def seven := 7)\n"
            "macro !\n"
            'macro "mm" : term => `(2)\n'
            "def s := mm\n"
        )
        assert code == 0, out
        assert out.splitlines()[2:] == [
            "def seven.1 := 7",
            'syntax "mm" : term',
            "macro_rules | `(mm) => `(2)",
            "def s := 2",
        ]

    def test_a_tactic_rule_led_by_a_parenthesis_backtracks_to_the_group(self):
        src = (
            'syntax "(" "!" ")" : tactic\n'
            "macro_rules | `(tactic| ( ! )) => `(tactic| assumption)\n"
            "theorem t (p : Prop) : p → p := by intro h; ( ! )\n"
            "theorem u (p : Prop) : p → p := by (intro h; exact h)\n"
        )
        code, out = run_string(src, RunConfig(stage="elaborate"))
        assert code == 0, out
        assert out.splitlines()[-2:] == [
            "theorem t : p → p := proved", "theorem u : p → p := proved",
        ]


def test_token_soups_start_with_every_command_word():
    # the built-in commands are rules now, not command heads
    assert COMMAND_HEADS == [
        "declare_syntax_cat", "def", "macro", "macro_rules", "notation", "syntax", "theorem",
    ]


@pytest.mark.parametrize(
    "src, error",
    [
        ("declare_syntax_cat tacticSeq", "syntax category 'tacticSeq' already exists @1:1"),
        # the built-in `tparen` rule refers to it, but no user rule may
        ('syntax "x" tacticSeq : term', "unknown syntax category 'tacticSeq' @1:1"),
    ],
)
def test_the_tactic_sequence_category_is_the_built_in_rules_own(src, error):
    assert run_string(src + "\ndef a := 1\n") == (1, f"error: {error}\ndef a := 1\n")


@pytest.mark.parametrize(
    "src, error",
    [
        ('syntax "x" «syntax item» : term', "unknown syntax category 'syntax item' @1:1"),
        ('syntax "x" : «macro item»', "unknown syntax category 'macro item' @1:1"),
    ],
)
def test_no_identifier_names_an_item_category(src, error):
    # their names are plain strings, which no identifier's `Name` equals
    assert run_string(src + "\ndef a := 1\n") == (1, f"error: {error}\ndef a := 1\n")
