"""Tokenizer and table-driven parsing, including quotation syntax."""

import re
import sys
from array import array
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CORPUS, strip_info
from corpus_config import CORPUS_RUNS
from hygex import driver
from hygex import parser as parser_module
from hygex.driver import RunConfig, Runner
from hygex.errors import LexError, ParseError
from hygex.parser import MACRO_RULE, NOTATION_RULE
from hygex.parser import (
    _BLANKS,
    _SPECIALS,
    CAT_COMMAND,
    CAT_IDENT,
    CAT_TACTIC,
    CAT_TERM,
    CatRef,
    Lexer,
    Lit,
    ParseRule,
    Parser,
    ParserTable,
    Token,
    _scanner,
    _symbolic,
    tokenize,
)
from hygex.syntax import (
    Atom,
    Ident,
    Name,
    Node,
    SourceInfo,
    is_antiquot,
    is_quotation,
    render,
)
from written_out_parser import AMBIGUOUS, WrittenOutParser, known_difference


# the keywords of a new table: those of its built-in rules and `syntax`
CORE_KEYWORDS = ParserTable().snapshot_keywords()


@pytest.fixture
def table():
    t = ParserTable()
    t.register_rule(CAT_COMMAND, MACRO_RULE)
    t.register_rule(CAT_COMMAND, NOTATION_RULE)
    return t


def parse_term(src, table):
    p = Parser(src, table)
    out = p.parse_term()
    assert p.at_eof(), f"leftover input at {p.pos}"
    return out


def parse_command(src, table):
    p = Parser(src, table)
    out = p.parse_command()
    assert p.at_eof(), f"leftover input at {p.pos}"
    return out


class TestTokenize:
    def test_core_keywords(self):
        kinds = [(t.kind, t.text) for t in tokenize("fun x => x")]
        assert kinds == [
            ("keyword", "fun"),
            ("ident", "x"),
            ("keyword", "=>"),
            ("ident", "x"),
        ]

    def test_quotation_heads(self):
        toks = tokenize("`(a + $b)")
        assert [t.text for t in toks] == ["`(", "a", "+", "$", "b", ")"]
        assert toks[0].kind == "quote"
        assert toks[3].kind == "special"

    def test_double_backtick_head(self):
        toks = tokenize("``(fun x => z)")
        assert toks[0].kind == "dquote"
        assert toks[0].text == "``("

    def test_positions_cover_input(self):
        toks = tokenize("def x := 1 -- trailing\n")
        assert [t.text for t in toks] == ["def", "x", ":=", "1"]
        assert toks[3].info.line == 1

    def test_unterminated_string(self):
        with pytest.raises(LexError):
            tokenize('syntax "oops')

    def test_illegal_character(self):
        with pytest.raises(LexError) as exc:
            tokenize("def x := @")
        assert exc.value.info.col == 10

    def test_numeric_name_components_are_rejected(self):
        # `.1` cannot be written: numeric components belong to the kernel
        with pytest.raises(LexError):
            tokenize("def f.2 := 1")

    def test_guillemet_escape(self):
        toks = tokenize("«fun»")
        assert toks[0].kind == "ident"
        assert toks[0].text == "fun"

    def test_empty_guillemet_escape_is_rejected(self):
        with pytest.raises(LexError) as exc:
            tokenize("def «» := 1")
        assert exc.value.message == "empty '«»' identifier"
        assert exc.value.info.col == 5

    @pytest.mark.parametrize(
        "src, error",
        [
            ("def «» := 1\n", "error: empty '«»' identifier @1:5"),
            ("declare_syntax_cat «»\n", "error: empty '«»' identifier @1:20"),
        ],
        ids=["def", "declare_syntax_cat"],
    )
    def test_nothing_is_declared_under_the_empty_name(self, src, error):
        from hygex.driver import run_string

        assert run_string(src) == (1, error + "\n")


class TestParseCategory:
    def test_registered_leading_rule(self, table):
        kind = table.gen_kind([Lit("const")])
        table.register_rule(CAT_TERM, ParseRule(kind, (Lit("const"), CatRef(CAT_TERM))))
        out = parse_term("const x", table)
        assert out.kind == kind
        assert isinstance(out.children[0], Atom)
        assert isinstance(out.children[1], Ident)

    def test_nested_use_of_new_rule(self, table):
        kind = table.gen_kind([Lit("const")])
        table.register_rule(CAT_TERM, ParseRule(kind, (Lit("const"), CatRef(CAT_TERM))))
        out = parse_term("const const x", table)
        assert out.kind == kind
        assert out.children[1].kind == kind

    def test_infix_rule(self, table):
        kind = table.gen_kind([Lit("⊢")])
        table.register_rule(
            CAT_TERM,
            ParseRule(
                kind,
                (CatRef(CAT_TERM), Lit("⊢"), CatRef(CAT_TERM), Lit(":"), CatRef(CAT_TERM)),
            ),
        )
        out = parse_term("G ⊢ e : t", table)
        assert out.kind == kind
        assert [type(c) for c in out.children] == [Ident, Atom, Ident, Atom, Ident]

    def test_category_slot_rule(self, table):
        table.add_category(Name.of("index"))
        table.register_rule(
            Name.of("index"),
            ParseRule(Name.of("idx"), (CatRef(Name.of("ident")), Lit("<-"), CatRef(CAT_TERM))),
        )
        table.register_rule(
            CAT_TERM,
            ParseRule(
                Name.of("sigma"),
                (Lit("Σ"), Lit("("), CatRef(Name.of("index")), Lit(")"), CatRef(CAT_TERM)),
            ),
        )
        out = parse_term("Σ (i <- xs) i", table)
        assert out.kind == Name.of("sigma")
        assert out.children[2].kind == Name.of("idx")

    def test_newest_rule_with_same_keyword_wins(self, table):
        old = Name.of("u_old")
        new = Name.of("u_new")
        table.register_rule(CAT_TERM, ParseRule(old, (Lit("only"), CatRef(CAT_TERM))))
        table.register_rule(CAT_TERM, ParseRule(new, (Lit("only"), CatRef(CAT_TERM))))
        assert parse_term("only x", table).kind == new

    def test_application_is_left_nested(self, table):
        out = parse_term("f x y", table)
        assert out.kind == Name.of("app")
        assert out.children[0].kind == Name.of("app")

    def test_registering_rules_does_not_change_unrelated_parses(self, table):
        before = strip_info(parse_command("def y := f (x + 1)", table))
        table.register_rule(
            CAT_TERM, ParseRule(Name.of("noise"), (Lit("noise"), CatRef(CAT_TERM)))
        )
        after = strip_info(parse_command("def y := f (x + 1)", table))
        assert before == after

    def test_fun_takes_up_to_64_binders(self, table):
        binders = [f"x{i}" for i in range(65)]
        out = parse_term(f"fun {' '.join(binders[:64])} => x0", table)
        assert out.kind == Name.of("funMulti") and len(out.children[1].children) == 64
        with pytest.raises(ParseError, match="^runaway binder list$"):
            parse_term(f"fun {' '.join(binders)} => x0", table)

    def test_parse_error_mentions_expectation(self, table):
        with pytest.raises(ParseError) as exc:
            parse_command("def x", table)
        assert "':='" in exc.value.message or "':'" in exc.value.message


class TestRegisterRule:
    def test_unknown_category(self, table):
        with pytest.raises(ParseError):
            table.register_rule(
                Name.of("idx"), ParseRule(Name.of("k"), (Lit("<-"),))
            )

    def test_unknown_slot_category(self, table):
        with pytest.raises(ParseError):
            table.register_rule(
                CAT_TERM, ParseRule(Name.of("k"), (Lit("q"), CatRef(Name.of("nope"))))
            )

    @pytest.mark.parametrize(
        "src, message",
        [
            ('syntax "q" nosuchcat : term', "unknown syntax category 'nosuchcat'"),
            ('syntax "q" : nosuchcat', "unknown syntax category 'nosuchcat'"),
            ("syntax term term : term", "rules starting with a category must have a literal token next"),
            ("declare_syntax_cat term", "syntax category 'term' already exists"),
        ],
        ids=["slot", "category", "head", "declare"],
    )
    def test_a_rejected_rule_is_placed_at_its_keyword(self, src, message):
        from hygex.driver import run_string

        code, out = run_string(f"def a := 1\n  {src}\n")
        assert (code, out) == (1, f"def a := 1\nerror: {message} @2:3\n")

    def test_a_rule_from_a_macro_stays_unplaced(self):
        from hygex.driver import run_string

        code, out = run_string('macro "q" x:nosuchcat : term => `(1)\n')
        assert (code, out) == (1, "error: unknown syntax category 'nosuchcat'\n  in expansion of macroDecl\n")

    def test_duplicate_kind(self, table):
        table.register_rule(CAT_TERM, ParseRule(Name.of("dup_k"), (Lit("aa"),)))
        with pytest.raises(ParseError):
            table.register_rule(CAT_TERM, ParseRule(Name.of("dup_k"), (Lit("bb"),)))

    def test_generated_kinds_are_unique(self, table):
        k1 = table.gen_kind([Lit("w")])
        table.register_rule(CAT_TERM, ParseRule(k1, (Lit("w"), CatRef(CAT_TERM))))
        k2 = table.gen_kind([Lit("w")])
        assert k1 != k2

    @pytest.mark.parametrize(
        "word",
        ["quot", "dquot", "antiquot", "splice", "splicegroup", "sepseq", "seq",
         "cmdseq", "choice", "slotprec"],
    )
    def test_generated_kinds_avoid_the_kernel_kinds(self, table, word):
        kind = table.gen_kind([Lit(word), CatRef(CAT_TERM)])
        assert kind == Name.of(f"{word}_2")


class TestQuotations:
    def test_term_quotation_with_antiquotes(self, table):
        out = parse_term("`(Typing $G $e $t)", table)
        assert is_quotation(out)
        body = out.children[0]
        spine = []
        while isinstance(body, Node) and body.kind == Name.of("app"):
            spine.append(body.children[1])
            body = body.children[0]
        assert all(is_antiquot(s) for s in spine)
        assert len(spine) == 3
        assert isinstance(body, Ident) and body.raw == "Typing"

    def test_explicit_category_quotation(self, table):
        table.register_rule(
            CAT_TACTIC, ParseRule(Name.of("repeat"), (Lit("repeat"), CatRef(CAT_TACTIC)))
        )
        out = parse_term("`(tactic| try ($t; repeat $t))", table)
        assert out.kind == Name(("quot", "tactic"))
        assert out.children[0].kind == Name.of("try")

    def test_command_quotation(self, table):
        out = parse_term("`(def f := 1 def g := 2)", table)
        assert out.children[0].kind == Name.of("cmdseq")

    def test_nested_splice_binds_inner_antiquotes(self, table):
        out = parse_term("`(match $discr with $[| $patss,* => $branches]*)", table)
        alts = out.children[0].children[3]
        group = alts.children[0]
        assert group.kind == Name(("splicegroup",))

    def test_splice_separators(self, table):
        out = parse_term("`(($e, $es,*))", table)
        seps = out.children[0].children[1]
        assert seps.children[-1].kind == Name(("splice", ","))

    def test_one_splice_per_sequence(self, table):
        with pytest.raises(ParseError) as exc:
            parse_term("`(($es,*, $fs,*))", table)
        assert "one splice" in exc.value.message

    def test_antiquot_category_suffix(self, table):
        out = parse_term("`($x:ident)", table)
        anti = out.children[0]
        assert anti.kind == Name(("antiquot", "ident"))

    def test_malformed_antiquotation(self, table):
        with pytest.raises(ParseError):
            parse_term("`($ )", table)

    def test_ambiguous_quotation_is_an_error(self, table):
        # the same literal registered as a term and as a command
        table.register_rule(CAT_TERM, ParseRule(Name.of("omg_t"), (Lit("omg"),)))
        table.register_rule(CAT_COMMAND, ParseRule(Name.of("omg_c"), (Lit("omg"),)))
        with pytest.raises(ParseError) as exc:
            parse_term("`(omg)", table)
        assert "ambiguous" in exc.value.message


def term_outcome(parser_class, src, table):
    """What `parser_class` makes of the term `src`: its tree and end
    position, or its error's type, message and place."""
    parser = parser_class(src, table)
    try:
        return parser.parse_term(), parser.pos
    except (LexError, ParseError) as err:
        return type(err).__name__, err.message, err.info


class TestOneReadOfAQuotationBody:
    """An untagged body is read once, as its first token says.  Each case
    is compared with the reader this one replaced, which read the body as a
    term and again as commands (`WrittenOutParser`)."""

    def both(self, src, table):
        return term_outcome(WrittenOutParser, src, table), term_outcome(Parser, src, table)

    @pytest.mark.parametrize("src", ["`(def a := 1 def b := 2)", "`($c:command $d:command)"])
    def test_commands_parse_to_the_same_sequence(self, src, table):
        old, new = self.both(src, table)
        assert new == old
        assert new[0].children[0].kind == Name.of("cmdseq") and new[1] == len(src)

    def test_a_tagged_command_body_takes_a_sequence(self, table):
        src = "`(command| def a := 1 def b := 2)"
        old, new = self.both(src, table)
        assert old == ("ParseError", "expected ')', found 'def'", SourceInfo(1, 23, 22))
        untagged, _ = self.both("`(def a := 1 def b := 2)", table)
        assert strip_info(new[0].children[0]) == strip_info(untagged[0].children[0])
        assert new[0].kind == Name(("quot", "command")) and new[1] == len(src)
        assert known_difference(src, table, old, new) == "a tagged command body takes a sequence"

    def test_a_token_that_heads_a_term_and_a_command_is_ambiguous(self, table):
        table.register_rule(CAT_TERM, ParseRule(Name.of("foo"), (Lit("foo"),)))
        table.register_rule(CAT_COMMAND, ParseRule(Name.of("foo_2"), (Lit("foo"),)))
        old, new = self.both("`( foo)", table)
        # the two-parse reader placed it at the blank after `(`
        assert old == ("ParseError", AMBIGUOUS, SourceInfo(1, 3, 2))
        assert new == ("ParseError", AMBIGUOUS, SourceInfo(1, 4, 3))
        name = "a first token that heads a command and a term rule is ambiguous"
        assert known_difference("`( foo)", table, old, new) == name
        # even where only the term parse succeeds
        old, new = self.both("`(foo 1)", table)
        assert old[0].children[0].kind == Name.of("app")
        assert new == ("ParseError", AMBIGUOUS, SourceInfo(1, 3, 2))
        assert known_difference("`(foo 1)", table, old, new) == name

    def test_a_failing_command_body_reports_the_command_parse_s_error(self, table):
        old, new = self.both("`(def a := )", table)
        assert old == ("ParseError", "expected term, found 'def'", SourceInfo(1, 3, 2))
        assert new == ("ParseError", "expected term, found ')'", SourceInfo(1, 12, 11))
        assert known_difference("`(def a := )", table, old, new) == (
            "a failing command body reports the command parse's error"
        )

    def test_a_failing_term_body_reports_the_term_parse_s_error(self, table):
        old, new = self.both("`(f x])", table)
        assert old == ("ParseError", "unknown command, found 'f'", SourceInfo(1, 3, 2))
        assert new == ("ParseError", "expected ')', found ']'", SourceInfo(1, 6, 5))
        assert known_difference("`(f x])", table, old, new) == (
            "a failing term body reports the term parse's error"
        )

    def test_a_hole_before_commands_must_be_tagged(self, table):
        old, new = self.both("`($x def a := 1)", table)
        assert old[0].children[0].kind == Name.of("cmdseq")
        assert new == ("ParseError", "expected ')', found 'def'", SourceInfo(1, 6, 5))
        assert known_difference("`($x def a := 1)", table, old, new) == (
            "an untagged hole before commands"
        )
        old, new = self.both("`($x:command def a := 1)", table)
        assert new == old and new[0].children[0].kind == Name.of("cmdseq")

    @pytest.mark.parametrize(
        "src, old, new",
        [
            # `def` heads no term rule
            ("`(def a := 1)", "tree", ("ParseError", AMBIGUOUS, SourceInfo(1, 3, 2))),
            # the new error is no further on than the old one
            (
                "`(def a := )",
                ("ParseError", "expected term, found 'def'", SourceInfo(1, 3, 2)),
                ("ParseError", "other", SourceInfo(1, 3, 2)),
            ),
            # a tactic body, not a command body
            (
                "`(tactic| skip def)",
                ("ParseError", "expected ')', found 'def'", SourceInfo(1, 16, 15)),
                "tree",
            ),
            # the hole is tagged
            (
                "`($x:command def a := 1)",
                "tree",
                ("ParseError", "expected ')', found 'def'", SourceInfo(1, 14, 13)),
            ),
        ],
        ids=["ambiguous", "failing_body", "tagged_sequence", "hole"],
    )
    def test_an_outcome_just_outside_an_entry_is_not_listed(self, src, old, new, table):
        tree = term_outcome(Parser, "`(x)", table)
        old, new = (tree if o == "tree" else o for o in (old, new))
        assert known_difference(src, table, old, new) is None

    def test_a_command_rule_led_by_a_category_needs_a_tag(self, table):
        table.register_rule(CAT_COMMAND, ParseRule(Name.of("bang"), (CatRef(CAT_IDENT), Lit("!"))))
        old, new = self.both("`(x !)", table)
        assert old[0].children[0].kind == Name.of("bang")
        assert new == ("ParseError", "expected ')', found '!'", SourceInfo(1, 5, 4))
        assert known_difference("`(x !)", table, old, new) == (
            "a command rule led by a category needs a tag"
        )
        old, new = self.both("`(command| x !)", table)
        assert new == old and new[0].children[0].kind == Name.of("bang")


ROUND_TRIP_SOURCES = [
    "def x := 1",
    "def e := fun y => x",
    "def t := (1, 2, 3)",
    "def p := ⟨1, f x⟩",
    "def s := 1 + 2 + 3",
    "def a := p → q → r",
    "def a2 := (p → q) → r",
    'syntax "const" term : term',
    "macro_rules | `(const $e) => `(fun x => $e)",
    "macro_rules | `(($e, $es,*)) => `(Prod.mk $e ($es,*))",
    "theorem triv (p : Prop) : p → p := by intro h; exact h",
    "declare_syntax_cat index",
    'macro "m" y:ident : command => `(def $y := 1)',
    'notation "dup" e => Prod.mk e e',
    "def m2 := match a, b with | c, d => c | _, _ => d",
]


class TestRoundTrip:
    @pytest.mark.parametrize("src", ROUND_TRIP_SOURCES)
    def test_render_then_reparse_is_identity(self, src, table):
        first = parse_command(src, table)
        again = parse_command(render(first), table)
        assert strip_info(first) == strip_info(again)


class TestAntiquotSuffixValidation:
    def test_unknown_category_suffix_is_rejected(self, table):
        with pytest.raises(ParseError) as exc:
            parse_term("`($x:level)", table)
        assert "unknown antiquotation category" in exc.value.message

    def test_kind_and_pseudo_category_suffixes_are_accepted(self, table):
        parse_term("`($x:ident)", table)
        parse_term("`($x:num)", table)
        parse_term("`($x:alt)", table)
        parse_term("`($x:tactic)", table)

    def test_unterminated_guillemet(self):
        with pytest.raises(LexError):
            tokenize("def «broken := 1")


class TestSlotPrecedence:
    def test_annotated_slot_limits_what_it_swallows(self, table):
        from hygex.expander import Expander, RunState
        from hygex.prelude import bootstrap

        def last_def_rhs(src):
            state = RunState()
            bootstrap(state)
            expander = Expander(state)
            pos = 0
            out = None
            while True:
                p = Parser(src, state.table, pos)
                if p.at_eof():
                    break
                cmd = p.parse_command()
                pos = p.pos
                out = expander.process_command(cmd)[-1]
            return render(out)

        greedy = last_def_rhs(
            "def wrapped := 1\n"
            "def x := 2\n"
            'syntax "wrap" term : term\n'
            "macro_rules | `(wrap $e) => `(wrapped)\n"
            "def a := wrap x + 1\n"
        )
        assert greedy == "def a := wrapped"  # slot at 0 swallowed x + 1
        tight = last_def_rhs(
            "def wrapped := 1\n"
            "def x := 2\n"
            'syntax "wrap" term:100 : term\n'
            "macro_rules | `(wrap $e) => `(wrapped)\n"
            "def a := wrap x + 1\n"
        )
        assert tight == "def a := wrapped + 1"  # + stayed outside the slot
        atom = last_def_rhs(
            "def wrapped := 1\n"
            "def f := 2\n"
            "def x := 2\n"
            'syntax "wrap" term:101 : term\n'
            "macro_rules | `(wrap $e) => `(wrapped)\n"
            "def a := wrap f x\n"
        )
        assert atom == "def a := wrapped x"  # above 100 a slot takes no argument

    def test_round_trips(self, table):
        src = 'syntax "wrap" term:100 : term'
        first = parse_command(src, table)
        assert render(first) == src
        again = parse_command(render(first), table)
        assert strip_info(first) == strip_info(again)


class TestLexerTables:
    """One parser reads a file.  It gets a new lexer only when a command
    has changed the keywords, and the new lexer takes over the line table
    (the scanner is built once per set of symbols, see `TestScannerCache`)."""

    @pytest.mark.parametrize(
        "declare, use, expanded",
        [
            (
                'syntax "bump" term : term\nmacro_rules | `(bump $e) => `($e + 1)',
                "def b := bump a",
                "def b := a + 1",
            ),
            ('macro "twice" e:term : term => `($e + $e)', "def b := twice a", "def b := a + a"),
            ('notation "dbl" e => e + e', "def b := dbl a", "def b := a + a"),
            (
                'syntax term "<+>" term : term\nmacro_rules | `($x <+> $y) => `($x + $y)',
                "def b := a <+> a",
                "def b := a + a",
            ),
            (
                'syntax term "++" term : term\nmacro_rules | `($x ++ $y) => `($y + $x + $y)',
                "def b := 1 ++ a",
                "def b := a + 1 + a",
            ),
        ],
        ids=["syntax", "macro", "notation", "new_symbol", "longer_symbol"],
    )
    def test_keyword_takes_effect_on_the_next_command(self, declare, use, expanded):
        from hygex.driver import run_string

        code, out = run_string(f"def a := 1\n{declare}\n{use}\n")
        assert code == 0, out
        assert out.splitlines()[-1] == expanded

    def test_snapshot_is_rebuilt_only_when_the_keywords_change(self, table):
        before = table.snapshot_keywords()
        assert table.snapshot_keywords() is before
        table.register_rule(
            CAT_TERM, ParseRule(Name.of("bumpRule"), (Lit("bump"), CatRef(CAT_TERM)))
        )
        after = table.snapshot_keywords()
        assert "bump" in after and "bump" not in before
        assert table.snapshot_keywords() is after
        table.register_rule(CAT_COMMAND, ParseRule(Name.of("bumpCmd"), (Lit("bumpcmd"),)))
        assert "bumpcmd" in table.snapshot_keywords()

    def test_late_diagnostics_report_their_own_line(self):
        from hygex.driver import run_string

        def filler(prefix):
            return "".join(f"def {prefix}{i} := {i}\n" for i in range(400))

        src = filler("d") + "def bad := nope\n" + filler("e") + "def worse := )\n"
        code, out = run_string(src)
        assert code == 1
        lines = out.splitlines()
        assert lines[400] == "error: unknown identifier 'nope' @401:12"
        assert lines[401:403] == ["def e0 := 0", "def e1 := 1"]
        assert lines[-1] == "error: expected term, found ')' @802:14"

    @settings(max_examples=30, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_positions_lexed_in_any_order_are_placed_alike(self, rnd):
        # the lexer keeps the bounds of the line it lexed last; backtracking
        # and lookahead may ask for any line next
        text = "def a := 1\n\n  -- c\nb\n\u2003c.d 2 -- e\n«f g» ⟨\n"
        expected = tokenize(text)
        order = list(range(len(expected)))
        rnd.shuffle(order)
        lexer = Lexer(text, CORE_KEYWORDS)
        starts = [0] + [tok.end for tok in expected]
        got = {i: lexer.token_at(starts[i]) for i in order}
        assert [got[i] for i in range(len(expected))] == expected

    def test_each_source_keeps_its_own_line_table(self, tmp_path):
        from hygex.driver import Runner

        a = tmp_path / "a.hyg"
        b = tmp_path / "b.hyg"
        a.write_text("def x := 1\n\n\ndef y := nope\n", encoding="utf-8")
        b.write_text("def z := nope\n", encoding="utf-8")
        runner = Runner()
        runner.run_files([str(a), str(b), str(a)])
        errors = [line for line in runner.output.splitlines() if line.startswith("error")]
        assert errors == [
            "error: unknown identifier 'nope' @4:10",
            "error: unknown identifier 'nope' @1:10",
            "error: 'x' has already been declared @1:5",
            "error: unknown identifier 'nope' @4:10",
        ]

    @pytest.mark.parametrize(
        "src, expected",
        [
            # the lookahead that ends `syntax` lexes `go` as an identifier
            (
                'def a := 1\nsyntax "go" : command\ngo\ndef b := a\n',
                "def a := 1\n"
                'syntax "go" : command\n'
                "error: unexpected syntax kind 'go' (no macro registered) @3:1\n"
                "def b := a\n",
            ),
            # ... and finds no token at `!!`, which does not lex
            (
                'def a := 1\nsyntax "!!" : command\n!!\ndef b := a\n',
                "def a := 1\n"
                'syntax "!!" : command\n'
                "error: unexpected syntax kind '!!' (no macro registered) @3:1\n"
                "def b := a\n",
            ),
            (
                'def a := 1\nmacro "go" : command => `(def g := a)\ngo\ndef b := a\n',
                "def a := 1\n"
                'macroDecl: macro "go" : command => `(def g := a) ==> '
                'syntax "go" : command macro_rules | `(go) => `(def g := a)\n'
                'syntax "go" : command\n'
                "macro_rules | `(go) => `(def g := a{a})\n"
                "go: go ==> def g.1 := a.1{a}\n"
                "def g.1 := a\n"
                "def b := a\n",
            ),
            (
                'def a := 1\nmacro "!!" : command => `(def g := a)\n!!\ndef b := a\n',
                "def a := 1\n"
                'macroDecl: macro "!!" : command => `(def g := a) ==> '
                'syntax "!!" : command macro_rules | `(!!) => `(def g := a)\n'
                'syntax "!!" : command\n'
                "macro_rules | `(!!) => `(def g := a{a})\n"
                "!!: !! ==> def g.1 := a.1{a}\n"
                "def g.1 := a\n"
                "def b := a\n",
            ),
        ],
        ids=["ident_to_keyword", "lex_error_to_keyword", "macro_ident", "macro_lex_error"],
    )
    def test_a_new_keyword_relexes_the_lookahead(self, src, expected):
        """The command right after a new keyword begins with it, so the
        token there was first lexed under the old keywords."""
        from hygex.driver import run_string

        _, out = run_string(src, RunConfig(stage="expand", trace_expansion=True))
        assert out == expected

    def test_resynchronising_reads_the_file_s_lexer(self, monkeypatch):
        from hygex.driver import run_string

        builds = []
        raw = Lexer.__init__

        def counted(lexer, text, *args, **kwargs):
            builds.append(text)
            raw(lexer, text, *args, **kwargs)

        monkeypatch.setattr(Lexer, "__init__", counted)
        src = "".join(f"def a{i} := {i}\ndef b{i} := )\n" for i in range(50))
        code, out = run_string(src)
        assert code == 1
        assert out.count("error: expected term, found ')'") == 50
        assert builds.count(src) == 1

    def test_the_memo_holds_one_token_at_each_command_start(self, monkeypatch):
        lines = [
            f'notation "nt{i}" e => e + 1' if i % 250 == 1 else f"def d{i} := {i}"
            for i in range(2000)
        ]
        sizes = []
        raw = Parser.parse_command

        def parse_command(parser):
            if not parser.quot_depth:
                # the first token is peeked by now, and nothing else
                sizes.append((len(parser.lexer._tokens), len(parser.lexer._errors)))
            return raw(parser)

        monkeypatch.setattr(Parser, "parse_command", parse_command)
        runner = Runner(RunConfig(stage="expand"))
        runner.run_source("\n".join(lines) + "\n")
        assert not runner.diagnostics
        assert len(sizes) == 2000
        assert set(sizes) == {(1, 0)}


def reference_tokens(text, keywords):
    """The lexer as a plain scan: every symbolic keyword is tried at every
    position, longest first, and positions are counted from scratch."""
    keywords = frozenset(keywords) | CORE_KEYWORDS
    symbolic = sorted(
        (k for k in keywords | _SPECIALS if not (k[0].isalpha() or k[0] == "_")),
        key=len,
        reverse=True,
    )

    def info(off):
        return SourceInfo(
            text.count("\n", 0, off) + 1, off - (text.rfind("\n", 0, off) + 1) + 1, off
        )

    def word_end(end):
        while end < n and (text[end].isalnum() or text[end] in "_'"):
            end += 1
        return end

    out, pos, n = [], 0, len(text)
    while True:
        while pos < n and (text[pos].isspace() or text.startswith("--", pos)):
            if text[pos].isspace():
                pos += 1
            else:
                while pos < n and text[pos] != "\n":
                    pos += 1
        if pos >= n:
            return out
        c, here = text[pos], info(pos)
        sym = next((k for k in symbolic if text.startswith(k, pos)), None)
        if c == "`":
            head = next((h for h in ("``(", "`(") if text.startswith(h, pos)), None)
            if head is None:
                raise LexError("stray '`' (expected '`(' or '``(')", here)
            tok = Token("dquote" if head == "``(" else "quote", head, here, pos + len(head))
        elif c == "$":
            head = "$[" if text.startswith("$[", pos) else "$"
            tok = Token("special", head, here, pos + len(head))
        elif c == '"':
            end = text.find('"', pos + 1)
            if end < 0 or "\n" in text[pos:end]:
                raise LexError("unterminated string literal", here)
            tok = Token("str", text[pos : end + 1], here, end + 1)
        elif c == "«":
            end = text.find("»", pos + 1)
            if end < 0:
                raise LexError("unterminated '«' identifier", here)
            if end == pos + 1:
                raise LexError("empty '«»' identifier", here)
            tok = Token("ident", text[pos + 1 : end], here, end + 1)
        elif sym is not None:
            kind = "special" if sym in _SPECIALS else "keyword"
            tok = Token(kind, sym, here, pos + len(sym))
        elif c.isdigit():
            end = pos
            while end < n and text[end].isdigit():
                end += 1
            tok = Token("num", text[pos:end], here, end)
        elif c.isalpha() or c == "_":
            end = word_end(pos)
            while end + 1 < n and text[end] == "." and (
                text[end + 1].isalpha() or text[end + 1] == "_"
            ):
                end = word_end(end + 1)
            word = text[pos:end]
            tok = Token("keyword" if word in keywords else "ident", word, here, end)
        else:
            raise LexError(f"illegal character {c!r}", here)
        out.append(tok)
        pos = tok.end


def lex_outcome(lex, text, keywords):
    try:
        return lex(text, keywords)
    except LexError as err:
        return ("LexError", err.message, err.info)


# Symbols that share first characters, so that the longest match matters,
# and symbols led by a digit, `$`, a backquote, `"` or `«`, which the
# scanner must order against a numeral and the heads that start with them.
_SYMBOLS = ["+", "++", "+>", "+++", ":=", "::", ":::", "<+>", "<", "<=", "=>",
            "==", "-", "->", "→", "⟶", ".", "..", "'", "1+", "$$", "$x", "`x",
            "``", '"!', "«<"]
# words, and what the scanner hands back to the character dispatch: a
# dotted part, a word or a numeral that goes on past ASCII
_WORDS = ["x", "ab", "k", "dup", "x.y", "x.", "_z", "a'", "λ", "é", "Ωx", "x²",
          "x.é", "é.x", "x._"]
_PIECES = _SYMBOLS + _WORDS + [
    " ", " ", "\n", "\t", "0", "1", "42", "²", "4²", "4٣", "٣", "-- note\n", "--",
    "«", "»", "«a b»", '"', '"s"', "`", "`(", "``(", "$", "$[", "(", ")", "⟨", ",",
    "@",
    # blanks beyond ASCII, and a comment that may end the input
    "\u00a0", "\u2003", "\x1c", "\x85", "\r", "-- tail",
]
# 155 symbols over five characters, "-" among them: long runs of symbols
# that share their first characters, and comments
_MANY_SYMBOLS = sorted(
    {a + b + c for a in "+-<=:" for b in ("", *"+-<=:") for c in ("", *"+-<=:")}
)


def every_code_point() -> str:
    """Every code point, surrogates included, decoded in one C call."""
    every = array("I", range(sys.maxunicode + 1)).tobytes().decode(
        "utf-32-le" if sys.byteorder == "little" else "utf-32-be", "surrogatepass"
    )
    assert len(every) == sys.maxunicode + 1
    return every


class TestTokenCache:
    """Each position is lexed once per lexer, by one scanner match where
    the scanner can decide the token; the tokens stay those of a
    longest-first scan of every symbol."""

    @settings(max_examples=400, deadline=None)
    @given(
        keywords=st.frozensets(st.sampled_from(_SYMBOLS + ["k", "dup", "x.y"])),
        pieces=st.lists(st.sampled_from(_PIECES), max_size=40),
    )
    def test_tokenize_agrees_with_a_longest_first_scan(self, keywords, pieces):
        text = "".join(pieces)
        assert lex_outcome(tokenize, text, keywords) == lex_outcome(
            reference_tokens, text, keywords
        )

    @settings(max_examples=100, deadline=None)
    @given(
        keywords=st.frozensets(st.sampled_from(_MANY_SYMBOLS), min_size=50),
        pieces=st.lists(
            st.sampled_from(_MANY_SYMBOLS + ["x", "1", " ", "\n", "-- c\n", "-- c"]),
            max_size=40,
        ),
    )
    def test_many_symbols_that_share_first_characters(self, keywords, pieces):
        text = "".join(pieces)
        assert lex_outcome(tokenize, text, keywords) == lex_outcome(
            reference_tokens, text, keywords
        )

    @pytest.mark.parametrize(
        "text",
        ["x -- note", "x --", "x\u2003-- a\n\x85-- b", "x -- trailing", "x\n-- -"],
    )
    def test_a_comment_may_end_the_input(self, text):
        # a token match that fails at the end must not back into the
        # comment, whatever the keywords
        for keywords in (frozenset(), frozenset({"-", "g"})):
            assert [t.text for t in tokenize(text, keywords)] == ["x"]

    def test_blanks_are_exactly_the_space_characters(self):
        every = every_code_point()
        spaces = "".join(filter(str.isspace, every))
        # the lexer skips blanks with `\s`, which agrees with `str.isspace()`
        # on every code point
        assert _BLANKS.pattern.startswith(r"(?:\s|")
        assert "".join(re.findall(r"\s", every)) == spaces
        assert _BLANKS.match(spaces).end() == len(spaces)
        # ... and so does every scanner, which starts with `_BLANKS`
        for keywords in (frozenset(), frozenset(_SYMBOLS), frozenset(_MANY_SYMBOLS)):
            scanner = Lexer("", keywords | CORE_KEYWORDS)._scanner
            assert scanner.pattern.startswith(_BLANKS.pattern)
            m = scanner.match(spaces)
            assert (m.end(), m.lastindex) == (len(spaces), None)

    @pytest.mark.parametrize(
        "src", ['def x := "open', "def x := @", "def x := ` y", "def «x := 1"]
    )
    def test_a_lex_error_is_raised_again(self, src, table):
        p = Parser(src, table)
        while True:
            try:
                p.bump()
            except LexError as err:
                first = err
                break
        with pytest.raises(LexError) as again:
            p.peek()
        assert (again.value.message, again.value.info) == (first.message, first.info)

    def test_a_position_that_does_not_lex_is_lexed_once_per_lexer(self, monkeypatch):
        from hygex.driver import run_string

        src = "def x := fun | 0 => 1 | n => n\n@bad"
        at = src.index("@")
        calls = Counter()
        alive = []  # keeps every lexer alive, so no two share an id
        raw = Lexer.token_at

        def counted(lexer, pos):
            alive.append(lexer)
            if lexer.text == src and _BLANKS.match(src, pos).end() == at:
                calls[id(lexer)] += 1
            return raw(lexer, pos)

        monkeypatch.setattr(Lexer, "token_at", counted)
        code, out = run_string(src)
        assert (code, out.splitlines()[-1]) == (1, "error: illegal character '@' @2:1")
        # one lexer, the file's: the `@` starts the failed command, where
        # resynchronisation does not look
        assert list(calls.values()) == [1]

    @pytest.mark.parametrize("name", sorted(CORPUS_RUNS))
    def test_each_position_is_lexed_once_per_lexer(self, name, monkeypatch):
        """Each position of a file is lexed at most once per keyword set,
        and a file gets one lexer per keyword set that its commands start
        under (a set only grows, so equal sets are the same set)."""
        kw, code = CORPUS_RUNS[name]
        runner = Runner(RunConfig(**kw))  # the prelude is built by now
        calls = Counter()
        alive = {}  # keeps every lexer alive, so no two share an id
        starts = set()  # the keyword sets the file's commands start under
        raw, raw_iter = Lexer.token_at, driver.iter_commands

        def counted(lexer, pos):
            alive[id(lexer)] = lexer
            calls[lexer.keywords, pos] += 1
            return raw(lexer, pos)

        def recorded(text, table, on_error=None):
            commands = raw_iter(text, table, on_error)
            while True:
                starts.add(frozenset(table.keywords))
                try:
                    yield next(commands)
                except StopIteration:
                    return

        monkeypatch.setattr(Lexer, "token_at", counted)
        monkeypatch.setattr(driver, "iter_commands", recorded)
        assert runner.run_files([str(CORPUS / f"{name}.hyg")]) == code
        assert len(alive) == len(starts)
        assert max(calls.values()) == 1


class TestScannerCache:
    """A scanner is compiled once per set of symbolic keywords: a compile
    costs far more than a lexer, and files add word keywords far more
    often than symbols."""

    def test_keyword_sets_that_differ_in_words_share_a_scanner(self):
        core = CORE_KEYWORDS
        a = Lexer("", core | {"lv5", "k"})
        b = Lexer("", core | {"dup", "x.y", "«q", "$x"})
        assert a._scanner is b._scanner is Lexer("", core)._scanner
        assert Lexer("", core | {"<+>"})._scanner is not a._scanner

    def test_a_run_that_adds_only_words_compiles_one_scanner(self):
        runner = Runner(RunConfig(stage="elaborate"))  # the prelude is built by now
        src = [
            "def base := 1",
            'macro "introH" : tactic => `(tactic| intro h)',
            'notation "lv0" e => e + base',
        ]
        for g in range(1, 9):
            src.append(f'notation "lv{g}" e => lv{g - 1} (e + base)')
            src.append(f"def t{g} := (lv0 {g}, lv{g} base, lv{g - 1} 3)")
            src.append(f"theorem th{g} (q : Prop) : q → q → q := by repeat introH; assumption")
            if g % 3 == 1:
                src.append(f'macro "chk{g}" e:term : term => ``(fun x => x + $e + base)')
                src.append(f"def c{g} : Nat → Nat := chk{g} {g}")
        _scanner.cache_clear()
        runner.run_source("\n".join(src) + "\n")
        assert runner.diagnostics == []
        info = _scanner.cache_info()
        # a lexer per keyword set: the file's first, then one after each of
        # the 9 notations and 4 macros, all on the scanner the first compiled
        assert (info.misses, info.hits) == (1, 9 + 4)


def lex_all(lexer: Lexer):
    """Every token of a lexer's text, or the first `LexError`."""
    out, pos = [], 0
    try:
        while True:
            tok = lexer.token(pos)
            if tok.kind == "eof":
                return out
            out.append(tok)
            pos = tok.end
    except LexError as err:
        return ("LexError", err.message, err.info)


# literals led by a word character, a symbol, a digit, `$`, a backquote,
# `«` and `"`, and specials, which are no keywords
_LITERALS = ["zz", "k2", "x.y", "_w", "é", "<+>", "+", "::", "→", "1+", "42x", "$$", "$x",
             "`x", "``", "«<", '"!', "(", ","]


class TestTableSymbols:
    """`ParserTable.symbols` is the symbolic part of the keywords, kept as
    rules add them, so a new lexer scans no keyword set."""

    @staticmethod
    def add(table: ParserTable, texts) -> None:
        items = tuple(Lit(t) for t in texts)
        table.register_rule(CAT_TERM, ParseRule(table.gen_kind(items), items))

    @settings(max_examples=100, deadline=None)
    @given(
        before=st.lists(st.lists(st.sampled_from(_LITERALS), min_size=1, max_size=3), max_size=5),
        after=st.lists(st.lists(st.sampled_from(_LITERALS), min_size=1, max_size=3), max_size=5),
        pieces=st.lists(st.sampled_from(_LITERALS + _PIECES), max_size=12),
    )
    def test_the_kept_symbols_are_the_keywords_symbolic_part(self, before, after, pieces):
        table = ParserTable()
        for texts in before:
            self.add(table, texts)
        kept = table.symbols
        copy = table.copy()
        for texts in after:
            self.add(copy, texts)
        assert table.symbols is kept
        for t in (table, copy):
            keywords = t.snapshot_keywords()
            assert t.symbols == _symbolic(keywords)
            text = " ".join(pieces)
            assert lex_all(Lexer(text, keywords, (), t.symbols)) == lex_all(Lexer(text, keywords))

    def test_a_new_word_keyword_is_classified_once(self, monkeypatch):
        table = ParserTable()
        parser = Parser("def x := 1\ndef y := zz 2\n", table)
        calls = []
        real = parser_module._is_ident_start
        monkeypatch.setattr(parser_module, "_is_ident_start", lambda c: calls.append(c) or real(c))
        symbols = table.symbols
        self.add(table, ["zz"])
        lexer = parser.lexer
        parser.start_command(11)
        assert parser.lexer is not lexer
        assert calls == ["z"]
        assert table.symbols is symbols
        # a keyword the table has is not classified again; a new symbol grows the set
        self.add(table, ["zz", "<+>"])
        assert calls == ["z", "<"]
        assert table.symbols == symbols | {"<+>"}
