"""Tokenizer and table-driven parsing, including quotation syntax."""

import pytest

from conftest import strip_info
from hygex.errors import LexError, ParseError
from hygex.parser import (
    CAT_COMMAND,
    CAT_TACTIC,
    CAT_TERM,
    CatRef,
    Lit,
    ParseRule,
    Parser,
    ParserTable,
    tokenize,
)
from hygex.syntax import (
    Atom,
    Ident,
    Name,
    Node,
    is_antiquot,
    is_quotation,
    render,
)


@pytest.fixture
def table():
    t = ParserTable()
    t.enable_command_head("macro")
    t.enable_command_head("notation")
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

    def test_duplicate_kind(self, table):
        table.register_rule(CAT_TERM, ParseRule(Name.of("dup_k"), (Lit("aa"),)))
        with pytest.raises(ParseError):
            table.register_rule(CAT_TERM, ParseRule(Name.of("dup_k"), (Lit("bb"),)))

    def test_generated_kinds_are_unique(self, table):
        k1 = table.gen_kind([Lit("w")])
        table.register_rule(CAT_TERM, ParseRule(k1, (Lit("w"), CatRef(CAT_TERM))))
        k2 = table.gen_kind([Lit("w")])
        assert k1 != k2


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
        from hygex.expander import Expander, ExpanderState
        from hygex.prelude import bootstrap

        def last_def_rhs(src):
            state = ExpanderState()
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

    def test_round_trips(self, table):
        src = 'syntax "wrap" term:100 : term'
        first = parse_command(src, table)
        assert render(first) == src
        again = parse_command(render(first), table)
        assert strip_info(first) == strip_info(again)


class TestLexerTables:
    """Every top-level command gets a new lexer, but the line-start table
    and the keyword list are built once per source and per keyword set."""

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
        table.enable_command_head("bumpcmd")
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
            "error: 'x' has already been declared",
            "error: unknown identifier 'nope' @4:10",
        ]
