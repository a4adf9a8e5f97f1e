"""Hygienic expansion: resolution rules, macro steps, command processing."""

import pytest

from conftest import CORPUS, parse_scoped
from corpus_config import CORPUS_RUNS
from hygex import expander
from hygex.context import Decl, GlobalContext
from hygex.driver import RunConfig, Runner, run_string
from hygex.errors import UnboundIdentifier
from hygex.expander import Expander, RunState, resolve_identifier
from hygex.parser import Parser
from hygex.prelude import bootstrap
from hygex.syntax import Ident, Name, Node, render


def gctx_of(*names):
    g = GlobalContext()
    for n in names:
        g.add(Name.of(n), Decl("def"))
    return g


class TestResolveIdentifier:
    def test_local_binding_requires_the_exact_symbol(self):
        # a use-site x does not see the macro-scoped binder x.1
        resolved = resolve_identifier(
            parse_scoped("x"), frozenset({Name(("x", 1))}), gctx_of("x")
        )
        assert isinstance(resolved, Ident)
        assert resolved.name == Name.of("x")

    def test_exact_local_match_discards_annotations(self):
        resolved = resolve_identifier(
            parse_scoped("x.1{x}"), frozenset({Name(("x", 1))}), gctx_of("x")
        )
        assert resolved.name == Name(("x", 1))
        assert resolved.preresolved == ()

    def test_unbound_identifier(self):
        with pytest.raises(UnboundIdentifier) as exc:
            resolve_identifier(parse_scoped("z"), frozenset(), gctx_of("id"))
        assert exc.value.message == "unknown identifier 'z'"

    def test_top_level_scopes_beat_nothing(self):
        resolved = resolve_identifier(
            parse_scoped("f.1.2{f.1}"), frozenset(), gctx_of("f.1", "f.2")
        )
        assert resolved.name == Name(("f", 1))

    def test_multiple_candidates_become_a_choice_node(self):
        resolved = resolve_identifier(
            parse_scoped("a"), frozenset(), gctx_of("a.a", "b.a")
        )
        assert isinstance(resolved, Node)
        assert render(resolved) == "choice(a.a | b.a)"

    def test_a_resolution_is_the_contexts_shared_reference(self):
        gctx = gctx_of("x")
        first = resolve_identifier(parse_scoped("x"), frozenset(), gctx)
        assert resolve_identifier(parse_scoped("x"), frozenset(), gctx) is first
        assert resolve_identifier(first, frozenset(), gctx) is first
        assert gctx.is_ref(first)
        # a local is equal again under its binders, and never shared
        binders = frozenset({Name.of("y")})
        local = resolve_identifier(parse_scoped("y"), binders, gctx)
        assert resolve_identifier(local, binders, gctx) == local
        assert not gctx.is_ref(local) and list(gctx.refs) == [("x", Name.of("x"))]

    def test_a_global_reference_stays_global_under_a_binder_of_its_symbol(self):
        gctx = gctx_of("x")
        ref = resolve_identifier(parse_scoped("x.1{x}"), frozenset({Name.of("x")}), gctx)
        assert ref is gctx.ref("x", Name.of("x"))
        assert resolve_identifier(ref, frozenset({Name.of("x")}), gctx) is ref
        local = resolve_identifier(parse_scoped("x"), frozenset({Name.of("x")}), gctx)
        assert local == ref and local is not ref and not gctx.is_ref(local)

    def test_a_copy_keeps_a_table_of_its_own(self):
        gctx = gctx_of("x")
        ref = resolve_identifier(parse_scoped("x"), frozenset(), gctx)
        copy = gctx.copy()
        assert copy.refs == {} and gctx.refs
        copy.add(Name.of("A.x"), Decl("def"))
        assert render(resolve_identifier(ref, frozenset(), copy)) == "choice(x | A.x)"
        assert resolve_identifier(ref, frozenset(), gctx) is ref


class TestResolvedReferencesAreFinal:
    def test_resolving_a_corpus_reference_again_returns_it(self, monkeypatch):
        resolve = expander.resolve_identifier
        results = []

        def recording(stx, lctx, gctx):
            out = resolve(stx, lctx, gctx)
            results.append((out, lctx))
            return out

        def no_scan(self, name):
            raise AssertionError(f"globals scanned again for '{name}'")

        checked = 0
        for name, (kw, _code) in CORPUS_RUNS.items():
            runner = Runner(RunConfig(**kw))
            with monkeypatch.context() as patched:
                patched.setattr(expander, "resolve_identifier", recording)
                runner.run_files([str(CORPUS / f"{name}.hyg")])
            refs = [
                (r, lctx)
                for out, lctx in results
                for r in (out.children if type(out) is Node else (out,))
            ]
            results.clear()
            gctx = runner.state.gctx
            with monkeypatch.context() as patched:
                patched.setattr(GlobalContext, "match_surface", no_scan)
                for ref, lctx in refs:
                    if gctx.is_ref(ref):
                        assert resolve(ref, frozenset(), gctx) is ref
                    else:
                        # a local: equal again under its binders
                        assert resolve(ref, lctx, gctx) == ref
            checked += len(refs)
        assert checked  # 56 references over the twelve files

def expanded_lines(src, **kw):
    code, out = run_string(src, RunConfig(**kw))
    return code, out.splitlines()


class TestConstExample:
    SRC = (
        "def x := 1\n"
        "def e := fun y => x\n"
        'notation "const" e => fun x => e\n'
        "def y := const x\n"
    )

    def test_processed_rule_and_final_expansion(self):
        code, lines = expanded_lines(self.SRC, trace_expansion=True)
        assert code == 0
        assert "macro_rules | `(const $e) => `(fun x{x} => $e)" in lines
        assert "const: const x ==> fun x.1{x} => x" in lines
        assert lines[-1] == "def y := fun x.1 => x"

    def test_plain_fun_resolves_to_the_global(self):
        code, lines = expanded_lines("def x := 1\ndef e := fun y => x\n")
        assert code == 0
        assert lines[-1] == "def e := fun y => x"


class TestMacroTower:
    SRC = (
        'macro "m" y:ident : command => `(\n'
        "  def f := 1\n"
        '  macro "mm" : command => `(\n'
        "    def $y := f + 1\n"
        "    def f := $y + 1))\n"
        "m f\n"
        "mm\n"
    )

    def test_three_distinct_globals_with_printed_resolutions(self):
        code, lines = expanded_lines(self.SRC)
        assert code == 0
        assert "def f.1 := 1" in lines
        assert "def f.2 := f.1 + 1" in lines
        assert "def f.1.2 := f.2 + 1" in lines

    def test_intermediate_template_annotations(self):
        code, lines = expanded_lines(self.SRC, trace_expansion=True)
        joined = "\n".join(lines)
        assert "`(def f := f.1{f.1} + 1 def f.1{f.1} := f + 1)" in joined
        assert "mm: mm ==> def f.2 := f.1.2{f.1} + 1 def f.1.2{f.1} := f.2 + 1" in joined


class TestExpandMacroStep:
    def test_tuple_single_step(self, ):
        state = _fresh_state()
        stx = _parse_term(state, "(1, 2, 3)")
        out, scope = Expander(state).expand_macro_step(stx, state.macros.get(stx.kind))
        assert render(out) == "Prod.mk.1{Prod.mk} 1 (2, 3)"
        assert scope == 1

    def test_empty_tuple_single_step(self):
        state = _fresh_state()
        stx = _parse_term(state, "()")
        out, scope = Expander(state).expand_macro_step(stx, state.macros.get(stx.kind))
        assert render(out) == "Unit.unit.1{Unit.unit}"
        assert scope == 1

    def test_newest_macro_rules_take_precedence(self):
        code, lines = expanded_lines(
            "def union := 1\n"
            "def special := 2\n"
            "def s := 3\n"
            "def y := 4\n"
            'syntax term "∪" term : term\n'
            "macro_rules | `($a ∪ $b) => `(union $a $b)\n"
            "macro_rules | `(s ∪ $b) => `(special $b)\n"
            "def u1 := y ∪ y\n"
            "def u2 := s ∪ y\n"
        )
        assert code == 0
        assert "def u1 := union y y" in lines
        assert "def u2 := special y" in lines

    def test_a_user_block_goes_ahead_of_the_prelude_alternatives(self):
        # one flat list per kind: the user's pair alternative first, then
        # the prelude's three in their written order
        code, lines = expanded_lines(
            "def mypair := 1\n"
            "macro_rules | `(($a, $b)) => `(mypair $a $b)\n"
            "def p := (1, 2)\n"
            "def u := ()\n"
            "def g := (7)\n"
            "def t := (1, 2, 3)\n",
            trace_expansion=True,
        )
        assert code == 0
        assert lines[2:] == [
            "tuple: (1, 2) ==> mypair.1{mypair} 1 2",
            "def p := mypair 1 2",
            "tuple: () ==> Unit.unit.2{Unit.unit}",
            "def u := Unit.unit",
            # `($e)` allocates no scope: the next step still gets 3
            "tuple: (7) ==> 7",
            "def g := 7",
            "tuple: (1, 2, 3) ==> Prod.mk.3{Prod.mk} 1 (2, 3)",
            "tuple: (2, 3) ==> mypair.4{mypair} 2 3",
            "def t := Prod.mk 1 (mypair 2 3)",
        ]

    def test_two_expansions_take_scopes_one_and_two(self):
        code, lines = expanded_lines(
            "def q := ()\ndef r := ()\n", trace_expansion=True
        )
        assert code == 0
        assert "tuple: () ==> Unit.unit.1{Unit.unit}" in lines
        assert "tuple: () ==> Unit.unit.2{Unit.unit}" in lines


class TestProcessCommand:
    def test_redefinition_is_an_error(self):
        code, lines = expanded_lines("def x := 1\ndef x := 2\n")
        assert code == 1
        assert any("already been declared" in l for l in lines)

    @pytest.mark.parametrize(
        "src, error",
        [
            ("def x := 1\ndef x := 2\n", "error: 'x' has already been declared @2:5"),
            (
                "theorem t (p : Prop) : p → p := by intro h; exact h\n"
                "theorem t (p : Prop) : p := by exact p\n",
                "error: 't' has already been declared @2:9",
            ),
        ],
    )
    def test_a_redeclaration_is_placed_at_the_name(self, src, error):
        code, lines = expanded_lines(src, stage="elaborate")
        assert (code, lines[-1]) == (1, error)

    def test_unknown_command_without_prelude(self):
        code, lines = expanded_lines(
            'notation "const" e => fun x => e\n', prelude=False
        )
        assert code == 1
        assert any("unknown command" in l for l in lines)

    def test_single_element_parens_group_without_prelude(self):
        code, lines = expanded_lines("def x := (1)\n", prelude=False)
        assert code == 0
        assert lines[-1] == "def x := 1"

    @pytest.mark.parametrize("word", ["seq", "sq", "choice", "quot"])
    def test_a_keyword_spelled_like_a_kernel_kind(self, word):
        code, out = run_string(
            f'syntax "{word}" term : term\n'
            f"macro_rules | `({word} $e) => `($e + 1)\n"
            f"def x := {word} 2\n"
        )
        assert code == 0
        assert out.splitlines()[-1] == "def x := 2 + 1"

    def test_expansion_depth_guard(self):
        code, lines = expanded_lines(
            'syntax "loop" term : term\n'
            "macro_rules | `(loop $e) => `(loop $e)\n"
            "def x := loop 1\n",
            max_expansion_depth=16,
        )
        assert code == 1
        assert any("depth exceeded" in l for l in lines)

    def test_diagnostics_carry_macro_frames(self):
        runner = Runner(RunConfig())
        runner.run_source(
            'syntax "breaks" : term\n'
            "macro_rules | `(breaks) => `(nosuchthing)\n"
            "def x := breaks\n"
        )
        assert len(runner.diagnostics) == 1
        diag = runner.diagnostics[0]
        assert diag.message == "unknown identifier 'nosuchthing'"
        assert diag.frames and diag.frames[0][0] == Name.of("breaks")

    def test_fully_expanded_output_has_no_macro_kinds(self):
        runner = Runner(RunConfig())
        runner.run_source("def t := (1, (), (2, 3))\n")
        assert not runner.diagnostics
        state = runner.state

        def walk(stx):
            if isinstance(stx, Node):
                assert stx.kind not in state.macros
                for c in stx.children:
                    walk(c)

        # re-run capture of outputs through the expander API
        runner2 = Runner(RunConfig())
        expander = Expander(runner2.state)
        parser = Parser("def t := (1, (), (2, 3))", runner2.state.table)
        for out in expander.process_command(parser.parse_command()):
            walk(out)


class TestDeterminism:
    def test_identical_runs_are_byte_identical(self):
        src = (
            "def x := 1\n"
            'notation "const" e => fun x => e\n'
            "def y := const x\n"
            "def t := (1, 2, 3)\n"
        )
        outs = {run_string(src, RunConfig(trace_expansion=True))[1] for _ in range(3)}
        assert len(outs) == 1


def _fresh_state():
    state = RunState()
    bootstrap(state)
    return state


def _parse_term(state, src):
    p = Parser(src, state.table)
    out = p.parse_term()
    assert p.at_eof()
    return out


class TestErrorSurfaces:
    def test_stray_quotation_outside_macro_rules(self):
        code, lines = expanded_lines("def q := `(x)\n")
        assert code == 1
        assert any("macro right-hand sides" in l for l in lines)

    def test_a_quotation_kind_with_an_alternative_takes_a_step(self):
        # the error above holds while the kind has no alternative; like
        # every other kind, it takes a macro step once it has one
        code, lines = expanded_lines("macro_rules | `(`(x)) => `(1)\ndef q := `(x)\n")
        assert code == 0 and lines[1] == "def q := 1"

    def test_macro_rules_lhs_must_be_a_quotation(self):
        code, lines = expanded_lines("macro_rules | 1 => `(2)\n")
        assert code == 1
        assert any("left-hand side must be a quotation" in l for l in lines)

    def test_macro_rules_rhs_must_be_a_quotation(self):
        code, lines = expanded_lines("macro_rules | `(()) => 2\n")
        assert code == 1
        assert any("right-hand side must be a quotation" in l for l in lines)

    def test_no_alternative_matched_is_reported(self):
        code, lines = expanded_lines(
            'syntax "narrow" term : term\n'
            "macro_rules | `(narrow 1) => `(1)\n"
            "def x := narrow 2\n"
        )
        assert code == 1
        assert any("no macro alternative matched" in l for l in lines)

    @pytest.mark.parametrize(
        "rule, error",
        [
            ("`(bad $e) => `(match 1 with $e*)", "error: malformed match alternative '2'"),
            ("`(bad $e) => `(fun $e => 1)", "error: binder must be an identifier, got '2'"),
        ],
        ids=["match_alternative", "fun_binder"],
    )
    def test_a_binding_form_rejects_what_cannot_bind(self, rule, error):
        code, lines = expanded_lines(
            f'syntax "bad" term : term\nmacro_rules | {rule}\ndef z := bad 2\n'
        )
        assert code == 1
        assert lines[2:] == [error, "  in expansion of bad"]
