"""Elaboration, the transformer adapter, and the anonymous constructor."""

import pytest

from hygex.context import Decl
from hygex.driver import RunConfig, run_string
from hygex.elaborator import (
    App,
    Const,
    ElabEnv,
    Lam,
    Local,
    NatLit,
    Pair,
    TArrow,
    TNat,
    TProd,
    TUnit,
    check_expr,
    elab_term,
    interp_type,
    transformer_to_elaborator,
)
from hygex.errors import ElabError, ExpansionError
from hygex.expander import Expander, RunState, resolve_identifier
from hygex.parser import Parser
from hygex.prelude import bootstrap, run_source
from hygex.syntax import Ident, Name, Node, render


@pytest.fixture
def state():
    s = RunState()
    bootstrap(s)
    return s


def term(state, src):
    parser = Parser(src, state.table)
    out = parser.parse_term()
    assert parser.at_eof()
    return out


def env_of(state):
    return ElabEnv(state)


class TestElabTerm:
    def test_identity_function_against_arrow(self, state):
        expr, ty = elab_term(
            term(state, "fun x => x"), env_of(state), TArrow(TNat(), TNat())
        )
        assert ty == TArrow(TNat(), TNat())
        assert isinstance(expr, Lam)
        assert expr.body == Local(expr.binder)

    def test_anonymous_ctor_against_prod(self, state):
        expr, ty = elab_term(
            term(state, "⟨1, 2⟩"), env_of(state), TProd(TNat(), TNat())
        )
        assert expr == Pair(NatLit(1), NatLit(2))
        assert ty == TProd(TNat(), TNat())

    def test_empty_ctor_against_unit(self, state):
        expr, _ = elab_term(term(state, "⟨⟩"), env_of(state), TUnit())
        assert expr == Const(Name.of("Unit.unit"))

    def test_macro_goes_through_the_adapter(self, state):
        from hygex.prelude import run_source

        run_source(
            state,
            'syntax "const" term : term\n'
            "macro_rules | `(const $e) => `(fun x => $e)\n"
            "def q := 1\n",
        )
        state.gctx.add(Name.of("q"), Decl(state.gctx.get(Name.of("q")).kind, TNat()))
        expr, _ = elab_term(
            term(state, "const q"), env_of(state), TArrow(TNat(), TNat())
        )
        assert isinstance(expr, Lam)
        assert expr.body == Const(Name.of("q"))
        # hygiene survived elaboration: the binder is not what `q` names
        assert expr.binder != Name.of("q")

    def test_separators_of_a_spliced_ctor_are_not_arguments(self, state):
        # a `;` splice puts `;` atoms between the components; like every
        # other sequence, the constructor drops them
        from hygex.prelude import run_source

        run_source(
            state,
            'syntax "pr" term : term\n'
            "macro_rules | `(pr ($xs,*)) => `(⟨$xs;*⟩)\n",
        )
        expr, _ = elab_term(term(state, "pr (1, 2)"), env_of(state), TProd(TNat(), TNat()))
        assert expr == Pair(NatLit(1), NatLit(2))

    def test_plus_elaborates_to_add_application(self, state):
        expr, ty = elab_term(term(state, "1 + 2"), env_of(state), None)
        assert expr == App(App(Const(Name.of("Nat.add")), NatLit(1)), NatLit(2))
        assert ty == TNat()

    def test_type_mismatch(self, state):
        with pytest.raises(ElabError) as exc:
            elab_term(term(state, "1"), env_of(state), TUnit())
        assert "type mismatch" in exc.value.message

    def test_missing_expected_type_for_ctor(self, state):
        with pytest.raises(ElabError) as exc:
            elab_term(term(state, "⟨1, 2⟩"), env_of(state), None)
        assert "expected type required" in exc.value.message

    def test_ctor_arity_mismatch(self, state):
        with pytest.raises(ElabError) as exc:
            elab_term(term(state, "⟨1, 2, 3⟩"), env_of(state), TProd(TNat(), TNat()))
        assert "2 argument(s)" in exc.value.message

    def test_no_constructor_for_expected_type(self, state):
        with pytest.raises(ElabError) as exc:
            elab_term(term(state, "⟨1⟩"), env_of(state), TNat())
        assert "no constructor" in exc.value.message

    def test_ambiguous_overload_is_an_error(self, state):
        from hygex.context import Decl

        state.gctx.add(Name.of("ns1.v"), Decl("def", type_=TNat()))
        state.gctx.add(Name.of("ns2.v"), Decl("def", type_=TNat()))
        with pytest.raises(ElabError) as exc:
            elab_term(term(state, "v"), env_of(state), None)
        assert "ambiguous" in exc.value.message


class TestOverloadedReferences:
    """The expander's resolution of a reference is final: the elaborator
    takes it as it is and never scans the globals for it again."""

    DEF_AND_THEOREM = (
        "def x := 1\n"
        "theorem A.x (p : Prop) : p → p := by intro h; exact h\n"
    )

    def last_line(self, src):
        code, out = run_string(src, RunConfig(stage="elaborate"))
        return code, out.splitlines()[-1]

    def test_one_viable_candidate_is_taken(self):
        code, line = self.last_line(self.DEF_AND_THEOREM + "def y := x\n")
        assert (code, line) == (0, "def y : nat := const(x)")

    def test_a_macro_made_reference_is_taken_too(self):
        src = self.DEF_AND_THEOREM + 'macro "m" : term => `(x)\ndef y := m\n'
        code, line = self.last_line(src)
        assert (code, line) == (0, "def y : nat := const(x)")

    def test_two_viable_candidates_stay_ambiguous(self):
        code, line = self.last_line("def x := 1\ndef A.x := 2\ndef y := x\n")
        assert code == 1
        assert line == "error: ambiguous reference (candidates: x, A.x)"

    def test_an_equal_hand_built_reference_is_resolved_again(self, state):
        state.gctx.add(Name.of("x"), Decl("def", type_=TNat()))
        state.gctx.add(Name.of("A.x"), Decl("theorem"))
        choice = Expander(state).expand(term(state, "x"))
        assert render(choice) == "choice(x | A.x)"
        shared = choice.children[0]
        assert resolve_identifier(shared, frozenset(), state.gctx) is shared
        built = Ident("x", Name.of("x"), (), None)
        assert built == shared
        again = resolve_identifier(built, frozenset(), state.gctx)
        assert render(again) == "choice(x | A.x)"
        assert again.children[0] is shared


class TestConstants:
    def test_one_const_per_symbol_per_run(self, state):
        state.gctx.add(Name.of("c"), Decl("def", type_=TNat()))
        env = env_of(state)
        first, _ = elab_term(Expander(state).expand(term(state, "c")), env)
        again, _ = elab_term(term(state, "c"), env.child(Name.of("l"), TNat()))
        assert again is first
        other, _ = elab_term(term(state, "c"), env_of(state))
        assert other == first and other is not first

    def test_the_printed_form_is_not_a_field(self):
        import pickle

        const = Const(Name.of("A.c"))
        assert str(const) == const.text == "const(A.c)"
        assert Const._fields == ("name",)
        assert const == Const(Name.of("A.c"))
        assert hash(const) == hash(Const(Name.of("A.c")))
        assert pickle.loads(pickle.dumps(const)).text == "const(A.c)"
        match const:
            case Const(name):
                assert name == Name.of("A.c")


class TestRouteEquivalence:
    TERMS = [
        ("()", TUnit()),
        ("(7)", TNat()),
        ("(1, 2)", TProd(TNat(), TNat())),
        ("(1, 2, 3)", TProd(TNat(), TProd(TNat(), TNat()))),
        ("((1, 2), (3, 4))", TProd(TProd(TNat(), TNat()), TProd(TNat(), TNat()))),
        ("⟨1 + 1, 2⟩", TProd(TNat(), TNat())),
        ("dup 5", TProd(TNat(), TNat())),
    ]

    @pytest.mark.parametrize("src,expected", TERMS)
    def test_expand_then_elaborate_equals_adapter(self, src, expected):
        def run(route):
            state = RunState()
            bootstrap(state)
            stx = term(state, src)
            if route == "expand":
                stx = Expander(state).expand(stx)
            expr, ty = elab_term(stx, ElabEnv(state), expected)
            return expr, ty

        assert run("expand") == run("adapter")

    def test_typing_notation_elaborates_to_an_application_spine(self, state):
        from hygex.context import Decl
        from hygex.prelude import run_source

        t3 = TArrow(TNat(), TArrow(TNat(), TArrow(TNat(), TNat())))
        state.gctx.add(Name.of("Typing"), Decl("const", type_=t3))
        for n in ("G", "e0", "t0"):
            state.gctx.add(Name.of(n), Decl("def", type_=TNat()))
        run_source(
            state,
            'macro Γ:term "⊢" v:term ":" τ:term : term => `(Typing $Γ $v $τ)\n',
        )
        expr, ty = elab_term(term(state, "G ⊢ e0 : t0"), env_of(state), None)
        assert ty == TNat()
        assert expr == App(
            App(App(Const(Name.of("Typing")), Const(Name.of("G"))), Const(Name.of("e0"))),
            Const(Name.of("t0")),
        )

    def test_adapter_failure_names_the_macro(self, state):
        from hygex.prelude import run_source

        run_source(
            state,
            'syntax "narrow" : term\nmacro_rules | `(narrow) => `(1)\n',
        )
        broken = term(state, "narrow")
        broken = type(broken)(Name.of("narrow"), ())  # malformed node
        with pytest.raises(ElabError) as exc:
            transformer_to_elaborator(broken, env_of(state), None)
        assert "narrow" in exc.value.message


class TestAdapterFrames:
    """The adapter takes the same macro step as the expander, so its
    errors carry the same `(kind, scope)` frames, outermost first."""

    BOOM = Name.of("boom")

    @staticmethod
    def _boom(stx, state):
        state.scopes.current()
        raise ExpansionError("boom")

    @pytest.mark.parametrize("route", ["expander", "adapter"])
    def test_a_transformer_error_carries_the_step_frame(self, state, route):
        state.macros.register(self.BOOM, self._boom)
        stx = Node(self.BOOM, ())
        with pytest.raises(ExpansionError) as exc:
            if route == "expander":
                Expander(state).expand(stx)
            else:
                transformer_to_elaborator(stx, env_of(state), None)
        assert exc.value.frames == [(self.BOOM, 1)]

    def test_an_error_in_the_output_carries_the_step_frame(self, state):
        run_source(
            state,
            'syntax "anon" : term\n'
            "macro_rules | `(anon) => `(fun x => x)\n"
            'syntax "outer" : term\n'
            "macro_rules | `(outer) => `(anon)\n",
        )
        with pytest.raises(ElabError) as exc:
            elab_term(term(state, "outer"), env_of(state), None)
        assert "cannot infer the type" in exc.value.message
        # `outer` instantiates no identifier, so its scope is never allocated
        assert exc.value.frames == [(Name.of("outer"), None), (Name.of("anon"), 1)]


class TestSoundness:
    CASES = [
        ("1 + 2", None),
        ("(1, 2, 3)", TProd(TNat(), TProd(TNat(), TNat()))),
        ("fun x => x + 1", TArrow(TNat(), TNat())),
        ("⟨⟨1, 2⟩, ()⟩", TProd(TProd(TNat(), TNat()), TUnit())),
    ]

    @pytest.mark.parametrize("src,expected", CASES)
    def test_checker_agrees_with_elaborator(self, state, src, expected):
        expr, ty = elab_term(term(state, src), env_of(state), expected)
        sigs = {
            Name.of("Nat.add"): TArrow(TNat(), TArrow(TNat(), TNat())),
        }
        assert check_expr(expr, sigs) == ty


class TestInterpType:
    def test_base_and_compound_types(self, state):
        env = env_of(state)
        ex = Expander(state)
        assert interp_type(ex.expand(term(state, "Nat")), env) == TNat()
        assert interp_type(ex.expand(term(state, "Unit")), env) == TUnit()
        assert interp_type(ex.expand(term(state, "Nat → Nat")), env) == TArrow(TNat(), TNat())
        assert interp_type(
            ex.expand(term(state, "Prod Nat (Nat → Unit)")), env
        ) == TProd(TNat(), TArrow(TNat(), TUnit()))

    def test_non_type_is_rejected(self, state):
        with pytest.raises(ElabError):
            interp_type(Expander(state).expand(term(state, "Unit.unit")), env_of(state))
