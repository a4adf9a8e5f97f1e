"""Eager name analysis for checked quotations and its driver integration."""

import pytest

from hygex.driver import RunConfig, Runner, run_string
from hygex.errors import ExpansionError, PrecheckError, UnboundIdentifier
from hygex.expander import RunState
from hygex.parser import K_NOTATION, Parser
from hygex.precheck import Prechecker
from hygex.prelude import bootstrap
from hygex.syntax import Name


def fresh_state():
    state = RunState()
    bootstrap(state)
    return state


def quoted_body(state, src):
    parser = Parser(src, state.table)
    out = parser.parse_term()
    assert parser.at_eof()
    return out.children[0]


def check(state, src):
    Prechecker(state).check(quoted_body(state, src))


class TestHeuristics:
    def test_reports_the_one_unbound_identifier(self):
        state = fresh_state()
        state.gctx.add(Name.of("id"), None or _decl())
        with pytest.raises(UnboundIdentifier) as exc:
            check(state, "``(fun x => x + $y + id z)")
        assert exc.value.message == "unknown identifier 'z'"

    def test_closed_term_passes(self):
        check(fresh_state(), "``(fun x => x)")

    def test_antiquotations_alone_pass(self):
        check(fresh_state(), "``(($a + $b))")

    def test_application_hook_checks_only_the_head(self):
        state = fresh_state()
        state.gctx.add(Name.of("id"), _decl())
        check(state, "``(id $z)")

    def test_unknown_global_in_application(self):
        with pytest.raises(UnboundIdentifier) as exc:
            check(fresh_state(), "``(Exits.intro (fun x => x))")
        assert exc.value.message == "unknown identifier 'Exits.intro'"

    def test_macro_unfolding_heuristic(self):
        state = fresh_state()
        state.gctx.add(Name.of("q"), _decl())
        _install_const(state)
        check(state, "``(const q)")
        with pytest.raises(UnboundIdentifier):
            check(state, "``(const zz)")

    def test_not_analyzable_kind(self):
        state = fresh_state()
        run = Runner(RunConfig())
        state = run.state
        run.run_source('syntax "opaque" term : term\n')
        with pytest.raises(PrecheckError) as exc:
            check(state, "``(opaque x)")
        assert exc.value.message == (
            "cannot analyze quoted syntax of kind 'opaque'; use a plain quotation"
        )

    def test_unfold_depth_limit(self):
        run = Runner(RunConfig())
        run.run_source(
            'syntax "spin" term : term\n'
            "macro_rules | `(spin $e) => `(spin $e)\n"
        )
        with pytest.raises(PrecheckError) as exc:
            check(run.state, "``(spin x)")
        assert "unfolding limit" in exc.value.message

    def test_unfolds_count_through_binders_and_the_limit_is_placed(self):
        # each unfold puts a binder around the next use: the count runs
        # along the path, and the diagnostic sits at the command
        code, out = run_string(
            'syntax "spin" term : term\n'
            'syntax "k" : term\n'
            "macro_rules | `(spin $e) => `(fun x => spin $e)\n"
            "macro_rules | `(k) => ``(spin y)\n"
        )
        assert code == 1
        assert out.splitlines()[-1] == (
            "error: cannot analyze 'spin': macro unfolding limit reached @4:1"
        )
        assert "recursion limit reached" not in out

    def test_antiquot_binder_accepts_the_body(self):
        # an unknown binder makes the body unanalyzable; accept it
        check(fresh_state(), "``(fun $x => mystery)")

    def test_match_patterns_bind_their_identifiers(self):
        state = fresh_state()
        state.gctx.add(Name.of("scrut"), _decl())
        check(state, "``(match scrut with | some a => a)")
        with pytest.raises(UnboundIdentifier):
            check(state, "``(match scrut with | some a => b)")


class TestElaboratorKinds:
    """A kind left to an elaborator, such as `⟨…⟩`, is checked child by
    child, as the expander expands it."""

    DECLS = 'def a := 1\ndef b := 2\nsyntax "k" : term\n'

    def test_declared_components_pass(self):
        code, _ = run_string(self.DECLS + "macro_rules | `(k) => ``(⟨a, b⟩)\n")
        assert code == 0

    def test_an_unknown_component_is_reported_at_it(self):
        code, out = run_string(self.DECLS + "macro_rules | `(k) => ``(⟨a, zz⟩)\n")
        assert code == 1
        assert out.splitlines()[3:] == ["error: unknown identifier 'zz' @4:30"]


class TestUnfoldFrames:
    """An unfold is an ordinary macro step, so a transformer error in it
    carries the step's frame, as in the expander."""

    def test_a_transformer_error_carries_its_frame(self):
        with pytest.raises(ExpansionError) as exc:
            check(fresh_state(), "``(notation => x)")
        assert exc.value.message == "empty notation rule"
        # the step allocated no scratch scope
        assert exc.value.frames == [(K_NOTATION, None)]

    def test_the_frame_reaches_the_diagnostic(self):
        code, out = run_string(
            'syntax "mk" : command\n'
            "macro_rules | `(mk) => ``(notation => x)\n"
            "def y := 2\n"
        )
        assert code == 1
        assert out.splitlines()[1:] == [
            "error: empty notation rule @2:27",
            "  in expansion of notationDecl",
            "def y := 2",
        ]


class TestScratchScopes:
    def test_precheck_does_not_disturb_visible_numbering(self):
        src_checked = (
            "def e := 1\n"
            'syntax "k" term : term\n'
            "macro_rules | `(k $y) => ``(($y, e))\n"
            "def out := (k 1, ())\n"
        )
        src_plain = src_checked.replace("``", "`")
        checked = run_string(src_checked, RunConfig(trace_expansion=True))
        plain = run_string(src_plain, RunConfig(trace_expansion=True))
        assert checked == plain


class TestNotationPrecheck:
    GOOD = 'notation "goodone" e => Prod.mk e e\n'
    BAD = 'notation "∃∃" x "," e => Exits.intro (fun x => e)\n'

    def test_declaration_time_error(self):
        code, out = run_string(self.BAD)
        assert code == 1
        assert "unknown identifier 'Exits.intro'" in out

    def test_opt_out_defers_to_use_site(self):
        code, out = run_string(self.BAD, RunConfig(notation_precheck=False))
        assert code == 0
        code, out = run_string(
            self.BAD + "def w := ∃∃ q, q\n", RunConfig(notation_precheck=False)
        )
        assert code == 1
        assert "unknown identifier 'Exits.intro'" in out

    def test_well_formed_notation_passes(self):
        code, _ = run_string(self.GOOD)
        assert code == 0

    def test_prelude_notations_load_with_the_check_enabled(self):
        # the prelude itself declares notations; loading succeeds with
        # checked quotations on
        Runner(RunConfig(notation_precheck=True))

    def test_checked_and_plain_declarations_behave_identically(self):
        use = "def w := ∃∃ q, (fun q => q) q\n"
        src = self.BAD + use
        a = run_string("def Exits.intro := 1\n" + src)
        b = run_string(
            "def Exits.intro := 1\n" + src, RunConfig(notation_precheck=False)
        )
        assert a == b


def _decl():
    from hygex.context import Decl

    return Decl("def")


def _install_const(state):
    from hygex.prelude import run_source

    run_source(
        state,
        'syntax "const" term : term\n'
        "macro_rules | `(const $e) => `(fun x => $e)\n",
    )
