"""Tactic evaluation: hygiene, laziness, transactional failure."""

import pytest

from hygex.driver import RunConfig, run_string
from hygex.errors import TacticError
from hygex.expander import RunState
from hygex.parser import Parser
from hygex.prelude import bootstrap, run_source
from hygex.quotation import instantiate, process_quotation
from hygex.syntax import Name
from hygex.tactic import (
    Implies,
    ProofGoal,
    PropAtom,
    TacticState,
    eval_tactic,
    interp_prop,
)


def fresh_state(extra_src=""):
    state = RunState()
    bootstrap(state)
    if extra_src:
        run_source(state, extra_src)
    return state


def tactic(state, src):
    parser = Parser(src, state.table)
    out = parser.parse_tactic_seq()
    assert parser.at_eof()
    return out


def ts_for(state, target, max_steps=64):
    return TacticState((ProofGoal((), target),), state, [max_steps])


P = PropAtom(Name.of("p"))
P_IMP_P = Implies(P, P)


class TestCoreTactics:
    def test_intro_peels_an_implication(self):
        state = fresh_state()
        out = eval_tactic(tactic(state, "intro h"), ts_for(state, P_IMP_P))
        goal = out.goals[0]
        assert goal.target == P
        assert goal.hypotheses == ((Name.of("h"), P),)

    def test_intro_requires_an_implication(self):
        state = fresh_state()
        with pytest.raises(TacticError) as exc:
            eval_tactic(tactic(state, "intro h"), ts_for(state, P))
        assert "not an implication" in exc.value.message

    def test_exact_closes_a_matching_goal(self):
        state = fresh_state()
        out = eval_tactic(tactic(state, "intro h; exact h"), ts_for(state, P_IMP_P))
        assert out.goals == ()

    def test_exact_mismatch_fails(self):
        state = fresh_state()
        q_imp = Implies(PropAtom(Name.of("q")), P)
        with pytest.raises(TacticError) as exc:
            eval_tactic(tactic(state, "intro h; exact h"), ts_for(state, q_imp))
        assert "does not match target" in exc.value.message

    def test_assumption_searches_hypotheses(self):
        state = fresh_state()
        out = eval_tactic(tactic(state, "intro h; assumption"), ts_for(state, P_IMP_P))
        assert out.goals == ()

    def test_skip_and_try_fail(self):
        state = fresh_state()
        st = ts_for(state, P)
        assert eval_tactic(tactic(state, "skip"), st) is st
        assert eval_tactic(tactic(state, "try fail"), st) is st
        with pytest.raises(TacticError):
            eval_tactic(tactic(state, "fail"), st)

    def test_failure_leaves_the_state_unchanged(self):
        state = fresh_state()
        st = ts_for(state, P_IMP_P)
        out = eval_tactic(tactic(state, "try (intro h; fail)"), st)
        assert out is st  # the partial intro was rolled back with the try

    def test_unknown_tactic(self):
        state = fresh_state()
        with pytest.raises(TacticError):
            eval_tactic(tactic(state, "intro h"), ts_for(state, P).close_goal())

    def test_exact_by_theorem_name(self):
        code, out = run_string(
            "theorem lemma1 (p : Prop) : p → p := by intro h; exact h\n"
            "theorem lemma2 (p : Prop) : p → p := by exact lemma1\n",
            RunConfig(stage="elaborate"),
        )
        assert code == 0
        assert "theorem lemma2 : p → p := proved" in out


    def test_exact_takes_the_one_overloaded_candidate_that_proves(self):
        code, out = run_string(
            "theorem x (p : Prop) : p → p := by intro h; exact h\n"
            "def A.x := 2\n"
            "theorem t (p : Prop) : p → p := by exact x\n",
            RunConfig(stage="elaborate"),
        )
        assert code == 0
        assert out.splitlines()[-1] == "theorem t : p → p := proved"

    def test_exact_on_two_proving_candidates_is_ambiguous(self):
        code, out = run_string(
            "theorem h (p : Prop) : p → p := by intro h; exact h\n"
            "theorem A.h (p : Prop) : p → p := by intro h; exact h\n"
            "theorem t (p : Prop) : p → p := by exact h\n",
            RunConfig(stage="elaborate"),
        )
        assert code == 1
        assert out.splitlines()[-1] == (
            "error: exact: ambiguous reference (candidates: h, A.h) @3:42"
        )


class TestTacticDiagnosticsArePlaced:
    """A built-in tactic's diagnostic is placed at its term, or at its first
    token when it has no term; `unsolved goals` at the proof's `by`; a
    macro-made tactic's has no position."""

    @pytest.mark.parametrize(
        "script, error",
        [
            ("intro h", "intro: target 'p' is not an implication @3:38"),
            ("assumption", "assumption: no hypothesis proves 'p' @3:32"),
            ("exact x", "exact: 'x' does not prove anything @3:38"),
            ("exact u", "exact: 'u : p → p' does not match target 'p' @3:38"),
            ("exact (x, x)", "exact: '(x, x)' is not a plain reference @3:38"),
            ("fail", "fail tactic invoked @3:32"),
            ("skip", "unsolved goals: ⊢ p @3:29"),
        ],
    )
    def test_at_the_term_or_the_first_token(self, script, error):
        code, out = run_string(
            "def x := 1\n"
            "theorem u (p : Prop) : p → p := by intro h; exact h\n"
            f"theorem t (p : Prop) : p := by {script}\n",
            RunConfig(stage="elaborate"),
        )
        assert code == 1
        assert out.splitlines()[-1] == f"error: {error}"

    @pytest.mark.parametrize(
        "script, error",
        [
            ("skip", "unsolved goals: ⊢ p → p @1:33"),
            ("intro h; fail", "fail tactic invoked @1:45"),
        ],
    )
    def test_in_a_one_line_proof(self, script, error):
        code, out = run_string(
            f"theorem t (p : Prop) : p → p := by {script}\n", RunConfig(stage="elaborate")
        )
        assert (code, out) == (1, f"error: {error}\n")

    def test_a_macro_made_fail_and_proof_have_no_position(self):
        code, out = run_string(
            'macro "boom" : tactic => `(tactic| fail)\n'
            "theorem t (p : Prop) : p → p := by intro h; boom\n"
            'macro "prf" : command => `(theorem u (p : Prop) : p → p := by skip)\n'
            "prf\n",
            RunConfig(stage="elaborate"),
        )
        assert code == 1
        assert [line for line in out.splitlines() if line.startswith("error")] == [
            "error: fail tactic invoked", "error: unsolved goals: ⊢ p.1 → p.1",
        ]

    def test_a_macro_made_tactic_has_no_position(self):
        code, out = run_string(
            'macro "bad" : tactic => `(tactic| assumption)\n'
            "theorem t (p : Prop) : p := by bad\n",
            RunConfig(stage="elaborate"),
        )
        assert code == 1
        assert out.splitlines()[-2:] == [
            "error: assumption: no hypothesis proves 'p'", "  in expansion of bad",
        ]


class TestTacticHygiene:
    def test_macro_introduced_hypothesis_is_invisible_outside(self):
        code, out = run_string(
            'macro "myTac" : tactic => `(tactic| intro h)\n'
            "theorem bad (p : Prop) : p → p := by myTac; exact h\n",
            RunConfig(stage="elaborate"),
        )
        assert code == 1
        assert "unknown identifier 'h'" in out

    def test_macro_that_intros_and_exacts_proves(self):
        code, out = run_string(
            'macro "myTacFull" : tactic => `(tactic| intro h; exact h)\n'
            "theorem triv (p : Prop) : p → p := by myTacFull\n",
            RunConfig(stage="elaborate"),
        )
        assert code == 0
        assert "theorem triv : p → p := proved" in out

    def test_two_macro_expansions_do_not_share_hypotheses(self):
        code, out = run_string(
            'macro "introH" : tactic => `(tactic| intro h)\n'
            'macro "exactH" : tactic => `(tactic| exact h)\n'
            "theorem nope (p : Prop) : p → p := by introH; exactH\n",
            RunConfig(stage="elaborate"),
        )
        assert code == 1
        assert "unknown identifier 'h'" in out


class TestRepeat:
    def test_repeat_of_failing_tactic_unfolds_once(self):
        code, out = run_string(
            "theorem t (p : Prop) : p → p := by repeat fail; intro h; exact h\n",
            RunConfig(stage="elaborate", trace_expansion=True),
        )
        assert code == 0
        assert out.count("repeat: repeat fail ==>") == 1

    def test_repeat_intro_gives_distinct_hypothesis_symbols(self):
        code, out = run_string(
            'macro "introH" : tactic => `(tactic| intro h)\n'
            "theorem nested (p : Prop) : p → p → p := by repeat introH; assumption\n",
            RunConfig(stage="elaborate", trace_tactics=True),
        )
        assert code == 0
        assert "h.1 : p, h.2 : p ⊢ p" in out

    def test_unfolding_count_is_iterations_plus_one(self):
        code, out = run_string(
            'macro "introH" : tactic => `(tactic| intro h)\n'
            "theorem nested (p : Prop) : p → p → p := by repeat introH; assumption\n",
            RunConfig(stage="elaborate", trace_expansion=True),
        )
        assert code == 0
        assert out.count("repeat: repeat introH ==>") == 2 + 1

    def test_repeat_skip_hits_the_budget(self):
        code, out = run_string(
            "theorem t (p : Prop) : p → p := by repeat skip\n",
            RunConfig(stage="elaborate", max_repeat=32),
        )
        assert code == 1
        assert out.splitlines()[0] == (
            "error: tactic macro expansion budget exceeded (see --max-repeat) @1:1"
        )

    def test_unsolved_goals_are_reported(self):
        code, out = run_string(
            "theorem t (p : Prop) : p → p := by skip\n",
            RunConfig(stage="elaborate"),
        )
        assert code == 1
        assert "unsolved goals" in out


class TestHostTactics:
    def test_procedural_tactic_can_evaluate_its_own_quotation(self):
        state = fresh_state()
        template = process_quotation(
            Parser("`(tactic| intro h; exact h)", state.table).parse_term(),
            state.gctx,
        )
        kind = Name.of("autoTac")

        def auto(stx, ts):
            with ts.state.scopes.fresh():
                script = instantiate(template, {}, ts.state)
            return eval_tactic(script, ts)

        state.tactics[kind] = auto
        from hygex.syntax import Atom, Node

        st = ts_for(state, P_IMP_P)
        out = eval_tactic(Node(kind, (Atom("autoTac"),)), st)
        assert out.goals == ()


class TestInterpProp:
    def test_arrow_terms_become_implications(self):
        state = fresh_state("def p := 1")
        from hygex.expander import Expander

        stx = Expander(state).expand(
            Parser("p → p → p", state.table).parse_term(), frozenset()
        )
        prop = interp_prop(stx)
        assert prop == Implies(PropAtom(Name.of("p")), Implies(PropAtom(Name.of("p")), PropAtom(Name.of("p"))))
        assert str(prop) == "p → p → p"

    def test_non_prop_is_rejected(self):
        state = fresh_state()
        with pytest.raises(TacticError):
            interp_prop(Parser("(1, 2)", state.table).parse_term())
