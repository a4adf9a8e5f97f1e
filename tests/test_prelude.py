"""The macro tower of the prelude: notation → macro → syntax + macro_rules."""

import pytest

from conftest import CORPUS
from corpus_config import CORPUS_RUNS
from hygex.context import ScopeCounter, ScopeState
from hygex.driver import RunConfig, Runner, run_string
from hygex.prelude import bootstrap
from hygex.expander import _SEQ_KINDS, RunState
from hygex.syntax import Node


class TestNotationEqualsHandWrittenPair:
    USE = "def x := 1\ndef y := const x\n"

    def test_same_expansion_behavior(self):
        via_notation = run_string(
            'notation "const" e => fun x => e\n' + self.USE,
            RunConfig(trace_expansion=True),
        )
        by_hand = run_string(
            'syntax "const" term : term\n'
            "macro_rules | `(const $e) => `(fun x => $e)\n" + self.USE,
            RunConfig(trace_expansion=True),
        )
        assert via_notation[0] == by_hand[0] == 0
        # identical from the registration on: same rule line, same
        # processed template, same use-site expansion
        tail = lambda out: [
            l
            for l in out.splitlines()
            if l.startswith(("syntax", "macro_rules", "const:", "def y"))
        ]
        assert tail(via_notation[1]) == tail(by_hand[1])


class TestTypingMacro:
    SRC = (
        "def Typing := 1\n"
        "def G := 2\n"
        "def e := 3\n"
        "def t := 4\n"
        'macro Γ:term "⊢" v:term ":" τ:term : term => `(Typing $Γ $v $τ)\n'
        "def check1 := G ⊢ e : t\n"
    )

    def test_infix_macro_with_unicode_placeholders(self):
        code, out = run_string(self.SRC, RunConfig())
        assert code == 0
        assert "def check1 := Typing G e t" in out


class TestRepeatRegistration:
    def test_macro_cannot_declare_repeat_directly(self):
        # the right-hand side is parsed before the rule exists, so the
        # recursive occurrence cannot be in a `macro` declaration
        code, out = run_string(
            'macro "rpt" : tactic => `(tactic| try (skip; rpt))\n',
            RunConfig(),
        )
        assert code == 1

    def test_syntax_then_macro_rules_works(self):
        code, out = run_string(
            'syntax "rpt" tactic : tactic\n'
            "macro_rules | `(tactic| rpt $t) => `(tactic| try ($t; rpt $t))\n"
            "theorem t (p : Prop) : p → p := by rpt fail; intro h; exact h\n",
            RunConfig(stage="elaborate"),
        )
        assert code == 0


class TestScopeLaziness:
    def test_unused_fresh_scope_is_free(self):
        scopes = ScopeState(ScopeCounter(1))
        with scopes.fresh():
            pass  # never observed
        with scopes.fresh():
            assert scopes.current() == 1  # the skipped scope was not spent

    def test_bookkeeping_macros_spend_no_scopes(self):
        # notation and macro themselves instantiate nothing; the first
        # spent scope belongs to the first real expansion.  With the
        # notation declared before `def x`, the template also records no
        # top-level scope for x: annotation happens at declaration time.
        code, out = run_string(
            'notation "const" e => fun x => e\n'
            "def x := 1\n"
            "def y := const x\n",
            RunConfig(trace_expansion=True),
        )
        assert code == 0
        assert "const: const x ==> fun x.1 => x" in out


class TestPreludeLoads:
    def test_prelude_must_load_clean(self):
        from hygex.syntax import Name

        state = RunState()
        bootstrap(state)  # raises on any diagnostic
        assert Name.of("Unit.unit") in state.gctx
        assert Name.of("Prod.mk") in state.gctx
        assert Name.of("Nat.add") in state.gctx

    def test_bad_prelude_source_aborts(self):
        from hygex.prelude import run_source
        from hygex.errors import KernelError

        state = RunState()
        bootstrap(state)
        with pytest.raises(KernelError):
            run_source(state, "def broken := nosuchglobal\n")


class TestSequenceElements:
    """The prelude's sequence helper tested only the head of a node kind;
    the shared `_seq_elements` tests the whole kind.  No node the corpus
    parses or expands to has a kind on which the two tests disagree."""

    @pytest.mark.parametrize("name", sorted(CORPUS_RUNS))
    def test_head_and_whole_kind_agree(self, name):
        # the hook is called only while the run traces its steps
        runner = Runner(RunConfig(**{**CORPUS_RUNS[name][0], "trace_expansion": True}))
        seen = []
        runner.state.on_macro_step = lambda kind, before, after: seen.extend((before, after))
        process = runner.expander.process_command

        def recorded(stx, depth=0):
            seen.append(stx)
            return process(stx, depth)

        runner.expander.process_command = recorded
        runner.run_files([str(CORPUS / f"{name}.hyg")])
        kinds = set()
        while seen:
            stx = seen.pop()
            if isinstance(stx, Node):
                kinds.add(stx.kind)
                seen.extend(stx.children)
        assert any(kind in _SEQ_KINDS for kind in kinds)
        for kind in kinds:
            assert (kind.parts[0] in ("seq", "sepseq")) == (kind in _SEQ_KINDS), kind
