"""Acceptance criteria, one test per criterion.

Each test prints `criterion N [label]: PASS|FAIL`; run with `pytest -s
tests/test_acceptance.py` to see the lines, or `-v` for the test names.
"""

from contextlib import contextmanager

import pytest

import hygiene_ablations
from conftest import CORPUS, GOLDENS
from corpus_config import CORPUS_RUNS
from hygex.driver import RunConfig, Runner, run_string
from hygex.elaborator import (
    ElabEnv,
    NatLit,
    Pair,
    TNat,
    TProd,
    elab_term,
)
from hygex.errors import ElabError
from hygex.expander import Expander, RunState
from hygex.parser import Parser
from hygex.prelude import NOTATIONS_SRC, bootstrap, run_source
from hygex.quotation import instantiate, process_quotation
from hygex.syntax import Ident, Name, format_scoped, macro_scopes, render


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} [{label}]: FAIL")
        raise
    print(f"criterion {number:2d} [{label}]: PASS")


def run_corpus(name):
    kw, expected_code = CORPUS_RUNS[name]
    runner = Runner(RunConfig(**kw))
    code = runner.run_files([str(CORPUS / f"{name}.hyg")])
    assert code == expected_code
    return runner


def test_01_const_example():
    with criterion(1, "const example trace"):
        runner = run_corpus("const")
        lines = runner.output.splitlines()
        assert "macro_rules | `(const $e) => `(fun x{x} => $e)" in lines
        assert "const: const x ==> fun x.1{x} => x" in lines
        assert lines[-1] == "def y := fun x.1 => x"
        # the body resolved to the global x, the binder kept its scope
        assert lines[-1].endswith("=> x")
        golden = (GOLDENS / "const.txt").read_text(encoding="utf-8")
        assert runner.output == golden


def test_02_macro_tower():
    with criterion(2, "macro-macro scope stack"):
        runner = run_corpus("macro_tower")
        lines = runner.output.splitlines()
        assert "def f.1 := 1" in lines
        assert "def f.2 := f.1 + 1" in lines
        assert "def f.1.2 := f.2 + 1" in lines
        gctx = runner.state.gctx
        symbols = {Name(("f", 1)), Name(("f", 2)), Name(("f", 1, 2))}
        assert symbols <= set(gctx)
        assert len(symbols) == 3

        # with only the newest scope kept (the kill matrix's M3, run on a
        # mutated copy of the kernel), the same program redeclares `f.2`
        flat = hygiene_ablations.run_file("M3", CORPUS / "macro_tower.hyg")
        assert "error: 'f.2' has already been declared" in flat["output"].splitlines()
        [clash] = [d for d in flat["diagnostics"] if "already been declared" in d[0]]
        # the clashing name was built by the macro: it has no position
        assert clash == ["'f.2' has already been declared", None]


def test_03_quotation_processing():
    with criterion(3, "top-level scope capture"):
        state = RunState()
        bootstrap(state)
        run_source(state, "def a.a := 1\ndef b.a := 2\n")
        quoted = Parser("`(a + $b)", state.table).parse_term()
        template = process_quotation(quoted, state.gctx)
        captured = template.body.children[0]
        assert isinstance(captured, Ident)
        assert captured.preresolved == (Name.of("a.a"), Name.of("b.a"))

        with state.scopes.fresh():
            out = instantiate(
                template, {Name.of("b"): Ident("q", Name.of("q"), ())}, state
            )
        instantiated = out.children[0]
        assert format_scoped(instantiated) == "a.1{a.a, b.a}"


def test_04_fun_match():
    with criterion(4, "fun-match fresh discriminants"):
        runner = run_corpus("fun_match")
        step = next(
            l for l in runner.output.splitlines() if l.startswith("funMatch:")
        )
        assert "==> fun x.1 x.2 => match x.1, x.2 with" in step
        # distinct fresh scopes per discriminant
        assert macro_scopes(Name(("x", 1))) != macro_scopes(Name(("x", 2)))
        assert "| some a, some b => some (a + b) | _, _ => none" in step


def test_05_tuple_macros():
    with criterion(5, "tuple expansion"):
        # oracle: compose hand-applied single steps, then compare the
        # driver's full expansion against it
        state = RunState()
        bootstrap(state)
        expander = Expander(state)

        def step(src_or_node):
            node = (
                Parser(src_or_node, state.table).parse_term()
                if isinstance(src_or_node, str)
                else src_or_node
            )
            out, _scope = expander.expand_macro_step(node, state.macros.get(node.kind))
            return out

        one = step("(1, 2, 3)")
        assert render(one) == "Prod.mk.1{Prod.mk} 1 (2, 3)"
        inner = one.children[1]  # the (2, 3) tuple argument
        two = step(inner)
        assert render(two) == "Prod.mk.2{Prod.mk} 2 (3)"
        three = step(two.children[1])
        assert render(three) == "3"

        runner = run_corpus("tuples")
        lines = runner.output.splitlines()
        assert "def t0 := Unit.unit" in lines
        assert "def t1 := 5" in lines
        assert "def t3 := Prod.mk 1 (Prod.mk 2 3)" in lines


def test_06_precheck():
    with criterion(6, "checked quotations"):
        runner = run_corpus("precheck_err")
        out = runner.output
        assert "unknown identifier 'z'" in out
        assert "unknown identifier 'Exits.intro'" in out

        # opt-out: accepted at declaration, fails at use site instead
        src = (CORPUS / "notation_noprecheck.hyg").read_text(encoding="utf-8")
        declaration_only = src.splitlines(keepends=True)[0]
        code, _ = run_string(declaration_only, RunConfig(notation_precheck=False))
        assert code == 0
        code, out = run_string(src, RunConfig(notation_precheck=False))
        assert code == 1
        assert "unknown identifier 'Exits.intro'" in out

        # every prelude notation passes the check
        state = RunState()
        bootstrap(state)  # loads NOTATIONS_SRC with checked quotations
        assert state.cfg.notation_precheck
        assert NOTATIONS_SRC.count("notation") >= 2


def test_07_tactic_hygiene():
    with criterion(7, "tactic hygiene"):
        runner = run_corpus("tactic_hygiene_err")
        assert "unknown identifier 'h'" in runner.output
        code, out = run_string(
            'macro "myTacFull" : tactic => `(tactic| intro h; exact h)\n'
            "theorem triv (p : Prop) : p → p := by myTacFull\n",
            RunConfig(stage="elaborate"),
        )
        assert code == 0
        assert "theorem triv : p → p := proved" in out


def test_08_lazy_repeat():
    with criterion(8, "lazy repeat"):
        code, out = run_string(
            "theorem t (p : Prop) : p → p := by repeat fail; intro h; exact h\n",
            RunConfig(stage="elaborate", trace_expansion=True),
        )
        assert code == 0
        assert out.count("repeat: repeat fail ==>") == 1

        code, out = run_string(
            'macro "introH" : tactic => `(tactic| intro h)\n'
            "theorem nested (p : Prop) : p → p → p := by repeat introH; assumption\n",
            RunConfig(stage="elaborate", trace_tactics=True),
        )
        assert code == 0
        assert "h.1 : p, h.2 : p ⊢ p" in out  # distinct hypothesis symbols


ROUTE_TERMS = [
    ("()", None),
    ("(7)", None),
    ("(1, 2)", TProd(TNat(), TNat())),
    ("(1, 2, 3)", TProd(TNat(), TProd(TNat(), TNat()))),
    ("⟨1, 2⟩", TProd(TNat(), TNat())),
    ("⟨1 + 1, ⟨⟩⟩", None),
    ("dup 4", TProd(TNat(), TNat())),
]


def test_09_route_equivalence():
    with criterion(9, "adapter equals expand-then-elaborate"):
        from hygex.elaborator import TUnit

        for src, expected in ROUTE_TERMS:
            want = TProd(TNat(), TUnit()) if src == "⟨1 + 1, ⟨⟩⟩" else expected
            results = []
            for route in ("expand", "adapter"):
                state = RunState()
                bootstrap(state)
                stx = Parser(src, state.table).parse_term()
                if route == "expand":
                    stx = Expander(state).expand(stx)
                results.append(elab_term(stx, ElabEnv(state), want))
            assert results[0] == results[1], src

        state = RunState()
        bootstrap(state)
        expr, ty = elab_term(
            Parser("⟨1, 2⟩", state.table).parse_term(),
            ElabEnv(state),
            TProd(TNat(), TNat()),
        )
        assert expr == Pair(NatLit(1), NatLit(2))
        with pytest.raises(ElabError):
            elab_term(
                Parser("⟨1, 2⟩", state.table).parse_term(), ElabEnv(state), None
            )


def test_10_property_suites():
    with criterion(10, "capture freedom, round-trip, determinism"):
        from test_hygiene_properties import TestCaptureFreedom, TestCorpusProperties

        TestCaptureFreedom().test_randomized_scenarios_produce_zero_captures()
        props = TestCorpusProperties()
        for name in CORPUS_RUNS:
            props.test_parser_round_trip_over_the_corpus(name)
        props.test_every_corpus_run_is_deterministic()


def test_11_bigop_factoring():
    with criterion(11, "bigop factoring"):
        runner = run_corpus("bigop")
        out = runner.output
        # both bigops route through the one shared fold operator
        assert "def total := fold addop zero xs (fun i => i)" in out
        assert "def prodall := fold mulop one (filter (fun i => i) xs) (fun i => i)" in out
        sigma_steps = [l for l in out.splitlines() if l.startswith("big:")]
        assert len(sigma_steps) == 2  # Σ and Π both delegate

        # the Π extension adds one syntax rule and one macro_rules entry
        # repeating none of the index grammar
        src = (CORPUS / "bigop.hyg").read_text(encoding="utf-8")
        pi_block = src[src.index("-- a further bigop") :].split("def total")[0]
        pi_lines = [l for l in pi_block.splitlines() if l and not l.startswith("--")]
        assert len(pi_lines) == 2
        assert "<-" not in pi_block
