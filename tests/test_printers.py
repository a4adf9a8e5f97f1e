"""The one-pass printers agree byte for byte with what they replaced.

`render` walks a tree once into one token list; `Name.__str__` joins its
parts with `map`; the elaborator's core types and terms print through one
writer, `core_str`, and the tactic engine's propositions and goals
through `prop_str`.  The versions they replaced, which built a token list
per node or re-entered `__str__` per node, are kept here as the references
of differentials on generated values.  Names, trees and core terms carry
the scope-carrying names of tests/test_step_path.py.
"""

from typing import Iterable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CORPUS, GOLDENS
from corpus_config import CORPUS_RUNS
from hygex.driver import RunConfig, Runner
from hygex.elaborator import (
    App,
    Const,
    Lam,
    Local,
    NatLit,
    Pair,
    TArrow,
    TNat,
    TProd,
    TPropAtom,
    TUnit,
)
from hygex.expander import Expander, RunState
from hygex.syntax import (
    KIND_CHOICE,
    KIND_DQUOT,
    KIND_QUOT,
    KIND_SPLICE,
    KIND_SPLICEGROUP,
    Atom,
    Ident,
    Missing,
    Name,
    Node,
    NotAnIdentifier,
    Syntax,
    render,
    splice_separator,
)
from hygex.tactic import Implies, ProofGoal, PropAtom, TacticState
from test_step_path import NAMES

# ---------------------------------------------------------------------------
# The replaced versions


def ref_name(n: Name) -> str:
    if not n:
        return "[anonymous]"
    out = ".".join(str(p) for p in n)
    if isinstance(n[0], int):
        out = "." + out
    return out


def ref_format_scoped(stx: Syntax) -> str:
    if not isinstance(stx, Ident):
        raise NotAnIdentifier(f"expected an identifier, got {stx!r}")
    out = ref_name(stx.name)
    if stx.preresolved:
        out += "{" + ", ".join(ref_name(t) for t in stx.preresolved) + "}"
    return out


_NO_SPACE_BEFORE = ")]⟩»,;"
_NO_SPACE_AFTER = "([⟨«"


def ref_render(stx: Syntax) -> str:
    return join_tokens(render_tokens(stx))


def join_tokens(tokens: Iterable[str]) -> str:
    out: list[str] = []
    prev = ""
    for tok in tokens:
        if (
            out
            and tok[0] not in _NO_SPACE_BEFORE
            and not (prev and prev[-1] in _NO_SPACE_AFTER)
        ):
            out.append(" ")
        out.append(tok)
        prev = tok
    return "".join(out)


def render_tokens(stx: Syntax) -> list:
    match stx:
        case Atom(text=text):
            return [text]
        case Ident():
            return [ref_format_scoped(stx)]
        case Missing():
            return ["<missing>"]
        case Node(kind=kind, children=children):
            head = kind[0]
            if head in (KIND_QUOT, KIND_DQUOT):
                open_tok = "`(" if head == KIND_QUOT else "``("
                toks = [open_tok]
                if len(kind) > 1:
                    toks.append(ref_name(Name(kind[1:])) + "|")
                for c in children:
                    toks += render_tokens(c)
                toks.append(")")
                return toks
            if head == "antiquot":
                payload = stx.children[0]
                suffix = ""
                if len(kind) > 1:
                    suffix = ":" + ref_name(Name(kind[1:]))
                if isinstance(payload, Ident):
                    return ["$" + ref_format_scoped(payload) + suffix]
                return ["$("] + render_tokens(payload) + [")" + suffix]
            if head == KIND_SPLICE:
                inner = render_tokens(stx.children[0])
                sep = splice_separator(stx)
                return inner[:-1] + [inner[-1] + sep + "*"]
            if head == KIND_SPLICEGROUP:
                toks = ["$["]
                for c in children:
                    toks += render_tokens(c)
                toks.append("]" + splice_separator(stx) + "*")
                return toks
            if head == "argdecl":
                name, _colon, cat = children
                return [f"{ref_format_scoped(name)}:{ref_format_scoped(cat)}"]
            if head == "slotprec":
                slot, prec = children
                return [f"{ref_format_scoped(slot)}:{prec.text}"]
            if head == KIND_CHOICE:
                toks = ["choice("]
                for i, c in enumerate(children):
                    if i:
                        toks.append("|")
                    toks += render_tokens(c)
                toks.append(")")
                return toks
            if head == "app":
                fn, arg = children
                toks = _parenthesize(fn) if _app_prec(fn) < 1 else render_tokens(fn)
                toks += _parenthesize(arg) if _app_prec(arg) < 2 else render_tokens(arg)
                return toks
            if head in ("plus", "arrow"):
                left, op, right = children
                left_floor, right_floor = (0, 1) if head == "plus" else (1, 0)
                toks = (
                    _parenthesize(left)
                    if _infix_prec(left) < left_floor
                    else render_tokens(left)
                )
                toks += render_tokens(op)
                toks += (
                    _parenthesize(right)
                    if _infix_prec(right) < right_floor
                    else render_tokens(right)
                )
                return toks
            toks = []
            for c in children:
                toks += render_tokens(c)
            return toks
    raise TypeError(f"not syntax: {stx!r}")


_ATOMIC_KINDS = {
    "num", "tuple", "anonCtor", KIND_QUOT, KIND_DQUOT, "antiquot",
    KIND_SPLICE, KIND_SPLICEGROUP, KIND_CHOICE,
}


def _app_prec(stx: Syntax) -> int:
    if isinstance(stx, Node):
        head = stx.kind[0]
        if head in _ATOMIC_KINDS:
            return 2
        return 1 if head == "app" else 0
    return 2


def _infix_prec(stx: Syntax) -> int:
    if isinstance(stx, Node):
        head = stx.kind[0]
        if head in _ATOMIC_KINDS or head == "app":
            return 1
        if head in ("plus", "arrow"):
            return 0
        return -1
    return 1


def _parenthesize(stx: Syntax) -> list:
    return ["("] + render_tokens(stx) + [")"]


def ref_core(x) -> str:
    """The core types' and terms' `__str__`s, each printing its fields with
    an f-string, which re-entered `__str__` once per node."""
    match x:
        case TNat():
            return "nat"
        case TUnit():
            return "unit"
        case TPropAtom(name=name):
            return f"prop({ref_name(name)})"
        case TArrow(dom=dom, cod=cod):
            return f"arrow({ref_core(dom)}, {ref_core(cod)})"
        case TProd(left=left, right=right):
            return f"prod({ref_core(left)}, {ref_core(right)})"
        case Const(name=name):
            return f"const({ref_name(name)})"
        case Local(symbol=symbol):
            return f"local({ref_name(symbol)})"
        case Lam(binder=binder, binder_type=ty, body=body):
            return f"lam({ref_name(binder)} : {ref_core(ty)}. {ref_core(body)})"
        case App(fn=fn, arg=arg):
            return f"app({ref_core(fn)}, {ref_core(arg)})"
        case NatLit(value=value):
            return f"natLit({value})"
        case Pair(fst=fst, snd=snd):
            return f"pair({ref_core(fst)}, {ref_core(snd)})"
    return str(x)


def ref_prop(p) -> str:
    if isinstance(p, Implies):
        left = ref_prop(p.antecedent)
        if isinstance(p.antecedent, Implies):
            left = f"({left})"
        return f"{left} → {ref_prop(p.consequent)}"
    return ref_name(p.name)


def ref_goal(g: ProofGoal) -> str:
    hyps = ", ".join(f"{ref_name(s)} : {ref_prop(p)}" for s, p in g.hypotheses)
    return f"{hyps} ⊢ {ref_prop(g.target)}" if hyps else f"⊢ {ref_prop(g.target)}"


def ref_tactic_state(ts: TacticState) -> str:
    if not ts.goals:
        return "no goals"
    return "; ".join(ref_goal(g) for g in ts.goals)


def outcome(fn, *args):
    try:
        return ("value", fn(*args))
    except (TypeError, NotAnIdentifier) as err:
        return (type(err), str(err))


# ---------------------------------------------------------------------------
# Generated trees

IDENTS = st.builds(
    lambda name, pre: Ident("x", name, tuple(pre), None),
    NAMES,
    st.one_of(st.just([]), st.lists(NAMES, min_size=1, max_size=2)),
)
# closers, openers and tokens that end with an opener or start with a closer
TEXTS = ["(", ")", "[", "]", "⟨", "⟩", "«", "»", ",", ";", "+", "=>", "fun", "|", "f(", ")x"]
ATOMS = st.builds(Atom, st.sampled_from(TEXTS))
LEAVES = st.one_of(IDENTS, ATOMS, st.just(Missing()))
CATEGORIES = st.sampled_from([(), ("term",), ("tactic",), ("a", 1)])
SEPARATORS = st.sampled_from([(), (",",), (";",)])


def antiquots(sub):
    """`$x`, `$x:term` and `$(e):tactic`: a tag, and an `Ident` payload or
    any other tree."""
    return st.builds(
        lambda tag, payload: Node(Name(("antiquot",) + tag), (payload,)),
        CATEGORIES,
        st.one_of(IDENTS, sub),
    )


def nodes(sub):
    def kind(*parts):
        return st.just(Name(parts))

    def node(kinds, *children):
        return st.builds(lambda k, *cs: Node(k, tuple(cs)), kinds, *children)

    operand = st.one_of(sub, LEAVES)
    return st.one_of(
        # quotations with and without a category
        st.builds(
            lambda head, cat, body: Node(Name((head,) + cat), tuple(body)),
            st.sampled_from([KIND_QUOT, KIND_DQUOT]),
            CATEGORIES,
            st.lists(sub, max_size=3),
        ),
        antiquots(sub),
        node(SEPARATORS.map(lambda s: Name((KIND_SPLICE,) + s)), antiquots(sub)),
        st.builds(
            lambda sep, items: Node(Name((KIND_SPLICEGROUP,) + sep), tuple(items)),
            SEPARATORS,
            st.lists(sub, max_size=3),
        ),
        st.builds(lambda cs: Node(Name((KIND_CHOICE,)), tuple(cs)), st.lists(sub, max_size=3)),
        node(kind("argdecl"), IDENTS, st.just(Atom(":")), IDENTS),
        node(kind("slotprec"), IDENTS, st.sampled_from([Atom("max"), Atom("arg")])),
        # application and infix forms nest under each other in every order
        node(kind("app"), operand, operand),
        node(kind("plus"), operand, st.just(Atom("+")), operand),
        node(kind("arrow"), operand, st.just(Atom("→")), operand),
        # atomic and low forms, and plain sequences
        st.builds(
            lambda head, cs: Node(Name((head,)), tuple(cs)),
            st.sampled_from(["num", "tuple", "anonCtor", "fun", "paren", "seq"]),
            st.lists(sub, max_size=3),
        ),
    )


TREES = st.recursive(LEAVES, nodes, max_leaves=16)


def samples():
    """One tree of each form, and each operator over leaves."""
    x = Ident("x", Name(("x", 1)), (), None)
    y = Ident("y", Name.of("y"), (Name.of("y"), Name(("z", 2))), None)
    tree = Node(Name.of("app"), (x, y))
    forms = [x, y, Atom("1"), Atom(")x"), Missing()]
    for cat in ((), ("term",), ("a", 1)):
        forms += [Node(Name((head,) + cat), (tree, y)) for head in (KIND_QUOT, KIND_DQUOT)]
        forms += [Node(Name(("antiquot",) + cat), (payload,)) for payload in (x, tree)]
    for sep in ((), (",",), (";",)):
        anti = Node(Name(("antiquot", "term")), (tree,))
        forms.append(Node(Name((KIND_SPLICE,) + sep), (anti,)))
        inner = Node(Name((KIND_SPLICEGROUP, ",")), (x, Atom("+")))
        forms.append(Node(Name((KIND_SPLICEGROUP,) + sep), (inner, y)))
    forms += [
        Node(Name((KIND_CHOICE,)), (x, y, tree)),
        Node(Name.of("argdecl"), (x, Atom(":"), y)),
        Node(Name.of("slotprec"), (x, Atom("max"))),
        Node(Name.of("plus"), (x, Atom("+"), y)),
        Node(Name.of("arrow"), (x, Atom("→"), y)),
        tree,
    ]
    forms += [Node(Name.of(h), (Atom("fun"), x)) for h in ("num", "tuple", "anonCtor", "fun")]
    return forms


SAMPLES = samples()

# a value that is not syntax, and a misplaced non-identifier
NOT_SYNTAX = st.sampled_from([7, "x", None, Name.of("a"), ("a",)])
BAD_TREES = st.one_of(
    NOT_SYNTAX,
    st.builds(lambda t, bad: Node(Name.of("seq"), (t, bad)), TREES, NOT_SYNTAX),
    st.builds(lambda t: Node(Name.of("argdecl"), (t, Atom(":"), t)), st.one_of(ATOMS, TREES)),
    st.builds(lambda t: Node(Name.of("slotprec"), (t, Atom("max"))), ATOMS),
)


# ---------------------------------------------------------------------------
# Generated core terms, types and propositions

TYPES = st.recursive(
    st.one_of(st.just(TNat()), st.just(TUnit()), st.builds(TPropAtom, NAMES)),
    lambda sub: st.one_of(st.builds(TArrow, sub, sub), st.builds(TProd, sub, sub)),
    max_leaves=6,
)
TERMS = st.recursive(
    st.one_of(
        st.builds(Const, NAMES),
        st.builds(Local, NAMES),
        st.builds(NatLit, st.integers(min_value=0, max_value=10**12)),
    ),
    lambda sub: st.one_of(
        st.builds(Lam, NAMES, TYPES, sub),
        st.builds(App, sub, sub),
        st.builds(Pair, sub, sub),
    ),
    max_leaves=10,
)
PROPS = st.recursive(
    st.builds(PropAtom, NAMES),
    lambda sub: st.builds(Implies, sub, sub),
    max_leaves=8,
)


def left_nested(atoms):
    p = atoms[0]
    for q in atoms[1:]:
        p = Implies(p, q)
    return p


LEFT_NESTED = st.lists(st.builds(PropAtom, NAMES), min_size=2, max_size=5).map(left_nested)
GOALS = st.builds(
    lambda hyps, target: ProofGoal(tuple(hyps), target),
    st.lists(st.tuples(NAMES, st.one_of(PROPS, LEFT_NESTED)), max_size=3),
    st.one_of(PROPS, LEFT_NESTED),
)
_STATE = RunState()
_EXPANDER = Expander(_STATE)


class TestThePrintersAgree:
    @settings(max_examples=15)
    @given(TREES)
    def test_render(self, stx):
        assert render(stx) == ref_render(stx)

    @settings(max_examples=10)
    @given(BAD_TREES)
    def test_render_refuses_alike(self, stx):
        assert outcome(render, stx) == outcome(ref_render, stx)

    @settings(max_examples=8)
    @given(TERMS, TYPES)
    def test_core_terms_and_types(self, expr, ty):
        assert str(expr) == ref_core(expr)
        assert str(ty) == ref_core(ty)

    @settings(max_examples=6)
    @given(st.lists(GOALS, max_size=3))
    def test_props_goals_and_states(self, goals):
        for g in goals:
            assert str(g.target) == ref_prop(g.target)
            assert str(g) == ref_goal(g)
        ts = TacticState(tuple(goals), _STATE, [1], _EXPANDER)
        assert str(ts) == ref_tactic_state(ts)

    def test_every_form(self):
        for stx in SAMPLES:
            assert render(stx) == ref_render(stx)

    def test_every_head_in_every_operand_position(self):
        # parentheses depend only on the operand's head
        heads = {stx.kind[0] if type(stx) is Node else type(stx): stx for stx in SAMPLES}
        for head, op in (("app", None), ("plus", Atom("+")), ("arrow", Atom("→"))):
            for left in heads.values():
                for right in heads.values():
                    children = (left, right) if op is None else (left, op, right)
                    stx = Node(Name.of(head), children)
                    assert render(stx) == ref_render(stx)

    def test_the_space_between_every_two_tokens(self):
        for a in TEXTS:
            for b in TEXTS:
                stx = Node(Name.of("seq"), (Atom(a), Atom(b), Missing()))
                assert render(stx) == ref_render(stx)

    def test_each_form_by_hand(self):
        x = Ident("x", Name(("x", 1)), (), None)
        y = Ident("y", Name.of("y"), (Name.of("y"),), None)
        anti = Node(Name(("antiquot", "term")), (x,))
        plus = Node(Name.of("plus"), (x, Atom("+"), y))
        arrow = Node(Name.of("arrow"), (plus, Atom("→"), plus))
        splice = Node(Name((KIND_SPLICE, ",")), (anti,))
        quot = Node(Name((KIND_QUOT, "term")), (Node(Name.of("app"), (x, plus)), splice))
        assert render(quot) == "`(term| x.1 (x.1 + y{y}) $x.1:term,*)"
        assert render(Node(Name.of("app"), (arrow, y))) == "((x.1 + y{y}) → x.1 + y{y}) y{y}"
        p, q, r = (PropAtom(Name.of(n)) for n in "pqr")
        assert str(Implies(Implies(p, q), r)) == "(p → q) → r"
        assert str(Implies(p, Implies(q, r))) == "p → q → r"


# ---------------------------------------------------------------------------
# Depth: one Python frame per tree level, so 900 levels fit under the
# default recursion limit of 1000


def ident(text):
    return Ident(text, Name.of(text), (), None)


class TestDepth:
    N = 900

    def test_a_left_plus_chain(self):
        stx = ident("x0")
        for i in range(1, self.N):
            stx = Node(Name.of("plus"), (stx, Atom("+"), ident(f"x{i}")))
        assert render(stx) == " + ".join(f"x{i}" for i in range(self.N))

    def test_a_right_plus_chain(self):
        # each right operand is an infix chain, so each level is bracketed
        stx = ident("x")
        for _ in range(self.N):
            stx = Node(Name.of("plus"), (ident("y"), Atom("+"), stx))
        n = self.N - 1
        assert render(stx) == "y + (" * n + "y + x" + ")" * n

    def test_an_application_spine(self):
        stx = ident("f")
        for i in range(self.N):
            stx = Node(Name.of("app"), (stx, Atom(str(i))))
        assert render(stx) == "f " + " ".join(str(i) for i in range(self.N))

    def test_a_core_application_spine(self):
        expr = Const(Name.of("f"))
        for i in range(self.N):
            expr = App(expr, NatLit(i))
        args = "".join(f", natLit({i}))" for i in range(self.N))
        assert str(expr) == "app(" * self.N + "const(f)" + args

    def test_a_right_implication_chain(self):
        p = PropAtom(Name.of("p"))
        for _ in range(self.N):
            p = Implies(PropAtom(Name.of("q")), p)
        assert str(p) == "q → " * self.N + "p"


# ---------------------------------------------------------------------------
# `--trace-tactics` output, which no corpus golden shows


@pytest.mark.parametrize("name", ["tactics", "tactic_hygiene_err"])
def test_trace_tactics_output_is_unchanged(name):
    runner = Runner(RunConfig(stage="elaborate", trace_expansion=True, trace_tactics=True))
    assert runner.run_files([str(CORPUS / f"{name}.hyg")]) == CORPUS_RUNS[name][1]
    expected = (GOLDENS / "trace_tactics" / f"{name}.txt").read_text(encoding="utf-8")
    assert runner.output == expected
