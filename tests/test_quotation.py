"""Capture processing, quotation patterns, and template instantiation."""

import types
from typing import Dict, List, Sequence, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import strip_info
from hygex.driver import RunConfig, Runner, run_string
from hygex.context import (
    Decl,
    GlobalContext,
    MacroTable,
    RESERVED_SCOPE,
    ScopeCounter,
    ScopeState,
)
from hygex.errors import ExpansionError, KernelError
from hygex.expander import RunState, macro_step
from hygex.parser import CAT_COMMAND, K_TUPLE, Parser, ParserTable
from hygex.parser import MACRO_RULE
from hygex.quotation import (
    Capture,
    MatchEnv,
    QuotationPattern,
    QuotationTemplate,
    Rep,
    Seq,
    SepSeq,
    _elems_of,
    _hole_var,
    _split_elements,
    collect_holes,
    check_rules,
    instantiate,
    match_quotation,
    mk_c_ident,
    process_pattern,
    process_quotation,
)
from hygex.syntax import (
    KIND_ANTIQUOT,
    KIND_SPLICE,
    KIND_SPLICEGROUP,
    MISSING,
    Atom,
    Ident,
    Missing,
    Name,
    Node,
    SourceInfo,
    Syntax,
    format_scoped,
    is_antiquot,
    is_splice,
    render,
    splice_separator,
)


@pytest.fixture
def table():
    return ParserTable()


def quot(src, table):
    p = Parser(src, table)
    out = p.parse_term()
    assert p.at_eof()
    return out


def gctx_of(*names):
    g = GlobalContext()
    for n in names:
        g.add(Name.of(n), Decl("def"))
    return g


def run_state(gctx=None, start=1):
    return RunState(gctx=gctx or GlobalContext(), scopes=ScopeState(ScopeCounter(start)))


def find_idents(stx, raw):
    out = []
    match stx:
        case Ident() if stx.raw == raw:
            out.append(stx)
        case Node(children=children):
            for c in children:
                out += [i for i in find_idents(c, raw)]
    return out


class TestProcessQuotation:
    def test_captured_identifier_records_every_matching_global(self, table):
        template = process_quotation(quot("`(a + $b)", table), gctx_of("a.a", "b.a"))
        (a,) = find_idents(template.body, "a")
        assert a.preresolved == (Name.of("a.a"), Name.of("b.a"))
        assert template.holes == {Name.of("b")}

    def test_no_match_no_annotation(self, table):
        template = process_quotation(quot("`(fun x => $e)", table), gctx_of("y"))
        (x,) = find_idents(template.body, "x")
        assert x.preresolved == ()

    def test_const_rule_right_hand_side(self, table):
        template = process_quotation(quot("`(fun x => $e)", table), gctx_of("x", "e"))
        (x,) = find_idents(template.body, "x")
        assert format_scoped(x) == "x{x}"

    def test_existing_preresolutions_go_first_each_once(self, table):
        q = quot("`(a + 1)", table)
        plus = q.children[0]
        marked = Ident("a", Name.of("a"), (Name.of("b.a"), Name.of("c.a")), None)
        q = Node(q.kind, (Node(plus.kind, (marked,) + plus.children[1:]),))
        template = process_quotation(q, gctx_of("a.a", "b.a"))
        (a,) = find_idents(template.body, "a")
        assert a.preresolved == (Name.of("b.a"), Name.of("c.a"), Name.of("a.a"))

    # a quotation built by a macro, whose identifier carries the outer
    # quotation's preresolution and the step's scope, which no global has
    @pytest.mark.parametrize(
        "inner",
        [
            'macro "k" : term => `(foo)',
            'notation "k" => foo',
            'macro "k" : term => ``(foo)',
        ],
    )
    def test_a_quotation_a_macro_built_keeps_its_preresolutions(self, inner):
        src = f"def foo := 1\nmacro \"mk\" : command => `({inner})\nmk\ndef y := k\n"
        code, out = run_string(src)
        assert (code, out.splitlines()[-1]) == (0, "def y := foo")
        code, out = run_string(src, RunConfig(stage="elaborate"))
        assert (code, out.splitlines()[-1]) == (0, "def y : nat := const(foo)")

    def test_holes_inside_nested_quotations_belong_to_the_outer_template(self, table):
        table.register_rule(CAT_COMMAND, MACRO_RULE)
        template = process_quotation(
            quot("`(def f := 1 macro \"mm\" : command => `(def $y := f + 1))", table),
            gctx_of(),
        )
        assert template.holes == {Name.of("y")}


class TestInstantiate:
    def test_const_template_applies_the_scope(self, table):
        template = process_quotation(quot("`(fun x => $e)", table), gctx_of("x", "e"))
        env = {Name.of("e"): Ident("x", Name.of("x"), ())}
        out = instantiate(template, env, run_state())
        binder, body = out.children[1], out.children[3]
        assert format_scoped(binder) == "x.1{x}"
        assert format_scoped(body) == "x"
        assert render(out) == "fun x.1{x} => x"

    def test_separated_splice(self, table):
        template = process_quotation(
            quot("`(Prod.mk $e ($es,*))", table), gctx_of("Prod.mk")
        )
        env = {
            Name.of("e"): num(1),
            Name.of("es"): SepSeq((num(2), num(3)), ","),
        }
        out = instantiate(template, env, run_state())
        assert render(out) == "Prod.mk.1{Prod.mk} 1 (2, 3)"

    def test_nested_splice_instantiates_per_element(self, table):
        template = process_quotation(quot("`(match $[$discrs],* with | a => a)", table), gctx_of())
        x1 = Ident("x", Name(("x", 1)), ())
        x2 = Ident("x", Name(("x", 2)), ())
        env = {Name.of("discrs"): Seq((x1, x2))}
        out = instantiate(template, env, run_state())
        discrs = out.children[1]
        assert render(discrs) == "x.1, x.2"

    def test_instantiated_atoms_lose_source_info(self, table):
        template = process_quotation(quot("`(fun x => x)", table), gctx_of())
        out = instantiate(template, {}, run_state())
        assert all(
            c.info is None for c in out.children if isinstance(c, (Atom, Ident))
        )

    def test_missing_hole_payload(self, table):
        template = process_quotation(quot("`($e + 1)", table), gctx_of())
        with pytest.raises(ExpansionError) as exc:
            instantiate(template, {}, run_state())
        assert "unbound antiquotation" in exc.value.message

    def test_sequence_capture_cannot_fill_a_plain_hole(self, table):
        template = process_quotation(quot("`($e + 1)", table), gctx_of())
        with pytest.raises(ExpansionError):
            instantiate(template, {Name.of("e"): Seq((num(1), num(2)))}, run_state())

    def test_shape_coercion_between_separators(self, table):
        # a comma capture re-separates to fit the target splice
        template = process_quotation(quot("`(($es,*))", table), gctx_of())
        env = {Name.of("es"): Seq((num(1), num(2)))}
        out = instantiate(template, env, run_state())
        assert render(out) == "(1, 2)"

    def test_separated_capture_coerces_to_plain_sequence(self, table):
        # dropping separators keeps exactly the element positions
        template = process_quotation(quot("`(fun $bs* => 1)", table), gctx_of())
        x = Ident("x", Name.of("x"), ())
        y = Ident("y", Name.of("y"), ())
        env = {Name.of("bs"): SepSeq((x, y), ",")}
        out = instantiate(template, env, run_state())
        assert render(out) == "fun x y => 1"
        assert out.children[1].children == (x, y)

    def test_scope_shared_within_one_invocation(self, table):
        template = process_quotation(quot("`(fun x => x)", table), gctx_of())
        env_ = run_state()
        first = instantiate(template, {}, env_)
        second = instantiate(template, {}, env_)
        assert strip_info(first) == strip_info(second)  # same scope both times

    def test_scopes_differ_across_invocations(self, table):
        template = process_quotation(quot("`(fun x => x)", table), gctx_of())
        scopes = ScopeState(ScopeCounter(1))
        gctx = GlobalContext()
        outs = []
        for _ in range(2):
            with scopes.fresh():
                outs.append(instantiate(template, {}, RunState(gctx=gctx, scopes=scopes)))
        assert outs[0].children[1].name == Name(("x", 1))
        assert outs[1].children[1].name == Name(("x", 2))


def num(n: int) -> Node:
    return Node(Name.of("num"), (Atom(str(n)),))


class TestMatchQuotation:
    def test_tuple_pattern_with_splice(self, table):
        pattern = process_pattern(quot("`(($e, $es,*))", table))
        stx = quot("`((1, 2, 3))", table).children[0]
        env = match_quotation(pattern, stx)
        assert env is not None
        assert render(env[Name.of("e")]) == "1"
        es = env[Name.of("es")]
        assert isinstance(es, SepSeq)
        assert [render(e) for e in es.elems] == ["2", "3"]

    def test_kind_mismatch_is_no_match(self, table):
        pattern = process_pattern(quot("`(())", table))
        stx = quot("`((1))", table).children[0]
        assert match_quotation(pattern, stx) is None

    def test_nested_splice_collects_element_wise(self, table):
        pattern = process_pattern(
            quot("`(match $discr with $[| $patss,* => $branches]*)", table)
        )
        stx = quot(
            "`(match z with | a, b => a | c, d => d)", table
        ).children[0]
        env = match_quotation(pattern, stx)
        assert env is not None
        patss = env[Name.of("patss")]
        branches = env[Name.of("branches")]
        assert isinstance(patss, Rep) and len(patss.items) == 2
        assert isinstance(branches, Rep) and len(branches.items) == 2
        assert all(isinstance(p, SepSeq) for p in patss.items)
        assert [render(b) for b in branches.items] == ["a", "d"]

    def test_identifiers_match_by_surface_spelling(self, table):
        # scoped macro output still matches a plainly spelled pattern
        pattern = process_pattern(quot("`(const x)", _const_table()))
        scoped = Node(
            Name.of("const"),
            (Atom("const"), Ident("x", Name(("x", 3)), (Name.of("x"),))),
        )
        assert match_quotation(pattern, scoped) is not None

    def test_match_then_instantiate_reproduces_the_tree(self, table):
        pattern = process_pattern(quot("`(($a, $b))", table))
        template = process_quotation(quot("`(($a, $b))", table), gctx_of())
        stx = quot("`((1, 2))", table).children[0]
        env = match_quotation(pattern, stx)
        out = instantiate(template, env, run_state())
        assert strip_info(out) == strip_info(stx)

    def test_a_splice_between_fixed_children_needs_an_input_for_each(self, table):
        pattern = process_pattern(quot("`(fun $a $xs* $b => 1)", table))
        two = quot("`(fun x y => 1)", table).children[0]
        kw, binders, *rest = two.children
        one = Node(two.kind, (kw, Node(binders.kind, binders.children[:1]), *rest))
        assert match_quotation(pattern, one) is None
        env = match_quotation(pattern, two)
        assert env[Name.of("xs")] == Seq(())
        assert render(env[Name.of("b")]) == "y"

    def test_duplicate_pattern_variable_rejected(self, table):
        with pytest.raises(ExpansionError):
            process_pattern(quot("`(($e, $e))", table))


def _const_table():
    from hygex.parser import CAT_TERM, CatRef, Lit, ParseRule

    t = ParserTable()
    t.register_rule(CAT_TERM, ParseRule(Name.of("const"), (Lit("const"), CatRef(CAT_TERM))))
    return t


class TestRuleAlternatives:
    def test_alternatives_tried_in_order(self, table):
        rules = []
        for pat_src, rhs_src in [
            ("`(())", "`(Unit.unit)"),
            ("`(($e))", "`($e)"),
        ]:
            rules.append(
                (
                    process_pattern(quot(pat_src, table)),
                    process_quotation(quot(rhs_src, table), gctx_of("Unit.unit")),
                )
            )
        assert check_rules(rules) == Name.of("tuple")
        unit = quot("`(())", table).children[0]
        one = quot("`((1))", table).children[0]
        out, scope = macro_step(unit, rules, run_state())
        assert render(out) == "Unit.unit.1{Unit.unit}" and scope == 1
        out, scope = macro_step(one, rules, run_state())
        assert render(out) == "1" and scope is None

    def test_no_alternative_is_none(self, table):
        rules = [
            (
                process_pattern(quot("`(())", table)),
                process_quotation(quot("`(Unit.unit)", table), gctx_of()),
            )
        ]
        check_rules(rules)
        assert macro_step(quot("`((1))", table).children[0], rules, run_state()) is None

    def test_mixed_kinds_rejected(self, table):
        rules = [
            (
                process_pattern(quot("`(())", table)),
                process_quotation(quot("`(x)", table), gctx_of()),
            ),
            (
                process_pattern(quot("`(fun x => $e)", table)),
                process_quotation(quot("`($e)", table), gctx_of()),
            ),
        ]
        with pytest.raises(ExpansionError) as exc:
            check_rules(rules)
        assert "different syntax kinds" in exc.value.message

    def test_template_hole_must_be_bound_by_pattern(self, table):
        rules = [
            (
                process_pattern(quot("`(())", table)),
                process_quotation(quot("`($mystery)", table), gctx_of()),
            )
        ]
        with pytest.raises(ExpansionError) as exc:
            check_rules(rules)
        assert "unbound antiquotation" in exc.value.message

    def test_procedural_body_receives_env(self, table):
        # a procedural alternative matches for itself, as `fun | …` does
        pattern = process_pattern(quot("`(($e))", table))
        seen = {}

        def transformer(stx, env_t):
            env = match_quotation(pattern, stx)
            if env is None:
                return None
            seen.update(env)
            return num(7)

        alternatives = [(None, transformer)]
        assert macro_step(quot("`(())", table).children[0], alternatives, run_state()) is None
        out, scope = macro_step(quot("`((3))", table).children[0], alternatives, run_state())
        assert render(out) == "7" and scope is None
        assert render(seen[Name.of("e")]) == "3"

    def test_one_flat_list_newest_block_first(self, table):
        def rule(pat_src, rhs_src):
            return (
                process_pattern(quot(pat_src, table)),
                process_quotation(quot(rhs_src, table), gctx_of()),
            )

        old = [rule("`(())", "`(0)"), rule("`(($e))", "`($e)")]
        new = [rule("`(($a, $b))", "`(1)"), rule("`(())", "`(2)")]

        def probe(stx, env_t):
            return None

        kind = Name.of("tuple")
        macros = MacroTable()
        macros.add_rules(kind, old)
        macros.register(kind, probe)
        macros.add_rules(kind, new)
        assert macros[kind] == [*new, (None, probe), *old]
        macros.copy().add_rules(kind, old)
        assert len(macros[kind]) == 5
        out, _ = macro_step(quot("`(())", table).children[0], macros[kind], run_state())
        assert render(out) == "2"


class TestMkCIdent:
    def test_reserved_scope_and_annotation(self):
        ref = mk_c_ident(Name.of("Prod.mk"))
        assert ref.name == Name(("Prod", "mk", RESERVED_SCOPE))
        assert ref.preresolved == (Name.of("Prod.mk"),)
        assert format_scoped(ref) == "Prod.mk.0{Prod.mk}"

    def test_never_captured_by_same_spelled_locals(self):
        from hygex.expander import resolve_identifier

        gctx = gctx_of("Prod.mk")
        ref = mk_c_ident(Name.of("Prod.mk"))
        lctx = frozenset({Name.of("Prod.mk"), Name(("Prod", "mk", 1))})
        resolved = resolve_identifier(ref, lctx, gctx)
        assert isinstance(resolved, Ident)
        assert resolved.name == Name.of("Prod.mk")

    def test_run_counter_never_reuses_the_reserved_scope(self):
        counter = ScopeCounter()
        assert all(counter.alloc() != RESERVED_SCOPE for _ in range(100))


# ---------------------------------------------------------------------------
# The tree-walking interpreters that compiled patterns and templates
# replaced, kept as the reference the compiled engine is checked against.


def ref_match_quotation(pattern: QuotationPattern, stx: Syntax):
    env: MatchEnv = {}
    if _ref_match(pattern.body, stx, env):
        return env
    return None


def _ref_antiquot_admits(anti: Node, stx: Syntax) -> bool:
    suffix = anti.kind.parts[1:]
    if not suffix:
        return True
    if suffix == ("ident",):
        return isinstance(stx, Ident)
    if suffix == ("num",):
        return isinstance(stx, Node) and stx.kind == Name.of("num")
    return True


def _ref_match(pat: Syntax, stx: Syntax, env: MatchEnv) -> bool:
    if isinstance(pat, Node) and is_antiquot(pat):
        if not _ref_antiquot_admits(pat, stx):
            return False
        env[_hole_var(pat)] = stx
        return True
    match pat, stx:
        case Atom(text=a), Atom(text=b):
            return a == b
        case Ident(raw=a), Ident(raw=b):
            return a == b
        case Missing(), Missing():
            return True
        case Node(kind=k1, children=pats), Node(kind=k2, children=inputs):
            if k1 != k2:
                return False
            return _ref_match_children(pats, inputs, env)
    return False


def _ref_match_children(
    pats: Sequence[Syntax], inputs: Sequence[Syntax], env: MatchEnv
) -> bool:
    splice_at = None
    for i, p in enumerate(pats):
        if is_splice(p):
            splice_at = i
            break
    if splice_at is None:
        if len(pats) != len(inputs):
            return False
        return all(_ref_match(p, s, env) for p, s in zip(pats, inputs))
    prefix = pats[:splice_at]
    suffix = pats[splice_at + 1 :]
    if len(inputs) < len(prefix) + len(suffix):
        return False
    for p, s in zip(prefix, inputs[: len(prefix)]):
        if not _ref_match(p, s, env):
            return False
    if suffix:
        for p, s in zip(suffix, inputs[len(inputs) - len(suffix) :]):
            if not _ref_match(p, s, env):
                return False
        middle = inputs[len(prefix) : len(inputs) - len(suffix)]
    else:
        middle = inputs[len(prefix) :]
    return _ref_match_splice(pats[splice_at], middle, env)


def _ref_match_splice(splice: Node, middle: Sequence[Syntax], env: MatchEnv) -> bool:
    sep = splice_separator(splice)
    if splice.kind.parts[0] == KIND_SPLICE:
        anti = splice.children[0]
        elems = _split_elements(middle, sep)
        if elems is None:
            return False
        if not all(_ref_antiquot_admits(anti, e) for e in elems):
            return False
        var = _hole_var(anti)
        env[var] = SepSeq(tuple(elems), sep) if sep else Seq(tuple(elems))
        return True
    inner = splice.children[0]
    elems = _split_elements(middle, sep)
    if elems is None:
        return False
    vars_ = collect_holes(inner)
    collected: Dict[Name, List[Capture]] = {v: [] for v in vars_}
    for elem in elems:
        sub: MatchEnv = {}
        if not _ref_match(inner, elem, sub):
            return False
        for v in vars_:
            collected[v].append(sub[v])
    for v, items in collected.items():
        env[v] = Rep(tuple(items))
    return True


def ref_instantiate(template: QuotationTemplate, env: MatchEnv, env_t: RunState):
    missing = template.holes - set(env)
    if missing:
        names = ", ".join(sorted(str(m) for m in missing))
        raise ExpansionError(f"unbound antiquotation variable: {names}")
    return _ref_instantiate(template.body, env, env_t)


def _ref_instantiate(stx: Syntax, env: MatchEnv, env_t: RunState) -> Syntax:
    match stx:
        case Ident(raw=raw, name=name, preresolved=pre):
            scope = env_t.scopes.current()
            return Ident(raw, Name(name + (scope,)), pre, None)
        case Atom(text=text):
            return Atom(text, None)
        case Node() if is_antiquot(stx):
            capture = env[_hole_var(stx)]
            if isinstance(capture, (Seq, SepSeq, Rep)):
                raise ExpansionError(
                    f"hole ${_hole_var(stx)} expects a single tree, "
                    "got a sequence capture"
                )
            return capture
        case Node(kind=kind, children=children):
            out: List[Syntax] = []
            for child in children:
                if is_splice(child):
                    out.extend(_ref_instantiate_splice(child, env, env_t))
                else:
                    out.append(_ref_instantiate(child, env, env_t))
            return Node(kind, tuple(out))
        case _:
            return stx


def _ref_with_separators(elems: List[Syntax], sep: str) -> List[Syntax]:
    if not sep:
        return elems
    out: List[Syntax] = []
    for i, e in enumerate(elems):
        if i:
            out.append(Atom(sep, None))
        out.append(e)
    return out


def _ref_instantiate_splice(
    splice: Node, env: MatchEnv, env_t: RunState
) -> List[Syntax]:
    sep = splice_separator(splice)
    if splice.kind.parts[0] == KIND_SPLICE:
        capture = env[_hole_var(splice.children[0])]
        return _ref_with_separators(list(_elems_of(capture)), sep)
    inner = splice.children[0]
    vars_ = collect_holes(inner)
    lengths = set()
    per_var: Dict[Name, Tuple] = {}
    for v in vars_:
        capture = env[v]
        if isinstance(capture, Rep):
            per_var[v] = capture.items
        else:
            per_var[v] = _elems_of(capture)
        lengths.add(len(per_var[v]))
    if not vars_:
        raise ExpansionError("nested splice without antiquotations")
    if len(lengths) != 1:
        raise ExpansionError(
            "nested splice variables hold sequences of different lengths"
        )
    n = lengths.pop()
    elems = []
    for i in range(n):
        sub = dict(env)
        sub.update({v: per_var[v][i] for v in vars_})
        elems.append(_ref_instantiate(inner, sub, env_t))
    return _ref_with_separators(elems, sep)


# ---------------------------------------------------------------------------
# Generated patterns, inputs and templates.  Every strategy is built once
# here; the drawing functions below only draw from them.


ATOM_TEXTS = ("(", ")", "+", "k", ",", ";")
RAWS = ("x", "y", "ns.x")
INFO = st.sampled_from((None, SourceInfo(1, 0, 0), SourceInfo(2, 4, 17)))
ATOM_TEXT = st.sampled_from(ATOM_TEXTS)
RAW = st.sampled_from(RAWS)
NAME = st.sampled_from(
    (Name.of("x"), Name(("x", 1)), Name.of("y"), Name(("y", 2, 3)), Name.of("ns.x"))
)
PRERESOLVED = st.sampled_from(((), (Name.of("x"),), (Name.of("ns.x"), Name(("x", 1)))))
KIND = st.sampled_from((Name.of("k1"), Name.of("k2"), Name.of("num")))
SEP = st.sampled_from(("", ",", ";"))
LIST_SEP = st.sampled_from((",", ";"))
TAG = st.sampled_from(((), ("ident",), ("num",), ("term",)))
VARS = tuple(Name.of(v) for v in ("a", "b", "c"))
VAR = st.sampled_from(VARS)
COUNT = st.integers(0, 3)
DIGIT = st.sampled_from(("1", "2"))
SPLICES = st.sampled_from((0, 0, 1, 1, 2))  # a second splice matches as a plain node
SHAPE = st.sampled_from(("atom", "ident", "missing", "hole", "node"))
LEAF_SHAPE = st.sampled_from(("atom", "ident", "hole"))
TREE_SHAPE = st.sampled_from(("atom", "ident", "num", "missing", "node"))
CAPTURE_SHAPE = st.sampled_from(("tree", "seq", "sepseq", "rep"))
FLIP = st.booleans()
ONE_IN_5 = st.integers(0, 4)
ONE_IN_8 = st.integers(0, 7)


def _draw_atom(draw) -> Atom:
    return Atom(draw(ATOM_TEXT), draw(INFO))


def _draw_ident(draw) -> Ident:
    return Ident(draw(RAW), draw(NAME), draw(PRERESOLVED), draw(INFO))


def _draw_num(draw) -> Node:
    return Node(Name.of("num"), (Atom(draw(DIGIT), draw(INFO)),))


def _draw_tree(draw, depth: int = 0) -> Syntax:
    shape = draw(TREE_SHAPE)
    if shape == "atom":
        return _draw_atom(draw)
    if shape == "ident":
        return _draw_ident(draw)
    if shape == "num":
        return _draw_num(draw)
    if shape == "missing" or depth >= 2:
        return MISSING
    return Node(draw(KIND), tuple(_draw_tree(draw, depth + 1) for _ in range(draw(COUNT))))


def _draw_capture(draw, depth: int = 0) -> Capture:
    shape = draw(CAPTURE_SHAPE)
    if shape == "tree" or (shape == "rep" and depth >= 2):
        return _draw_tree(draw)
    if shape == "rep":
        return Rep(tuple(_draw_capture(draw, depth + 1) for _ in range(draw(COUNT))))
    elems = tuple(_draw_tree(draw) for _ in range(draw(COUNT)))
    return Seq(elems) if shape == "seq" else SepSeq(elems, draw(LIST_SEP))


def antiquot(var: Name, tag: Tuple = ()) -> Node:
    return Node(Name((KIND_ANTIQUOT,) + tag), (Ident(str(var), var, (), None),))


def splice_kind(head: str, sep: str) -> Name:
    return Name((head, sep) if sep else (head,))


def _draw_pattern(draw, fresh: List[int], depth: int, top: bool = False) -> Syntax:
    """A pattern body whose hole variables are all distinct."""

    def var() -> Name:
        fresh[0] += 1
        return Name.of(f"v{fresh[0]}")

    shape = "node" if top else draw(SHAPE if depth < 3 else LEAF_SHAPE)
    if shape == "atom":
        return _draw_atom(draw)
    if shape == "ident":
        return _draw_ident(draw)
    if shape == "missing":
        return MISSING
    if shape == "hole":
        return antiquot(var(), draw(TAG))
    children = [_draw_pattern(draw, fresh, depth + 1) for _ in range(draw(COUNT))]
    for _ in range(draw(SPLICES)):
        sep = draw(SEP)
        if depth < 2 and draw(FLIP):
            inner = _draw_pattern(draw, fresh, depth + 1)
            spliced = Node(splice_kind(KIND_SPLICEGROUP, sep), (inner,))
        else:
            spliced = Node(splice_kind(KIND_SPLICE, sep), (antiquot(var(), draw(TAG)),))
        children.insert(draw(st.integers(0, len(children))), spliced)
    return Node(draw(KIND), tuple(children))


def _draw_admitted(draw, anti: Node) -> Syntax:
    """What the antiquotation admits, or now and then anything at all."""
    tag = anti.kind.parts[1:]
    if tag and draw(ONE_IN_5) == 0:
        return _draw_tree(draw)
    if tag == ("ident",):
        return _draw_ident(draw)
    if tag == ("num",):
        return _draw_num(draw)
    return _draw_tree(draw)


def _draw_input(draw, pat: Syntax) -> Syntax:
    """A tree the pattern matches, but for a near miss now and then: an
    atom or identifier spelled otherwise, or a tagged hole's misfit."""
    if isinstance(pat, Atom):
        text = draw(ATOM_TEXT) if draw(ONE_IN_8) == 0 else pat.text
        return Atom(text, draw(INFO))
    if isinstance(pat, Ident):
        raw = draw(RAW) if draw(ONE_IN_8) == 0 else pat.raw
        return Ident(raw, draw(NAME), draw(PRERESOLVED), draw(INFO))
    if not isinstance(pat, Node):
        return pat
    if is_antiquot(pat):
        return _draw_admitted(draw, pat)
    out: List[Syntax] = []
    spliced = False
    for c in pat.children:
        if spliced or not is_splice(c):
            out.append(_draw_input(draw, c))
            continue
        spliced = True
        sep = splice_separator(c)
        for i in range(draw(COUNT)):
            if i and sep:
                out.append(Atom(sep, draw(INFO)))
            if c.kind.parts[0] == KIND_SPLICE:
                out.append(_draw_admitted(draw, c.children[0]))
            else:
                out.append(_draw_input(draw, c.children[0]))
    return Node(pat.kind, tuple(out))


def _subtrees(stx: Syntax, path=()):
    yield path, stx
    if isinstance(stx, Node):
        for i, c in enumerate(stx.children):
            yield from _subtrees(c, path + (i,))


def _replace(stx: Syntax, path, new: Syntax) -> Syntax:
    if not path:
        return new
    children = list(stx.children)
    children[path[0]] = _replace(children[path[0]], path[1:], new)
    return Node(stx.kind, tuple(children))


def _draw_mutation(draw, stx: Syntax) -> Syntax:
    """Change one subtree: another spelling, another atom, or any tree."""
    path, old = draw(st.sampled_from(list(_subtrees(stx))))
    if isinstance(old, Ident) and draw(FLIP):
        new = Ident(draw(RAW), old.name, old.preresolved, old.info)
    elif isinstance(old, Atom) and draw(FLIP):
        new = Atom(draw(ATOM_TEXT), old.info)
    else:
        new = _draw_tree(draw)
    return _replace(stx, path, new)


@st.composite
def pattern_and_input(draw):
    body = _draw_pattern(draw, [0], 0, top=True)
    stx = _draw_input(draw, body)
    if draw(FLIP):
        stx = _draw_mutation(draw, stx)
    return QuotationPattern(body, body.kind, frozenset(collect_holes(body))), stx


def _draw_template(draw, depth: int, top: bool = False) -> Syntax:
    shape = "node" if top else draw(SHAPE if depth < 3 else LEAF_SHAPE)
    if shape == "atom":
        return _draw_atom(draw)
    if shape == "ident":
        return _draw_ident(draw)
    if shape == "missing":
        return MISSING
    if shape == "hole":
        return antiquot(draw(VAR), draw(TAG))
    children: List[Syntax] = []
    for _ in range(draw(COUNT) + draw(FLIP)):
        if draw(ONE_IN_5) > 1:
            children.append(_draw_template(draw, depth + 1))
            continue
        sep = draw(SEP)
        if depth < 2 and draw(FLIP):
            if draw(FLIP):
                # two variables, whose sequences may differ in length
                inner = Node(Name.of("k1"), (antiquot(draw(VAR)), _draw_ident(draw), antiquot(draw(VAR))))
            else:  # may hold no hole at all
                inner = _draw_template(draw, depth + 1)
            children.append(Node(splice_kind(KIND_SPLICEGROUP, sep), (inner,)))
        else:
            children.append(Node(splice_kind(KIND_SPLICE, sep), (antiquot(draw(VAR)),)))
    return Node(draw(KIND), tuple(children))


@st.composite
def template_and_env(draw):
    body = _draw_template(draw, 0, top=True)
    # now and then a variable stays unbound
    env = {v: _draw_capture(draw) for v in VARS if draw(ONE_IN_8)}
    return QuotationTemplate(body, frozenset(collect_holes(body))), env


def instantiate_outcome(fn, template, env):
    """What instantiating gives: the tree or the error message, and the
    scope the invocation allocated, if any."""
    scopes = ScopeState(ScopeCounter(7))
    env_t = RunState(scopes=scopes)
    with scopes.fresh():
        try:
            result = ("tree", fn(template, env, env_t))
        except ExpansionError as err:
            result = ("error", err.message)
        return result, scopes.peek()


class TestCompiledAgreesWithTheInterpreter:
    @settings(max_examples=200, deadline=None)
    @given(pattern_and_input())
    def test_match(self, case):
        pattern, stx = case
        assert match_quotation(pattern, stx) == ref_match_quotation(pattern, stx)

    @settings(max_examples=200, deadline=None)
    @given(template_and_env())
    def test_instantiate(self, case):
        template, env = case
        assert instantiate_outcome(instantiate, template, env) == (
            instantiate_outcome(ref_instantiate, template, env)
        )

    @pytest.mark.parametrize(
        "src, env, message",
        [
            ("`($e + 1)", {"e": Seq(())}, "hole $e expects a single tree"),
            (
                "`(($[$xs + $ys],*))",
                {"xs": Seq((num(1),)), "ys": Seq((num(1), num(2)))},
                "different lengths",
            ),
            ("`(($[x + 1],*))", {}, "nested splice without antiquotations"),
            ("`(f $e)", {}, "unbound antiquotation variable: e"),
            ("`(($xs,*))", {"xs": Rep((num(1),))}, "element-wise captures"),
        ],
    )
    def test_the_same_errors(self, table, src, env, message):
        template = process_quotation(quot(src, table), gctx_of())
        env = {Name.of(k): v for k, v in env.items()}
        compiled = instantiate_outcome(instantiate, template, env)
        assert compiled[0][0] == "error" and message in compiled[0][1]
        assert compiled == instantiate_outcome(ref_instantiate, template, env)

    def test_a_tagged_splice_element_that_does_not_fit(self, table):
        pattern = process_pattern(quot("`(($xs:ident,*))", table))
        stx = quot("`((x, 1))", table).children[0]
        assert match_quotation(pattern, stx) is None
        assert ref_match_quotation(pattern, stx) is None


class TestLazyScopesAndSharing:
    def test_a_template_without_identifiers_allocates_no_scope(self, table):
        template = process_quotation(quot("`(($e, 1))", table), gctx_of())
        env_t = run_state()
        out = instantiate(template, {Name.of("e"): num(2)}, env_t)
        assert render(out) == "(2, 1)"
        assert env_t.scopes.peek() is None

    def test_identifiers_under_an_empty_nested_splice_allocate_no_scope(self, table):
        template = process_quotation(quot("`(($[$xs + y],*))", table), gctx_of())
        env_t = run_state()
        out = instantiate(template, {Name.of("xs"): Seq(())}, env_t)
        assert not out.children[1].children
        assert env_t.scopes.peek() is None
        instantiate(template, {Name.of("xs"): Seq((num(1),))}, env_t)
        assert env_t.scopes.peek() == 1

    def test_ground_subtrees_are_prebuilt_once_without_source_info(self, table):
        template = process_quotation(quot("`(fun x => (1 + 2))", table), gctx_of())
        ground = template.body.children[3]
        assert any(
            isinstance(s, Atom) and s.info is not None for _, s in _subtrees(ground)
        )
        first = instantiate(template, {}, run_state())
        second = instantiate(template, {}, run_state(start=5))
        assert first.children[3] is second.children[3]
        assert first.children[3] == strip_info(ground)
        assert all(
            s.info is None for _, s in _subtrees(first) if isinstance(s, (Atom, Ident))
        )
        assert first.children[1].name != second.children[1].name


RUN_STATE = (GlobalContext, ScopeState, ParserTable, RunState)


def reachable(root):
    """Every object a transformer can reach through closure cells, default
    arguments, containers and the fields of hygex objects."""
    seen, stack, out = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        out.append(obj)
        if isinstance(obj, types.FunctionType):
            for cell in obj.__closure__ or ():
                try:
                    stack.append(cell.cell_contents)
                except ValueError:  # an empty cell
                    pass
            stack.extend(obj.__defaults__ or ())
        elif isinstance(obj, types.MethodType):
            stack += [obj.__self__, obj.__func__]
        elif isinstance(obj, (tuple, list, set, frozenset)):
            stack.extend(obj)
        elif isinstance(obj, dict):
            stack += list(obj.keys()) + list(obj.values())
        elif type(obj).__module__.startswith("hygex"):
            # the fields of a hygex object, in its `__dict__` or its slots
            stack.extend(getattr(obj, "__dict__", {}).values())
            for cls in type(obj).__mro__:
                stack.extend(getattr(obj, slot) for slot in cls.__dict__.get("__slots__", ()))
    return out


class TestCompiledRulesCaptureNoRunState:
    def test_no_transformer_reaches_run_state(self):
        runner = Runner(RunConfig())
        runner.run_source(
            'syntax "pick" term : term\n'
            "macro_rules | `(pick ($x, $[$ys],*)) => `(fun y => ($x, $[$ys + y],*))\n"
            'macro "twice" e:term : term => `($e + $e)\n'
            "def z := pick (1, 2, 3)\n"
        )
        assert not runner.diagnostics
        names = set()
        for kind, alternatives in runner.state.macros.items():
            for alternative in (*alternatives, alternatives.by_shape):
                for obj in reachable(alternative):
                    assert not isinstance(obj, RUN_STATE), (kind, obj)
                    if isinstance(obj, types.FunctionType):
                        names.add(obj.__name__)
        # the walk reached the compiled closures themselves
        assert {"match_node", "match_group", "build_node", "build_group"} <= names


# ---------------------------------------------------------------------------
# Alternatives indexed by shape, checked against the plain scan they replace


def scan_macro_step(stx, alternatives, state, on_step=None):
    """`expander.macro_step` as it was before the index by shape: every
    alternative of the list, newest first."""
    stack = state.scopes._stack
    stack.append(None)
    try:
        for pattern, body in alternatives:
            if pattern is None:
                out = body(stx, state)
                if out is None:
                    continue
            else:
                env = match_quotation(pattern, stx)
                if env is None:
                    continue
                out = instantiate(body, env, state)
            scope = stack[-1]
            if on_step is not None:
                on_step(stx.kind, stx, out)
            return out, scope
    except KernelError as err:
        err.frames.insert(0, (stx.kind, stack[-1]))
        raise
    finally:
        stack.pop()
    return None


STEP_KIND = Name.of("k1")
STEP_OUT = Name.of("out")


def _procedural(j: int):
    """A transformer that allocates its step's scope when `j` is odd, and
    applies to a node whose number of children is `j` modulo 3, refusing
    an empty node when `j` is 4 modulo 5."""

    def transformer(stx, env_t):
        if j % 2:
            env_t.scopes.current()
        if j % 5 == 4 and not stx.children:
            raise ExpansionError(f"p{j} refuses an empty node")
        if len(stx.children) % 3 == j % 3:
            return Atom(f"p{j}")
        return None

    return transformer


def _draw_rule(draw, fresh: List[int], i: int):
    """A pattern of kind `STEP_KIND` and a template that names the rule,
    may take a scope, and may fill one of the pattern's holes."""
    body = _draw_pattern(draw, fresh, 0, top=True)
    pattern = Node(STEP_KIND, body.children)
    parts: List[Syntax] = [Atom(f"r{i}")]
    if draw(FLIP):
        parts.append(Ident("x", Name.of("x"), (), None))
    holes = collect_holes(pattern)
    if holes and draw(FLIP):
        parts.append(antiquot(draw(st.sampled_from(holes))))
    body = Node(STEP_OUT, tuple(parts))
    return (
        QuotationPattern(pattern, STEP_KIND, frozenset(holes)),
        QuotationTemplate(body, frozenset(collect_holes(body))),
    )


@st.composite
def alternatives_and_input(draw):
    """A `MacroTable` entry built by `macro_rules` blocks and procedural
    registrations in turn, and a node of its kind: one that some pattern
    was made to match, now and then changed, or any tree."""
    macros = MacroTable()
    fresh, rules = [0], []
    for j in range(draw(st.integers(1, 5))):
        if draw(ONE_IN_5) == 0:
            macros.register(STEP_KIND, _procedural(j))
            continue
        block = [_draw_rule(draw, fresh, len(rules) + i) for i in range(draw(st.integers(1, 3)))]
        rules += block
        macros.add_rules(STEP_KIND, block)
    if rules and draw(ONE_IN_5):
        stx = _draw_input(draw, draw(st.sampled_from(rules))[0].body)
        if draw(FLIP):
            stx = _draw_mutation(draw, stx)
    else:
        stx = _draw_tree(draw)
    if not isinstance(stx, Node):
        stx = Node(STEP_KIND, (stx,))
    return macros[STEP_KIND], stx


def step_outcome(step, stx, alternatives):
    """What one macro step gives: its output and scope, None, or the error
    with its frames; and where the scope counter ends."""
    scopes = ScopeState(ScopeCounter(7))
    try:
        result = ("step", step(stx, alternatives, RunState(scopes=scopes)))
    except ExpansionError as err:
        result = ("error", err.message, err.frames)
    return result, scopes.counter._next


def run_lines(src: str):
    runner = Runner(RunConfig())
    runner.run_source(src)
    return runner.output.splitlines(), runner.state.macros


class TestShapeIndex:
    @settings(max_examples=150, deadline=None)
    @given(alternatives_and_input())
    def test_the_indexed_step_agrees_with_the_scan(self, case):
        alternatives, stx = case
        assert step_outcome(macro_step, stx, alternatives) == (
            step_outcome(scan_macro_step, stx, list(alternatives))
        )

    def test_tagged_holes_are_indexed_by_what_they_admit(self):
        # a numeral is a node, an identifier a leaf
        macros = MacroTable()
        rules = []
        children = (
            antiquot(Name.of("n"), ("num",)),
            antiquot(Name.of("i"), ("ident",)),
            Node(Name.of("k2"), ()),
        )
        for i, child in enumerate(children):
            pattern = Node(STEP_KIND, (Atom("k"), child))
            rules.append(
                (
                    QuotationPattern(pattern, STEP_KIND, frozenset(collect_holes(pattern))),
                    QuotationTemplate(Atom(f"r{i}"), frozenset()),
                )
            )
        macros.add_rules(STEP_KIND, rules)
        assert macros[STEP_KIND].by_shape[0] == 1
        for child, applied in (
            (num(3), "r0"),
            (Ident("x", Name.of("x"), (), None), "r1"),
            (Node(Name.of("k2"), ()), "r2"),
            (Atom("k"), None),
        ):
            stx = Node(STEP_KIND, (Atom("k"), child))
            outcome = step_outcome(macro_step, stx, macros[STEP_KIND])
            assert outcome == step_outcome(scan_macro_step, stx, list(macros[STEP_KIND]))
            step = outcome[0][1]
            assert (step and step[0].text) == applied

    def test_a_newer_pair_rule_takes_pairs_only(self):
        out, macros = run_lines(
            "macro_rules | `(($a, $b)) => `($a + $b)\n"
            "def x := (1, 2)\ndef y := (1, 2, 3)\ndef z := (7)\ndef u := ()\n"
        )
        assert out[1:] == [
            "def x := 1 + 2",
            "def y := Prod.mk 1 (2 + 3)",
            "def z := 7",
            "def u := Unit.unit",
        ]
        alternatives = macros[K_TUPLE]
        at, buckets = alternatives.by_shape
        pair = alternatives[0]
        # the child that tells the patterns apart is the element list; a
        # bucket is found by its number of children plus one
        assert at == 1
        assert buckets[0] == ()
        assert [b.index(pair) if pair in b else None for b in buckets] == [
            None, None, None, None, 0, None
        ]
        assert len(buckets[1]) == len(buckets[2]) == len(buckets[-1]) == 1

    def test_a_bare_splice_takes_the_empty_tuple_and_every_tuple(self):
        out, macros = run_lines(
            "macro_rules | `(($as,*)) => `(0)\n"
            "def a := ()\ndef b := (1)\ndef c := (1, 2)\ndef d := (1, 2, 3)\n"
        )
        assert out[1:] == ["def a := 0", "def b := 0", "def c := 0", "def d := 0"]
        alternatives = macros[K_TUPLE]
        _, buckets = alternatives.by_shape
        assert all(b[0] is alternatives[0] for b in buckets[1:])

    def test_rules_told_apart_by_atoms_only_are_not_indexed(self):
        out, macros = run_lines(
            'syntax "sel" term : term\n'
            "macro_rules\n  | `(sel 1) => `(10)\n  | `(sel 2) => `(20)\n"
            "def a := sel 1\ndef b := sel 2\ndef c := sel 3\n"
        )
        assert out[2:] == [
            "def a := 10",
            "def b := 20",
            "error: no macro alternative matched 'sel 3' @7:10",
        ]
        assert macros[Name.of("sel")].by_shape is None

    def test_a_copy_shares_the_index_and_a_new_rule_replaces_its_own(self, table):
        macros = Runner(RunConfig()).state.macros
        copy = macros.copy()
        assert copy[K_TUPLE].by_shape is macros[K_TUPLE].by_shape
        rule = (
            process_pattern(quot("`(($a, $b))", table)),
            process_quotation(quot("`($a)", table), gctx_of()),
        )
        copy.add_rules(K_TUPLE, [rule])
        assert copy[K_TUPLE].by_shape != macros[K_TUPLE].by_shape
        assert all(rule not in b for b in macros[K_TUPLE].by_shape[1])
