"""The suffix index behind `GlobalContext.match_surface`, checked against
the scan over every global that it replaces, and the resolution of a scoped
reference that skips `match_surface` while no global carries scopes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hygex.context import Decl, GlobalContext
from hygex.driver import RunConfig, Runner
from hygex.errors import UnboundIdentifier
from hygex.expander import resolve_identifier
from hygex.syntax import KIND_CHOICE, Ident, Name, Node, base_name, macro_scopes


def scan_match_surface(gctx: GlobalContext, name: Name):
    """Every global in declaration order: strict equality, or equal macro
    scopes and a base name that ends in the identifier's base name."""
    scopes = macro_scopes(name)
    nb = base_name(name).parts
    out = []
    for g in gctx.decls:
        if g == name:
            out.append(g)
            continue
        if nb and macro_scopes(g) == scopes:
            gb = base_name(g).parts
            if len(gb) > len(nb) and gb[len(gb) - len(nb):] == nb:
                out.append(g)
    return out


# A small alphabet, so that suffixes, keys and re-declarations collide often.
_components = st.sampled_from(["x", "y", "ns", "Prod"])
_scopes = st.lists(st.integers(1, 3), max_size=2).map(tuple)
_dotted = st.builds(
    lambda base, scopes: Name(tuple(base) + scopes),
    st.lists(_components, min_size=1, max_size=3),
    _scopes,
)
# odd shapes too: anonymous, scopes only, a number inside the base
_any_name = st.lists(st.sampled_from(["x", "ns", 1, 2]), max_size=4).map(
    lambda parts: Name(tuple(parts))
)
_names = st.one_of(_dotted, _dotted, _any_name)
_ops = st.lists(st.tuples(st.sampled_from(["add", "query"]), _names), max_size=40)


@settings(max_examples=300, deadline=None)
@given(ops=_ops, queries=st.lists(_names, max_size=10))
def test_index_agrees_with_the_scan(ops, queries):
    gctx = GlobalContext()
    added = []
    for op, name in ops:
        if op == "add":
            gctx.add(name, Decl("def"))
            added.append(name)
        else:
            assert gctx.match_surface(name) == scan_match_surface(gctx, name)
    for name in added + queries:
        assert gctx.match_surface(name) == scan_match_surface(gctx, name)


def _ctx(*dotted):
    gctx = GlobalContext()
    for d in dotted:
        gctx.add(Name.of(d), Decl("def"))
    return gctx


def test_exact_match_keeps_its_place_among_suffix_matches():
    x = Name.of("x")
    assert _ctx("x", "ns.x", "m.ns.x").match_surface(x) == [
        x, Name.of("ns.x"), Name.of("m.ns.x")
    ]
    assert _ctx("ns.x", "x", "m.x").match_surface(x) == [
        Name.of("ns.x"), x, Name.of("m.x")
    ]
    assert _ctx("ns.x", "m.ns.x", "x").match_surface(Name.of("ns.x")) == [
        Name.of("ns.x"), Name.of("m.ns.x")
    ]


def test_redeclaring_a_symbol_does_not_duplicate_it():
    gctx = _ctx("ns.x", "x", "ns.x", "x")
    assert gctx.match_surface(Name.of("x")) == [Name.of("ns.x"), Name.of("x")]
    assert len(gctx.decls) == 2


def test_macro_scopes_must_be_equal():
    gctx = GlobalContext()
    for parts in (("ns", "x", 4), ("x", 4), ("ns", "x"), ("x", 4, 5)):
        gctx.add(Name(parts), Decl("def"))
    assert gctx.match_surface(Name(("x", 4))) == [Name(("ns", "x", 4)), Name(("x", 4))]
    assert gctx.match_surface(Name(("x", 4, 5))) == [Name(("x", 4, 5))]
    assert gctx.match_surface(Name.of("x")) == [Name.of("ns.x")]


def test_choice_lists_candidates_in_declaration_order():
    gctx = _ctx("a.x", "x", "b.x")
    out = resolve_identifier(Ident("x", Name.of("x"), (), None), frozenset(), gctx)
    assert isinstance(out, Node) and out.kind == Name.of(KIND_CHOICE)
    assert [c.name for c in out.children] == [Name.of("a.x"), Name.of("x"), Name.of("b.x")]


# ---------------------------------------------------------------------------
# A scoped reference resolved by its preresolutions while no global carries
# scopes, checked against the path that always asks `match_surface`


def scan_resolve_identifier(stx, lctx, gctx):
    """`expander.resolve_identifier` as it was before the shortcut."""
    name = stx.name
    raw = stx.raw
    if gctx.refs.get((raw, name)) is stx:
        return stx
    if name in lctx:
        return gctx.ref(raw, name)
    candidates = gctx.match_surface(name)
    if stx.preresolved:
        candidates = list(dict.fromkeys((*stx.preresolved, *candidates)))
    if len(candidates) == 1:
        return gctx.ref(raw, candidates[0])
    if candidates:
        ref = gctx.ref
        return Node(Name.of(KIND_CHOICE), tuple([ref(raw, c) for c in candidates]))
    raise UnboundIdentifier(raw, stx.info)


def resolution(stx, lctx, gctx, resolve):
    try:
        return resolve(stx, lctx, gctx)
    except UnboundIdentifier as err:
        return ("unbound", err.message, err.info)


_preresolved = st.one_of(
    st.just(()),
    st.tuples(_names),
    st.tuples(_names, _names),
    _names.map(lambda n: (n, n)),
)


@settings(max_examples=120, deadline=None)
@given(
    globals_=st.lists(_names, max_size=8),
    scoped_global=st.booleans(),
    name=_names,
    raw=st.sampled_from(["x", "ns.x"]),
    pre=_preresolved,
    lctx=st.frozensets(_names, max_size=2),
    local=st.booleans(),
)
def test_the_shortcut_agrees_with_match_surface(
    globals_, scoped_global, name, raw, pre, lctx, local
):
    gctx = GlobalContext()
    for g in globals_:
        if scoped_global or not macro_scopes(g):
            gctx.add(g, Decl("def"))
    if scoped_global:
        gctx.add(Name(("y", 3)), Decl("def"))
    assert gctx.scoped == scoped_global
    stx = Ident(raw, name, pre, None)
    if local:
        lctx |= {name}
    got = resolution(stx, lctx, gctx, resolve_identifier)
    want = resolution(stx, lctx, gctx, scan_resolve_identifier)
    assert type(got) is type(want) and got == want
    if type(got) is Ident:
        assert got is want  # the context's one shared reference


def test_a_scoped_reference_is_resolved_without_match_surface():
    gctx = _ctx("Prod.mk", "x.Prod.mk")
    asked = []
    gctx.match_surface = lambda name: asked.append(name) or []

    def scoped(scope, pre):
        return Ident("Prod.mk", Name(("Prod", "mk", scope)), pre, None)

    out = resolve_identifier(scoped(4, (Name.of("Prod.mk"),)), frozenset(), gctx)
    assert out is gctx.ref("Prod.mk", Name.of("Prod.mk"))
    two = (Name.of("Prod.mk"), Name.of("x.Prod.mk"), Name.of("Prod.mk"))
    out = resolve_identifier(scoped(5, two), frozenset(), gctx)
    assert [c.name for c in out.children] == [Name.of("Prod.mk"), Name.of("x.Prod.mk")]
    assert asked == []
    with pytest.raises(UnboundIdentifier):
        resolve_identifier(Ident("mk", Name.of("mk"), (), None), frozenset(), gctx)
    assert asked == [Name.of("mk")]


def test_a_copy_keeps_the_flag():
    gctx = _ctx("x")
    assert not gctx.scoped and not gctx.copy().scoped
    gctx.add(Name(("x", 2)), Decl("def"))
    assert gctx.scoped and gctx.copy().scoped
    copy = _ctx("x").copy()
    copy.add(Name(("y", 1)), Decl("def"))
    assert copy.scoped


def test_a_scoped_global_declared_mid_file_turns_the_flag_on():
    runner = Runner(RunConfig(stage="elaborate"))
    runner.run_source(
        'macro "mk" : command => `(def hidden := 1 def seen := hidden)\n'
        "def a := dup 1\n"
    )
    assert not runner.state.gctx.scoped
    runner.run_source("mk\ndef c := dup 1\ndef d := seen\n")
    assert runner.state.gctx.scoped
    # `hidden.2` is found through `match_surface` once the flag is on, and
    # `dup`'s `Prod.mk` still resolves after it; `seen.2` stays hidden
    assert runner.output.splitlines()[2:] == [
        "def a : prod(nat, nat) := pair(natLit(1), natLit(1))",
        "def hidden.2 : nat := natLit(1)",
        "def seen.2 : nat := const(hidden.2)",
        "def c : prod(nat, nat) := pair(natLit(1), natLit(1))",
        "error: unknown identifier 'seen' @3:10",
    ]
