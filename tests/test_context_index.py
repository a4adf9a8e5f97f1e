"""The suffix index behind `GlobalContext.match_surface`, checked against
the scan over every global that it replaces."""

from hypothesis import given, settings
from hypothesis import strategies as st

from hygex.context import Decl, GlobalContext
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
