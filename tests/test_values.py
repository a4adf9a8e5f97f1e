"""The syntax value types against the frozen dataclasses they replace.

`Name`, `SourceInfo`, `Node`, `Atom`, `Ident`, `Missing`, `Token` and
`ParseRule` are hand-written slotted classes (a `tuple` subclass for
`Name`).  The module-level classes below are the frozen-dataclass
definitions they replaced, kept as the reference; the hygex classes are
always written with their module prefix (`syntax.Node`, `parser.Token`).
Every generated value is built twice from one plain-data spec, once per
implementation, and the two must behave alike: equality and hashing,
`str` and `repr`, the name helpers, refused assignment, class patterns,
copies and pickles, and the order of `Name`-keyed dicts.
"""

from __future__ import annotations

import copy
import pickle
from dataclasses import FrozenInstanceError, dataclass, fields
from types import SimpleNamespace
from typing import Optional, Tuple, Union

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hygex import parser, syntax
from hygex.driver import Runner
from hygex.parser import CatRef, Lit

# ---------------------------------------------------------------------------
# The reference: the frozen dataclasses as they were


@dataclass(frozen=True)
class Name:
    parts: Tuple[Union[str, int], ...] = ()

    @staticmethod
    def of(dotted: str) -> "Name":
        if not dotted:
            return Name(())
        return Name(tuple(dotted.split(".")))

    @property
    def is_anonymous(self) -> bool:
        return not self.parts

    def child(self, part: Union[str, int]) -> "Name":
        return Name(self.parts + (part,))

    def __str__(self) -> str:
        if not self.parts:
            return "[anonymous]"
        out = ".".join(str(p) for p in self.parts)
        if isinstance(self.parts[0], int):
            out = "." + out
        return out

    def __repr__(self) -> str:
        return f"Name({str(self)!r})"


def add_macro_scope(n: Name, msc: int) -> Name:
    return Name(n.parts + (msc,))


def macro_scopes(n: Name) -> Tuple[int, ...]:
    scopes = []
    for p in reversed(n.parts):
        if isinstance(p, int):
            scopes.append(p)
        else:
            break
    return tuple(reversed(scopes))


def base_name(n: Name) -> Name:
    k = len(macro_scopes(n))
    return Name(n.parts[: len(n.parts) - k]) if k else n


@dataclass(frozen=True)
class SourceInfo:
    line: int
    col: int
    offset: int

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


@dataclass(frozen=True)
class Node:
    kind: Name
    children: tuple

    def __repr__(self) -> str:
        return f"Node({self.kind}, {list(self.children)})"


@dataclass(frozen=True)
class Atom:
    text: str
    info: Optional[SourceInfo] = None

    def __repr__(self) -> str:
        return f"Atom({self.text!r})"


@dataclass(frozen=True)
class Ident:
    raw: str
    name: Name
    preresolved: Tuple[Name, ...] = ()
    info: Optional[SourceInfo] = None

    def __repr__(self) -> str:
        out = str(self.name)
        if self.preresolved:
            out += "{" + ", ".join(str(t) for t in self.preresolved) + "}"
        return f"Ident({out})"


@dataclass(frozen=True)
class Missing:
    def __repr__(self) -> str:
        return "Missing()"


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    info: SourceInfo
    end: int


@dataclass(frozen=True)
class ParseRule:
    kind: Name
    items: tuple
    prec: int = 0
    right_assoc: bool = False

    @property
    def leading(self) -> bool:
        return isinstance(self.items[0], Lit)


OLD = SimpleNamespace(
    Name=Name, SourceInfo=SourceInfo, Node=Node, Atom=Atom, Ident=Ident,
    Missing=Missing, Token=Token, ParseRule=ParseRule,
)
NEW = SimpleNamespace(
    Name=syntax.Name, SourceInfo=syntax.SourceInfo, Node=syntax.Node,
    Atom=syntax.Atom, Ident=syntax.Ident, Missing=syntax.Missing,
    Token=parser.Token, ParseRule=parser.ParseRule,
)
CLASSES = list(vars(OLD))

# ---------------------------------------------------------------------------
# Specs: plain data that builds the same value in either implementation

_part = st.one_of(st.sampled_from(["a", "b", "x.y", ""]), st.integers(0, 3))
_parts = st.lists(_part, max_size=4).map(tuple)
_info = st.none() | st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(0, 3))
_text = st.sampled_from(["x", "+", "`(", "'q'", ""])


_syntax = st.recursive(
    st.one_of(
        st.tuples(st.just("atom"), _text, _info),
        st.tuples(
            st.just("ident"), _text, _parts, st.lists(_parts, max_size=2).map(tuple), _info
        ),
        st.just(("missing",)),
    ),
    lambda kids: st.tuples(
        st.just("node"), _parts, st.lists(kids, max_size=3).map(tuple)
    ),
    max_leaves=6,
)
_item = st.one_of(
    st.tuples(st.just("lit"), _text),
    st.tuples(st.just("cat"), _parts, st.integers(0, 2)),
)
SPECS = st.one_of(
    st.tuples(st.just("name"), _parts),
    st.tuples(st.just("info"), st.integers(1, 3), st.integers(1, 3), st.integers(0, 3)),
    _syntax,
    st.tuples(
        st.just("token"), st.sampled_from(["ident", "keyword"]), _text,
        st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(0, 3)), st.integers(0, 3),
    ),
    st.tuples(
        st.just("rule"), _parts, st.lists(_item, min_size=1, max_size=3).map(tuple),
        st.integers(0, 2), st.booleans(),
    ),
)


def build(spec, ns):
    tag = spec[0]
    if tag == "name":
        return ns.Name(spec[1])
    if tag == "info":
        return ns.SourceInfo(*spec[1:])
    if tag == "atom":
        _, text, info = spec
        return ns.Atom(text, _opt_info(info, ns))
    if tag == "ident":
        _, raw, parts, pre, info = spec
        return ns.Ident(raw, ns.Name(parts), tuple(ns.Name(p) for p in pre), _opt_info(info, ns))
    if tag == "missing":
        return ns.Missing()
    if tag == "node":
        _, parts, children = spec
        return ns.Node(ns.Name(parts), tuple(build(c, ns) for c in children))
    if tag == "token":
        _, kind, text, info, end = spec
        return ns.Token(kind, text, ns.SourceInfo(*info), end)
    if tag == "rule":
        _, parts, items, prec, right = spec
        built = tuple(
            Lit(i[1]) if i[0] == "lit" else CatRef(ns.Name(i[1]), i[2]) for i in items
        )
        return ns.ParseRule(ns.Name(parts), built, prec, right)
    raise AssertionError(spec)


def _opt_info(info, ns):
    return None if info is None else ns.SourceInfo(*info)


def both(spec):
    return build(spec, NEW), build(spec, OLD)


def fields_of(old) -> Tuple[str, ...]:
    return tuple(f.name for f in fields(old))


# ---------------------------------------------------------------------------
# Names


class TestName:
    @settings(max_examples=20)
    @given(_parts, _parts, _part, st.lists(st.sampled_from(["a", "1", ""]), max_size=3).map(".".join))
    def test_tuple_semantics_and_helpers(self, p, q, part, dotted):
        a, ra = syntax.Name(p), Name(p)
        b, rb = syntax.Name(q), Name(q)
        assert a.parts == p and tuple(a) == p and hash(a) == hash(p)
        assert (a == b) == (p == q) == (ra == rb)
        assert (a != b) == (p != q) == (ra != rb)
        assert str(a) == str(ra) and repr(a) == repr(ra)
        assert a.is_anonymous == ra.is_anonymous
        assert type(a.child(part)) is syntax.Name
        assert a.child(part).parts == ra.child(part).parts
        assert syntax.add_macro_scope(a, 7).parts == add_macro_scope(ra, 7).parts
        assert syntax.macro_scopes(a) == macro_scopes(ra)
        assert type(syntax.base_name(a)) is syntax.Name
        assert syntax.base_name(a).parts == base_name(ra).parts
        assert syntax.Name.of(dotted).parts == Name.of(dotted).parts

    @settings(max_examples=10)
    @given(st.lists(_parts, max_size=8))
    def test_name_keyed_dicts_keep_insertion_order(self, keys):
        new, old = {}, {}
        for i, p in enumerate(keys):
            new.setdefault(syntax.Name(p), []).append(i)
            old.setdefault(Name(p), []).append(i)
        assert [k.parts for k in new] == [k.parts for k in old]
        assert list(new.values()) == list(old.values())

    def test_a_name_matches_a_positional_pattern_as_its_parts(self):
        match syntax.Name(("a", "b")):
            case syntax.Name(parts):
                assert type(parts) is syntax.Name and parts == ("a", "b")


# ---------------------------------------------------------------------------
# Class patterns


def destructure(v, ns):
    """Each value's fields, read through a positional class pattern and a
    keyword one; the two must agree."""
    match v:
        case ns.Name(parts):
            positional = (parts,)
        case ns.SourceInfo(line, col, offset):
            positional = (line, col, offset)
        case ns.Node(kind, children):
            positional = (kind, children)
        case ns.Atom(text, info):
            positional = (text, info)
        case ns.Ident(raw, name, preresolved, info):
            positional = (raw, name, preresolved, info)
        case ns.Missing():
            positional = ()
        case ns.Token(kind, text, info, end):
            positional = (kind, text, info, end)
        case ns.ParseRule(kind, items, prec, right_assoc):
            positional = (kind, items, prec, right_assoc)
    match v:
        case ns.Name(parts=parts):
            keyword = (parts,)
        case ns.SourceInfo(line=line, col=col, offset=offset):
            keyword = (line, col, offset)
        case ns.Node(kind=kind, children=children):
            keyword = (kind, children)
        case ns.Atom(text=text, info=info):
            keyword = (text, info)
        case ns.Ident(raw=raw, name=name, preresolved=preresolved, info=info):
            keyword = (raw, name, preresolved, info)
        case ns.Missing():
            keyword = ()
        case ns.Token(kind=kind, text=text, info=info, end=end):
            keyword = (kind, text, info, end)
        case ns.ParseRule(kind=kind, items=items, prec=prec, right_assoc=right_assoc):
            keyword = (kind, items, prec, right_assoc)
    assert all(x is y for x, y in zip(positional, keyword))
    assert len(positional) == len(keyword)
    return positional


# ---------------------------------------------------------------------------
# Every class


class TestEveryClass:
    @settings(max_examples=20)
    @given(SPECS, SPECS, st.booleans())
    def test_equality_and_hash_follow_the_reference(self, s, t, same):
        if same:
            t = s
        a, ra = both(s)
        b, rb = both(t)
        assert (a == b) == (ra == rb)
        assert (a != b) == (ra != rb)
        if a == b:
            assert hash(a) == hash(b)

    def test_values_of_different_classes_are_never_equal(self):
        examples = [
            ("name", ("a",)),
            ("info", 1, 1, 0),
            ("node", ("a",), ()),
            ("atom", "a", None),
            ("ident", "a", ("a",), (), None),
            ("missing",),
            ("token", "ident", "a", (1, 1, 0), 1),
            ("rule", ("a",), (("lit", "a"),), 0, False),
        ]
        values = [build(s, NEW) for s in examples]
        assert len({type(v) for v in values}) == len(CLASSES)
        # the constructors check no types, so classes of one arity can be
        # given the very same field values
        same = ("x", syntax.Name(("x",)), (), None)
        values += [NEW.Node(*same[:2]), NEW.Atom(*same[:2])]
        values += [NEW.Ident(*same), NEW.Token(*same), NEW.ParseRule(*same)]
        for x in values:
            for y in values:
                if x is not y:
                    assert x != y and not (x == y)

    def test_leading_is_worked_out_at_construction(self):
        rules = [
            rule
            for table in (parser.ParserTable(), Runner().state.table)
            for category in table.categories.values()
            for rule in category.rules
        ]
        assert {rule.leading for rule in rules} == {True, False}
        for rule in rules:
            assert rule.leading is isinstance(rule.items[0], Lit)

    @settings(max_examples=30)
    @given(SPECS)
    def test_one_value_behaves_like_the_reference(self, s):
        a, ra = both(s)
        # repr, str and the derived `leading`
        assert repr(a) == repr(ra)
        assert str(a) == str(ra)
        if isinstance(a, parser.ParseRule):
            assert a.leading == ra.leading
        # positional and keyword class patterns, in the reference's order
        got = destructure(a, NEW)
        assert got == tuple(getattr(a, f) for f in fields_of(ra))
        assert len(destructure(ra, OLD)) == len(got)
        assert type(a).__match_args__ == ra.__match_args__
        # no field can be assigned or deleted
        names = fields_of(ra) + ("extra",)
        if isinstance(a, parser.ParseRule):
            names += ("leading",)
        for name in names:
            with pytest.raises(FrozenInstanceError):
                setattr(a, name, None)
            with pytest.raises(FrozenInstanceError):
                delattr(a, name)
        assert a == build(s, NEW)
        # copies and pickles give an equal value of the same class
        copies = [copy.copy(a), copy.deepcopy(a)]
        copies += [
            pickle.loads(pickle.dumps(a, protocol))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
        ]
        for c in copies:
            assert type(c) is type(a)
            assert c == a and hash(c) == hash(a) and repr(c) == repr(a)
            if isinstance(a, parser.ParseRule):
                assert c.leading == a.leading


# ---------------------------------------------------------------------------
# Reprs reach user output (`cannot expand {stx!r}`): pinned byte for byte


class TestReprsArePinned:
    INFO = (2, 5, 17)

    @pytest.mark.parametrize(
        "spec, text",
        [
            (("name", ()), "Name('[anonymous]')"),
            (("name", ("a", "b", 3)), "Name('a.b.3')"),
            (("name", (2, "x")), "Name('.2.x')"),
            (("info", 2, 5, 17), "SourceInfo(line=2, col=5, offset=17)"),
            (("atom", "+", INFO), "Atom('+')"),
            (("ident", "x", ("x", 1), (), None), "Ident(x.1)"),
            (("ident", "f", ("f", 4), (("f",), ("ns", "f")), INFO), "Ident(f.4{f, ns.f})"),
            (("missing",), "Missing()"),
            (
                ("node", ("app",), (("atom", "f", None), ("missing",))),
                "Node(app, [Atom('f'), Missing()])",
            ),
            (
                ("token", "ident", "x", INFO, 18),
                "Token(kind='ident', text='x', info=SourceInfo(line=2, col=5, offset=17), end=18)",
            ),
            (
                ("rule", ("pair",), (("lit", "("), ("cat", ("term",), 0)), 10, True),
                "ParseRule(kind=Name('pair'), items=(Lit(text='('), "
                "CatRef(cat=Name('term'), prec=0)), prec=10, right_assoc=True)",
            ),
        ],
    )
    def test_repr(self, spec, text):
        a, ra = both(spec)
        assert repr(a) == text == repr(ra)
