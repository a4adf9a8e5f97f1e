"""Names, macro scopes, and the concrete syntax tree.

Identifiers carry their macro scopes inline as trailing numeric name
components; top-level resolutions captured inside quotations are kept in a
separate ``preresolved`` list.  Everything here is immutable and safe to
share.

Every hygiene operation hashes or compares names, and every expansion step
builds nodes, so these values are cheap by construction rather than
dataclasses.  A `Name` is a `tuple` subclass: it is the tuple of its parts,
so hashing and equality run in C and it equals (and hashes like) that
tuple.

`Frozen` is the base of the slotted immutable records: the tree values
here (`Node`, `Atom`, `Ident`, `Missing`), the parser's `ParseRule`, `Lit`
and `CatRef`, the global `Decl`, the quotation captures and compiled
quotations, the elaborator's core types and terms, and the tactic
engine's propositions, goals and states.  Each subclass writes its
``__init__`` out; any later assignment or deletion raises
`dataclasses.FrozenInstanceError`, as a frozen dataclass would.  That
immutability is what lets the prelude prototype and the prebuilt ground
subtrees of compiled quotations be shared by every run.

Every constructor uses one idiom.  Right after the class, `slot_setters`
fetches the ``__set__`` of each slot's member descriptor once, into
module globals (``_node_kind, _node_children = slot_setters(Node)``), and
``__init__`` calls them: ``_node_kind(self, kind)``.  That writes the slot
directly, past the refusing ``__setattr__``.  The idiom it replaced,
``object.__setattr__(self, "kind", kind)``, looked the name up on the
class on every call.  Timed in one process (CPython 3.11, a shared 2-core
VM, best of 15 rounds of 200,000), a `Node` went from 0.59 to 0.42 µs and
an `Ident` from 0.98 to 0.71 µs; every expansion step builds nodes.

Two records are tuple-based instead, as `Name` is: `SourceInfo` and the
parser's `Token`, the two that the lexer builds for every token.  Each is
a `namedtuple` subclass with `TupleRecord` first among its bases, so the
lexer builds it in C with ``tuple.__new__(Token, (kind, text, info, end))``
and its fields are read through C getters.  Timed as above, a `SourceInfo`
built so costs 0.21 µs and a `Token` 0.20 µs, against 0.46 and 0.62 µs
through the `Frozen` slot setters; the `namedtuple` constructor that other
sites call costs 0.43 and 0.36 µs.  `TupleRecord` keeps their equality
within one class, their hash and pickles those of the tuple of fields, and
refuses assignment as `Frozen` does.

Printing is one walk that tests exact types; no tree class has a subclass.
`render` appends every token of a tree to one list and joins it once: users
see hygiene only through printed syntax, two trees per traced macro step,
and a token list built and concatenated per node made `render` about a
sixth of a corpus pass.  The elaborator's `core_str` and the tactic
engine's `prop_str` recurse directly, not through `format` and a `__str__`
per node; for their few short fields an f-string per node beat one list.

`FrozenInstanceError` is imported only when it is raised.  Importing
`dataclasses` also loads `inspect`, `ast` and `dis`: every process would
pay for them at start-up, for a class that only an error path needs.
"""

from __future__ import annotations

from collections import namedtuple
from operator import attrgetter
from typing import Iterable, Optional, Tuple, Union


# ---------------------------------------------------------------------------
# Immutable slotted values


def slot_setters(cls) -> tuple:
    """The ``__set__`` of each slot that `cls` itself declares, in
    ``__slots__`` order; see the module docstring."""
    return tuple(cls.__dict__[name].__set__ for name in cls.__slots__)


# The default of a constructor argument whose value is built per instance:
# only an omitted argument gets a new value, and an explicit None is kept.
OMITTED = object()


class Frozen:
    """Base of the immutable ``__slots__`` values.

    A subclass lists its slots, optionally the `_fields` that make up its
    value (all slots by default), and an ``__init__`` that sets each slot
    once through its setter from `slot_setters`.  Equality, hashing,
    ``match`` positions, copying and pickling then follow the fields, as
    for a frozen dataclass, and so does the default ``repr``.
    """

    __slots__ = ()
    _fields: Tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        fields = cls.__dict__.get("_fields", cls.__slots__)
        cls._fields = cls.__match_args__ = fields
        if len(fields) > 1:
            get = attrgetter(*fields)  # a tuple of the values, built in C
        elif fields:
            one = attrgetter(fields[0])

            def get(self):
                return (one(self),)
        else:
            def get(self):
                return ()
        cls._values = staticmethod(get)

    def __setattr__(self, name: str, value) -> None:
        from dataclasses import FrozenInstanceError  # see the module docstring

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError  # see the module docstring

        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __reduce__(self):
        return (self.__class__, self._values(self))

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({args})"


class TupleRecord:
    """Mixin of the tuple-based records, listed first among the bases of a
    `namedtuple` subclass with ``__slots__ = ()``; see the module
    docstring.  The `namedtuple` gives the C field getters, ``repr`` and
    ``match`` positions.  This keeps equality within one class, as
    `Frozen`'s is (a plain tuple would equal any tuple of the same items),
    and refuses assignment and deletion as `Frozen` does."""

    __slots__ = ()

    def __eq__(self, other):
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not (other.__class__ is self.__class__ and tuple.__eq__(self, other))

    __hash__ = tuple.__hash__

    def __reduce__(self):
        return (self.__class__, tuple(self))

    __setattr__ = Frozen.__setattr__
    __delattr__ = Frozen.__delattr__


# ---------------------------------------------------------------------------
# Hierarchical names


class Name(tuple):
    """A hierarchical name: text components plus numeric scope components.

    Numeric components are reserved for the kernel (macro scopes and other
    internal names); the surface parser never produces them.  The name is
    the tuple of its components, so ``n[0]``, ``len(n)`` and slicing work on
    it directly and `parts` returns the name itself.
    """

    __slots__ = ()
    __match_args__ = ("parts",)

    @property
    def parts(self) -> Tuple[Union[str, int], ...]:
        return self

    @staticmethod
    def of(dotted: str) -> "Name":
        """Build a name from a dotted surface spelling, e.g. ``a.b``."""
        if not dotted:
            return Name(())
        return Name(dotted.split("."))

    @property
    def is_anonymous(self) -> bool:
        return not self

    def child(self, part: Union[str, int]) -> "Name":
        return Name(self + (part,))

    def __str__(self) -> str:
        if not self:
            return "[anonymous]"
        # a leading numeric component renders with an explicit dot: ".5"
        if type(self[0]) is int:
            return "." + ".".join(map(str, self))
        return ".".join(map(str, self))

    def __repr__(self) -> str:
        return f"Name({str(self)!r})"

    __setattr__ = Frozen.__setattr__
    __delattr__ = Frozen.__delattr__


ANONYMOUS = Name(())

# A symbol (the unit of binding equality) is simply a full name, macro
# scopes included.  Two symbols are equal iff all their components are.
Symbol = Name


def add_macro_scope(n: Name, msc: int) -> Name:
    """Append one macro scope; repeated application builds the scope stack."""
    return Name(n + (msc,))


def macro_scopes(n: Name) -> Tuple[int, ...]:
    """The maximal trailing run of numeric components, in application order."""
    k = len(n)
    while k and isinstance(n[k - 1], int):
        k -= 1
    return n[k:]


def base_name(n: Name) -> Name:
    """The name with its trailing macro scopes removed; a name without
    scopes is returned as it is."""
    k = len(n)
    while k and isinstance(n[k - 1], int):
        k -= 1
    return n if k == len(n) else Name(n[:k])


# ---------------------------------------------------------------------------
# Source locations


class SourceInfo(TupleRecord, namedtuple("SourceInfo", "line col offset")):
    __slots__ = ()

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


# ---------------------------------------------------------------------------
# Syntax trees


class Node(Frozen):
    __slots__ = ("kind", "children")
    kind: Name
    children: Tuple["Syntax", ...]

    def __init__(self, kind: Name, children: Tuple["Syntax", ...]) -> None:
        _node_kind(self, kind)
        _node_children(self, children)

    def __repr__(self) -> str:
        return f"Node({self.kind}, {list(self.children)})"


_node_kind, _node_children = slot_setters(Node)


class Atom(Frozen):
    __slots__ = ("text", "info")
    text: str
    info: Optional[SourceInfo]

    def __init__(self, text: str, info: Optional[SourceInfo] = None) -> None:
        _atom_text(self, text)
        _atom_info(self, info)

    def __repr__(self) -> str:
        return f"Atom({self.text!r})"


_atom_text, _atom_info = slot_setters(Atom)


class Ident(Frozen):
    """An identifier: surface spelling, full name, top-level scopes."""

    __slots__ = ("raw", "name", "preresolved", "info")
    raw: str
    name: Name
    preresolved: Tuple[Name, ...]
    info: Optional[SourceInfo]

    def __init__(
        self,
        raw: str,
        name: Name,
        preresolved: Tuple[Name, ...] = (),
        info: Optional[SourceInfo] = None,
    ) -> None:
        _ident_raw(self, raw)
        _ident_name(self, name)
        _ident_preresolved(self, preresolved)
        _ident_info(self, info)

    def __repr__(self) -> str:
        return f"Ident({format_scoped(self)})"


_ident_raw, _ident_name, _ident_preresolved, _ident_info = slot_setters(Ident)


class Missing(Frozen):
    __slots__ = ()

    def __repr__(self) -> str:
        return "Missing()"


Syntax = Union[Node, Atom, Ident, Missing]

MISSING = Missing()


def node(kind: str, *children: Syntax) -> Node:
    return Node(Name.of(kind), tuple(children))


def ident(name: Union[str, Name], preresolved: Iterable[Name] = ()) -> Ident:
    if isinstance(name, str):
        name = Name.of(name)
    raw = ".".join(str(p) for p in name if isinstance(p, str))
    return Ident(raw, name, tuple(preresolved))


# Node kinds used by the kernel itself.  User syntax rules get generated
# kinds; these fixed ones back the built-in grammar.
KIND_QUOT = "quot"          # quot / quot.<cat>; children: [body]
KIND_DQUOT = "dquot"        # checked quotation, same layout
KIND_ANTIQUOT = "antiquot"  # antiquot / antiquot.<cat>; children: [payload]
KIND_SPLICE = "splice"      # splice / splice.<sep>; children: [antiquot]
KIND_SPLICEGROUP = "splicegroup"  # splicegroup / splicegroup.<sep>; children: items
KIND_SEPSEQ = "sepseq"      # elements interleaved with separator atoms
KIND_SEQ = "seq"            # plain element sequence
KIND_CMDSEQ = "cmdseq"      # several top-level commands from one expansion
KIND_CHOICE = "choice"      # overloaded reference candidates


def is_quotation(stx: Syntax) -> bool:
    return isinstance(stx, Node) and stx.kind[:1] in ((KIND_QUOT,), (KIND_DQUOT,))


def is_antiquot(stx: Syntax) -> bool:
    return isinstance(stx, Node) and stx.kind[:1] == (KIND_ANTIQUOT,)


def is_splice(stx: Syntax) -> bool:
    return isinstance(stx, Node) and stx.kind[0] in (KIND_SPLICE, KIND_SPLICEGROUP)


def antiquot_payload(stx: Node) -> Syntax:
    return stx.children[0]


def splice_separator(stx: Node) -> str:
    parts = stx.kind
    return str(parts[1]) if len(parts) > 1 else ""


# ---------------------------------------------------------------------------
# Scope-aware operations on identifiers


class NotAnIdentifier(Exception):
    pass


def info_of(stx: Syntax) -> Optional[SourceInfo]:
    """The position of the first token of `stx` that has one, if any."""
    match stx:
        case Atom(info=info) | Ident(info=info):
            return info
        case Node(children=children):
            for c in children:
                info = info_of(c)
                if info is not None:
                    return info
    return None


def strip_top_level_scopes(stx: Syntax) -> Name:
    """The full (scoped) name of a binder, its top-level scopes discarded."""
    if not isinstance(stx, Ident):
        raise NotAnIdentifier(f"expected an identifier, got {stx!r}")
    return stx.name


def format_scoped(stx: Syntax) -> str:
    """Debug rendering ``n.msc1.….mscn{tsc1, …, tscn}`` of an identifier."""
    if not isinstance(stx, Ident):
        raise NotAnIdentifier(f"expected an identifier, got {stx!r}")
    out = str(stx.name)
    if stx.preresolved:
        out += "{" + ", ".join(map(str, stx.preresolved)) + "}"
    return out


# ---------------------------------------------------------------------------
# Rendering

_NO_SPACE_BEFORE = ")]⟩»,;"
_NO_SPACE_AFTER = frozenset("([⟨«")


def render(stx: Syntax) -> str:
    """Pretty-print a tree; parsed trees re-parse to the same structure.

    One walk, a frame per tree level, appends every token to one list; one
    pass then puts a space between two tokens unless the second starts with
    a closer or the first ends with an opener.  See the module docstring."""
    toks: list = []
    _emit(stx, toks)
    out: list = []
    glued = True  # no space before the first token
    for tok in toks:
        if not glued and tok[0] not in _NO_SPACE_BEFORE:
            out.append(" ")
        out.append(tok)
        glued = tok[-1:] in _NO_SPACE_AFTER
    return "".join(out)


def _emit(stx: Syntax, out: list) -> None:
    cls = type(stx)
    if cls is Node:
        form = _FORMS.get(stx.kind[0])
        if form is None:
            for c in stx.children:
                _emit(c, out)
        elif type(form) is tuple:
            # the heads each operand takes without parentheses; `None` marks
            # an operator.  Inline, so that a spine costs a frame per level.
            for c, fits in zip(stx.children, form, strict=True):
                if fits is None or type(c) is not Node or c.kind[0] in fits:
                    _emit(c, out)
                else:
                    out.append("(")
                    _emit(c, out)
                    out.append(")")
        else:
            form(stx, out)
    elif cls is Atom:
        out.append(stx.text)
    elif cls is Ident:
        out.append(format_scoped(stx) if stx.preresolved else str(stx.name))
    elif cls is Missing:
        out.append("<missing>")
    else:
        raise TypeError(f"not syntax: {stx!r}")


def _emit_quotation(stx: Node, out: list) -> None:
    out.append("`(" if stx.kind[0] == KIND_QUOT else "``(")
    if len(stx.kind) > 1:
        out.append(str(Name(stx.kind[1:])) + "|")
    for c in stx.children:
        _emit(c, out)
    out.append(")")


def _emit_antiquot(stx: Node, out: list) -> None:
    payload = stx.children[0]
    suffix = ":" + str(Name(stx.kind[1:])) if len(stx.kind) > 1 else ""
    if type(payload) is Ident:
        out.append("$" + format_scoped(payload) + suffix)
    else:
        out.append("$(")
        _emit(payload, out)
        out.append(")" + suffix)


def _emit_splice(stx: Node, out: list) -> None:
    # the payload is an antiquotation, so its last token is its own
    _emit(stx.children[0], out)
    out[-1] += splice_separator(stx) + "*"


def _emit_splicegroup(stx: Node, out: list) -> None:
    out.append("$[")
    for c in stx.children:
        _emit(c, out)
    out.append("]" + splice_separator(stx) + "*")


def _emit_argdecl(stx: Node, out: list) -> None:
    name, _colon, cat = stx.children
    out.append(f"{format_scoped(name)}:{format_scoped(cat)}")


def _emit_slotprec(stx: Node, out: list) -> None:
    slot, prec = stx.children
    out.append(f"{format_scoped(slot)}:{prec.text}")


def _emit_choice(stx: Node, out: list) -> None:
    out.append("choice(")
    for i, c in enumerate(stx.children):
        if i:
            out.append("|")
        _emit(c, out)
    out.append(")")


# Synthesized trees can place any form in argument position; parsed trees
# only ever put leaves there, so added parentheses never change a re-parse.
_ATOMIC = frozenset(
    ("num", "tuple", "anonCtor", KIND_QUOT, KIND_DQUOT, KIND_ANTIQUOT,
     KIND_SPLICE, KIND_SPLICEGROUP, KIND_CHOICE)
)
_APP = _ATOMIC | {"app"}
_INFIX = _APP | {"plus", "arrow"}

# How `_emit` prints a node of each head that is not a plain sequence:
# a writer, or the heads each operand fits without parentheses.
_FORMS = {
    "app": (_APP, _ATOMIC),
    "plus": (_INFIX, None, _APP),  # left-associative
    "arrow": (_APP, None, _INFIX),  # right-associative
    KIND_QUOT: _emit_quotation,
    KIND_DQUOT: _emit_quotation,
    KIND_ANTIQUOT: _emit_antiquot,
    KIND_SPLICE: _emit_splice,
    KIND_SPLICEGROUP: _emit_splicegroup,
    "argdecl": _emit_argdecl,
    "slotprec": _emit_slotprec,
    KIND_CHOICE: _emit_choice,
}
