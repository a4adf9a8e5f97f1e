"""Global context, scope allocation, the macro table and run settings.

Scope numbers are handed out by a single per-run counter.  A transformer
invocation gets a *lazy* current-scope cell: the counter only advances when
the scope is actually observed (a quotation is instantiated or the scope is
queried), so bookkeeping-only macros leave no trace in the numbering.

A transformer is handed the run's one `expander.RunState`, which holds
these tables, the scope state and the `RunConfig`; `macro_step` enters
each step's fresh scope on `ScopeState`'s stack directly.

The macro table indexes a kind's alternatives by the shape of one child of
the node (`Alternatives`), and the global context records whether any
global carries macro scopes (`GlobalContext.scoped`): the two facts that
let a macro step skip lookups that cannot succeed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple

from .syntax import Frozen, Ident, Name, Symbol, Syntax, base_name, macro_scopes, slot_setters

if TYPE_CHECKING:
    from .expander import RunState

# Scope value reserved for kernel-synthesized constant references; the
# run counter starts above it, so no user binder can ever carry it.
RESERVED_SCOPE = 0


class RunConfig:
    """The settings of a run; it compares and prints by value.  Each is read
    from `RunState.cfg` where it is used, so a config assigned there holds
    from the next step on; only `prelude` is read once, when the run is built."""

    __match_args__ = (
        "stage", "trace_expansion", "trace_tactics", "notation_precheck",
        "prelude", "max_expansion_depth", "max_repeat", "recover",
    )

    def __init__(
        self,
        stage: str = "expand",  # expand | elaborate
        trace_expansion: bool = False,
        trace_tactics: bool = False,
        notation_precheck: bool = True,
        prelude: bool = True,
        max_expansion_depth: int = 512,
        max_repeat: int = 1024,
        recover: bool = False,
    ) -> None:
        if stage not in ("expand", "elaborate"):
            raise ValueError(f"unknown stage '{stage}'")
        if max_expansion_depth <= 0 or max_repeat <= 0:
            raise ValueError("limits must be positive")
        self.stage = stage
        self.trace_expansion = trace_expansion
        self.trace_tactics = trace_tactics
        self.notation_precheck = notation_precheck
        self.prelude = prelude
        self.max_expansion_depth = max_expansion_depth
        self.max_repeat = max_repeat
        self.recover = recover

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return vars(self) == vars(other)
        return NotImplemented

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__match_args__)
        return f"RunConfig({args})"


class ScopeCounter:
    def __init__(self, start: int = 1, step: int = 1):
        self._next = start
        self._step = step

    def alloc(self) -> int:
        value = self._next
        self._next += self._step
        return value


class ScopeState:
    """Current macro scope plus the ability to enter a fresh one.

    This is the one capability quotations need from their host, and it is
    shared verbatim by the expander, the elaborator, and the tactic engine.
    The stack holds one entry per entered scope: its number once
    allocated, `None` until then.
    """

    def __init__(self, counter: Optional[ScopeCounter] = None):
        self.counter = counter or ScopeCounter()
        self._stack: List[Optional[int]] = [None]

    def current(self) -> int:
        value = self._stack[-1]
        if value is None:
            value = self._stack[-1] = self.counter.alloc()
        return value

    def peek(self) -> Optional[int]:
        """The current scope if it has been allocated, without allocating."""
        return self._stack[-1]

    def fresh(self) -> "ScopeState":
        """Enter a fresh scope; use as ``with scopes.fresh(): ...``, and
        leaving the block returns to the enclosing scope.  The state is its
        own context manager, so a step builds no generator."""
        self._stack.append(None)
        return self

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info) -> None:
        self._stack.pop()


class Decl(Frozen):
    """What a global symbol stands for.

    Frozen: copies of a context share their `Decl`s, so a run records what
    elaboration learns by adding a new `Decl` in place of the old one."""

    __slots__ = ("kind", "type_", "prop")
    kind: str  # "def" | "theorem" | "type" | "const"
    type_: Any  # CoreType of value constants, when elaborated
    prop: Any  # proposition proved, for theorems

    def __init__(self, kind: str, type_: Any = None, prop: Any = None) -> None:
        _decl_kind(self, kind)
        _decl_type_(self, type_)
        _decl_prop(self, prop)


_decl_kind, _decl_type_, _decl_prop = slot_setters(Decl)


class GlobalContext:
    """Symbols visible at top level, in declaration order.

    `match_surface` is answered from a suffix index instead of a scan of
    every global.  A symbol whose base name has two or more components is
    filed under (last base component, macro scopes), the only key under
    which it can match an identifier as a proper suffix.  A one-component
    symbol joins the bucket of its own key only once that bucket exists,
    so that an exact match keeps its place among the suffix matches; flat
    namespaces thus add nothing to the index.  Buckets keep declaration
    order, so candidates come back in it.

    `refs` holds the context's resolved references to globals only, one
    shared `Ident` per (spelling, symbol), handed out by `ref`.
    `resolve_identifier` returns one of these objects unchanged: identity
    (`is_ref`) marks a reference resolved to a global for good, so no later
    stage scans the globals or its locals for it.  A copy starts its own.

    `scoped` turns true when a global with macro scopes is added, and a
    copy keeps it.  While it is false, `match_surface` returns [] for every
    name with scopes, so `resolve_identifier` does not ask it.
    """

    def __init__(self) -> None:
        self.decls: Dict[Symbol, Decl] = {}
        # (last base component, macro scopes) -> [(base parts, symbol)]
        self._suffix_index: Dict[Tuple[Any, Tuple[int, ...]], List[Tuple[tuple, Symbol]]] = {}
        self.refs: Dict[Tuple[str, Symbol], Ident] = {}
        # whether some global carries macro scopes
        self.scoped = False

    def __contains__(self, symbol: Symbol) -> bool:
        return symbol in self.decls

    def __iter__(self):
        return iter(self.decls)

    def get(self, symbol: Symbol) -> Optional[Decl]:
        return self.decls.get(symbol)

    def copy(self) -> "GlobalContext":
        """An independent context with the same globals and an empty
        reference table; `Decl`s are shared."""
        new = GlobalContext()
        new.decls = dict(self.decls)
        new._suffix_index = {k: list(b) for k, b in self._suffix_index.items()}
        new.scoped = self.scoped
        return new

    def ref(self, raw: str, symbol: Symbol) -> Ident:
        """The context's one resolved reference to `symbol` spelt `raw`."""
        key = (raw, symbol)
        ident = self.refs.get(key)
        if ident is None:
            ident = self.refs[key] = Ident(raw, symbol, (), None)
        return ident

    def is_ref(self, ident: Ident) -> bool:
        """Whether the expander resolved `ident` to a global of this context."""
        return self.refs.get((ident.raw, ident.name)) is ident

    def add(self, symbol: Symbol, decl: Decl) -> None:
        if symbol not in self.decls:
            self._index(symbol)
        self.decls[symbol] = decl

    def _index(self, symbol: Symbol) -> None:
        scopes = macro_scopes(symbol)
        if scopes:
            self.scoped = True
        base = base_name(symbol)
        if not base:
            return
        key = (base[-1], scopes)
        bucket = self._suffix_index.get(key)
        if bucket is not None:
            bucket.append((base, symbol))
        elif len(base) >= 2:
            bucket = self._suffix_index[key] = []
            # a one-component symbol declared earlier under this key
            flat = Name((base[-1],) + scopes)
            if flat in self.decls:
                bucket.append(((base[-1],), flat))
            bucket.append((base, symbol))

    def match_surface(self, name: Name) -> List[Symbol]:
        """Global symbols an identifier could refer to.

        Besides strict symbol equality, a name matches any declaration it
        could spell under some namespace prefix: equal macro scopes and the
        declaration's base name ending in the identifier's base name.
        """
        # one scan splits the name: name[:n] is its base, name[n:] its scopes
        n = len(name)
        while n and isinstance(name[n - 1], int):
            n -= 1
        bucket = self._suffix_index.get((name[n - 1], name[n:])) if n else None
        if bucket is None:
            return [name] if name in self.decls else []
        nb = name[:n]
        return [g for gb, g in bucket if g == name or (len(gb) > n and gb[-n:] == nb)]


# A procedural transformer rewrites one syntax node.  It returns None when
# it does not apply (a normal outcome) and raises on a real diagnostic.  It
# reads the run's state from its argument and captures none, so one
# transformer object serves every run that shares it.
Transformer = Callable[[Syntax, "RunState"], Optional[Syntax]]
Alternative = Tuple[Any, Any]  # (pattern, template) or (None, transformer)


class Alternatives(list):
    """A kind's alternatives, newest declaration first, with the index of
    them by shape that `MacroTable` keeps (None when there is none).

    The index is `(at, buckets)`: `at` is the child position whose shape
    tells the patterns apart, and `buckets[size + 1]` holds, newest first,
    the alternatives that can match a node whose child there has that size
    (its number of children, -1 for a leaf); the last bucket serves every
    larger size.  A bucket leaves out only patterns whose shape at `at`
    excludes the size, so a procedural transformer is in every bucket.  The
    index is made of tuples: copies of the list share it."""

    __slots__ = ("by_shape",)
    by_shape: Optional[tuple]


def _shape_index(alternatives: Sequence[Alternative]) -> Optional[tuple]:
    """The index of a kind's alternatives by the shape of one child (see
    `Alternatives`), from their patterns' `shape`s; None for fewer than two
    patterns, or when no child position has two different shapes."""
    shapes = [p.shape for p, _ in alternatives if p is not None]
    if len(shapes) < 2:
        return None
    at, most = None, 1
    for i in range(max(map(len, shapes))):
        seen = len({s[i] if i < len(s) else None for s in shapes})
        if seen > most:
            at, most = i, seen
    if at is None:
        return None
    conds = [
        p.shape[at] if p is not None and at < len(p.shape) else None
        for p, _ in alternatives
    ]
    # every size past the largest bound meets the same conditions
    top = max(b for c in conds if c is not None for b in c if b is not None) + 1
    buckets = tuple(
        tuple(
            alt
            for alt, c in zip(alternatives, conds)
            if c is None or (c[0] <= size and (c[1] is None or size <= c[1]))
        )
        for size in range(-1, top + 1)
    )
    return at, buckets


class MacroTable(dict):
    """Per node kind, one flat list of alternatives, newest declaration
    first.

    A `macro_rules` block adds its (pattern, template) pairs ahead of the
    older alternatives, in written order; a procedural transformer is one
    entry.  `expander.macro_step` walks the list itself, so a step takes no
    frame per declaration.  A kind with no alternative has no entry.

    Each list is an `Alternatives` that carries its index by shape, built
    again whenever the kind gains an alternative; `macro_step` tries only
    the alternatives of the bucket that the node's shape selects.  A copy
    shares the indexes, which are immutable, and derives none of them."""

    def register(self, kind: Name, transformer: Transformer) -> None:
        self._add(kind, [(None, transformer)])

    def add_rules(self, kind: Name, rules: List[Alternative]) -> None:
        self._add(kind, rules)

    def _add(self, kind: Name, new: List[Alternative]) -> None:
        alternatives = self.get(kind)
        if alternatives is None:
            alternatives = self[kind] = Alternatives()
        alternatives[:0] = new
        alternatives.by_shape = _shape_index(alternatives)

    def copy(self) -> "MacroTable":
        new = MacroTable()
        for kind, alternatives in self.items():
            mine = new[kind] = Alternatives(alternatives)
            mine.by_shape = alternatives.by_shape
        return new
