"""The recursive hygienic expander and per-command processing.

Expansion reduces macro uses to core forms and resolves every identifier
against the local and global contexts.  The expander never invents macro
scopes itself: scopes enter trees only when a quotation is instantiated
inside some transformer.

The expander's resolution is final, and `resolve_identifier` alone decides
whether a reference names a local or a global.  A run keeps one shared
`Ident` per (spelling, symbol) of a global, in its `GlobalContext`; the
elaborator and the tactic engine pass each reference through it again,
get such an object back unchanged with no scan, and act on its answer
(`GlobalContext.is_ref`), so no user binder captures a macro's global.
An identifier that a macro step introduced carries a macro scope, and
while no global carries one (`GlobalContext.scoped`) it can name a global
only through its preresolutions: it is resolved by them alone, with no
`match_surface` lookup.

`macro_step` is the kernel's one macro-step routine; the elaborator, the
tactic engine and the prechecker take their steps through it too.  It
walks a kind's flat, newest-first list of alternatives in the `MacroTable`
and matches and instantiates a `macro_rules` pair itself.  Of a kind with
an index by shape (`context.Alternatives`) it walks only the bucket that
the node's shape selects, which leaves out patterns that cannot match the
node and keeps the rest in order.  Every step of a run is handed the
run's one `RunState` itself, and reads the globals, scopes, table and
settings there; a transformer captures none of them.  The step path
tests exact types (`type(stx) is Ident`) and matches kinds against
module-level sets; `Expander.expand` looks up a kind's alternatives once
per loop turn.

`Expander.expand` takes one Python frame per tree level: a chain of macro
steps at one position unfolds in its loop, and an in-place node (`+`,
`→`, application, `match`, sequences) expands its children in the same
frame, keeping atoms without a call.  So the nesting macro `` `(nest $e)
=> `(1 + nest $e) `` reaches the default `--max-expansion-depth`.  Which
kinds expand in place and which bind is `parser.IN_PLACE_KINDS` and
`parser.BINDING_KINDS`, the table the prechecker reads too.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from .context import (
    Alternative,
    Decl,
    GlobalContext,
    MacroTable,
    RunConfig,
    ScopeCounter,
    ScopeState,
)
from .errors import ExpansionDepthError, ExpansionError, KernelError, UnboundIdentifier
from .parser import (
    BINDING_KINDS,
    IN_PLACE_KINDS,
    CatRef,
    K_ALT,
    K_DECLARE_CAT,
    K_DEF,
    K_DEF_TYPED,
    K_MACRO_RULES,
    K_MATCH,
    K_MR_ALT,
    K_NUM,
    K_SLOT_PREC,
    K_SYNTAX,
    K_THEOREM,
    K_TUPLE,
    ParseRule,
    ParserTable,
    rule_lit,
)
from .precheck import Prechecker
from .quotation import (
    check_rules,
    instantiate,
    match_quotation,
    process_pattern,
    process_quotation,
)
from .syntax import (
    OMITTED,
    Atom,
    Ident,
    KIND_CHOICE,
    KIND_CMDSEQ,
    KIND_SEPSEQ,
    KIND_SEQ,
    Missing,
    Name,
    Node,
    Symbol,
    Syntax,
    base_name,
    info_of,
    is_quotation,
    render,
    strip_top_level_scopes,
)

LocalContext = FrozenSet[Symbol]

EMPTY_LOCALS: LocalContext = frozenset()

_SEQ_KINDS = frozenset((Name.of(KIND_SEQ), Name.of(KIND_SEPSEQ)))
_DEF_KINDS = frozenset((K_DEF, K_DEF_TYPED))
_CMDSEQ = Name.of(KIND_CMDSEQ)
_CHOICE = Name.of(KIND_CHOICE)

# (kind, before, after) per macro step
TraceFn = Callable[[Name, Syntax, Syntax], None]


class RunState:
    """Everything one run threads through, and all that a macro step sees:
    the parser table, the global context, the macro table, the elaborator
    and tactic registries, the run's scope state, the scratch scope state
    of its prechecks, the trace hook and the run's `RunConfig`.

    A table, context, scope state or config that is not given is built
    fresh.  The scratch scopes are the run's own: they count down from -1
    across the run's checked quotations, away from its visible numbering."""

    def __init__(
        self,
        table: ParserTable = OMITTED,
        gctx: GlobalContext = OMITTED,
        scopes: ScopeState = OMITTED,
        cfg: RunConfig = OMITTED,
    ) -> None:
        self.table = ParserTable() if table is OMITTED else table
        self.gctx = GlobalContext() if gctx is OMITTED else gctx
        self.macros = MacroTable()
        self.elaborators: Dict[Name, Callable] = {}
        self.tactics: Dict[Name, Callable] = {}
        self.scopes = ScopeState() if scopes is OMITTED else scopes
        self.scratch = ScopeState(ScopeCounter(start=-1, step=-1))
        self.cfg = RunConfig() if cfg is OMITTED else cfg
        self.on_macro_step: Optional[TraceFn] = None


# ---------------------------------------------------------------------------
# Identifier resolution (the three rules)


def resolve_identifier(
    stx: Ident, lctx: LocalContext, gctx: GlobalContext
) -> Syntax:
    """Resolve a reference: local match wins, then top-level scopes plus
    matching globals, otherwise the identifier is unbound.

    A global is the context's shared `Ident` for its spelling and symbol
    (`GlobalContext.ref`), which comes back unchanged, before any scan: its
    resolution is final.  An overloaded name is a choice node of such
    references; a local is a plain `Ident`, never shared.  An equal `Ident`
    built elsewhere is resolved as any other."""
    if gctx.is_ref(stx):
        return stx
    name = stx.name
    raw = stx.raw
    if name in lctx:
        return Ident(raw, name, (), None)
    pre = stx.preresolved
    if gctx.scoped or not name or type(name[-1]) is not int:
        # `match_surface` lists each global once; only a preresolution can repeat one
        candidates = gctx.match_surface(name)
        if pre:
            candidates = list(dict.fromkeys((*pre, *candidates)))
    else:
        # a scoped name while no global carries scopes: `match_surface`
        # could only return [], so the preresolutions are the candidates
        candidates = pre if len(pre) < 2 else list(dict.fromkeys(pre))
    if len(candidates) == 1:
        return gctx.ref(raw, candidates[0])
    if candidates:
        ref = gctx.ref
        return Node(_CHOICE, tuple([ref(raw, c) for c in candidates]))
    raise UnboundIdentifier(raw, stx.info)


# ---------------------------------------------------------------------------
# Expansion


def macro_step(
    stx: Node,
    alternatives: Sequence[Alternative],
    state: RunState,
    on_step: Optional[TraceFn] = None,
) -> Optional[Tuple[Syntax, Optional[int]]]:
    """Apply the first alternative of a kind's list that applies, under a
    fresh scope of `state.scopes`: a (pattern, template) pair applies when
    the pattern matches, and a procedural transformer when it returns
    syntax.  Return the output and the step's scope (None if never
    allocated), or None when none applied.  A `KernelError` raised by an
    alternative gets this step's frame.

    Of an `Alternatives` list with an index by shape, only the bucket that
    the node's child at the index's position selects is tried; the others
    are patterns that cannot match it."""
    by_shape = getattr(alternatives, "by_shape", None)
    if by_shape is not None:
        at, buckets = by_shape
        children = stx.children
        if at < len(children):
            child = children[at]
            i = len(child.children) + 1 if type(child) is Node else 0
            alternatives = buckets[i] if i < len(buckets) else buckets[-1]
    # `ScopeState.fresh` without its context-manager calls: a step pushes
    # an unallocated scope and pops it however it ends
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


class Expander:
    def __init__(self, state: RunState):
        self.state = state

    # -- macro steps

    def expand_macro_step(self, stx: Node, alternatives) -> Tuple[Syntax, Optional[int]]:
        """One macro step on the run's scopes, given the alternatives of the
        node's kind (None if it has none): the output and its scope."""
        if alternatives is None:
            raise ExpansionError(
                f"unexpected syntax kind '{stx.kind}' (no macro registered)",
                info=info_of(stx),
            )
        state = self.state
        trace = state.on_macro_step if state.cfg.trace_expansion else None
        step = macro_step(stx, alternatives, state, trace)
        if step is None:
            raise ExpansionError(
                f"no macro alternative matched '{render(stx)}'", info=info_of(stx)
            )
        return step

    # -- terms

    def expand(self, stx: Syntax, lctx: LocalContext = EMPTY_LOCALS, depth: int = 0) -> Syntax:
        # a chain of macro steps unfolds in this loop; `frames` gets each step's frame
        frames = None
        state = self.state
        try:
            while True:
                cls = type(stx)
                if cls is Ident:
                    return resolve_identifier(stx, lctx, state.gctx)
                if cls is not Node:
                    if cls is Atom or cls is Missing:
                        return stx
                    raise ExpansionError(f"cannot expand {stx!r}")
                kind = stx.kind
                if kind in IN_PLACE_KINDS:
                    if kind == K_MATCH:
                        for alt in _seq_elements(stx.children[3]):
                            if not (isinstance(alt, Node) and alt.kind == K_ALT):
                                raise ExpansionError(
                                    f"malformed match alternative '{render(alt)}'"
                                )
                    children = []
                    for c in stx.children:
                        children.append(c if type(c) is Atom else self.expand(c, lctx, depth))
                    return Node(kind, tuple(children))
                if kind == K_NUM:
                    return stx
                alternatives = state.macros.get(kind)
                if alternatives is None:
                    if kind in BINDING_KINDS:
                        return self._expand_binding(stx, lctx, depth)
                    if kind == K_TUPLE:
                        # plain grouping when no tuple macros are installed
                        elems = _seq_elements(stx.children[1])
                        if len(elems) == 1:
                            return self.expand(elems[0], lctx, depth)
                    if is_quotation(stx):
                        raise ExpansionError(
                            "quotations are only supported as macro right-hand sides",
                            info=info_of(stx),
                        )
                    if kind in state.elaborators:
                        # type-directed syntax is left for the elaborator; its term
                        # children still participate in expansion and resolution
                        expand = self.expand
                        return Node(kind, tuple([expand(c, lctx, depth) for c in stx.children]))
                stx, scope = self.expand_macro_step(stx, alternatives)
                frames = frames or []
                frames.append((kind, scope))
                depth += 1
                if depth > state.cfg.max_expansion_depth:
                    raise ExpansionDepthError("macro expansion depth exceeded")
        except KernelError as err:
            err.frames[:0] = frames or ()
            raise

    def _expand_binding(self, stx: Node, lctx: LocalContext, depth: int) -> Node:
        """Expand a binding form's body under the names its binder binds.  A
        `fun` binder must be an identifier; in an alternative's patterns an
        identifier that names a global is a reference, and the others bind."""
        binder_at, body_at = BINDING_KINDS[stx.kind]
        children = list(stx.children)
        binder = children[binder_at]
        if stx.kind == K_ALT:
            bound: set = set()
            children[binder_at] = self._expand_pattern(binder, bound)
        elif type(binder) is Ident:
            symbol = strip_top_level_scopes(binder)
            children[binder_at] = Ident(binder.raw, symbol, (), None)
            bound = {symbol}
        else:
            raise ExpansionError(f"binder must be an identifier, got '{render(binder)}'")
        children[body_at] = self.expand(children[body_at], lctx | bound, depth)
        return Node(stx.kind, tuple(children))

    def _expand_pattern(self, stx: Syntax, bound: set) -> Syntax:
        """Pattern identifiers that resolve to a global are references; all
        others bind."""
        match stx:
            case Ident(raw=raw):
                try:
                    return resolve_identifier(stx, EMPTY_LOCALS, self.state.gctx)
                except UnboundIdentifier:
                    pass
                symbol = strip_top_level_scopes(stx)
                if raw != "_":
                    bound.add(symbol)
                return Ident(raw, symbol, (), None)
            case Node(kind=kind, children=children):
                return Node(
                    kind,
                    tuple(self._expand_pattern(c, bound) for c in children),
                )
            case _:
                return stx

    # -- commands

    def process_command(self, stx: Syntax, depth: int = 0) -> List[Syntax]:
        """Fully process one command; returns the final core commands.

        Macro commands are expanded and their outputs processed
        incrementally, so earlier declarations of one expansion are in the
        global context of later ones.  Macro steps unfold as in `expand`.
        """
        frames = None
        try:
            while True:
                if isinstance(stx, Missing):
                    return [stx]
                if not isinstance(stx, Node):
                    raise ExpansionError(f"not a command: '{render(stx)}'")
                kind = stx.kind
                if kind == _CMDSEQ:
                    out: List[Syntax] = []
                    for c in stx.children:
                        out.extend(self.process_command(c, depth))
                    return out
                if kind in _DEF_KINDS:
                    return [self._process_def(stx)]
                if kind == K_THEOREM:
                    return [self._process_theorem(stx)]
                if kind == K_SYNTAX:
                    return [self._process_syntax(stx)]
                if kind == K_MACRO_RULES:
                    return [self._process_macro_rules(stx)]
                if kind == K_DECLARE_CAT:
                    return [self._process_declare_cat(stx)]
                stx, scope = self.expand_macro_step(stx, self.state.macros.get(kind))
                frames = frames or []
                frames.append((kind, scope))
                depth += 1
                if depth > self.state.cfg.max_expansion_depth:
                    raise ExpansionDepthError("macro expansion depth exceeded")
        except KernelError as err:
            err.frames[:0] = frames or ()
            raise

    def _declare(self, binder: Syntax, decl: Decl) -> Ident:
        """Declare a global; returns the binder as a plain reference to it."""
        if not isinstance(binder, Ident):
            raise ExpansionError(
                f"declaration name must be an identifier, got '{render(binder)}'"
            )
        symbol = strip_top_level_scopes(binder)
        if symbol in self.state.gctx:
            # at the name, where it came from source; a name that a macro
            # built has no position
            raise ExpansionError(f"'{symbol}' has already been declared", binder.info)
        self.state.gctx.add(symbol, decl)
        return Ident(binder.raw, symbol, (), None)

    def _process_def(self, stx: Node) -> Node:
        if stx.kind == K_DEF_TYPED:
            kw, name, colon, ty, assign, rhs = stx.children
            ty2: Optional[Syntax] = self.expand(ty)
        else:
            kw, name, assign, rhs = stx.children
            colon = ty2 = None
        rhs2 = self.expand(rhs)
        plain = self._declare(name, Decl("def"))
        if ty2 is not None:
            return Node(K_DEF_TYPED, (kw, plain, colon, ty2, assign, rhs2))
        return Node(K_DEF, (kw, plain, assign, rhs2))

    def _process_theorem(self, stx: Node) -> Node:
        kw, name, binders, colon, target, assign, by = stx.children
        lctx = set()
        out_binders = []
        for b in _seq_elements(binders):
            open_, bname, bcolon, sort, close = b.children
            symbol = strip_top_level_scopes(bname)
            lctx.add(symbol)
            out_binders.append(
                Node(b.kind, (open_, Ident(bname.raw, symbol, (), None), bcolon, sort, close))
            )
        target2 = self.expand(target, frozenset(lctx))
        plain = self._declare(name, Decl("theorem"))
        return Node(
            K_THEOREM,
            (kw, plain, Node(binders.kind, tuple(out_binders)), colon, target2, assign, by),
        )

    def _process_syntax(self, stx: Node) -> Node:
        kw, items, colon, cat_ident = stx.children
        rule_items: List = []
        for item in _seq_elements(items):
            if isinstance(item, Atom):
                rule_items.append(rule_lit(item))
            elif isinstance(item, Ident):
                # structural name positions ignore macro scopes
                rule_items.append(CatRef(base_name(item.name)))
            elif isinstance(item, Node) and item.kind == K_SLOT_PREC:
                slot, prec = item.children
                rule_items.append(CatRef(base_name(slot.name), int(prec.text)))
            else:
                raise ExpansionError(f"bad syntax rule item '{render(item)}'")
        if not isinstance(cat_ident, Ident):
            raise ExpansionError("syntax rule needs a category name")
        cat = base_name(cat_ident.name)
        kind = self.state.table.gen_kind(rule_items)
        self.state.table.register_rule(cat, ParseRule(kind, tuple(rule_items)), kw.info)
        return stx

    def _process_macro_rules(self, stx: Node) -> Node:
        kw, alts = stx.children
        rules = []
        out_alts = []
        for alt in _seq_elements(alts):
            bar, pat, arrow, rhs = alt.children
            pattern = process_pattern(pat)
            if not is_quotation(rhs):
                raise ExpansionError(
                    f"macro_rules right-hand side must be a quotation, got '{render(rhs)}'"
                )
            if rhs.kind[0] == "dquot":
                Prechecker(self.state).check(rhs.children[0])
            template = process_quotation(rhs, self.state.gctx)
            rules.append((pattern, template))
            shown = Node(Name(("quot",) + rhs.kind[1:]), (template.body,))
            out_alts.append(Node(K_MR_ALT, (bar, pat, arrow, shown)))
        self.state.macros.add_rules(check_rules(rules), rules)
        return Node(K_MACRO_RULES, (kw, Node(alts.kind, tuple(out_alts))))

    def _process_declare_cat(self, stx: Node) -> Node:
        kw, name = stx.children
        if not isinstance(name, Ident):
            raise ExpansionError("declare_syntax_cat needs a category name")
        self.state.table.add_category(base_name(name.name), kw.info)
        return stx


def _seq_elements(stx: Syntax) -> Tuple[Syntax, ...]:
    """The elements of a `seq`/`sepseq` node without its separator atoms;
    any other syntax is a sequence of itself."""
    if isinstance(stx, Node) and stx.kind in _SEQ_KINDS:
        return tuple(
            c for c in stx.children if not (isinstance(c, Atom) and c.text in (",", ";"))
        )
    return (stx,)
