"""Best-effort eager name analysis for checked (double-backtick) quotations.

The check runs at macro declaration time, before the quotation is processed
into a template.  It never alters semantics: a quotation that passes
behaves exactly like its unchecked form.  Macro kinds unfold through the
kernel's one macro-step routine, `expander.macro_step`, on scratch scopes.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Set

from . import expander  # a module import: the expander imports this module
from .context import GlobalContext, MacroTable, ScopeCounter, ScopeState, TransformerEnv
from .errors import PrecheckError, UnboundIdentifier
from .parser import (
    K_APP,
    K_ARROW,
    K_FUN,
    K_FUN_MATCH,
    K_FUN_MULTI,
    K_MATCH,
    K_PLUS,
    K_TUPLE,
    ParserTable,
)
from .syntax import (
    KIND_ANTIQUOT,
    KIND_SPLICE,
    KIND_SPLICEGROUP,
    Atom,
    Ident,
    Missing,
    Name,
    Node,
    Syntax,
    is_antiquot,
    is_splice,
)

QuotationContext = frozenset  # surface names assumed bound inside the fragment

# A hook checks one node kind; it may raise and may recurse via `recur`.
Hook = Callable[["Prechecker", Node, QuotationContext], None]


class Prechecker:
    """Heuristic walker over a quoted fragment.

    Hooks drive binding forms; fragments without captured identifiers pass
    outright; macro kinds are unfolded one step with scratch scopes that
    never touch the run's visible numbering.
    """

    def __init__(
        self,
        gctx: GlobalContext,
        macros: MacroTable,
        hooks: Optional[Dict[Name, Hook]] = None,
        max_unfold: int = 32,
        table: Optional[ParserTable] = None,
        notation_precheck: bool = True,
    ):
        self.gctx = gctx
        self.macros = macros
        self.hooks = dict(builtin_hooks()) if hooks is None else hooks
        self.max_unfold = max_unfold
        # unfolds count scopes down from -1, away from the run's numbering
        scratch = ScopeState(ScopeCounter(start=-1, step=-1))
        self._tenv = TransformerEnv(gctx, scratch, table=table, notation_precheck=notation_precheck)

    def check(self, stx: Syntax, qctx: QuotationContext = frozenset(), depth: int = 0) -> None:
        if isinstance(stx, (Atom, Missing)):
            return
        if isinstance(stx, Ident):
            self.check_ident(stx, qctx)
            return
        assert isinstance(stx, Node)
        if is_antiquot(stx) or is_splice(stx):
            # holes contain unquoted identifiers only; always skipped
            return
        hook = self.hooks.get(stx.kind)
        if hook is not None:
            hook(self, stx, qctx)
            return
        if not _has_captured_ident(stx):
            return
        if stx.kind in self.macros:
            if depth >= self.max_unfold:
                raise PrecheckError(
                    f"cannot analyze '{stx.kind}': macro unfolding limit reached"
                )
            step = expander.macro_step(stx, self.macros.lookup(stx.kind), self._tenv)
            if step is not None:
                self.check(step[0], qctx, depth + 1)
                return
        raise PrecheckError(
            f"cannot analyze quoted syntax of kind '{stx.kind}'; "
            "register a precheck hook or use a plain quotation"
        )

    def check_ident(self, stx: Ident, qctx: QuotationContext) -> None:
        if stx.name in qctx or stx.raw in qctx:
            return
        if stx.preresolved:
            return
        if self.gctx.match_surface(stx.name):
            return
        raise UnboundIdentifier(stx.raw, stx.info)


# heads of the node kinds whose contents are holes, not quoted syntax
_HOLE_HEADS = frozenset((KIND_ANTIQUOT, KIND_SPLICE, KIND_SPLICEGROUP))


def _has_captured_ident(stx: Syntax) -> bool:
    """Whether an identifier occurs outside every antiquotation and splice;
    a loop over a work list of subtrees, testing exact types."""
    todo = [stx]
    pop, push = todo.pop, todo.extend
    while todo:
        stx = pop()
        cls = type(stx)
        if cls is Ident:
            return True
        if cls is Node and stx.kind[0] not in _HOLE_HEADS:
            push(stx.children)
    return False


# ---------------------------------------------------------------------------
# Built-in hooks


def _binder_names(stx: Syntax) -> Optional[Set]:
    """Names bound by a binder position; None when it is an antiquotation
    (an unknown name: the body cannot be checked meaningfully)."""
    if isinstance(stx, Ident):
        return {stx.name}
    if isinstance(stx, Node) and (is_antiquot(stx) or is_splice(stx)):
        return None
    if isinstance(stx, Node):
        names: Set = set()
        for c in stx.children:
            sub = _binder_names(c)
            if sub is None:
                return None
            names |= sub
        return names
    return set()


def _hook_fun(pc: Prechecker, stx: Node, qctx: QuotationContext) -> None:
    binder, body = stx.children[1], stx.children[3]
    bound = _binder_names(binder)
    if bound is None:
        return  # unknown binder: accept the body conservatively
    pc.check(body, qctx | bound)


def _hook_fun_match(pc: Prechecker, stx: Node, qctx: QuotationContext) -> None:
    _hook_match_alts(pc, stx.children[1], qctx)


def _hook_match(pc: Prechecker, stx: Node, qctx: QuotationContext) -> None:
    pc.check(stx.children[1], qctx)  # discriminants
    _hook_match_alts(pc, stx.children[3], qctx)


def _hook_match_alts(pc: Prechecker, alts: Syntax, qctx: QuotationContext) -> None:
    if not isinstance(alts, Node):
        return
    for alt in alts.children:
        if not (isinstance(alt, Node) and alt.kind == Name.of("alt")):
            continue
        pats, rhs = alt.children[1], alt.children[3]
        # every identifier in pattern position is treated as a binder
        bound = _binder_names(pats)
        if bound is None:
            continue
        pc.check(rhs, qctx | bound)


def _hook_recurse_children(pc: Prechecker, stx: Node, qctx: QuotationContext) -> None:
    for c in stx.children:
        pc.check(c, qctx)


def builtin_hooks() -> Dict[Name, Hook]:
    hooks: Dict[Name, Hook] = {
        K_FUN: _hook_fun,
        K_FUN_MULTI: _hook_fun,
        K_FUN_MATCH: _hook_fun_match,
        K_MATCH: _hook_match,
        K_APP: _hook_recurse_children,
        K_PLUS: _hook_recurse_children,
        K_ARROW: _hook_recurse_children,
        K_TUPLE: _hook_recurse_children,
        Name.of("seq"): _hook_recurse_children,
        Name.of("sepseq"): _hook_recurse_children,
    }
    return hooks
