"""Best-effort eager name analysis for checked (double-backtick) quotations.

The check runs at macro declaration time, before the quotation is processed
into a template.  It never alters semantics: a quotation that passes
behaves exactly like its unchecked form.  Binding forms scope their
children as `parser.BINDING_KINDS` says, the table the expander reads too.
A `Prechecker` is built on the run's `RunState` for each checked quotation
and reads the run's globals, macros, elaborators, table and settings
there.  Macro kinds unfold through the kernel's one macro-step routine,
`expander.macro_step`, on the state's scratch scopes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Set, Tuple

from . import expander  # a module import: the expander imports this module
from .errors import PrecheckError, PrecheckLimitError, UnboundIdentifier
from .parser import BINDING_KINDS, IN_PLACE_KINDS, K_FUN_MATCH, K_TUPLE
from .syntax import (
    KIND_ANTIQUOT,
    KIND_SPLICE,
    KIND_SPLICEGROUP,
    Atom,
    Ident,
    Missing,
    Node,
    Syntax,
    is_antiquot,
    is_splice,
)

if TYPE_CHECKING:
    from .expander import RunState

QuotationContext = frozenset  # surface names assumed bound inside the fragment

# kinds whose children are checked in the node's scope: those the expander
# expands in place, tuples and `fun | …`, whose alternatives bind
_WALKED_KINDS = IN_PLACE_KINDS | {K_TUPLE, K_FUN_MATCH}

# unfolds along one path of a checked fragment before the check gives up
MAX_UNFOLD = 32


class Prechecker:
    """Heuristic walker over a quoted fragment.

    Binding forms scope their bodies as `parser.BINDING_KINDS` says, with
    every identifier in binder position bound; in-place kinds, tuples,
    `fun | …` and the kinds left to an elaborator are checked child by
    child; fragments without captured identifiers pass outright; macro
    kinds are unfolded one step with the run's scratch scopes, which never
    touch its visible numbering.  `depth` counts the unfolds along the path
    from the fragment's root, through binders and children, so a macro
    that unfolds to a binder around its own use meets `MAX_UNFOLD`.
    """

    def __init__(self, state: RunState):
        self.state = state

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
        kind = stx.kind
        positions = BINDING_KINDS.get(kind)
        if positions is not None:
            binder, body = positions
            bound = _binder_names(stx.children[binder])
            if bound is not None:  # an unknown binder accepts the body
                self.check(stx.children[body], qctx | bound, depth)
            return
        state = self.state
        if kind in _WALKED_KINDS or (kind in state.elaborators and kind not in state.macros):
            for c in stx.children:
                self.check(c, qctx, depth)
            return
        if not _has_captured_ident(stx):
            return
        alternatives = state.macros.get(kind)
        if alternatives is not None:
            if depth >= MAX_UNFOLD:
                raise PrecheckLimitError(
                    f"cannot analyze '{kind}': macro unfolding limit reached"
                )
            step = self._unfold(stx, alternatives)
            if step is not None:
                self.check(step[0], qctx, depth + 1)
                return
        raise PrecheckError(
            f"cannot analyze quoted syntax of kind '{kind}'; use a plain quotation"
        )

    def _unfold(self, stx: Node, alternatives) -> Optional[Tuple[Syntax, Optional[int]]]:
        """One macro step of the run, untraced, on the scratch scopes."""
        state = self.state
        scopes, state.scopes = state.scopes, state.scratch
        try:
            return expander.macro_step(stx, alternatives, state)
        finally:
            state.scopes = scopes

    def check_ident(self, stx: Ident, qctx: QuotationContext) -> None:
        if stx.name in qctx or stx.raw in qctx:
            return
        if stx.preresolved:
            return
        if self.state.gctx.match_surface(stx.name):
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
