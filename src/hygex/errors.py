"""Diagnostics raised by the kernel stages."""

from __future__ import annotations

from typing import List, Optional, Tuple

from .syntax import Name, SourceInfo


class KernelError(Exception):
    """Base for all user-facing errors; carries position and macro backtrace."""

    def __init__(self, message: str, info: Optional[SourceInfo] = None):
        super().__init__(message)
        self.message = message
        self.info = info
        # (macro kind, allocated scope or None) frames, outermost first
        self.frames: List[Tuple[Name, Optional[int]]] = []


class LexError(KernelError):
    pass


class ParseError(KernelError):
    pass


class ExpansionError(KernelError):
    pass


class ExpansionDepthError(ExpansionError):
    """The expansion depth limit fired.  It fires on macro output, which
    has no position of its own, so the driver places it at the first token
    of the command being processed."""


class UnboundIdentifier(ExpansionError):
    def __init__(self, raw: str, info: Optional[SourceInfo] = None):
        super().__init__(f"unknown identifier '{raw}'", info)
        self.raw = raw


class PrecheckError(KernelError):
    pass


class PrecheckLimitError(PrecheckError):
    """The precheck's unfold limit fired; the driver places it at the
    command, as it does an `ExpansionDepthError`."""


class ElabError(KernelError):
    pass


class TacticError(KernelError):
    pass


class TacticBudgetError(KernelError):
    """Deliberately not a TacticError: `try` must not swallow it.  The
    driver places it at the command, as it does an `ExpansionDepthError`."""

