"""Span tracing of hygex from outside the package.

`Tracer.installed()` replaces each traced function with a wrapper that
records a span (name, parent span, start, end, a note taken from the call)
and restores the originals on exit.  hygex modules import each other with
`from .x import y`, so a module-level function is replaced at every
binding site in every loaded `hygex` module, not only where it is defined;
methods are replaced on their class.

`layer_metrics` turns the spans of one traced pass into the per-layer
metrics.  Counts repeat exactly for a given input; times are self time
(span duration minus the time its child spans cover) unless a metric says
otherwise.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional

# span record fields
NAME, PARENT, START, END, NOTE, RUN = range(6)


# Notes: what a span keeps from its call, computed after it returns.  A
# token_at note names its lexer by the serial the lexer's build was given;
# object ids are reused once a lexer is freed.


def _note_lexer(tracer, args, result):
    tracer.lexers += 1
    tracer.lexer_serial[id(args[0])] = tracer.lexers
    return len(args[1])  # characters the new lexer covers


def _note_token_at(tracer, args, result):
    return (tracer.lexer_serial[id(args[0])], args[1])  # (lexer, position)


def _note_match_surface(tracer, args, result):
    return (len(args[0].decls), bool(result))  # (globals scanned, hit)


def _note_match(tracer, args, result):
    return result is not None


# (span name, module, attribute path, note)
TRACED = [
    ("bootstrap", "prelude", "bootstrap", None),
    ("Lexer.__init__", "parser", "Lexer.__init__", _note_lexer),
    ("Lexer.token_at", "parser", "Lexer.token_at", _note_token_at),
    ("Parser.parse_command", "parser", "Parser.parse_command", None),
    ("Parser.parse_category", "parser", "Parser.parse_category", None),
    ("Parser.parse_term", "parser", "Parser.parse_term", None),
    ("match_surface", "context", "GlobalContext.match_surface", _note_match_surface),
    ("process_quotation", "quotation", "process_quotation", None),
    ("process_pattern", "quotation", "process_pattern", None),
    ("match_quotation", "quotation", "match_quotation", _note_match),
    ("instantiate", "quotation", "instantiate", None),
    ("process_command", "expander", "Expander.process_command", None),
    ("expand", "expander", "Expander.expand", None),
    ("expand_macro_step", "expander", "Expander.expand_macro_step", None),
    ("resolve_identifier", "expander", "resolve_identifier", None),
    ("Prechecker.check", "precheck", "Prechecker.check", None),
    ("elab_term", "elaborator", "elab_term", None),
    ("transformer_to_elaborator", "elaborator", "transformer_to_elaborator", None),
    ("eval_tactic", "tactic", "eval_tactic", None),
    ("run_proof", "tactic", "run_proof", None),
    ("render", "syntax", "render", None),
]

PARSER_SPANS = ("Parser.parse_command", "Parser.parse_category", "Parser.parse_term")


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.run = 0  # index of the current Runner within the pass
        self._stack: List[int] = []
        self.parse_errors = 0
        self.lexers = 0
        self.lexer_serial: Dict[int, int] = {}  # id of a live lexer -> serial
        # per ScopeCounter object: [allocations, last value handed out]
        self.allocs: Dict[Any, List[int]] = {}

    def _wrap(self, name: str, fn: Callable, note: Optional[Callable]) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0.0, None, self.run]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                span[NOTE] = type(err).__name__
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if note is not None:
                span[NOTE] = note(self, args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch the hygex modules for the duration of the block."""
        from hygex import context, errors

        restore = []

        def patch(owner, attr, new):
            restore.append((owner, attr, owner.__dict__.get(attr)))
            setattr(owner, attr, new)

        try:
            modules = [m for n, m in sys.modules.items() if n == "hygex" or n.startswith("hygex.")]
            for name, module_name, path, note in TRACED:
                module = sys.modules[f"hygex.{module_name}"]
                if "." in path:
                    cls_name, attr = path.split(".")
                    cls = getattr(module, cls_name)
                    patch(cls, attr, self._wrap(name, cls.__dict__[attr], note))
                    continue
                original = getattr(module, path)
                wrapper = self._wrap(name, original, note)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            patch(m, attr, wrapper)

            allocs = self.allocs
            alloc = context.ScopeCounter.alloc

            def counted_alloc(counter):
                value = alloc(counter)
                entry = allocs.setdefault(counter, [0, 0])
                entry[0] += 1
                entry[1] = value
                return value

            patch(context.ScopeCounter, "alloc", counted_alloc)

            parse_error_init = errors.ParseError.__init__

            def counted_init(err, *args, **kwargs):
                self.parse_errors += 1
                parse_error_init(err, *args, **kwargs)

            patch(errors.ParseError, "__init__", counted_init)
            yield self
        finally:
            for owner, attr, old in reversed(restore):
                if old is None:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, old)


def _self_times(spans: List[list]) -> List[float]:
    covered = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            covered[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, covered)]


def _has_ancestor(spans: List[list], i: int, names) -> bool:
    p = spans[i][PARENT]
    while p >= 0:
        if spans[p][NAME] in names:
            return True
        p = spans[p][PARENT]
    return False


def _command_ms(spans: List[list]) -> List[float]:
    """Lex plus parse plus process time of each top-level user command.

    `Runner.run_source` builds one lexer per command; the top-level lexer build,
    `token_at`, `parse_command` and `process_command` spans that follow it,
    up to the next top-level lexer build, belong to that command.  The
    lexer built after the last command (which finds end of input) and
    everything under `bootstrap` do not count."""
    out: List[float] = []
    current: Optional[float] = None
    has_command = False
    for s in spans:
        if s[PARENT] >= 0:
            continue
        name = s[NAME]
        if name == "Lexer.__init__":
            if current is not None and has_command:
                out.append(current)
            current, has_command = 0.0, False
        if current is None or name not in (
            "Lexer.__init__", "Lexer.token_at", "Parser.parse_command", "process_command"
        ):
            continue
        current += s[END] - s[START]
        has_command = has_command or name == "Parser.parse_command"
    if current is not None and has_command:
        out.append(current)
    return [1000.0 * t for t in out]


def layer_metrics(tracer: Tracer, run_counters: List[Any], diagnostics: int) -> Dict[str, float]:
    """Per-layer metrics of one traced pass.  `run_counters` are the scope
    counters of the pass's runs (not the precheck scratch counters)."""
    spans = tracer.spans
    self_s = _self_times(spans)
    count: Dict[str, int] = defaultdict(int)
    self_by: Dict[str, float] = defaultdict(float)
    for s, t in zip(spans, self_s):
        count[s[NAME]] += 1
        self_by[s[NAME]] += t

    def where(name):
        return [s for s in spans if s[NAME] == name]

    def ratio(num, den):
        return num / den if den else 0.0

    lexers = where("Lexer.__init__")
    token_ats = where("Lexer.token_at")
    surface = where("match_surface")
    matches = where("match_quotation")
    steps = [i for i, s in enumerate(spans) if s[NAME] == "expand_macro_step"]
    escaped = sum(
        1
        for i, s in enumerate(spans)
        if s[NAME] in PARSER_SPANS
        and s[NOTE] == "ParseError"
        and not _has_ancestor(spans, i, PARSER_SPANS)
    )
    commands = sum(
        1
        for i, s in enumerate(spans)
        if s[NAME] == "process_command"
        and not _has_ancestor(spans, i, ("process_command", "bootstrap"))
    )
    renders = sum(
        1 for i, s in enumerate(spans) if s[NAME] == "render" and not _has_ancestor(spans, i, ("render",))
    )
    cmd_ms = _command_ms(spans)
    decile = max(1, len(cmd_ms) // 10)

    return {
        "prelude.bootstrap_calls": count["bootstrap"],
        "prelude.bootstrap_s": sum(s[END] - s[START] for s in where("bootstrap")),
        "parser.lexer_builds": len(lexers),
        "parser.lexer_build_chars": sum(s[NOTE] for s in lexers),
        "parser.lexer_build_s": self_by["Lexer.__init__"],
        "parser.token_at_calls": len(token_ats),
        "parser.token_at_s": self_by["Lexer.token_at"],
        "parser.token_at_useful_ratio": ratio(len({s[NOTE] for s in token_ats}), len(token_ats)),
        "parser.parse_command_self_s": sum(self_by[n] for n in PARSER_SPANS),
        "parser.backtracks": tracer.parse_errors - escaped,
        "context.match_surface_calls": len(surface),
        "context.match_surface_s": self_by["match_surface"],
        "context.match_surface_hit_ratio": ratio(sum(s[NOTE][1] for s in surface), len(surface)),
        "context.globals_at_lookup": ratio(sum(s[NOTE][0] for s in surface), len(surface)),
        "context.scopes_allocated": sum(tracer.allocs.get(c, (0, 0))[0] for c in run_counters),
        "quotation.process_calls": count["process_quotation"] + count["process_pattern"],
        "quotation.process_s": self_by["process_quotation"] + self_by["process_pattern"],
        "quotation.match_calls": len(matches),
        "quotation.match_hit_ratio": ratio(sum(1 for s in matches if s[NOTE] is True), len(matches)),
        "quotation.match_s": self_by["match_quotation"],
        "quotation.instantiate_calls": count["instantiate"],
        "quotation.instantiate_s": self_by["instantiate"],
        "expander.commands": commands,
        "expander.macro_steps": len(steps),
        "expander.macro_step_self_s": self_by["expand_macro_step"],
        "expander.expand_self_s": self_by["expand"],
        "expander.resolve_calls": count["resolve_identifier"],
        "expander.resolve_self_s": self_by["resolve_identifier"],
        "expander.cmd_ms_first_decile": statistics.fmean(cmd_ms[:decile]) if cmd_ms else 0.0,
        "expander.cmd_ms_last_decile": statistics.fmean(cmd_ms[-decile:]) if cmd_ms else 0.0,
        "precheck.check_calls": count["Prechecker.check"],
        "precheck.check_s": self_by["Prechecker.check"],
        "elaborator.elab_calls": count["elab_term"],
        "elaborator.elab_self_s": self_by["elab_term"],
        "elaborator.adapter_steps": count["transformer_to_elaborator"],
        "tactic.proofs": count["run_proof"],
        "tactic.eval_calls": count["eval_tactic"],
        "tactic.eval_self_s": self_by["eval_tactic"],
        "tactic.macro_unfolds": sum(
            1 for i in steps if spans[i][PARENT] >= 0 and spans[spans[i][PARENT]][NAME] == "eval_tactic"
        ),
        "syntax.render_calls": renders,
        "syntax.render_s": self_by["render"],
        "driver.diagnostics": diagnostics,
    }


def final_scopes(tracer: Tracer, run_counters: List[Any]) -> List[int]:
    """The last scope each run's counter handed out (0 if none)."""
    return [tracer.allocs.get(c, (0, 0))[1] for c in run_counters]
