"""Batch command-file processing: parse, expand, elaborate, report.

Commands are processed strictly in order; the parser table and global
context thread through the whole run.  A diagnostic aborts only its own
command, and the scope counter starts fresh per run, so identical inputs
give byte-identical output.

A run owns all of its mutable state, in one `RunState`: its parser table,
global context, macro table, elaborator and tactic registries, scope
counters, trace hook and `RunConfig`.  Every stage reads the run's
settings from that config.  The prelude is built once per process; each
run starts from its own copy of it (see `prelude.bootstrap`), so runs in
one process cannot see each other, whatever their configuration.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .context import Decl, RunConfig
from .elaborator import ElabEnv, elab_term, interp_type
from .errors import ExpansionDepthError, KernelError, PrecheckLimitError, TacticBudgetError
from .expander import Expander, RunState, TraceFn
from .parser import K_DEF, K_DEF_TYPED, K_THEOREM, ParserTable, iter_commands
from .prelude import bootstrap
from .syntax import Ident, Missing, Name, Node, SourceInfo, Syntax, render
from .tactic import TacticState, interp_prop, run_proof


# a rendered backtrace shows this many frames at each end, and one line
# with the count of the frames between them
FRAMES_SHOWN = 10


class Diagnostic:
    """One reported error; it compares and prints by value."""

    __match_args__ = ("message", "info", "frames")

    def __init__(
        self,
        message: str,
        info: Optional[SourceInfo] = None,
        # every frame, outermost first; `render` elides the middle of long ones
        frames: Tuple[Tuple[Name, Optional[int]], ...] = (),
    ) -> None:
        self.message = message
        self.info = info
        self.frames = frames

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return vars(self) == vars(other)
        return NotImplemented

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__match_args__)
        return f"Diagnostic({args})"

    def render(self) -> str:
        line = f"error: {self.message}"
        if self.info is not None:
            line += f" @{self.info.line}:{self.info.col}"
        lines = [line]
        for kind, scope in self.frames:
            line = f"  in expansion of {kind}"
            if scope is not None:
                line += f" (scope {scope})"
            lines.append(line)
        hidden = len(self.frames) - 2 * FRAMES_SHOWN
        if hidden > 0:
            lines[1 + FRAMES_SHOWN : -FRAMES_SHOWN] = [f"  ... {hidden} more frames"]
        return "\n".join(lines)


class Runner:
    """One deterministic run over one or more input files.

    Construction is cheap: the state starts as a copy of the prelude built
    once per process, and every command of the run changes only that copy.
    """

    def __init__(self, cfg: Optional[RunConfig] = None):
        cfg = cfg or RunConfig()
        # bootstrap gives a prelude run a copy of the prelude's parser
        # table, so only a run without the prelude builds a fresh one
        self.state = RunState(table=None if cfg.prelude else ParserTable(), cfg=cfg)
        self.lines: List[str] = []
        self.diagnostics: List[Diagnostic] = []
        bootstrap(self.state)
        # steps trace while the run's config says so; the prelude loaded untraced
        self.state.on_macro_step = _macro_step_tracer(self.lines)
        self.expander = Expander(self.state)
        self.elab_env = ElabEnv(self.state)

    # -- output

    def _emit(self, text: str) -> None:
        self.lines.append(text)

    def _trace_tactic(self, stx: Syntax, ts: TacticState) -> None:
        self._emit(f"tac: {render(stx)} ==> {ts}")

    def _diagnose(self, err: KernelError) -> None:
        diag = Diagnostic(err.message, err.info, tuple(err.frames))
        self.diagnostics.append(diag)
        self._emit(diag.render())

    @property
    def output(self) -> str:
        return "\n".join(self.lines) + "\n" if self.lines else ""

    # -- command processing

    def run_files(self, paths: Sequence[str]) -> int:
        for path in paths:
            try:
                with open(path, encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as err:
                self.diagnostics.append(Diagnostic(f"cannot read {path}: {err}"))
                self._emit(f"error: cannot read {path}: {err}")
                return 2
            self.run_source(text)
        return 1 if self.diagnostics else 0

    def run_source(self, text: str) -> None:
        def recover(err: KernelError, cmd_start: int) -> None:
            self._diagnose(err)
            if self.state.cfg.recover:
                self._emit(render(Missing()))

        for start, cmd in iter_commands(text, self.state.table, recover):
            try:
                outputs = self.expander.process_command(cmd)
            except KernelError as err:
                self._diagnose(_placed(err, start))
                continue
            except RecursionError:
                self._diagnose(_too_deep(start))
                continue
            for out in outputs:
                try:
                    self._emit_command(out)
                except KernelError as err:
                    self._diagnose(_placed(err, start))
                except RecursionError:
                    self._diagnose(_too_deep(start))

    def _emit_command(self, out: Syntax) -> None:
        if self.state.cfg.stage == "expand":
            self._emit(render(out))
            return
        if isinstance(out, Node) and out.kind in (K_DEF, K_DEF_TYPED):
            self._elaborate_def(out)
            return
        if isinstance(out, Node) and out.kind == K_THEOREM:
            self._run_theorem(out)
            return
        self._emit(render(out))

    def _elaborate_def(self, out: Node) -> None:
        if out.kind == K_DEF_TYPED:
            _kw, name, _c, ty_stx, _a, rhs = out.children
            ty = interp_type(ty_stx, self.elab_env)
            expr, ty = elab_term(rhs, self.elab_env, ty)
        else:
            _kw, name, _a, rhs = out.children
            expr, ty = elab_term(rhs, self.elab_env, None)
        assert isinstance(name, Ident)
        gctx = self.state.gctx
        decl = gctx.get(name.name)
        if decl is not None:
            gctx.add(name.name, Decl(decl.kind, ty, decl.prop))
        self._emit(f"def {name.name} : {ty} := {expr}")

    def _run_theorem(self, out: Node) -> None:
        _kw, name, _binders, _colon, target, _assign, by = out.children
        assert isinstance(name, Ident)
        prop = interp_prop(target)
        trace = self._trace_tactic if self.state.cfg.trace_tactics else None
        run_proof(by, prop, self.state, trace)
        gctx = self.state.gctx
        decl = gctx.get(name.name)
        if decl is not None:
            gctx.add(name.name, Decl(decl.kind, decl.type_, prop))
        self._emit(f"theorem {name.name} : {prop} := proved")


def _macro_step_tracer(lines: List[str]) -> TraceFn:
    # appends to the output lines, not through the runner: the state keeps
    # the hook, and a bound method would tie the state and the runner in a
    # cycle that only the garbage collector can free
    def trace(kind: Name, before: Syntax, after: Syntax) -> None:
        lines.append(f"{kind}: {render(before)} ==> {render(after)}")

    return trace


def _placed(err: KernelError, start: SourceInfo) -> KernelError:
    """The error, with a limit error (expansion depth, precheck unfolds,
    tactic budget) placed at the command's first token; every other error
    keeps its own position or none."""
    if isinstance(err, (ExpansionDepthError, PrecheckLimitError, TacticBudgetError)):
        err.info = start
    return err


def _too_deep(start: SourceInfo) -> KernelError:
    # the stack ran out under the command: nesting or a macro that keeps
    # expanding deeper than the Python stack can follow
    return KernelError("recursion limit reached while processing this command", start)


def run_string(src: str, cfg: Optional[RunConfig] = None) -> Tuple[int, str]:
    """Convenience entry point used by tests: one in-memory run."""
    runner = Runner(cfg)
    runner.run_source(src)
    code = 1 if runner.diagnostics else 0
    return code, runner.output
