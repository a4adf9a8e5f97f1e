"""Goal-based tactic evaluation over a minimal propositional logic.

Tactic macros are not pre-expanded: the evaluator unfolds them one step at
a time when it reaches them, which is what lets `repeat` terminate.  The
`exact` tactic resolves its argument through the ordinary expander rules
with the hypotheses as the local context, so tactic hygiene is the same
hygiene as everywhere else.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from .errors import KernelError, TacticBudgetError, TacticError
from .expander import Expander, RunState
from .parser import (
    K_ARROW,
    K_ASSUMPTION,
    K_BY,
    K_EXACT,
    K_FAIL,
    K_INTRO,
    K_SKIP,
    K_TPAREN,
    K_TRY,
    K_TSEQ,
)
from .syntax import (
    Frozen,
    Ident,
    KIND_CHOICE,
    Name,
    Node,
    Symbol,
    Syntax,
    info_of,
    render,
    slot_setters,
    strip_top_level_scopes,
)


_CHOICE = Name.of(KIND_CHOICE)


# ---------------------------------------------------------------------------
# Propositions and goals


class PropAtom(Frozen):
    __slots__ = ("name",)
    name: Name

    def __init__(self, name: Name) -> None:
        _prop_name(self, name)

    def __str__(self) -> str:
        return str(self.name)


(_prop_name,) = slot_setters(PropAtom)


class Implies(Frozen):
    __slots__ = ("antecedent", "consequent")
    antecedent: "Prop"
    consequent: "Prop"

    def __init__(self, antecedent: "Prop", consequent: "Prop") -> None:
        _implies_antecedent(self, antecedent)
        _implies_consequent(self, consequent)

    def __str__(self) -> str:
        return prop_str(self)


_implies_antecedent, _implies_consequent = slot_setters(Implies)


Prop = object  # PropAtom | Implies


def prop_str(p: Prop) -> str:
    """A printed proposition, one frame per level, not a `__str__` per node;
    `→` associates to the right, so only a left implication is bracketed."""
    if type(p) is not Implies:
        return str(p)
    left = p.antecedent
    if type(left) is Implies:
        return f"({prop_str(left)}) → {prop_str(p.consequent)}"
    return f"{left} → {prop_str(p.consequent)}"


def interp_prop(stx: Syntax) -> Prop:
    """Read an expanded term as a proposition."""
    match stx:
        case Ident(name=name):
            return PropAtom(name)
        case Node(kind=kind, children=(left, _op, right)) if kind == K_ARROW:
            return Implies(interp_prop(left), interp_prop(right))
    raise TacticError(f"'{render(stx)}' is not a proposition")


class ProofGoal(Frozen):
    __slots__ = ("hypotheses", "target")
    hypotheses: Tuple[Tuple[Symbol, Prop], ...]
    target: Prop

    def __init__(self, hypotheses: Tuple[Tuple[Symbol, Prop], ...], target: Prop) -> None:
        _goal_hypotheses(self, hypotheses)
        _goal_target(self, target)

    def with_hypothesis(self, symbol: Symbol, prop: Prop) -> "ProofGoal":
        # re-binding the same symbol shadows the old hypothesis
        kept = tuple((s, p) for s, p in self.hypotheses if s != symbol)
        return ProofGoal(kept + ((symbol, prop),), self.target)

    def lookup(self, symbol: Symbol) -> Optional[Prop]:
        for s, p in self.hypotheses:
            if s == symbol:
                return p
        return None

    def __str__(self) -> str:
        hyps = ", ".join([f"{s} : {prop_str(p)}" for s, p in self.hypotheses])
        target = prop_str(self.target)
        return f"{hyps} ⊢ {target}" if hyps else f"⊢ {target}"


_goal_hypotheses, _goal_target = slot_setters(ProofGoal)


class TacticState(Frozen):
    """Remaining goals plus the run's own `RunState`.

    The state provides the global context, the fresh-scope capability and
    the run's settings, so quotations instantiated by procedural tactics
    behave exactly as they do in macros."""

    __slots__ = ("goals", "state", "steps_left")
    goals: Tuple[ProofGoal, ...]
    state: RunState
    steps_left: List[int]  # single mutable cell: tactic-macro budget

    def __init__(self, goals: Tuple[ProofGoal, ...], state: RunState, steps_left: List[int]) -> None:
        _tstate_goals(self, goals)
        _tstate_state(self, state)
        _tstate_steps_left(self, steps_left)

    def goal(self) -> ProofGoal:
        if not self.goals:
            raise TacticError("no goals remaining")
        return self.goals[0]

    def close_goal(self) -> "TacticState":
        return TacticState(self.goals[1:], self.state, self.steps_left)

    def set_goal(self, goal: ProofGoal) -> "TacticState":
        return TacticState((goal,) + self.goals[1:], self.state, self.steps_left)

    def __str__(self) -> str:
        if not self.goals:
            return "no goals"
        return "; ".join(map(str, self.goals))


_tstate_goals, _tstate_state, _tstate_steps_left = slot_setters(TacticState)


TraceTacticFn = Callable[[Syntax, TacticState], None]


# ---------------------------------------------------------------------------
# Evaluation


def eval_tactic(
    stx: Syntax, ts: TacticState, trace: Optional[TraceTacticFn] = None
) -> TacticState:
    if not isinstance(stx, Node):
        raise TacticError(f"unknown tactic '{render(stx)}'")
    kind = stx.kind
    if kind == K_TSEQ:
        first, _sep, rest = stx.children
        return eval_tactic(rest, eval_tactic(first, ts, trace), trace)
    if kind == K_TPAREN:
        return eval_tactic(stx.children[1], ts, trace)
    if kind == K_SKIP:
        out = ts
    elif kind == K_FAIL:
        raise _error(stx, "fail tactic invoked")
    elif kind == K_TRY:
        try:
            out = eval_tactic(stx.children[1], ts, trace)
        except TacticError:
            out = ts  # failing branch leaves the state untouched
    elif kind == K_INTRO:
        out = _eval_intro(stx, ts)
    elif kind == K_EXACT:
        out = _eval_exact(stx, ts)
    elif kind == K_ASSUMPTION:
        out = _eval_assumption(stx, ts)
    elif kind in ts.state.tactics:
        # host-registered procedural tactic; it may instantiate tactic
        # quotations and feed them back through eval_tactic itself
        out = ts.state.tactics[kind](stx, ts)
    elif kind in ts.state.macros:
        if ts.steps_left[0] <= 0:
            raise TacticBudgetError(
                "tactic macro expansion budget exceeded (see --max-repeat)"
            )
        ts.steps_left[0] -= 1
        unfolded, scope = Expander(ts.state).expand_macro_step(stx, ts.state.macros[kind])
        try:
            return eval_tactic(unfolded, ts, trace)
        except KernelError as err:
            err.frames.insert(0, (kind, scope))
            raise
    else:
        raise TacticError(f"unknown tactic '{render(stx)}'")
    if trace:
        trace(stx, out)
    return out


def _error(stx: Node, message: str) -> TacticError:
    """A diagnostic on the built-in tactic or `by` proof `stx`, placed at
    the tactic's term, or at its first token when it has no term with a
    position; a proof is placed at its `by`.  A tactic made by a macro has
    no position of its own, so its diagnostics get none."""
    info = stx.children[0].info
    if info is not None and len(stx.children) > 1 and stx.kind != K_BY:
        info = info_of(stx.children[1]) or info
    return TacticError(message, info)


def _eval_intro(stx: Node, ts: TacticState) -> TacticState:
    goal = ts.goal()
    name = stx.children[1]
    if not isinstance(name, Ident):
        raise _error(stx, f"intro: expected a hypothesis name, got '{render(name)}'")
    if not isinstance(goal.target, Implies):
        raise _error(stx, f"intro: target '{goal.target}' is not an implication")
    symbol = strip_top_level_scopes(name)
    goal2 = ProofGoal(goal.hypotheses, goal.target.consequent).with_hypothesis(
        symbol, goal.target.antecedent
    )
    return ts.set_goal(goal2)


def _proof_of(ref: Ident, goal: ProofGoal, ts: TacticState) -> Optional[Prop]:
    """What the resolved reference `ref` proves, if anything: a global's
    theorem or, when it was resolved to a local, a hypothesis."""
    gctx = ts.state.gctx
    if gctx.is_ref(ref):
        decl = gctx.get(ref.name)
        return decl.prop if decl else None
    return goal.lookup(ref.name)


def _resolve_reference(stx: Node, ts: TacticState) -> Ident:
    """The resolved reference `exact` uses: an overloaded reference takes
    the one candidate, a global, that proves something, as the elaborator
    takes the one with a value signature."""
    goal = ts.goal()
    lctx = frozenset(s for s, _ in goal.hypotheses)
    term = stx.children[1]
    resolved = Expander(ts.state).expand(term, lctx)
    if isinstance(resolved, Node) and resolved.kind == _CHOICE:
        candidates = resolved.children
        provers = [c for c in candidates if _proof_of(c, goal, ts) is not None]
        if len(provers) != 1:
            names = ", ".join(str(c.name) for c in candidates)
            raise _error(stx, f"exact: ambiguous reference (candidates: {names})")
        resolved = provers[0]
    if isinstance(resolved, Ident):
        return resolved
    raise _error(stx, f"exact: '{render(term)}' is not a plain reference")


def _eval_exact(stx: Node, ts: TacticState) -> TacticState:
    goal = ts.goal()
    ref = _resolve_reference(stx, ts)
    symbol = ref.name
    prop = _proof_of(ref, goal, ts)
    if prop is None:
        raise _error(stx, f"exact: '{symbol}' does not prove anything")
    if prop != goal.target:
        raise _error(stx, f"exact: '{symbol} : {prop}' does not match target '{goal.target}'")
    return ts.close_goal()


def _eval_assumption(stx: Node, ts: TacticState) -> TacticState:
    goal = ts.goal()
    for _symbol, prop in goal.hypotheses:
        if prop == goal.target:
            return ts.close_goal()
    raise _error(stx, f"assumption: no hypothesis proves '{goal.target}'")


# ---------------------------------------------------------------------------
# Whole proofs


def run_proof(
    by_node: Node, target: Prop, state: RunState, trace: Optional[TraceTacticFn] = None
) -> None:
    """Prove `target` by the `by` proof, with the run's `max_repeat` as the
    budget of tactic-macro unfolds."""
    if not (isinstance(by_node, Node) and by_node.kind == K_BY):
        raise TacticError("expected a 'by' proof")
    script = by_node.children[1]
    ts = TacticState((ProofGoal((), target),), state, [state.cfg.max_repeat])
    final = eval_tactic(script, ts, trace)
    if final.goals:
        raise _error(by_node, f"unsolved goals: {final}")
