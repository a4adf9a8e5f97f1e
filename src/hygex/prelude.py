"""Bootstrap: built-in signatures and the macro tower of the prelude.

`macro` and `notation` are not core commands: `notation` rewrites itself to
a `macro` declaration, and `macro` rewrites itself to a `syntax` rule plus
a `macro_rules` entry.  Only `syntax` and `macro_rules` are primitive.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .context import Decl
from .elaborator import (
    NAT,
    NAT_ADD,
    NAT_TYPE,
    PROD,
    PROD_MK,
    TArrow,
    TUnit,
    UNIT,
    UNIT_UNIT,
    elab_anonymous_ctor,
)
from .errors import ExpansionError, KernelError
from .expander import Expander, RunState, _seq_elements
from .parser import (
    CAT_COMMAND,
    K_ANON_CTOR,
    K_ARGDECL,
    K_FUN,
    K_FUN_MATCH,
    K_FUN_MULTI,
    K_MACRO,
    K_MACRO_RULES,
    K_MR_ALT,
    K_NOTATION,
    K_SYNTAX,
    MACRO_RULE,
    NOTATION_RULE,
    CatRef,
    Parser,
    iter_commands,
    rule_lit,
)
from .quotation import (
    Seq,
    SepSeq,
    instantiate,
    match_quotation,
    process_pattern,
    process_quotation,
)
from .syntax import (
    Atom,
    Ident,
    KIND_ANTIQUOT,
    KIND_CMDSEQ,
    KIND_DQUOT,
    KIND_QUOT,
    KIND_SEQ,
    Name,
    Node,
    Syntax,
    base_name,
    is_quotation,
    render,
)

TUPLE_RULES_SRC = """
macro_rules
  | `(()) => `(Unit.unit)
  | `(($e)) => `($e)
  | `(($e, $es,*)) => `(Prod.mk $e ($es,*))
"""

REPEAT_SRC = """
syntax "repeat" tactic : tactic
macro_rules
  | `(tactic| repeat $t) => `(tactic| try ($t; repeat $t))
"""

NOTATIONS_SRC = """
notation "dup" e => Prod.mk e e
notation "twice" f x => f (f x)
"""


def run_source(state: RunState, src: str) -> List[Syntax]:
    """Feed commands through the pipeline; any error propagates."""
    expander = Expander(state)
    outputs: List[Syntax] = []
    for _, cmd in iter_commands(src, state.table):
        outputs.extend(expander.process_command(cmd))
    return outputs


# the prelude as built by `_build_prelude`; only ever copied from
_prototype: Optional[RunState] = None


def bootstrap(state: RunState) -> None:
    """Install the prelude into a fresh state, unless its config says
    `prelude=False`; any diagnostic in the prelude is a hard error.

    The prelude is built once per process, into a private prototype state.
    Each call gives `state` its own copies of the prototype's tables,
    context and registries, so nothing a run does reaches the prototype or
    another run.  The state keeps its own scope states, config and trace
    hook: prelude transformers are handed the state and read them there.
    """
    if not state.cfg.prelude:
        return
    global _prototype
    if _prototype is None:
        _prototype = _build_prelude()
    proto = _prototype
    state.table = proto.table.copy()
    state.gctx = proto.gctx.copy()
    state.macros = proto.macros.copy()
    state.elaborators = dict(proto.elaborators)
    state.tactics = dict(proto.tactics)


def _build_prelude() -> RunState:
    """Run the prelude in a new state: the install sequence behind the
    prototype."""
    state = RunState()
    try:
        _install_signatures(state)
        _install_macro_command(state)
        _install_notation_command(state)
        run_source(state, TUPLE_RULES_SRC)
        _install_fun_macros(state)
        run_source(state, REPEAT_SRC)
        run_source(state, NOTATIONS_SRC)
    except KernelError as err:
        raise RuntimeError(f"prelude failed to load: {err.message}") from err
    return state


def _install_signatures(state: RunState) -> None:
    gctx = state.gctx
    gctx.add(NAT, Decl("type"))
    gctx.add(UNIT, Decl("type"))
    gctx.add(PROD, Decl("type"))
    gctx.add(UNIT_UNIT, Decl("const", type_=TUnit()))
    gctx.add(PROD_MK, Decl("const"))  # polymorphic pair constructor
    gctx.add(NAT_ADD, Decl("const", type_=TArrow(NAT_TYPE, TArrow(NAT_TYPE, NAT_TYPE))))
    state.elaborators[K_ANON_CTOR] = elab_anonymous_ctor


# ---------------------------------------------------------------------------
# fun: currying and the combined fun-match form


def _fun_multi_transformer(stx: Syntax, state: RunState) -> Optional[Syntax]:
    kw, binders, arrow, body = stx.children
    elems = _seq_elements(binders)
    if not elems:
        raise ExpansionError("fun needs at least one binder")
    out = body
    for b in reversed(elems):
        out = Node(K_FUN, (Atom("fun"), b, Atom("=>"), out))
    return out


def _install_fun_macros(state: RunState) -> None:
    state.macros.register(K_FUN_MULTI, _fun_multi_transformer)

    def parse_term(src: str) -> Node:
        return Parser(src, state.table).parse_term()

    pattern = process_pattern(parse_term("`(fun | $ps1,* => $rhs1 $alts:alt*)"))
    template = process_quotation(
        parse_term(
            "`(fun $discrs* => match $[$discrs],* with | $ps1,* => $rhs1 $alts:alt*)"
        ),
        state.gctx,
    )
    discr_template = process_quotation(parse_term("`(x)"), state.gctx)
    discrs_var = Name.of("discrs")

    def fun_match_transformer(stx: Syntax, state: RunState) -> Optional[Syntax]:
        env = match_quotation(pattern, stx)
        if env is None:
            return None
        ps1 = env[Name.of("ps1")]
        if not isinstance(ps1, SepSeq):
            return None
        # one fresh variable per discriminant, each under its own scope
        discrs = []
        for _ in ps1.elems:
            with state.scopes.fresh():
                discrs.append(instantiate(discr_template, {}, state))
        env2 = dict(env)
        env2[discrs_var] = Seq(tuple(discrs))
        return instantiate(template, env2, state)

    state.macros.register(K_FUN_MATCH, fun_match_transformer)


# ---------------------------------------------------------------------------
# The `macro` command


def _macro_transformer(stx: Syntax, state: RunState) -> Optional[Syntax]:
    kw, items, _colon, cat_ident, _arrow, rhs = stx.children
    elems = _seq_elements(items)
    if not elems:
        raise ExpansionError("empty macro rule", info=kw.info)
    if not (isinstance(rhs, Node) and is_quotation(rhs)):
        raise ExpansionError(
            f"macro right-hand side must be a quotation, got '{render(rhs)}'"
        )
    if not isinstance(cat_ident, Ident):
        raise ExpansionError("macro needs a category name")
    cat = base_name(cat_ident.name)
    syntax_items: List[Syntax] = []
    rule_items: List = []
    pattern_children: List[Syntax] = []
    for item in elems:
        if isinstance(item, Atom):
            lit = rule_lit(item)
            syntax_items.append(Atom(item.text))
            rule_items.append(lit)
            pattern_children.append(Atom(lit.text))
        elif isinstance(item, Node) and item.kind == K_ARGDECL:
            name, _c, argcat = item.children
            slot = base_name(argcat.name)
            syntax_items.append(Ident(argcat.raw, slot, (), None))
            rule_items.append(CatRef(slot))
            # a :term tag adds nothing to matching; leave those holes bare
            suffix = () if slot == Name.of("term") else slot
            pattern_children.append(
                Node(Name((KIND_ANTIQUOT,) + suffix), (name,))
            )
        else:
            raise ExpansionError(f"bad macro item '{render(item)}'")
    kind = state.table.gen_kind(rule_items)
    syntax_cmd = Node(
        K_SYNTAX,
        (
            Atom("syntax"),
            Node(Name.of(KIND_SEQ), tuple(syntax_items)),
            Atom(":"),
            Ident(cat_ident.raw, cat, (), None),
        ),
    )
    quot_kind = (KIND_QUOT,) if cat in _DEFAULT_QUOT_CATS else (KIND_QUOT,) + cat
    pattern_quot = Node(Name(quot_kind), (Node(kind, tuple(pattern_children)),))
    macro_rules_cmd = Node(
        K_MACRO_RULES,
        (
            Atom("macro_rules"),
            Node(
                Name.of(KIND_SEQ),
                (Node(K_MR_ALT, (Atom("|"), pattern_quot, Atom("=>"), rhs)),),
            ),
        ),
    )
    return Node(Name.of(KIND_CMDSEQ), (syntax_cmd, macro_rules_cmd))


_DEFAULT_QUOT_CATS = {Name.of("term"), Name.of("command")}


def _install_macro_command(state: RunState) -> None:
    state.table.register_rule(CAT_COMMAND, MACRO_RULE)
    state.macros.register(K_MACRO, _macro_transformer)


# ---------------------------------------------------------------------------
# The `notation` command


def _substitute_params(stx: Syntax, params: Dict[Name, Ident]) -> Syntax:
    match stx:
        case Ident(name=name) if name in params:
            return Node(Name((KIND_ANTIQUOT,)), (params[name],))
        case Node(kind=kind, children=children):
            return Node(kind, tuple(_substitute_params(c, params) for c in children))
        case _:
            return stx


def _notation_transformer(stx: Syntax, state: RunState) -> Optional[Syntax]:
    kw, items, arrow, rhs = stx.children
    elems = _seq_elements(items)
    if not elems:
        raise ExpansionError("empty notation rule", info=kw.info)
    macro_items: List[Syntax] = []
    params: Dict[Name, Ident] = {}
    for item in elems:
        if isinstance(item, Atom):
            macro_items.append(Atom(item.text))
        elif isinstance(item, Ident):
            params[item.name] = item
            macro_items.append(
                Node(
                    K_ARGDECL,
                    (item, Atom(":"), Ident("term", Name.of("term"), (), None)),
                )
            )
        else:
            raise ExpansionError(f"bad notation item '{render(item)}'")
    body = _substitute_params(rhs, params)
    quot_kind = KIND_DQUOT if state.cfg.notation_precheck else KIND_QUOT
    wrapped = Node(Name((quot_kind,)), (body,))
    return Node(
        K_MACRO,
        (
            Atom("macro"),
            Node(Name.of(KIND_SEQ), tuple(macro_items)),
            Atom(":"),
            Ident("term", Name.of("term"), (), None),
            Atom("=>"),
            wrapped,
        ),
    )


def _install_notation_command(state: RunState) -> None:
    state.table.register_rule(CAT_COMMAND, NOTATION_RULE)
    state.macros.register(K_NOTATION, _notation_transformer)
