"""Type-directed elaboration of expanded (or still macro-bearing) terms.

Elaboration checks against an expected type when one is known and
synthesizes otherwise; there is no unification.  Macro kinds without their
own elaborator are adapted on the fly: take one step of the kernel's one
macro-step routine, `expander.macro_step`, then elaborate the result.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .errors import ElabError, KernelError
from .expander import RunState, _seq_elements, macro_step, resolve_identifier
from .parser import K_APP, K_ARROW, K_FUN, K_NUM, K_PLUS
from .quotation import mk_c_ident
from .syntax import (
    OMITTED,
    Frozen,
    Ident,
    KIND_CHOICE,
    Name,
    Node,
    Symbol,
    Syntax,
    render,
    slot_setters,
    strip_top_level_scopes,
)

NAT = Name.of("Nat")
UNIT = Name.of("Unit")
PROD = Name.of("Prod")
UNIT_UNIT = Name.of("Unit.unit")
PROD_MK = Name.of("Prod.mk")
NAT_ADD = Name.of("Nat.add")
_CHOICE = Name.of(KIND_CHOICE)


# ---------------------------------------------------------------------------
# Core terms and types


class Core(Frozen):
    """Base of the core types and terms.  All print through one function,
    `core_str`, so printing a term is one walk, not a `__str__` per node."""

    __slots__ = ()

    def __str__(self) -> str:
        return core_str(self)


class TNat(Core):
    __slots__ = ()


# every TNat equals every other; the elaborator uses this one
NAT_TYPE = TNat()


class TUnit(Core):
    __slots__ = ()


class TPropAtom(Core):
    __slots__ = ("name",)
    name: Name

    def __init__(self, name: Name) -> None:
        _tprop_name(self, name)


(_tprop_name,) = slot_setters(TPropAtom)


class TArrow(Core):
    __slots__ = ("dom", "cod")
    dom: "CoreType"
    cod: "CoreType"

    def __init__(self, dom: "CoreType", cod: "CoreType") -> None:
        _tarrow_dom(self, dom)
        _tarrow_cod(self, cod)


_tarrow_dom, _tarrow_cod = slot_setters(TArrow)


class TProd(Core):
    __slots__ = ("left", "right")
    left: "CoreType"
    right: "CoreType"

    def __init__(self, left: "CoreType", right: "CoreType") -> None:
        _tprod_left(self, left)
        _tprod_right(self, right)


_tprod_left, _tprod_right = slot_setters(TProd)


CoreType = object  # TNat | TUnit | TPropAtom | TArrow | TProd


class Const(Core):
    """A global constant.  Its printed form is built once, into `text`,
    which is not one of its fields: equality, hashing, ``match`` and
    pickling see only the name."""

    __slots__ = ("name", "text")
    _fields = ("name",)
    name: Name

    def __init__(self, name: Name) -> None:
        _const_name(self, name)
        _const_text(self, f"const({name})")


_const_name, _const_text = slot_setters(Const)

# every `+` elaborates to an application of this one constant
_NAT_ADD_CONST = Const(NAT_ADD)


class Local(Core):
    __slots__ = ("symbol",)
    symbol: Symbol

    def __init__(self, symbol: Symbol) -> None:
        _local_symbol(self, symbol)


(_local_symbol,) = slot_setters(Local)


class Lam(Core):
    __slots__ = ("binder", "binder_type", "body")
    binder: Symbol
    binder_type: CoreType
    body: "CoreExpr"

    def __init__(self, binder: Symbol, binder_type: CoreType, body: "CoreExpr") -> None:
        _lam_binder(self, binder)
        _lam_binder_type(self, binder_type)
        _lam_body(self, body)


_lam_binder, _lam_binder_type, _lam_body = slot_setters(Lam)


class App(Core):
    __slots__ = ("fn", "arg")
    fn: "CoreExpr"
    arg: "CoreExpr"

    def __init__(self, fn: "CoreExpr", arg: "CoreExpr") -> None:
        _app_fn(self, fn)
        _app_arg(self, arg)


_app_fn, _app_arg = slot_setters(App)


class NatLit(Core):
    __slots__ = ("value",)
    value: int

    def __init__(self, value: int) -> None:
        _natlit_value(self, value)


(_natlit_value,) = slot_setters(NatLit)


class Pair(Core):
    __slots__ = ("fst", "snd")
    fst: "CoreExpr"
    snd: "CoreExpr"

    def __init__(self, fst: "CoreExpr", snd: "CoreExpr") -> None:
        _pair_fst(self, fst)
        _pair_snd(self, snd)


_pair_fst, _pair_snd = slot_setters(Pair)


CoreExpr = object  # Const | Local | Lam | App | NatLit | Pair


def core_str(x: object) -> str:
    """The printed form of a core type or term, one frame per level, where
    the function side of an `App` spine is one level; any other value
    prints as its `str`."""
    cls = type(x)
    if cls is App:
        args = []
        while type(x) is App:
            args.append(x.arg)
            x = x.fn
        out = core_str(x)
        while args:
            out = f"app({out}, {core_str(args.pop())})"
        return out
    if cls is Const:
        return x.text
    if cls is NatLit:
        return f"natLit({x.value})"
    if cls is Local:
        return f"local({x.symbol})"
    if cls is TNat:
        return "nat"
    if cls is TArrow:
        return f"arrow({core_str(x.dom)}, {core_str(x.cod)})"
    if cls is Pair:
        return f"pair({core_str(x.fst)}, {core_str(x.snd)})"
    if cls is TProd:
        return f"prod({core_str(x.left)}, {core_str(x.right)})"
    if cls is Lam:
        return f"lam({x.binder} : {core_str(x.binder_type)}. {core_str(x.body)})"
    if cls is TUnit:
        return "unit"
    if cls is TPropAtom:
        return f"prop({x.name})"
    return str(x)


# ---------------------------------------------------------------------------
# Environment


# expected-type head -> (constructor, arity), for `⟨…⟩`
_CONSTRUCTORS: Dict[type, Tuple[Name, int]] = {TProd: (PROD_MK, 2), TUnit: (UNIT_UNIT, 0)}


class ElabEnv:
    """The locals' types, beside the run's state, which holds the
    signatures, the scopes and the macro and elaborator tables.

    `consts` holds the one `Const` per global symbol that `_elab_ident`
    hands out; a child environment shares its parent's."""

    def __init__(
        self,
        state: RunState,
        locals: Dict[Symbol, CoreType] = OMITTED,
        consts: Dict[Symbol, Const] = OMITTED,
    ) -> None:
        self.state = state
        self.locals = {} if locals is OMITTED else locals
        self.consts = {} if consts is OMITTED else consts

    def signature(self, symbol: Symbol) -> Optional[CoreType]:
        decl = self.state.gctx.get(symbol)
        return decl.type_ if decl else None

    def child(self, symbol: Symbol, ty: CoreType) -> "ElabEnv":
        locals2 = dict(self.locals)
        locals2[symbol] = ty
        return ElabEnv(self.state, locals2, self.consts)


def _mismatch(expected: CoreType, actual: CoreType, stx: Syntax) -> ElabError:
    return ElabError(
        f"type mismatch at '{render(stx)}': expected {expected}, got {actual}"
    )


def _ensure(expected: Optional[CoreType], actual: CoreType, stx: Syntax) -> CoreType:
    if expected is not None and expected is not actual and expected != actual:
        raise _mismatch(expected, actual, stx)
    return actual


# ---------------------------------------------------------------------------
# Elaboration


def elab_term(
    stx: Syntax, env: ElabEnv, expected: Optional[CoreType] = None
) -> Tuple[CoreExpr, CoreType]:
    cls = type(stx)
    if cls is not Node:
        if cls is Ident:
            return _elab_ident(stx, env, expected)
        raise ElabError(f"cannot elaborate '{render(stx)}'")
    kind = stx.kind
    if kind == K_PLUS:
        left, _op, right = stx.children
        fst, _ = elab_term(left, env, NAT_TYPE)
        snd, _ = elab_term(right, env, NAT_TYPE)
        expr = App(App(_NAT_ADD_CONST, fst), snd)
        return expr, _ensure(expected, NAT_TYPE, stx)
    if kind == K_NUM:
        value = int(stx.children[0].text)
        return NatLit(value), _ensure(expected, NAT_TYPE, stx)
    if kind == _CHOICE:
        return _elab_choice(stx, env, expected)
    if kind == K_FUN:
        return _elab_fun(stx, env, expected)
    if kind == K_APP:
        return _elab_app(stx, env, expected)
    elaborator = env.state.elaborators.get(kind)
    if elaborator is not None:
        with env.state.scopes.fresh():
            return elaborator(stx, env, expected)
    if kind in env.state.macros:
        return transformer_to_elaborator(stx, env, expected)
    raise ElabError(f"no elaboration rule for syntax kind '{kind}'")


def transformer_to_elaborator(
    stx: Node, env: ElabEnv, expected: Optional[CoreType]
) -> Tuple[CoreExpr, CoreType]:
    """Take one macro step on the run's scopes, then elaborate the output;
    an error in either carries the step's frame."""
    state = env.state
    trace = state.on_macro_step if state.cfg.trace_expansion else None
    step = macro_step(stx, state.macros.get(stx.kind, ()), state, trace)
    if step is None:
        raise ElabError(
            f"no macro alternative matched '{render(stx)}' "
            f"while elaborating '{stx.kind}'"
        )
    out, scope = step
    try:
        return elab_term(out, env, expected)
    except KernelError as err:
        err.frames.insert(0, (stx.kind, scope))
        raise


def _elab_ident(
    stx: Ident, env: ElabEnv, expected: Optional[CoreType]
) -> Tuple[CoreExpr, CoreType]:
    gctx = env.state.gctx
    resolved = resolve_identifier(stx, env.locals, gctx)
    if isinstance(resolved, Node):  # overloaded
        return _elab_choice(resolved, env, expected)
    symbol = resolved.name
    if not gctx.is_ref(resolved):
        return Local(symbol), _ensure(expected, env.locals[symbol], stx)
    sig = env.signature(symbol)
    if sig is None:
        raise ElabError(f"'{symbol}' has no value signature")
    const = env.consts.get(symbol)
    if const is None:
        const = env.consts[symbol] = Const(symbol)
    return const, _ensure(expected, sig, stx)


def _elab_choice(
    stx: Node, env: ElabEnv, expected: Optional[CoreType]
) -> Tuple[CoreExpr, CoreType]:
    viable = []  # of the candidates, all references to globals
    for cand in stx.children:
        if env.signature(cand.name) is not None:
            viable.append(cand)
    if len(viable) != 1:
        names = ", ".join(str(c.name) for c in stx.children)
        raise ElabError(f"ambiguous reference (candidates: {names})")
    return _elab_ident(viable[0], env, expected)


def _elab_fun(
    stx: Node, env: ElabEnv, expected: Optional[CoreType]
) -> Tuple[CoreExpr, CoreType]:
    _kw, binder, _arrow, body = stx.children
    if expected is None:
        raise ElabError(
            f"cannot infer the type of '{render(stx)}' without an expected type"
        )
    if not isinstance(expected, TArrow):
        raise _mismatch(expected, "a function", stx)
    if not isinstance(binder, Ident):
        raise ElabError(f"binder must be an identifier, got '{render(binder)}'")
    symbol = strip_top_level_scopes(binder)
    body_expr, _ = elab_term(body, env.child(symbol, expected.dom), expected.cod)
    return Lam(symbol, expected.dom, body_expr), expected


def _app_spine(stx: Syntax) -> Tuple[Syntax, List[Syntax]]:
    args: List[Syntax] = []
    while isinstance(stx, Node) and stx.kind == K_APP:
        args.append(stx.children[1])
        stx = stx.children[0]
    args.reverse()
    return stx, args


def _elab_app(
    stx: Node, env: ElabEnv, expected: Optional[CoreType]
) -> Tuple[CoreExpr, CoreType]:
    head, args = _app_spine(stx)
    # saturated pair constructor: the builtin polymorphic case
    if isinstance(head, Ident):
        gctx = env.state.gctx
        resolved = resolve_identifier(head, env.locals, gctx)
        ctor = type(resolved) is Ident and resolved.name == PROD_MK and gctx.is_ref(resolved)
        if ctor and len(args) == 2:
            want = expected if isinstance(expected, TProd) else None
            fst, t1 = elab_term(args[0], env, want.left if want else None)
            snd, t2 = elab_term(args[1], env, want.right if want else None)
            return Pair(fst, snd), _ensure(expected, TProd(t1, t2), stx)
    fn_expr, fn_ty = elab_term(stx.children[0], env, None)
    if not isinstance(fn_ty, TArrow):
        raise ElabError(
            f"'{render(stx.children[0])}' is not a function (type {fn_ty})"
        )
    arg_expr, _ = elab_term(stx.children[1], env, fn_ty.dom)
    return App(fn_expr, arg_expr), _ensure(expected, fn_ty.cod, stx)


def elab_anonymous_ctor(
    stx: Node, env: ElabEnv, expected: Optional[CoreType]
) -> Tuple[CoreExpr, CoreType]:
    """⟨e, …⟩ elaborates as the expected type's constructor applied to the
    components; the constructor reference is synthesized hygienically."""
    if expected is None:
        raise ElabError("expected type required to elaborate '⟨…⟩'")
    entry = _CONSTRUCTORS.get(type(expected))
    if entry is None:
        raise ElabError(f"no constructor known for expected type {expected}")
    ctor, arity = entry
    args = _seq_elements(stx.children[1])
    if len(args) != arity:
        raise ElabError(
            f"'{ctor}' expects {arity} argument(s), got {len(args)}"
        )
    out: Syntax = mk_c_ident(ctor)
    for arg in args:
        out = Node(K_APP, (out, arg))
    return elab_term(out, env, expected)


# ---------------------------------------------------------------------------
# Types written as terms


def interp_type(stx: Syntax, env: ElabEnv) -> CoreType:
    """Read an expanded term in type position as a core type."""
    match stx:
        case Ident(name=name):
            decl = env.state.gctx.get(name)
            if decl is not None and decl.kind == "type":
                if name == NAT:
                    return NAT_TYPE
                if name == UNIT:
                    return TUnit()
            raise ElabError(f"'{render(stx)}' is not a type")
        case Node(kind=kind) if kind == K_ARROW:
            left, _op, right = stx.children
            return TArrow(interp_type(left, env), interp_type(right, env))
        case Node(kind=kind) if kind == K_APP:
            head, args = _app_spine(stx)
            if isinstance(head, Ident) and head.name == PROD and len(args) == 2:
                return TProd(interp_type(args[0], env), interp_type(args[1], env))
    raise ElabError(f"'{render(stx)}' is not a type")


# ---------------------------------------------------------------------------
# Independent type checker (soundness oracle)


def check_expr(
    expr: CoreExpr,
    sigs: Dict[Symbol, CoreType],
    locals_: Optional[Dict[Symbol, CoreType]] = None,
) -> CoreType:
    """Recompute the type of a core term from scratch.

    Deliberately separate from elaboration so the two can disagree."""
    env = dict(locals_ or {})

    def go(e: CoreExpr) -> CoreType:
        match e:
            case NatLit():
                return NAT_TYPE
            case Const(name=name):
                if name == UNIT_UNIT:
                    return TUnit()
                if name in sigs:
                    return sigs[name]
                raise ElabError(f"unknown constant '{name}'")
            case Local(symbol=symbol):
                if symbol in env:
                    return env[symbol]
                raise ElabError(f"loose local '{symbol}'")
            case Pair(fst=f, snd=s):
                return TProd(go(f), go(s))
            case Lam(binder=b, binder_type=bt, body=body):
                saved = env.get(b)
                env[b] = bt
                ty = TArrow(bt, go(body))
                if saved is None:
                    del env[b]
                else:
                    env[b] = saved
                return ty
            case App(fn=fn, arg=arg):
                fn_ty = go(fn)
                if not isinstance(fn_ty, TArrow):
                    raise ElabError(f"applying non-function of type {fn_ty}")
                arg_ty = go(arg)
                if arg_ty != fn_ty.dom:
                    raise ElabError(
                        f"argument type {arg_ty} does not fit {fn_ty}"
                    )
                return fn_ty.cod
        raise ElabError(f"unknown core term {e!r}")

    return go(expr)
