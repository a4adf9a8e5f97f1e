"""Quotation semantics: capture processing, pattern matching, instantiation.

A quotation template is processed once, at the point its surrounding macro
declaration is elaborated: every captured identifier is annotated with the
global symbols it matches right there.  Instantiating the template later
applies the invocation's current macro scope to exactly those captured
identifiers; spliced-in payloads are inserted verbatim.

Patterns and templates are compiled once, at declaration, into closures:
a pattern into a matcher that checks each node's class, kind, atom text or
identifier spelling and arity, and a template into a builder in which every
subtree holding no identifier, hole or splice is prebuilt and shared.  A
node builder fills a copy of the prebuilt children in its own frame, with
no comprehension.  A macro step then runs those closures instead of
walking the quotation.  The closures capture only the quotation, never
run state, so one compiled rule serves every run that shares it.  A
pattern also records its children's shapes, what every tree it matches
has at each position, from which `context.MacroTable` indexes a kind's
alternatives so that a step does not try a pattern that cannot match.  A
`macro_rules` block is no closure of its own: `check_rules` validates its
(pattern, template) pairs, and `expander.macro_step` matches and
instantiates them in turn.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING, Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple, Union
)

from .context import RESERVED_SCOPE, GlobalContext
from .errors import ExpansionError
from .parser import K_NUM
from .syntax import (
    Atom,
    Frozen,
    Ident,
    KIND_SPLICE,
    Missing,
    Name,
    Node,
    Syntax,
    add_macro_scope,
    antiquot_payload,
    is_antiquot,
    is_quotation,
    is_splice,
    render,
    slot_setters,
    splice_separator,
)

if TYPE_CHECKING:
    from .expander import RunState

# ---------------------------------------------------------------------------
# Match environments
#
# A match environment maps each pattern variable to what it captured: a
# hole's capture is the tree itself, and a splice's is a `Seq` or a
# `SepSeq` of its elements; under a nested splice a variable holds a `Rep`
# of one capture per element.  A tree is never one of these three classes,
# so the class tells a sequence capture from a tree.


class SepSeq(Frozen):
    __slots__ = ("elems", "sep")
    elems: Tuple[Syntax, ...]
    sep: str

    def __init__(self, elems: Tuple[Syntax, ...], sep: str = ",") -> None:
        _sepseq_elems(self, elems)
        _sepseq_sep(self, sep)


_sepseq_elems, _sepseq_sep = slot_setters(SepSeq)


class Seq(Frozen):
    __slots__ = ("elems",)
    elems: Tuple[Syntax, ...]

    def __init__(self, elems: Tuple[Syntax, ...]) -> None:
        _seq_elems(self, elems)


(_seq_elems,) = slot_setters(Seq)


class Rep(Frozen):
    """Element-wise captures of one variable under a nested splice."""

    __slots__ = ("items",)
    items: Tuple["Capture", ...]

    def __init__(self, items: Tuple["Capture", ...]) -> None:
        _rep_items(self, items)


(_rep_items,) = slot_setters(Rep)


Capture = Union[Syntax, SepSeq, Seq, Rep]
MatchEnv = Dict[Name, Capture]
_SEQ_CAPTURES = (SepSeq, Seq, Rep)

# A compiled pattern writes its captures into the environment it is given
# and says whether the tree matched; a compiled template builds a tree.
Matcher = Callable[[Syntax, MatchEnv], bool]
Builder = Callable[[MatchEnv, "RunState"], Syntax]


def _elems_of(capture: Capture) -> Tuple[Syntax, ...]:
    cls = type(capture)
    if cls is SepSeq or cls is Seq:
        return capture.elems
    if cls is Rep:
        raise ExpansionError("sequence payload expected, got element-wise captures")
    return (capture,)


# ---------------------------------------------------------------------------
# Processing


class QuotationTemplate(Frozen):
    """A processed template; `build`, compiled from the body, stays out of
    equality and repr."""

    __slots__ = ("body", "holes", "checked", "build")
    _fields = ("body", "holes", "checked")
    body: Syntax
    holes: FrozenSet[Name]
    checked: bool  # declared with a double-backtick quotation
    build: Builder

    def __init__(self, body: Syntax, holes: FrozenSet[Name], checked: bool = False) -> None:
        _template_body(self, body)
        _template_holes(self, holes)
        _template_checked(self, checked)
        _template_build(self, _compile_builder(body))


_template_body, _template_holes, _template_checked, _template_build = (
    slot_setters(QuotationTemplate)
)


class QuotationPattern(Frozen):
    """A macro pattern; `match` and `shape`, both derived from the body,
    stay out of equality and repr."""

    __slots__ = ("body", "kind", "vars", "match", "shape")
    _fields = ("body", "kind", "vars")
    body: Syntax
    kind: Name
    vars: FrozenSet[Name]
    match: Matcher
    shape: Tuple["Shape", ...]

    def __init__(self, body: Syntax, kind: Name, vars: FrozenSet[Name]) -> None:
        _pattern_body(self, body)
        _pattern_kind(self, kind)
        _pattern_vars(self, vars)
        _pattern_match(self, _compile_matcher(body))
        _pattern_shape(self, _child_shapes(body))


_pattern_body, _pattern_kind, _pattern_vars, _pattern_match, _pattern_shape = (
    slot_setters(QuotationPattern)
)


def _hole_var(anti: Node) -> Name:
    payload = antiquot_payload(anti)
    if not isinstance(payload, Ident):
        raise ExpansionError(
            f"unsupported antiquotation payload '{render(payload)}' "
            "(only identifier holes can be written in source)"
        )
    return payload.name


def collect_holes(stx: Syntax, out: Optional[List[Name]] = None) -> List[Name]:
    """Hole variables of a template or pattern body, in source order."""
    if out is None:
        out = []
    if isinstance(stx, Node):
        if is_antiquot(stx):
            out.append(_hole_var(stx))
        else:
            for c in stx.children:
                collect_holes(c, out)
    return out


def process_quotation(quot: Node, gctx: GlobalContext) -> QuotationTemplate:
    """Annotate captured identifiers of a quotation with top-level scopes."""
    if not is_quotation(quot):
        raise ExpansionError(f"expected a quotation, got '{render(quot)}'")
    body = quot.children[0]
    processed = _process(body, gctx)
    return QuotationTemplate(
        processed,
        frozenset(collect_holes(processed)),
        checked=quot.kind[0] == "dquot",
    )


def _process(stx: Syntax, gctx: GlobalContext) -> Syntax:
    match stx:
        case Ident(raw=raw, name=name, preresolved=pre):
            # a quotation that a macro built keeps its preresolutions first
            found = gctx.match_surface(name)
            return Ident(raw, name, tuple(dict.fromkeys((*pre, *found)) if pre else found), None)
        case Node() if is_antiquot(stx):
            _hole_var(stx)  # validate early
            return stx
        case Node(kind=kind, children=children):
            return Node(kind, tuple(_process(c, gctx) for c in children))
        case _:
            return stx


def process_pattern(quot: Node) -> QuotationPattern:
    if not is_quotation(quot):
        raise ExpansionError(
            f"macro_rules left-hand side must be a quotation, got '{render(quot)}'"
        )
    body = quot.children[0]
    if not isinstance(body, Node) or is_antiquot(body) or is_splice(body):
        raise ExpansionError("a macro pattern must start with a syntax node")
    seen: List[Name] = collect_holes(body)
    dups = {v for v in seen if seen.count(v) > 1}
    if dups:
        names = ", ".join(sorted(str(d) for d in dups))
        raise ExpansionError(f"duplicate pattern variable: {names}")
    return QuotationPattern(body, body.kind, frozenset(seen))


# ---------------------------------------------------------------------------
# Matching


def match_quotation(pattern: QuotationPattern, stx: Syntax) -> Optional[MatchEnv]:
    env: MatchEnv = {}
    if pattern.match(stx, env):
        return env
    return None


def _is_ident(stx: Syntax) -> bool:
    return type(stx) is Ident


def _is_num(stx: Syntax) -> bool:
    return type(stx) is Node and stx.kind == K_NUM


def _admits(anti: Node) -> Optional[Callable[[Syntax], bool]]:
    """The test an antiquotation's tag puts on what it captures, if any."""
    suffix = anti.kind[1:]
    if suffix == ("ident",):
        return _is_ident
    if suffix == ("num",):
        return _is_num
    # other category/kind tags only document intent; the surrounding
    # literal structure already pins the shape
    return None


def _no_match(stx: Syntax, env: MatchEnv) -> bool:
    return False


def _compile_matcher(pat: Syntax) -> Matcher:
    if type(pat) is Node:
        if is_antiquot(pat):
            return _compile_hole_matcher(pat)
        return _compile_node_matcher(pat)
    if type(pat) is Atom:
        text = pat.text

        def match_atom(stx: Syntax, env: MatchEnv) -> bool:
            return type(stx) is Atom and stx.text == text

        return match_atom
    if type(pat) is Ident:
        # surface spelling only: scopes and top-level scopes are
        # irrelevant to structural matching
        raw = pat.raw

        def match_ident(stx: Syntax, env: MatchEnv) -> bool:
            return type(stx) is Ident and stx.raw == raw

        return match_ident
    if type(pat) is Missing:
        return lambda stx, env: type(stx) is Missing
    return _no_match


# A shape is a condition that every tree a compiled pattern matches meets:
# the range (lo, hi) of the tree's size, which is the number of children of
# a node and -1 for a leaf; hi None is no upper bound, and a shape of None
# is no condition.  `context.MacroTable` indexes a kind's alternatives by
# the shapes of their patterns' children.
Shape = Optional[Tuple[int, Optional[int]]]
_LEAF: Shape = (-1, -1)
_ANY_NODE: Shape = (0, None)


def _child_shapes(pat: Syntax) -> Tuple[Shape, ...]:
    """The shape of each child of a node pattern up to its first splice,
    for the input child at the same position; past a splice no child has a
    fixed position."""
    if type(pat) is not Node or is_antiquot(pat):
        return ()
    shapes = []
    for c in pat.children:
        if is_splice(c):
            break
        shapes.append(_shape(c))
    return tuple(shapes)


def _shape(pat: Syntax) -> Shape:
    """The shape of what `_compile_matcher(pat)` matches."""
    cls = type(pat)
    if cls is Node:
        if is_antiquot(pat):
            admits = _admits(pat)
            return _LEAF if admits is _is_ident else _ANY_NODE if admits is _is_num else None
        n = len(pat.children)
        # a splice stands for any run of children: the others are the least
        return (n - 1, None) if any(is_splice(c) for c in pat.children) else (n, n)
    if cls is Atom or cls is Ident or cls is Missing:
        return _LEAF
    return None


def _compile_hole_matcher(anti: Node) -> Matcher:
    var = _hole_var(anti)
    admits = _admits(anti)
    if admits is None:

        def match_hole(stx: Syntax, env: MatchEnv) -> bool:
            env[var] = stx
            return True

        return match_hole

    def match_tagged_hole(stx: Syntax, env: MatchEnv) -> bool:
        if not admits(stx):
            return False
        env[var] = stx
        return True

    return match_tagged_hole


def _compile_node_matcher(pat: Node) -> Matcher:
    kind = pat.kind
    children = pat.children
    at = next((i for i, c in enumerate(children) if is_splice(c)), None)
    if at is None:
        # Atoms are tested first, in line, and untagged holes are filled
        # last.  The order cannot change the outcome: a failed match drops
        # its whole environment, and pattern variables are distinct.
        atoms, holes, others = [], [], []
        for i, c in enumerate(children):
            if type(c) is Atom:
                atoms.append((i, c.text))
            elif is_antiquot(c) and _admits(c) is None:
                holes.append((i, _hole_var(c)))
            else:
                others.append((i, _compile_matcher(c)))
        arity = len(children)

        def match_node(stx: Syntax, env: MatchEnv) -> bool:
            if type(stx) is not Node:
                return False
            k = stx.kind
            if k is not kind and k != kind:
                return False
            inputs = stx.children
            if len(inputs) != arity:
                return False
            for i, text in atoms:
                c = inputs[i]
                if type(c) is not Atom or c.text != text:
                    return False
            for i, m in others:
                if not m(inputs[i], env):
                    return False
            for i, var in holes:
                env[var] = inputs[i]
            return True

        return match_node

    # only the first splice of a child list is one; any later one matches
    # as a plain node
    prefix = tuple(_compile_matcher(c) for c in children[:at])
    suffix = tuple(_compile_matcher(c) for c in children[at + 1 :])
    match_middle = _compile_splice_matcher(children[at])
    n_pre, n_suf = len(prefix), len(suffix)

    def match_spliced_node(stx: Syntax, env: MatchEnv) -> bool:
        if type(stx) is not Node:
            return False
        k = stx.kind
        if k is not kind and k != kind:
            return False
        inputs = stx.children
        end = len(inputs) - n_suf
        if end < n_pre:
            return False
        for m, c in zip(prefix, inputs):
            if not m(c, env):
                return False
        for m, c in zip(suffix, inputs[end:]):
            if not m(c, env):
                return False
        return match_middle(inputs[n_pre:end], env)

    return match_spliced_node


def _split_elements(
    children: Sequence[Syntax], sep: str
) -> Optional[List[Syntax]]:
    if sep == "":
        return list(children)
    if not children:
        return []
    if len(children) % 2 == 0:
        return None
    elems = list(children[0::2])
    for s in children[1::2]:
        if not (isinstance(s, Atom) and s.text == sep):
            return None
    return elems


def _compile_splice_matcher(splice: Node) -> Callable[[Sequence[Syntax], MatchEnv], bool]:
    """A matcher of the run of children a splice stands for."""
    sep = splice_separator(splice)
    if splice.kind[0] == KIND_SPLICE:
        anti = splice.children[0]
        var = _hole_var(anti)
        admits = _admits(anti)

        def match_splice(middle: Sequence[Syntax], env: MatchEnv) -> bool:
            elems = _split_elements(middle, sep)
            if elems is None:
                return False
            if admits is not None and not all(admits(e) for e in elems):
                return False
            env[var] = SepSeq(tuple(elems), sep) if sep else Seq(tuple(elems))
            return True

        return match_splice

    # nested splice: the inner pattern must match every element
    match_inner = _compile_matcher(splice.children[0])
    vars_ = tuple(collect_holes(splice.children[0]))

    def match_group(middle: Sequence[Syntax], env: MatchEnv) -> bool:
        elems = _split_elements(middle, sep)
        if elems is None:
            return False
        collected: Dict[Name, List[Capture]] = {v: [] for v in vars_}
        for elem in elems:
            sub: MatchEnv = {}
            if not match_inner(elem, sub):
                return False
            for v in vars_:
                collected[v].append(sub[v])
        for v, items in collected.items():
            env[v] = Rep(tuple(items))
        return True

    return match_group


# ---------------------------------------------------------------------------
# Instantiation


def instantiate(template: QuotationTemplate, env: MatchEnv, state: RunState) -> Syntax:
    if not env.keys() >= template.holes:
        missing = template.holes.difference(env)
        names = ", ".join(sorted(str(m) for m in missing))
        raise ExpansionError(f"unbound antiquotation variable: {names}")
    return template.build(env, state)


def _compile_builder(stx: Syntax) -> Builder:
    build, tree = _compile_part(stx)
    if build is None:
        return lambda env, state: tree
    return build


def _compile_part(stx: Syntax) -> Tuple[Optional[Builder], Optional[Syntax]]:
    """Compile one template subtree to `(builder, None)`, or to `(None,
    tree)` when it holds no identifier, hole or splice: such a subtree is
    built once, its atoms stripped of source info, and every instantiation
    shares it."""
    if type(stx) is Ident:
        raw, name, pre = stx.raw, stx.name, stx.preresolved

        def build_ident(env: MatchEnv, state: RunState) -> Syntax:
            # `ScopeState.current` inline: the step's scope, allocated on first use
            scopes = state.scopes
            scope = scopes._stack[-1]
            if scope is None:
                scope = scopes._stack[-1] = scopes.counter.alloc()
            return Ident(raw, Name(name + (scope,)), pre, None)

        return build_ident, None
    if type(stx) is Atom:
        return None, stx if stx.info is None else Atom(stx.text, None)
    if type(stx) is not Node:
        return None, stx
    if is_antiquot(stx):
        return _compile_hole_builder(stx), None
    kind = stx.kind
    spliced = tuple(is_splice(c) for c in stx.children)
    parts = tuple(
        (_compile_splice_builder(c), None) if s else _compile_part(c)
        for c, s in zip(stx.children, spliced)
    )
    if all(build is None for build, _ in parts):
        return None, Node(kind, tuple(tree for _, tree in parts))
    if any(spliced):

        def build_spliced_node(env: MatchEnv, state: RunState) -> Syntax:
            out: List[Syntax] = []
            for (build, tree), s in zip(parts, spliced):
                if build is None:
                    out.append(tree)
                elif s:
                    out.extend(build(env, state))
                else:
                    out.append(build(env, state))
            return Node(kind, tuple(out))

        return build_spliced_node, None

    builds = [(i, build) for i, (build, _) in enumerate(parts) if build is not None]
    prebuilt = [tree for _, tree in parts]

    def build_node(env: MatchEnv, state: RunState) -> Syntax:
        children = prebuilt.copy()
        for i, build in builds:
            children[i] = build(env, state)
        return Node(kind, tuple(children))

    return build_node, None


def _compile_hole_builder(anti: Node) -> Builder:
    var = _hole_var(anti)

    def build_hole(env: MatchEnv, state: RunState) -> Syntax:
        capture = env[var]
        if type(capture) in _SEQ_CAPTURES:
            raise ExpansionError(
                f"hole ${var} expects a single tree, got a sequence capture"
            )
        return capture

    return build_hole


def _with_separators(elems: List[Syntax], sep: str) -> List[Syntax]:
    if not sep:
        return elems
    sep_atom = Atom(sep, None)
    out: List[Syntax] = []
    for i, e in enumerate(elems):
        if i:
            out.append(sep_atom)
        out.append(e)
    return out


def _compile_splice_builder(
    splice: Node,
) -> Callable[[MatchEnv, RunState], List[Syntax]]:
    """A builder of the run of children a splice stands for; separators are
    inserted, removed or replaced to fit this position."""
    sep = splice_separator(splice)
    if splice.kind[0] == KIND_SPLICE:
        var = _hole_var(splice.children[0])

        def build_splice(env: MatchEnv, state: RunState) -> List[Syntax]:
            return _with_separators(list(_elems_of(env[var])), sep)

        return build_splice

    inner = splice.children[0]
    build_inner = _compile_builder(inner)
    vars_ = tuple(dict.fromkeys(collect_holes(inner)))

    def build_group(env: MatchEnv, state: RunState) -> List[Syntax]:
        lengths = set()
        per_var: Dict[Name, Tuple] = {}
        for v in vars_:
            capture = env[v]
            if type(capture) is Rep:
                per_var[v] = capture.items
            else:
                per_var[v] = _elems_of(capture)
            lengths.add(len(per_var[v]))
        if not vars_:
            raise ExpansionError("nested splice without antiquotations")
        if len(lengths) != 1:
            raise ExpansionError(
                "nested splice variables hold sequences of different lengths"
            )
        elems = []
        for i in range(lengths.pop()):
            sub = dict(env)
            for v in vars_:
                sub[v] = per_var[v][i]
            elems.append(build_inner(sub, state))
        return _with_separators(elems, sep)

    return build_group


# ---------------------------------------------------------------------------
# Rules


def check_rules(rules: Sequence[Tuple[QuotationPattern, QuotationTemplate]]) -> Name:
    """The one kind a `macro_rules` block's (pattern, template) pairs all
    target; raises when there is none, there are several, or a template has
    a hole that its pattern does not bind."""
    if not rules:
        raise ExpansionError("macro_rules needs at least one alternative")
    kinds = {p.kind for p, _ in rules}
    if len(kinds) != 1:
        names = ", ".join(sorted(str(k) for k in kinds))
        raise ExpansionError(
            f"macro_rules alternatives target different syntax kinds: {names}"
        )
    for pattern, template in rules:
        stray = template.holes - pattern.vars
        if stray:
            names = ", ".join(sorted(str(s) for s in stray))
            raise ExpansionError(f"unbound antiquotation variable: {names}")
    return kinds.pop()


def mk_c_ident(name: Name) -> Ident:
    """A hygienic reference to a known global: a reserved scope keeps it
    clear of every user binder, and the top-level scope pins the target."""
    raw = ".".join(str(p) for p in name if isinstance(p, str))
    return Ident(raw, add_macro_scope(name, RESERVED_SCOPE), (name,), None)
