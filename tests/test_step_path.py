"""The macro step's fast path agrees with what it replaced.

`_has_captured_ident`, `resolve_identifier` and `GlobalContext.match_surface`
were rewritten to test exact types, to loop instead of recursing, to split a
name in one scan and to skip building candidates for the common single
match.  The versions they replaced are kept here as the references of
differentials on generated trees and names.  Each `RunState` builds
its `TransformerEnv` once; the tests below pin down what that env sees.
So is the checker that CI runs on the recorded traced counts.
"""

import json
from typing import List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bench_counts
from hygex.context import Decl, GlobalContext
from hygex.driver import RunConfig, Runner
from hygex.errors import ExpansionError, UnboundIdentifier
from hygex.expander import RunState, macro_step, resolve_identifier
from hygex.elaborator import NatLit, TNat, elab_term
from hygex.parser import K_NUM, K_SKIP, Parser, ParserTable
from hygex.precheck import _has_captured_ident
from hygex.quotation import (
    instantiate,
    match_quotation,
    process_pattern,
    process_quotation,
)
from hygex.syntax import (
    KIND_CHOICE,
    Atom,
    Ident,
    Missing,
    Name,
    Node,
    Syntax,
    Symbol,
    base_name,
    is_antiquot,
    is_splice,
    macro_scopes,
)

# ---------------------------------------------------------------------------
# The replaced versions


def ref_has_captured_ident(stx: Syntax) -> bool:
    match stx:
        case Ident():
            return True
        case Node() if is_antiquot(stx) or is_splice(stx):
            return False
        case Node(children=children):
            return any(ref_has_captured_ident(c) for c in children)
    return False


def ref_match_surface(gctx: GlobalContext, name: Name) -> List[Symbol]:
    nb = base_name(name)
    bucket = gctx._suffix_index.get((nb[-1], macro_scopes(name))) if nb else None
    if bucket is None:
        return [name] if name in gctx.decls else []
    n = len(nb)
    return [g for gb, g in bucket if g == name or (len(gb) > n and gb[-n:] == nb)]


def ref_resolve_identifier(stx: Ident, lctx, gctx: GlobalContext) -> Syntax:
    if stx.name in lctx:
        return Ident(stx.raw, stx.name, (), None)
    candidates: List[Symbol] = []
    for cand in tuple(stx.preresolved) + tuple(ref_match_surface(gctx, stx.name)):
        if cand not in candidates:
            candidates.append(cand)
    if len(candidates) == 1:
        return Ident(stx.raw, candidates[0], (), None)
    if candidates:
        refs = tuple(Ident(stx.raw, c, (), None) for c in candidates)
        return Node(Name.of(KIND_CHOICE), refs)
    raise UnboundIdentifier(stx.raw, stx.info)


# ---------------------------------------------------------------------------
# Generated names, contexts and trees

# few components, so that generated names often share a base or a suffix
COMPONENTS = st.sampled_from(["a", "b", "c"])
SCOPES = st.lists(st.sampled_from([1, 2, -1]), max_size=2)
NAMES = st.one_of(
    st.builds(
        lambda base, scopes: Name(tuple(base) + tuple(scopes)),
        st.lists(COMPONENTS, min_size=1, max_size=3),
        SCOPES,
    ),
    # a scope inside a dotted name, and the anonymous name
    st.builds(lambda a, s, b: Name((a, s, b)), COMPONENTS, st.sampled_from([1, 2]), COMPONENTS),
    st.just(Name(())),
)


def context_of(names) -> GlobalContext:
    gctx = GlobalContext()
    for name in names:
        gctx.add(name, Decl("def"))
    return gctx


CONTEXTS = st.lists(NAMES, max_size=8).map(context_of)

IDENTS = st.builds(
    lambda name, pre: Ident("x", name, tuple(pre), None),
    NAMES,
    st.one_of(st.just([]), st.lists(NAMES, max_size=2)),
)

# a local context is a frozenset in the expander and a dict in the elaborator
LOCALS = st.one_of(
    st.frozensets(NAMES, max_size=3),
    st.dictionaries(NAMES, st.none(), max_size=3),
)

KINDS = st.sampled_from(
    [
        Name.of("app"),
        Name.of("plus"),
        Name.of("seq"),
        Name.of("sepseq"),
        Name(("antiquot",)),
        Name(("antiquot", "ident")),
        Name(("splice",)),
        Name(("splice", ",")),
        Name(("splicegroup", ",")),
    ]
)
LEAVES = st.one_of(
    st.builds(lambda n: Ident("x", n, (), None), NAMES),
    st.builds(lambda t: Atom(t, None), st.sampled_from(["+", ",", "$"])),
    st.just(Missing()),
)
TREES = st.recursive(
    LEAVES,
    lambda sub: st.builds(
        lambda kind, children: Node(kind, tuple(children)),
        KINDS,
        st.lists(sub, max_size=3),
    ),
    max_leaves=12,
)


def outcome(fn, *args):
    try:
        return ("value", fn(*args))
    except UnboundIdentifier as err:
        return ("unbound", err.message)


# The examples are few (the suite's time is budgeted) and each looks up
# several names in its context, which costs little to draw.
class TestTheRewrittenWalkersAgree:
    @settings(max_examples=60)
    @given(TREES)
    def test_has_captured_ident(self, stx):
        assert _has_captured_ident(stx) == ref_has_captured_ident(stx)

    @settings(max_examples=40)
    @given(CONTEXTS, st.lists(NAMES, min_size=1, max_size=6))
    def test_match_surface(self, gctx, names):
        for name in names + list(gctx):
            assert gctx.match_surface(name) == ref_match_surface(gctx, name)

    @settings(max_examples=40)
    @given(CONTEXTS, st.lists(IDENTS, min_size=1, max_size=4), LOCALS)
    def test_resolve_identifier(self, gctx, idents, lctx):
        for ident in idents:
            assert outcome(resolve_identifier, ident, lctx, gctx) == outcome(
                ref_resolve_identifier, ident, lctx, gctx
            )

    def test_each_resolution_outcome_by_hand(self):
        # one match, several, none, and a preresolved single match
        gctx = context_of([Name.of("a"), Name.of("b.a"), Name.of("c")])

        def resolve(name, pre=()):
            return resolve_identifier(Ident("x", Name.of(name), pre, None), frozenset(), gctx)

        assert resolve("c") == Ident("x", Name.of("c"), (), None)
        assert resolve("a").kind == Name.of(KIND_CHOICE)
        with pytest.raises(UnboundIdentifier):
            resolve("d")
        assert resolve("c", (Name.of("b.a"),)).kind == Name.of(KIND_CHOICE)


# ---------------------------------------------------------------------------
# One run state: every step of a run is handed the run's `RunState` itself

PROBE_SRC = (
    'syntax "probe" : term\n'
    'syntax "probeArg" term : term\n'
    'syntax "ptac" : tactic\n'
    'syntax "pel" : term\n'
    'syntax "phost" : tactic\n'
)


def probing(runner: Runner, seen: list) -> Runner:
    """Give `runner` terms `probe` and `probeArg t` and a tactic `ptac`
    whose transformers record the state of every step and its scopes and
    `single_scope` at the time; the terms expand to `1`, the tactic to
    `skip`.  A host elaborator for `pel` and a host tactic `phost` record
    the state they reach."""
    runner.run_source(PROBE_SRC)

    def term(stx, state):
        seen.append((state, state.scopes, state.single_scope))
        return Node(K_NUM, (Atom("1", None),))

    def tactic(stx, state):
        seen.append((state, state.scopes, state.single_scope))
        return Node(K_SKIP, (Atom("skip", None),))

    def elaborator(stx, env, expected):
        seen.append((env.state, env.state.scopes, env.state.single_scope))
        return NatLit(1), TNat()

    def host_tactic(stx, ts):
        seen.append((ts.state, ts.state.scopes, ts.state.single_scope))
        return ts

    state = runner.state
    state.macros.register(Name.of("probe"), term)
    state.macros.register(Name.of("probeArg"), term)
    state.macros.register(Name.of("ptac"), tactic)
    state.elaborators[Name.of("pel")] = elaborator
    state.tactics[Name.of("phost")] = host_tactic
    return runner


class TestOneRunState:
    def test_every_step_of_a_run_gets_the_run_s_state(self):
        seen = []
        runner = probing(Runner(RunConfig(stage="elaborate")), seen)
        runner.run_source(
            "def a := probe\n"
            "def b := probe + pel\n"
            "theorem t (p : Prop) : p → p := by intro h; ptac; phost; exact h\n"
        )
        assert not runner.diagnostics, runner.output
        # the elaborator's adapter takes its macro step on the run's state
        elab_term(Node(Name.of("probe"), (Atom("probe", None),)), runner.elab_env)
        state = runner.state
        assert seen == [(state, state.scopes, False)] * 6

    def test_a_precheck_step_gets_the_run_s_state_with_its_scratch_scopes(self):
        seen = []
        runner = probing(Runner(), seen)
        runner.state.single_scope = True
        runner.run_source(
            'syntax "k" : term\nmacro_rules | `(k) => ``(probeArg y)\ndef z := probe\n'
        )
        assert not runner.diagnostics, runner.output
        state = runner.state
        # the precheck unfolds `probeArg y` with the scratch scopes and the
        # full scope stack; the run's own step reads its own settings again
        assert seen == [(state, state.scratch, False), (state, state.scopes, True)]
        assert state.scopes is not state.scratch

    def test_two_runners_get_distinct_states(self):
        one, two = Runner(), Runner()
        assert one.state is not two.state
        assert one.state.gctx is not two.state.gctx
        assert one.state.scopes is not two.state.scopes
        assert one.state.scratch is not two.state.scratch
        assert one.elab_env.state is one.state and one.expander.state is one.state

    def test_a_transformer_never_sees_another_run_s_globals(self):
        seen = []
        first = probing(Runner(RunConfig(stage="elaborate")), seen)
        second = probing(Runner(RunConfig(stage="elaborate")), seen)
        first.run_source("def onlyFirst := 2\ndef a := probe\n")
        second.run_source("def onlySecond := 3\ndef a := probe\n")
        first.run_source("def b := probe\n")
        assert not first.diagnostics and not second.diagnostics
        first_only, second_only = Name.of("onlyFirst"), Name.of("onlySecond")
        states = [(s, first_only in s.gctx, second_only in s.gctx) for s, _, _ in seen]
        assert states == [
            (first.state, True, False),
            (second.state, False, True),
            (first.state, True, False),
        ]


KEEP_LAST_SCOPE_SRC = (
    'macro "m" y:ident : command => `(\n'
    "  def f := 1\n"
    '  macro "mm" : command => `(\n'
    "    def $y := f + 1\n"
    "    def f := $y + 1))\n"
    "m f\n"
    "mm\n"
)

# (how the state is changed, source, a line of the output only then)
SETTINGS = {
    "single_scope": (
        lambda state: setattr(state, "single_scope", True),
        KEEP_LAST_SCOPE_SRC,
        "error: 'f.2' has already been declared",
    ),
    "max_expansion_depth": (
        lambda state: setattr(state, "cfg", RunConfig(max_expansion_depth=1)),
        "def x := dup (dup 1)\n",
        "error: macro expansion depth exceeded @1:1",
    ),
    "notation_precheck": (
        lambda state: setattr(state, "cfg", RunConfig(notation_precheck=False)),
        'notation "bad" => nosuch\n',
        "macro_rules | `(bad) => `(nosuch)",
    ),
    "max_repeat": (
        lambda state: setattr(state, "cfg", RunConfig(stage="elaborate", max_repeat=3)),
        "theorem t (p : Prop) : p → p := by intro h; repeat skip; exact h\n",
        "error: tactic macro expansion budget exceeded (see --max-repeat) @1:1",
    ),
    "stage": (
        lambda state: setattr(state, "cfg", RunConfig(stage="elaborate")),
        "def x := 1\n",
        "def x : nat := natLit(1)",
    ),
}


class TestSettingsAreReadFromTheState:
    @pytest.mark.parametrize("name", sorted(SETTINGS))
    def test_a_setting_assigned_on_the_state_is_what_the_next_step_reads(self, name):
        change, src, line = SETTINGS[name]
        plain, changed = Runner(), Runner()
        change(changed.state)
        plain.run_source(src)
        changed.run_source(src)
        assert line not in plain.output.splitlines()
        assert line in changed.output.splitlines(), changed.output


class TestInstantiateStillChecksItsHoles:
    def test_a_procedural_body_with_an_incomplete_env(self):
        table = ParserTable()

        def term(src):
            return Parser(src, table).parse_term()

        template = process_quotation(term("`($e + $f)"), GlobalContext())

        pattern = process_pattern(term("`(($x))"))

        def transformer(stx, state):
            env = match_quotation(pattern, stx)
            return instantiate(template, {Name.of("e"): env[Name.of("x")]}, state)

        with pytest.raises(ExpansionError) as exc:
            macro_step(term("(1)"), [(None, transformer)], RunState())
        assert exc.value.message == "unbound antiquotation variable: f"


class TestTheRecordedBenchCounts:
    """`bench_counts.py` is the CI gate that keeps every traced count of
    the three workloads at seed 1 equal to the recorded one."""

    def test_a_moved_or_missing_count_is_reported(self):
        want = json.loads(bench_counts.RECORDED.read_text())["workloads"]["macro_mix"]
        assert want["expander.macro_steps"] == 5383
        assert want["context.scopes_allocated"] == 2930
        result = {"metrics": {k: {"value": v} for k, v in want.items()}}
        assert bench_counts.differences(want, result) == []
        result["metrics"]["expander.macro_steps"]["value"] = 5382
        del result["metrics"]["quotation.match_calls"]
        assert bench_counts.differences(want, result) == [
            "quotation.match_calls: recorded 5566, got nothing",
            "expander.macro_steps: recorded 5383, got 5382",
        ]
