"""Randomized hygiene scenarios and whole-corpus structural properties.

The capture generator builds macros whose templates bind a variable and
splice a hole under it, then calls them with same-spelled use-site
identifiers.  Hygiene holds iff the spliced reference never resolves to
the template's binder and the template's references never resolve to
use-site binders.  A local that a template binds under the use site's own
name would resolve the use site to a name equal to the global's, so the
capture check also watches resolution itself: a use-site identifier
(one with source info; template identifiers have none) that no use-site
binder encloses must never resolve through the local context.
"""

import random

import pytest

from conftest import CORPUS, strip_info
from corpus_config import CORPUS_RUNS
from hygex import expander
from hygex.driver import RunConfig, Runner
from hygex.expander import Expander, RunState
from hygex.parser import BINDING_KINDS, K_ALT, K_FUN, K_FUN_MULTI, Parser, iter_commands
from hygex.prelude import bootstrap, run_source
from hygex.syntax import Ident, Name, Node, render

SCENARIOS = 500


# one case per binding kind of the scoping table: a form that binds
# `binder` in `body`
BINDING_FORMS = {
    K_FUN: lambda rng, binder, body: f"fun {binder} => {body}",
    K_FUN_MULTI: lambda rng, binder, body: f"fun {binder} z => {body}",
    K_ALT: lambda rng, binder, body: rng.choice(
        [f"match 1 with | {binder} => {body}", f"fun | {binder} => {body}"]
    ),
}


def _gen_template(rng, binder, hole_marker, kinds, depth=0):
    """A right-hand side that binds `binder` and mentions the hole; adds
    each binding kind it draws to `kinds`."""

    def bind(body):
        kind = rng.choice(list(BINDING_KINDS))
        kinds.add(kind)
        return BINDING_FORMS[kind](rng, binder, body)

    roll = rng.random()
    if depth > 2 or roll < 0.34:
        return bind(f"{hole_marker} + {binder}")
    if roll < 0.67:
        inner = _gen_template(rng, binder, hole_marker, kinds, depth + 1)
        return bind(f"({inner}) + {binder}")
    inner = _gen_template(rng, binder, hole_marker, kinds, depth + 1)
    return f"({inner}) + ({bind(hole_marker)})"


class TestCaptureFreedom:
    def test_every_binding_kind_has_a_generator_case(self):
        assert set(BINDING_FORMS) == set(BINDING_KINDS)

    def test_randomized_scenarios_produce_zero_captures(self):
        rng = random.Random(20240)
        captures = 0
        for i in range(SCENARIOS):
            binder = rng.choice(["x", "y", "v", "tmp"])
            kinds = set()
            template = _gen_template(rng, binder, "$e", kinds)
            state = RunState()
            bootstrap(state)
            # a pattern identifier that names a global is a reference, so
            # a template with an alternative declares the global after it
            rules = (
                f'syntax "k{i}" term : term\n'
                f"macro_rules | `(k{i} $e) => `({template})\n"
            )
            glob = f"def {binder} := 1\n"
            run_source(state, rules + glob if K_ALT in kinds else glob + rules)
            # the use site passes an identifier spelled like the binder;
            # each splice of it must still name the global, and no template
            # occurrence may
            use = Parser(f"k{i} {binder}", state.table).parse_term()
            out, local_uses = _expand_watching(state, use)
            names = [ident.name for ident in _idents(out) if ident.raw == binder]
            if names.count(Name.of(binder)) != template.count("$e") or local_uses:
                captures += 1
        assert captures == 0

    def test_template_references_escape_use_site_binders(self):
        # dual direction: a template reference never silently binds to a
        # same-spelled use-site binder.  With the global defined it stays
        # pinned to it; without the global it is unbound, not captured.
        from hygex.errors import UnboundIdentifier

        rng = random.Random(99)
        for i in range(100):
            g = rng.choice(["g", "w"])
            declare_global = i % 2 == 0
            state = RunState()
            bootstrap(state)
            run_source(
                state,
                (f"def {g} := 1\n" if declare_global else "")
                + f'syntax "r{i}" term : term\n'
                + f"macro_rules | `(r{i} $e) => `($e + {g})\n",
            )
            use = Parser(f"fun {g} => r{i} {g}", state.table).parse_term()
            if declare_global:
                out = Expander(state).expand(use)
                plus = out.children[3]
                use_site_ref, template_ref = plus.children[0], plus.children[2]
                # the spliced argument sees the fun binder; the template's
                # reference was pinned to the global at declaration time
                assert use_site_ref.name == Name.of(g)
                assert template_ref.preresolved == ()
                assert template_ref.name == Name.of(g)
            else:
                with pytest.raises(UnboundIdentifier):
                    Expander(state).expand(use)


class TestCorpusProperties:
    @pytest.mark.parametrize("name", sorted(CORPUS_RUNS))
    def test_parser_round_trip_over_the_corpus(self, name):
        state = RunState()
        bootstrap(state)
        expander = Expander(state)
        text = (CORPUS / f"{name}.hyg").read_text(encoding="utf-8")
        for _, cmd in iter_commands(text, state.table):
            reparser = Parser(render(cmd), state.table)
            again = reparser.parse_command()
            assert strip_info(cmd) == strip_info(again)
            try:
                expander.process_command(cmd)  # keep tables in sync
            except Exception:
                break

    def test_every_corpus_run_is_deterministic(self):
        for name, (kw, _) in CORPUS_RUNS.items():
            outs = set()
            for _ in range(2):
                runner = Runner(RunConfig(**kw))
                runner.run_files([str(CORPUS / f"{name}.hyg")])
                outs.add(runner.output)
            assert len(outs) == 1, name


def _expand_watching(state, stx):
    """Expand `stx`; also return the use-site identifiers (those with source
    info) that resolved through the local context."""
    local_uses = []
    resolve = expander.resolve_identifier

    def watched(ident, lctx, gctx):
        if ident.info is not None and ident.name in lctx:
            local_uses.append(ident)
        return resolve(ident, lctx, gctx)

    expander.resolve_identifier = watched
    try:
        return Expander(state).expand(stx), local_uses
    finally:
        expander.resolve_identifier = resolve


def _idents(stx):
    match stx:
        case Ident():
            yield stx
        case Node(children=children):
            for c in children:
                yield from _idents(c)
