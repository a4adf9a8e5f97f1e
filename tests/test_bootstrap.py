"""Bootstrap once per process: each run starts from a copy of one prebuilt
prelude state, and nothing a run does reaches that prototype or a later
run."""

import json
import os
import random
import subprocess
import sys
from dataclasses import FrozenInstanceError
from pathlib import Path

import pytest

from conftest import CORPUS, GOLDENS
from corpus_config import CORPUS_RUNS
from hygex import prelude
from hygex.context import Alternatives, ScopeCounter
from hygex.driver import RunConfig, Runner, run_string
from hygex.expander import RunState
from hygex.parser import _symbolic
from hygex.prelude import bootstrap
from hygex.syntax import Name


def _prototype() -> RunState:
    bootstrap(RunState())
    return prelude._prototype


def contents(state: RunState):
    """Everything a run can add to or change in the prelude's tables and
    context, as plain values (a `Decl` by its fields)."""
    table = state.table
    return (
        {n: tuple(c.rules) for n, c in table.categories.items()},
        frozenset(table.keywords),
        table.symbols,
        frozenset(table.kinds),
        tuple((s, (d.kind, d.type_, d.prop)) for s, d in state.gctx.decls.items()),
        {k: tuple(b) for k, b in state.gctx._suffix_index.items()},
        {k: (tuple(alts), alts.by_shape) for k, alts in state.macros.items()},
        dict(state.elaborators),
        dict(state.tactics),
        state.scopes.counter._next,
        state.scratch.counter._next,
    )


ELAB = dict(stage="elaborate")

# what a run may share with the prototype: values nothing can change in place
IMMUTABLE = (frozenset, tuple, str, int, type(None))

MUTATIONS = {
    "syntax_rule_and_keyword": ('syntax "zz" term : term\n', {}),
    "syntax_rule_and_symbol": ('syntax "<+>" term : term\n', {}),
    # a new tuple rule: the kind's index by shape is built again
    "macro_rules_on_tuples": ("macro_rules | `(($a, $b)) => `($a)\n", {}),
    "macro_rules_on_a_prelude_kind": ("macro_rules | `(dup $e) => `($e)\n", {}),
    "notation": ('notation "trip" e => Prod.mk e (Prod.mk e e)\n', {}),
    "macro": ('macro "mm" e:term : term => `($e + 1)\n', {}),
    "declare_syntax_cat": ('declare_syntax_cat mycat\nsyntax "mc" : mycat\n', {}),
    # Foo.mk and Foo.unit land in the suffix buckets of Prod.mk and Unit.unit
    "def_into_prelude_buckets": ("def Foo.mk := 1\ndef Foo.unit : Nat := 2\n", ELAB),
    "theorem": ("theorem triv (p : Prop) : p → p := by intro h; exact h\n", ELAB),
    "prechecker": ('syntax "k" term : term\nmacro_rules | `(k $e) => ``($e + 1)\n', {}),
    "scopes": ('notation "cst" e => fun x => e\ndef y := cst 1\n', {}),
}


class TestIsolation:
    @pytest.mark.parametrize("name", sorted(MUTATIONS))
    def test_a_run_changes_neither_the_prototype_nor_a_later_runner(self, name):
        src, kw = MUTATIONS[name]
        proto = _prototype()
        want_proto = contents(proto)
        want_fresh = contents(Runner(RunConfig(**kw)).state)

        run = Runner(RunConfig(**kw))
        run.run_source(src)
        assert not run.diagnostics, run.output
        assert contents(run.state) != want_fresh  # the run did change its own

        assert prelude._prototype is proto
        assert contents(proto) == want_proto
        assert contents(Runner(RunConfig(**kw)).state) == want_fresh

    def test_host_registered_tactics_and_elaborators_stay_in_their_run(self):
        proto = _prototype()
        want = contents(proto)
        state = Runner().state
        state.tactics[Name.of("noop")] = lambda stx, ts: ts
        state.elaborators[Name.of("noop")] = lambda stx, env, expected: None
        assert contents(proto) == want
        assert Name.of("noop") not in Runner().state.tactics
        assert Name.of("noop") not in Runner().state.elaborators

    def test_no_mutable_container_is_shared_with_the_prototype(self):
        proto = _prototype()
        state = RunState()
        bootstrap(state)
        # every field of the state is its own, or a value nothing can change
        assert vars(state).keys() == vars(proto).keys()
        for attr, value in vars(state).items():
            if value is vars(proto)[attr]:
                assert isinstance(value, IMMUTABLE), attr
        pairs = [
            (state.table, proto.table),
            (state.gctx, proto.gctx),
            (state.macros, proto.macros),
            (state.scopes, proto.scopes),
            (state.scratch, proto.scratch),
            (state.cfg, proto.cfg),
        ]
        for mine, theirs in pairs:
            assert mine is not theirs
            assert vars(mine).keys() == vars(theirs).keys()
            for attr, value in vars(mine).items():
                if value is vars(theirs)[attr]:
                    assert isinstance(value, IMMUTABLE), attr
        # the table's symbols: shared, immutable, and what its keywords give
        assert type(state.table.symbols) is frozenset
        assert state.table.symbols == _symbolic(state.table.snapshot_keywords())
        for n, cat in state.table.categories.items():
            assert cat is not proto.table.categories[n]
            assert cat.rules is not proto.table.categories[n].rules
            theirs = proto.table.categories[n]
            assert cat.cat_led is not theirs.cat_led
            for index, their_index in ((cat.leading, theirs.leading), (cat.trailing, theirs.trailing)):
                assert index is not their_index
                for text, bucket in index.items():
                    assert bucket is not their_index[text]
        for k, bucket in state.gctx._suffix_index.items():
            assert bucket is not proto.gctx._suffix_index[k]
        for k, alts in state.macros.items():
            theirs = proto.macros[k]
            assert alts is not theirs and type(alts) is Alternatives
            # the index by shape is copied, not derived again, and holds
            # nothing mutable
            assert alts.by_shape is theirs.by_shape
            if alts.by_shape is not None:
                at, buckets = alts.by_shape
                assert type(at) is int and type(buckets) is tuple
                for bucket in buckets:
                    assert type(bucket) is tuple and all(alt in alts for alt in bucket)
        assert any(alts.by_shape is not None for alts in state.macros.values())
        assert state.elaborators == proto.elaborators and state.tactics == proto.tactics

    def test_the_depth_limit_is_the_run_s_own(self):
        # the prelude loads under the prototype's settings, so even a depth
        # too small for its macro tower holds for user commands only
        cfg = RunConfig(max_expansion_depth=1)
        assert run_string("def x := dup 1\n", cfg) == (0, "def x := Prod.mk 1 1\n")
        code, out = run_string("def x := dup (dup 1)\n", cfg)
        assert code == 1
        assert out.startswith("error: macro expansion depth exceeded @1:1\n")

    def test_decls_are_frozen(self):
        decl = Runner().state.gctx.get(Name.of("Nat.add"))
        with pytest.raises(FrozenInstanceError):
            decl.type_ = None


class TestBuiltOnce:
    CONFIGS = [
        dict(),
        dict(notation_precheck=False),
        dict(stage="elaborate", trace_tactics=True, trace_expansion=True),
        dict(max_expansion_depth=16),
    ]

    def test_the_install_sequence_runs_at_most_once(self, monkeypatch):
        calls = []
        build = prelude._build_prelude

        def counted():
            calls.append(1)
            return build()

        monkeypatch.setattr(prelude, "_prototype", None)
        monkeypatch.setattr(prelude, "_build_prelude", counted)
        Runner(RunConfig(prelude=False)).run_source("def x := 1\n")
        assert calls == []
        for kw in self.CONFIGS * 2:
            code, _ = run_string("def x := dup (dup 1)\n", RunConfig(**kw))
            assert code == 0
        bootstrap(RunState(cfg=RunConfig(notation_precheck=False)))
        assert calls == [1]

    def test_a_prelude_that_fails_keeps_no_prototype(self, monkeypatch):
        monkeypatch.setattr(prelude, "_prototype", None)
        monkeypatch.setattr(prelude, "NOTATIONS_SRC", "def broken := nosuchglobal\n")
        for _ in range(2):
            with pytest.raises(RuntimeError, match="prelude failed to load"):
                Runner()
            assert prelude._prototype is None


EXTRA_CONFIGS = [
    dict(notation_precheck=True),
    dict(notation_precheck=False),
    dict(prelude=False),
    dict(stage="elaborate", trace_tactics=True),
]


class TestInterleavedRuns:
    """Every corpus file under its golden configuration and under each extra
    configuration, all in one process, in shuffled orders: each golden run
    matches its golden, each other run matches its first run, and each
    run's scopes are numbered from 1."""

    def test_shuffled_runs_across_configs(self, monkeypatch):
        allocs = {}
        alloc = ScopeCounter.alloc

        def recorded(counter):
            value = alloc(counter)
            allocs.setdefault(counter, []).append(value)
            return value

        monkeypatch.setattr(ScopeCounter, "alloc", recorded)

        cases = []
        for name in sorted(CORPUS_RUNS):
            kw, code = CORPUS_RUNS[name]
            golden = (GOLDENS / f"{name}.txt").read_text(encoding="utf-8")
            cases.append((name, kw, (code, golden)))
            cases.extend((name, {**kw, **extra}, None) for extra in EXTRA_CONFIGS)

        def run(name, kw):
            runner = Runner(RunConfig(**kw))
            assert runner.state.scopes.counter._next == 1
            code = runner.run_files([str(CORPUS / f"{name}.hyg")])
            used = allocs.get(runner.state.scopes.counter, [])
            assert used == list(range(1, len(used) + 1)), (name, kw)
            return code, runner.output

        seen = {}
        rng = random.Random(4)
        for _ in range(2):
            rng.shuffle(cases)
            for name, kw, want in cases:
                got = run(name, kw)
                key = (name, tuple(sorted(kw.items())))
                if want is None:
                    want = seen.setdefault(key, got)
                assert got == want, (name, kw)
        assert any(allocs.values())


class TestScratchNumbering:
    """The precheck's scratch scopes: one counter per run, counting down
    from -1 across the run's checked quotations, apart from the run's own
    counter."""

    SRC = (
        "def y := 1\n"
        'syntax "bind" term : term\n'
        "macro_rules | `(bind $e) => `(fun x => $e)\n"
        'syntax "k1" : term\n'
        "macro_rules | `(k1) => ``(bind y)\n"
        'syntax "k2" : term\n'
        "macro_rules | `(k2) => ``(bind y)\n"
    )

    def test_one_count_down_per_run(self, monkeypatch):
        allocs = []
        alloc = ScopeCounter.alloc

        def recorded(counter):
            value = alloc(counter)
            allocs.append((counter, value))
            return value

        monkeypatch.setattr(ScopeCounter, "alloc", recorded)
        for _ in range(2):
            allocs.clear()
            runner = Runner()
            runner.run_source(self.SRC)
            assert not runner.diagnostics, runner.output
            # each checked quotation unfolds `bind` once, under its own scope
            scratch = runner.state.scratch.counter
            assert allocs == [(scratch, -1), (scratch, -2)]
            assert runner.state.scopes.counter._next == 1


class TestCheckedMacroDeclaration:
    """A checked quotation that holds a `macro` declaration: the prechecker
    unfolds it with the run's table, and the run goes on."""

    SRC = (
        'syntax "mk" : command\n'
        "macro_rules\n"
        "  | `(command| mk) => ``(command| macro \"foo\" e:term : term => `($e + 1))\n"
        "mk\n"
        "def z := foo 2\n"
    )

    @pytest.mark.parametrize("precheck", [True, False])
    def test_three_diagnostics(self, precheck):
        code, out = run_string(self.SRC, RunConfig(notation_precheck=precheck))
        assert code == 1
        assert out.splitlines() == [
            'syntax "mk" : command',
            "error: cannot analyze quoted syntax of kind 'cmdseq'; use a plain quotation",
            "error: unexpected syntax kind 'mk' (no macro registered) @4:1",
            "error: unknown identifier 'foo' @5:10",
        ]


def _modules_added(script: str) -> list:
    """Run `script` in a fresh interpreter, where this process's imports
    cannot interfere, and return the JSON list it prints."""
    tests = Path(__file__).resolve().parent
    path = [str(tests.parent / "src"), str(tests)] + [
        p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p
    ]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


class TestColdStart:
    """What a process pays once: `import hygex` and the first `Runner`."""

    def test_set_up_loads_no_dataclass_machinery(self):
        added = _modules_added(
            "import json, sys\n"
            "before = set(sys.modules)\n"
            "import hygex\n"
            "hygex.Runner(hygex.RunConfig())\n"
            "print(json.dumps(sorted(set(sys.modules) - before)))\n"
        )
        assert "hygex.driver" in added
        assert not {"dataclasses", "inspect"} & set(added)

    def test_runs_import_nothing_after_set_up(self):
        # no import work was moved from set-up into the runs
        added = _modules_added(
            "import json, sys\n"
            "import hygex\n"
            "from corpus_config import CORPUS_RUNS\n"
            f"CORPUS = {str(CORPUS)!r}\n"
            "hygex.Runner(hygex.RunConfig())\n"
            "before = set(sys.modules)\n"
            "for name, (cfg, code) in sorted(CORPUS_RUNS.items()):\n"
            "    runner = hygex.Runner(hygex.RunConfig(**cfg))\n"
            "    assert runner.run_files([f'{CORPUS}/{name}.hyg']) == code\n"
            "print(json.dumps(sorted(set(sys.modules) - before)))\n"
        )
        assert added == []
