"""The hygiene kill matrix: each rule of hygiene broken by one mutant of
the kernel, and the tests recorded as killing it.

The paper's hygiene rests on a few rules: every identifier a macro step
introduces gets the step's fresh scope, one scope per step, on top of the
full stack of scopes it already carries; a quotation's identifiers are
preresolved against the globals when it is declared, and resolution uses
those preresolutions; a newer `macro_rules` block is tried before older
ones; each discriminant of `fun | …` gets a scope of its own; a local
binding shadows a global one (Kohlbecker et al., "Hygienic Macro
Expansion", LFP 1986; Flatt, "Binding as Sets of Scopes", POPL 2016).
Each rule is shown necessary by a one-line change that breaks it, made
to a copy of `src/hygex` and never to the kernel itself.

Each mutant names a line of the kernel (its anchor, which must occur
exactly once) and what replaces it, and records the tests that fail
under it, each tagged by what kind of test it is: a corpus golden, a
hand-written case, a generated-input property, or a differential against
a reference kept in the tests.  Run the matrix with

    python tests/hygiene_ablations.py [M1 M2 ...]

It applies each named mutant (all by default) to a copy of `src/hygex` in
a temporary directory and runs that mutant's recorded killers in one
subprocess, which checks that it imported `hygex` from the copy.  It
fails when a recorded killer passes or is not found, or when a mutant
that is not argued equivalent has no killer.  To see every test a mutant
fails, for instance after the kernel moved, run

    python tests/hygiene_ablations.py --survey M3

which runs the whole suite under it and lists the failures.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, NamedTuple, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
KERNEL = ROOT / "src" / "hygex"

# what kind of test a killer is
GOLDEN = "golden"  # a corpus file against its golden output
CASE = "case"  # a hand-written case
PROPERTY = "property"  # a generated-input property
DIFFERENTIAL = "differential"  # generated inputs against a kept reference
CATEGORIES = (GOLDEN, CASE, PROPERTY, DIFFERENTIAL)

# the files whose tests are generated-input properties
PROPERTY_FILES = ("tests/test_hygiene_properties.py", "tests/test_generated_inputs.py")


class Mutant(NamedTuple):
    rule: str  # the rule of hygiene that the change breaks
    path: str  # the kernel file, relative to src/hygex
    anchor: str  # text of one line of that file, found there exactly once
    replacement: str
    killers: Tuple[Tuple[str, str], ...]  # (pytest node id, category)
    # for a mutant no test can kill: why it behaves as the kernel does
    equivalent: str = ""


def _golden(name: str) -> Tuple[str, str]:
    return f"tests/test_driver.py::TestGoldens::test_corpus_output_matches_golden[{name}]", GOLDEN


def _case(test: str) -> Tuple[str, str]:
    return f"tests/{test}", CASE


def _property(test: str) -> Tuple[str, str]:
    return f"tests/{test}", PROPERTY


def _differential(test: str) -> Tuple[str, str]:
    return f"tests/{test}", DIFFERENTIAL


NO_CAPTURES = _property(
    "test_hygiene_properties.py::TestCaptureFreedom::"
    "test_randomized_scenarios_produce_zero_captures"
)
NO_ESCAPES = _property(
    "test_hygiene_properties.py::TestCaptureFreedom::"
    "test_template_references_escape_use_site_binders"
)
INSTANTIATE_DIFFERENTIAL = _differential(
    "test_quotation.py::TestCompiledAgreesWithTheInterpreter::test_instantiate"
)
RESOLVE_DIFFERENTIAL = _differential(
    "test_step_path.py::TestTheRewrittenWalkersAgree::test_resolve_identifier"
)
SHORTCUT_DIFFERENTIAL = _differential(
    "test_context_index.py::test_the_shortcut_agrees_with_match_surface"
)

# The killers are a sample of what `--survey` lists for each mutant: every
# generated-input property and differential that fails, and a few goldens
# and cases.
MUTANTS: Dict[str, Mutant] = {
    "M1": Mutant(
        "an identifier a step introduces gets the step's fresh scope",
        "quotation.py",
        "return Ident(raw, Name(name + (scope,)), pre, None)",
        "return Ident(raw, name, pre, None)",
        (
            _golden("const"),
            _golden("macro_tower"),
            _case("test_acceptance.py::test_01_const_example"),
            _case(
                "test_tactic.py::TestTacticHygiene::"
                "test_macro_introduced_hypothesis_is_invisible_outside"
            ),
            NO_CAPTURES,
            NO_ESCAPES,
            INSTANTIATE_DIFFERENTIAL,
        ),
    ),
    "M2": Mutant(
        "one fresh scope per step, shared by all it introduces",
        "quotation.py",
        "if scope is None:",
        "if True:",
        (
            _golden("macro_tower"),
            _golden("tactics"),
            _case("test_acceptance.py::test_02_macro_tower"),
            _case("test_quotation.py::TestInstantiate::test_scope_shared_within_one_invocation"),
            NO_CAPTURES,
            INSTANTIATE_DIFFERENTIAL,
        ),
    ),
    "M3": Mutant(
        "the full stack of macro scopes is kept, not only the newest",
        "quotation.py",
        "return Ident(raw, Name(name + (scope,)), pre, None)",
        # one line still: the kernel's quotation.py imports no `base_name`
        "from .syntax import base_name; "
        "return Ident(raw, Name(base_name(name) + (scope,)), pre, None)",
        (
            _golden("macro_tower"),
            _case("test_acceptance.py::test_02_macro_tower"),
            _case(
                "test_expander.py::TestMacroTower::"
                "test_three_distinct_globals_with_printed_resolutions"
            ),
            _case("test_expander.py::TestMacroTower::test_intermediate_template_annotations"),
            INSTANTIATE_DIFFERENTIAL,
        ),
    ),
    "M4": Mutant(
        "a quotation's identifiers are preresolved when it is declared",
        "quotation.py",
        "found = gctx.match_surface(name)",
        "found = ()",
        (
            _golden("const"),
            _golden("quote_globals"),
            _case("test_acceptance.py::test_03_quotation_processing"),
            _case(
                "test_quotation.py::TestProcessQuotation::"
                "test_captured_identifier_records_every_matching_global"
            ),
            NO_ESCAPES,
        ),
    ),
    "M5": Mutant(
        "resolution uses the preresolutions",
        "expander.py",
        "pre = stx.preresolved",
        "pre = ()",
        (
            _golden("quote_globals"),
            _golden("tuples"),
            _case("test_expander.py::TestResolveIdentifier::test_top_level_scopes_beat_nothing"),
            _case("test_quotation.py::TestMkCIdent::test_never_captured_by_same_spelled_locals"),
            NO_ESCAPES,
            RESOLVE_DIFFERENTIAL,
            SHORTCUT_DIFFERENTIAL,
        ),
    ),
    "M6": Mutant(
        "a newer `macro_rules` block is tried before the older alternatives",
        "context.py",
        "alternatives[:0] = new",
        "alternatives.extend(new)",
        (
            _case("test_expander.py::TestExpandMacroStep::test_newest_macro_rules_take_precedence"),
            _case(
                "test_expander.py::TestExpandMacroStep::"
                "test_a_user_block_goes_ahead_of_the_prelude_alternatives"
            ),
            _case("test_quotation.py::TestRuleAlternatives::test_one_flat_list_newest_block_first"),
            _case(
                "test_quotation.py::TestShapeIndex::"
                "test_a_bare_splice_takes_the_empty_tuple_and_every_tuple"
            ),
            _case("test_quotation.py::TestShapeIndex::test_a_newer_pair_rule_takes_pairs_only"),
        ),
    ),
    "M7": Mutant(
        "each discriminant of `fun | …` gets a scope of its own",
        "prelude.py",
        "with state.scopes.fresh():",
        "if True:",
        (
            _golden("fun_match"),
            _case("test_acceptance.py::test_04_fun_match"),
            _case("test_bootstrap.py::TestInterleavedRuns::test_shuffled_runs_across_configs"),
        ),
    ),
    "M8": Mutant(
        "a local binding shadows a global one",
        "expander.py",
        "if name in lctx:",
        "if name in lctx and not gctx.match_surface(name):",
        # a user's binder beside a global of its name: the global's shared
        # reference is final, so the elaborator and `exact` take the global
        (
            _case(
                "test_elaborator.py::TestOverloadedReferences::"
                "test_a_user_written_local_shadows_the_global"
            ),
            _case(
                "test_tactic.py::TestTacticHygiene::"
                "test_a_user_written_hypothesis_shadows_the_theorem"
            ),
            RESOLVE_DIFFERENTIAL,
            SHORTCUT_DIFFERENTIAL,
        ),
    ),
}


def mutate(text: str, mutant: Mutant) -> str:
    """The kernel file's text with the mutant applied; its anchor must
    occur exactly once."""
    found = text.count(mutant.anchor)
    if found != 1:
        raise AssertionError(
            f"anchor {mutant.anchor!r} occurs {found} times in {mutant.path}, "
            "not once"
        )
    return text.replace(mutant.anchor, mutant.replacement)


def mutated_copy(name: str, dest: Path) -> Path:
    """Copy `src/hygex` into `dest`, apply mutant `name` there, and return
    the directory to import `hygex` from."""
    mutant = MUTANTS[name]
    package = dest / "hygex"
    shutil.copytree(KERNEL, package, ignore=shutil.ignore_patterns("__pycache__"))
    target = package / mutant.path
    target.write_text(mutate(target.read_text(encoding="utf-8"), mutant), encoding="utf-8")
    return dest


# Every child first imports `hygex` and checks that it came from the
# mutated copy: an installed or `PYTHONPATH` kernel would make every
# mutant survive, or every killer pass vacuously.
_FROM_THE_COPY = """
import sys
from pathlib import Path

copy = Path(sys.argv[1]).resolve()

def check_hygex_is_the_copy():
    for name, module in list(sys.modules.items()):
        if name == "hygex" or name.startswith("hygex."):
            where = Path(module.__file__).resolve()
            if copy not in where.parents:
                sys.exit(f"{name} imported from {where}, not from the mutated copy {copy}")

import hygex
check_hygex_is_the_copy()
"""

# argv: copy, result file, pytest node ids
_RUN_TESTS = _FROM_THE_COPY + """
import json
import pytest

class Outcomes:
    def __init__(self):
        self.seen = {}

    def pytest_runtest_logreport(self, report):
        if report.failed:
            self.seen[report.nodeid] = "failed"
        elif report.when == "call" or report.skipped:
            self.seen.setdefault(report.nodeid, report.outcome)

outcomes = Outcomes()
pytest.main(["-q", "-p", "no:cacheprovider", *sys.argv[3:]], plugins=[outcomes])
check_hygex_is_the_copy()
Path(sys.argv[2]).write_text(json.dumps(outcomes.seen))
"""

# argv: copy, a command file; prints the run's output and diagnostics
_RUN_FILE = _FROM_THE_COPY + """
import json
from hygex.driver import Runner

runner = Runner()
runner.run_files([sys.argv[2]])
check_hygex_is_the_copy()
print(json.dumps({
    "output": runner.output,
    "diagnostics": [
        [d.message, None if d.info is None else [d.info.line, d.info.col]]
        for d in runner.diagnostics
    ],
}))
"""


def _child(script: str, copy: Path, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(copy), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-c", script, str(copy), *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
    )


def run_tests(name: str, node_ids: Sequence[str]) -> Dict[str, str]:
    """Run the given tests under mutant `name` in one subprocess; the
    outcome of each test that ran, by node id."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = mutated_copy(name, Path(tmp))
        results = Path(tmp) / "outcomes.json"
        done = _child(_RUN_TESTS, copy, str(results), *node_ids)
        if not results.exists():
            raise RuntimeError(f"{name}: the test run ended early\n{done.stdout}{done.stderr}")
        return json.loads(results.read_text())


def run_file(name: str, path: Path) -> dict:
    """Run one command file under mutant `name` in a subprocess: its
    `output`, and its `diagnostics` as [message, [line, col] or None]."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = mutated_copy(name, Path(tmp))
        done = _child(_RUN_FILE, copy, str(path))
        if done.returncode != 0:
            raise RuntimeError(f"{name}: the run failed\n{done.stdout}{done.stderr}")
        return json.loads(done.stdout)


def verdict(name: str, outcomes: Dict[str, str]) -> List[str]:
    """What is wrong with mutant `name`'s record, given its killers'
    outcomes: a killer that passed or did not run, or no killer at all."""
    mutant = MUTANTS[name]
    problems = []
    if not mutant.killers and not mutant.equivalent:
        problems.append(f"{name}: no test is recorded as killing it")
    for test, _category in mutant.killers:
        outcome = outcomes.get(test, "not found")
        if outcome != "failed":
            problems.append(f"{name}: {test} {outcome}, recorded as a killer")
    return problems


def main(argv: Sequence[str]) -> int:
    args = list(argv)
    if args[:1] == ["--survey"]:
        for name in args[1:] or MUTANTS:
            outcomes = run_tests(name, ["tests"])
            failed = sorted(t for t, o in outcomes.items() if o == "failed")
            print(f"{name} ({MUTANTS[name].rule}): {len(failed)} of {len(outcomes)} fail")
            for test in failed:
                print(f"  {test}")
        return 0
    problems = []
    for name in args or MUTANTS:
        mutant = MUTANTS[name]
        outcomes = run_tests(name, [test for test, _ in mutant.killers]) if mutant.killers else {}
        problems += verdict(name, outcomes)
        killers = [(t, c) for t, c in mutant.killers if outcomes.get(t) == "failed"]
        kinds = ", ".join(sorted({c for _, c in killers})) or "nothing"
        print(f"{name} ({mutant.rule}): {len(killers)} of {len(mutant.killers)} killers fail: {kinds}")
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
