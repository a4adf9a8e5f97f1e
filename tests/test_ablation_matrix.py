"""The hygiene kill matrix's records hold together.

The matrix itself, which runs every mutant's killers against a mutated
copy of the kernel, is a CI step of its own (`python
tests/hygiene_ablations.py`); here only its cheap checks run: each anchor
is still in the kernel exactly once, each mutant has killers or an
argument, and each killer names a test of its recorded kind.
`test_acceptance.test_02_macro_tower` runs one mutant for real.
"""

import os
import subprocess
import sys

import pytest

import hygiene_ablations
from hygiene_ablations import (
    CATEGORIES,
    GOLDEN,
    KERNEL,
    MUTANTS,
    PROPERTY,
    PROPERTY_FILES,
    ROOT,
    Mutant,
    mutate,
    verdict,
)


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_the_anchor_occurs_once_and_the_mutant_still_compiles(name):
    mutant = MUTANTS[name]
    text = (KERNEL / mutant.path).read_text(encoding="utf-8")
    mutated = mutate(text, mutant)
    assert mutated != text
    compile(mutated, mutant.path, "exec")


def test_a_missing_or_repeated_anchor_is_refused():
    mutant = MUTANTS["M6"]
    with pytest.raises(AssertionError, match="occurs 0 times"):
        mutate("", mutant)
    with pytest.raises(AssertionError, match="occurs 2 times"):
        mutate(mutant.anchor * 2, mutant)


def test_eight_mutants_each_killed_or_argued_equivalent():
    assert len(MUTANTS) == 8
    for name, mutant in MUTANTS.items():
        assert mutant.killers or mutant.equivalent, name


def test_every_killer_names_a_test_of_its_kind():
    for name, mutant in MUTANTS.items():
        for test, category in mutant.killers:
            assert category in CATEGORIES, (name, test)
            path, _, rest = test.partition("::")
            function = rest.split("::")[-1].split("[")[0]
            assert f"def {function}(" in (ROOT / path).read_text(encoding="utf-8"), test
            assert (category == PROPERTY) == (path in PROPERTY_FILES), test
            if category == GOLDEN:
                assert "test_corpus_output_matches_golden[" in test


def test_a_survivor_or_a_mutant_without_killers_is_reported(monkeypatch):
    killer = "tests/test_x.py::test_y"
    monkeypatch.setitem(MUTANTS, "MX", Mutant("a rule", "f.py", "a", "b", ((killer, "case"),)))
    assert verdict("MX", {killer: "failed"}) == []
    assert verdict("MX", {killer: "passed"}) == [f"MX: {killer} passed, recorded as a killer"]
    assert verdict("MX", {}) == [f"MX: {killer} not found, recorded as a killer"]
    monkeypatch.setitem(MUTANTS, "MX", Mutant("a rule", "f.py", "a", "b", ()))
    assert verdict("MX", {}) == ["MX: no test is recorded as killing it"]
    monkeypatch.setitem(MUTANTS, "MX", Mutant("a rule", "f.py", "a", "b", (), "an argument"))
    assert verdict("MX", {}) == []


def test_a_child_that_imports_another_hygex_stops(tmp_path):
    # the kernel on the path, where the mutated copy should be
    env = dict(os.environ, PYTHONPATH=str(KERNEL.parent))
    done = subprocess.run(
        [sys.executable, "-c", hygiene_ablations._FROM_THE_COPY, str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
    )
    assert done.returncode == 1
    assert "not from the mutated copy" in done.stderr
