"""Generated inputs: a damaged program still runs to diagnostics.

Each example takes one corpus file and deletes, replaces, duplicates or
truncates one of its tokens.  The run must return normally, report every
problem as a kernel diagnostic, and give the same output in two fresh
runners.
"""

import re

import pytest
from hypothesis import given, settings, strategies as st

from conftest import CORPUS
from corpus_config import CORPUS_RUNS
from hygex.driver import RunConfig, Runner
from hygex.errors import KernelError

# a dotted identifier, a numeral, or any other single character
_TOKEN = re.compile(r"[A-Za-z_][\w.]*|\d+|\S")

SOURCES = {
    name: (CORPUS / f"{name}.hyg").read_text(encoding="utf-8")
    for name in sorted(CORPUS_RUNS)
}
TOKENS = {name: [m.span() for m in _TOKEN.finditer(src)] for name, src in SOURCES.items()}


@st.composite
def mutated_corpus_files(draw):
    name = draw(st.sampled_from(sorted(SOURCES)))
    src, spans = SOURCES[name], TOKENS[name]
    start, end = draw(st.sampled_from(spans))
    token = src[start:end]
    op = draw(st.sampled_from(["delete", "replace", "duplicate", "truncate"]))
    if op == "delete":
        new = ""
    elif op == "replace":
        other_start, other_end = draw(st.sampled_from(spans))
        new = src[other_start:other_end]
    elif op == "duplicate":
        new = f"{token} {token}"
    else:
        new = token[: draw(st.integers(0, len(token) - 1))]
    return name, src[:start] + new + src[end:]


class _Recorder(Runner):
    """A runner that keeps the error behind each diagnostic."""

    def __init__(self, cfg):
        self.errors = []
        super().__init__(cfg)

    def _diagnose(self, err):
        self.errors.append(err)
        super()._diagnose(err)


@pytest.mark.parametrize("stage", ["expand", "elaborate"])
@settings(max_examples=50)
@given(case=mutated_corpus_files())
def test_a_mutated_corpus_file_runs_to_diagnostics(stage, case):
    name, src = case
    cfg = RunConfig(**dict(CORPUS_RUNS[name][0], stage=stage))
    outputs = []
    for _ in range(2):
        runner = _Recorder(cfg)
        runner.run_source(src)
        assert all(isinstance(err, KernelError) for err in runner.errors)
        assert len(runner.errors) == len(runner.diagnostics)
        outputs.append(runner.output)
    assert outputs[0] == outputs[1]
