"""Generated inputs: a damaged program still runs to diagnostics.

Two strategies feed the runner.  A corpus mutation takes one corpus file
and deletes, replaces, duplicates or truncates one of its tokens.  A token
soup is a few lines, each a command keyword of the prelude and then tokens
of the corpus and keywords of the prelude, separated by a space, a newline
or nothing, so that glued tokens such as `` `( ``, ``$x`` and ``:=`` come
up too.  Either way the run must return
normally, report every problem as a kernel diagnostic, and give the same
output in two fresh runners.
"""

import re

import pytest
from hypothesis import given, settings, strategies as st

from conftest import CORPUS
from corpus_config import CORPUS_RUNS
from hygex.driver import RunConfig, Runner
from hygex.errors import KernelError
from hygex.parser import CAT_COMMAND

# a dotted identifier, a numeral, or any other single character
_TOKEN = re.compile(r"[A-Za-z_][\w.]*|\d+|\S")

SOURCES = {
    name: (CORPUS / f"{name}.hyg").read_text(encoding="utf-8")
    for name in sorted(CORPUS_RUNS)
}
TOKENS = {name: [m.span() for m in _TOKEN.finditer(src)] for name, src in SOURCES.items()}
PRELUDE_TABLE = Runner(RunConfig()).state.table
VOCABULARY = sorted(
    {src[start:end] for name, src in SOURCES.items() for start, end in TOKENS[name]}
    | PRELUDE_TABLE.keywords
)
# the first words of the command rules
COMMAND_HEADS = sorted(
    {rule.head for rule in PRELUDE_TABLE.categories[CAT_COMMAND].rules if rule.leading}
)


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


@st.composite
def token_soups(draw):
    # each line starts with a command keyword, so that a soup now and then
    # gets past the parser
    glued = st.tuples(st.sampled_from(VOCABULARY), st.sampled_from(["", " ", "\n"]))
    line = st.tuples(st.sampled_from(COMMAND_HEADS), st.lists(glued, max_size=12))
    return "".join(
        head + " " + "".join(word + sep for word, sep in words) + "\n"
        for head, words in draw(st.lists(line, min_size=1, max_size=4))
    )


class _Recorder(Runner):
    """A runner that keeps the error behind each diagnostic."""

    def __init__(self, cfg):
        self.errors = []
        super().__init__(cfg)

    def _diagnose(self, err):
        self.errors.append(err)
        super()._diagnose(err)


def _runs_to_diagnostics(cfg, src):
    outputs = []
    for _ in range(2):
        runner = _Recorder(cfg)
        runner.run_source(src)
        assert all(isinstance(err, KernelError) for err in runner.errors)
        assert len(runner.errors) == len(runner.diagnostics)
        outputs.append(runner.output)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("stage", ["expand", "elaborate"])
@settings(max_examples=50)
@given(case=mutated_corpus_files())
def test_a_mutated_corpus_file_runs_to_diagnostics(stage, case):
    name, src = case
    _runs_to_diagnostics(RunConfig(**dict(CORPUS_RUNS[name][0], stage=stage)), src)


@pytest.mark.parametrize("stage", ["expand", "elaborate"])
@settings(max_examples=50)
@given(src=token_soups())
def test_a_token_soup_runs_to_diagnostics(stage, src):
    cfg = RunConfig(stage=stage, trace_expansion=True, trace_tactics=True)
    _runs_to_diagnostics(cfg, src)
