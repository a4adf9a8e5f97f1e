import re
import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# One fixed profile for every property test: the same examples on every
# machine, so a failure in CI reproduces locally.  A saved example database
# would replay earlier local failures first, so none is kept.  Each test
# still sets its own `max_examples`.
settings.register_profile("hygex", derandomize=True, deadline=None, database=None)
settings.load_profile("hygex")

from hygex.driver import RunConfig, Runner
from hygex.syntax import Atom, Ident, Name, Node

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
GOLDENS = Path(__file__).resolve().parent / "goldens"


@pytest.fixture
def runner():
    def make(**kw):
        return Runner(RunConfig(**kw))

    return make


def strip_info(stx):
    """Drop source locations so parsed and rendered trees compare equal."""
    match stx:
        case Node(kind=kind, children=children):
            return Node(kind, tuple(strip_info(c) for c in children))
        case Atom(text=text):
            return Atom(text)
        case Ident(raw=raw, name=name, preresolved=pre):
            return Ident(raw, name, pre)
        case _:
            return stx


_SCOPED = re.compile(r"^([^{}]+)(?:\{([^{}]*)\})?$")


def parse_scoped(text: str) -> Ident:
    """Debug parser for the `n.msc{tsc, …}` rendering (tests only)."""
    m = _SCOPED.match(text)
    assert m, text
    parts = tuple(int(p) if p.isdigit() else p for p in m.group(1).split("."))
    pre = ()
    if m.group(2):
        pre = tuple(
            Name(tuple(int(p) if p.isdigit() else p for p in t.strip().split(".")))
            for t in m.group(2).split(",")
        )
    return Ident(
        ".".join(p for p in m.group(1).split(".") if not p.isdigit()),
        Name(parts),
        pre,
    )
