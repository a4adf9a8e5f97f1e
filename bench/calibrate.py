"""A fixed unit of pure-Python work that measures the machine's speed.

This shared host's speed drifts by up to +-25% over seconds to minutes,
for every process alike, so two runs of the same code can differ by more
than a regression bound.  The benchmark interleaves calibration units with
the timed passes and scales each time by how long a unit took next to it:
`scale()` turns a time measured at the run's speed into one at the
reference speed, the speed at which a unit takes REFERENCE_UNIT_S.

The unit does the kind of work the program does (tokenising text into
strings, dictionary lookups, recursive descent over a token list, small
object churn) and touches no hygex code, so a change to the program
cannot move it.
"""

from __future__ import annotations

import time

# Seconds one unit takes at the reference speed: a round figure near the
# median over 20 s on a 2-core Intel Xeon VM running CPython 3.11.7.
REFERENCE_UNIT_S = 0.003

_TEXT = " ".join(f"(a{i % 7} + {i} * (b{i % 5} - {i % 11}))" for i in range(40))
_ENV = {**{f"a{i}": i + 1 for i in range(7)}, **{f"b{i}": 2 * i for i in range(5)}}
_ROUNDS = 10


def _tokens(text: str) -> list:
    out, i, n = [], 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
        elif c.isalnum():
            j = i
            while j < n and text[j].isalnum():
                j += 1
            out.append(text[i:j])
            i = j
        else:
            out.append(c)
            i += 1
    return out


def _evaluate(toks: list) -> int:
    pos = 0

    def atom() -> int:
        nonlocal pos
        tok = toks[pos]
        pos += 1
        if tok == "(":
            value = expr()
            pos += 1  # ")"
            return value
        return _ENV[tok] if tok in _ENV else int(tok)

    def term() -> int:
        nonlocal pos
        value = atom()
        while pos < len(toks) and toks[pos] == "*":
            pos += 1
            value *= atom()
        return value

    def expr() -> int:
        nonlocal pos
        value = term()
        while pos < len(toks) and toks[pos] in "+-":
            op = toks[pos]
            pos += 1
            rhs = term()
            value = value + rhs if op == "+" else value - rhs
        return value

    total = 0
    while pos < len(toks):
        total += expr()
    return total


_EXPECTED = _evaluate(_tokens(_TEXT))


def unit() -> float:
    """Run one unit and return its wall time in seconds."""
    t0 = time.perf_counter()
    for _ in range(_ROUNDS):
        result = _evaluate(_tokens(_TEXT))
    elapsed = time.perf_counter() - t0
    if result != _EXPECTED:
        raise AssertionError(f"calibration unit computed {result}, not {_EXPECTED}")
    return elapsed


class Calibration:
    """Calibration units run alongside a timed phase."""

    def __init__(self) -> None:
        self.units = 0
        self.seconds = 0.0

    def follow(self, busy_s: float, share: float) -> None:
        """Run units for about `share` of `busy_s`, the time just measured
        (at least one unit), so that units sample the machine's speed in
        proportion to the time they stand for."""
        spent = 0.0
        while True:
            spent += unit()
            self.units += 1
            if spent >= share * busy_s:
                break
        self.seconds += spent

    def scale(self, seconds: float) -> float:
        """`seconds` measured at this calibration's speed, expressed at the
        reference speed."""
        return seconds * REFERENCE_UNIT_S * self.units / self.seconds
