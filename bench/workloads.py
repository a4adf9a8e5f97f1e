"""Seeded benchmark inputs, each paired with the output it must produce.

A workload is a list of cases.  A case is one input file, the `RunConfig`
settings it runs under, and its reference: the exact output text and
exit status.  One *pass* runs every case once, each in a fresh `Runner`.

The generated workloads (`def_chain`, `macro_mix`) derive their reference
from their own model of the macros they declare, never from the compiler.
`corpus_replay` uses the committed goldens.  The seed changes the inputs
but not the amount of work, so that runs with different seeds are
comparable.
"""

from __future__ import annotations

import random
import re
import runpy
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List


@dataclass(frozen=True)
class Case:
    path: Path
    config: dict
    expected_output: str
    expected_code: int
    commands: int


@dataclass(frozen=True)
class Workload:
    name: str
    cases: List[Case]
    # corpus_replay visits its files in a seeded order that changes per pass
    shuffle: bool = False

    @property
    def commands(self) -> int:
        return sum(c.commands for c in self.cases)


def _write(out_dir: Path, name: str, lines: List[str]) -> Path:
    path = out_dir / f"{name}.hyg"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# def_chain: one long file, one macro step per command


DEF_CHAIN_DEFS = 500


def def_chain(seed: int, out_dir: Path, root: Path) -> Workload:
    """A macro, then a chain of definitions each applying it to one of the
    four previous ones.  One theorem at the end gives the tactic layer a
    call, so that no layer reports a time of exactly zero."""
    rng = random.Random(seed)
    kw = rng.choice("kqz")
    inc = rng.randint(1, 9)
    src = [f'macro "{kw}" e:term : term => `($e + {inc})', "def d0 := 1"]
    expected = [
        f'syntax "{kw}" term : term',
        f"macro_rules | `({kw} $e) => `($e + {inc})",
        "def d0 : nat := natLit(1)",
    ]
    for i in range(1, DEF_CHAIN_DEFS + 1):
        j = rng.randint(max(0, i - 4), i - 1)
        src.append(f"def d{i} := {kw} d{j}")
        expected.append(
            f"def d{i} : nat := app(app(const(Nat.add), const(d{j})), natLit({inc}))"
        )
    src.append("theorem done (p : Prop) : p → p := by intro h; exact h")
    expected.append("theorem done : p → p := proved")
    path = _write(out_dir, f"def_chain-{seed}", src)
    case = Case(path, dict(stage="elaborate"), "\n".join(expected) + "\n", 0, len(src))
    return Workload("def_chain", [case])


# ---------------------------------------------------------------------------
# macro_mix: notations, tuples, tactic macros and checked quotations


MIX_GROUPS = 40
TOWER = 16  # every TOWER-th level restarts the tower (precheck unfolds <= 32)
WIDTH = 8  # tower uses per tuple
BASE_ARGS = 2  # of which this many apply to `base`, the rest to numerals
ARROWS = 6  # implications per theorem
CHECKED_EVERY = 4  # groups per checked-quotation macro


def _nat_sum(arg: str, additions: int) -> str:
    """Elaborated form of `arg + base + ... + base`."""
    expr = "const(base)" if arg == "base" else f"natLit({arg})"
    for _ in range(additions):
        expr = f"app(app(const(Nat.add), {expr}), const(base))"
    return expr


def macro_mix(seed: int, out_dir: Path, root: Path) -> Workload:
    """Each group declares tower level `lv{g}`, uses the tower in a wide
    tuple, proves a theorem with a lazily unfolded tactic macro and, every
    few groups, declares and uses a macro with a checked quotation.

    The model tracks the run's scope counter: a macro step takes a scope
    exactly when its template introduces an identifier, so a tower use of
    depth d takes d scopes, a tuple of w elements w-1, and a proof of n
    implications n+1 (one per `introH` unfolding, the last one failing
    inside `try`)."""
    rng = random.Random(seed)
    src = [
        "def base := 1",
        'macro "introH" : tactic => `(tactic| intro h)',
        'notation "lv0" e => e + base',
    ]
    expected = [
        "def base : nat := natLit(1)",
        'syntax "introH" : tactic',
        "macro_rules | `(tactic| introH) => `(tactic| intro h)",
        'syntax "lv0" term : term',
        "macro_rules | `(lv0 $e) => `($e + base{base})",
    ]
    depth = {0: 1}  # macro steps one use of lv{g} takes
    scope = 1  # the next scope the run counter hands out
    for g in range(1, MIX_GROUPS + 1):
        if g % TOWER:
            depth[g] = depth[g - 1] + 1
            src.append(f'notation "lv{g}" e => lv{g - 1} (e + base)')
            rhs = f"lv{g - 1} ($e + base{{base}})"
        else:
            depth[g] = 1
            src.append(f'notation "lv{g}" e => e + base')
            rhs = "$e + base{base}"
        expected += [f'syntax "lv{g}" term : term', f"macro_rules | `(lv{g} $e) => `({rhs})"]

        levels = [max(0, g - i) for i in range(WIDTH)]
        rng.shuffle(levels)
        on_base = [True] * BASE_ARGS + [False] * (WIDTH - BASE_ARGS)
        rng.shuffle(on_base)
        args = ["base" if b else str(rng.randint(10, 99)) for b in on_base]
        src.append(
            f"def t{g} := (" + ", ".join(f"lv{l} {a}" for l, a in zip(levels, args)) + ")"
        )
        elems = [_nat_sum(a, depth[l]) for l, a in zip(levels, args)]
        expr, ty = elems[-1], "nat"
        for e in reversed(elems[:-1]):
            expr, ty = f"pair({e}, {expr})", f"prod(nat, {ty})"
        expected.append(f"def t{g} : {ty} := {expr}")
        scope += (WIDTH - 1) + sum(depth[l] for l in levels)

        p = rng.choice("pqr")
        prop = " → ".join([p] * (ARROWS + 1))
        src.append(f"theorem th{g} ({p} : Prop) : {prop} := by repeat introH; assumption")
        expected.append(f"theorem th{g} : {prop} := proved")
        scope += ARROWS + 1

        if g % CHECKED_EVERY == 0:
            src.append(f'macro "chk{g}" e:term : term => ``(fun x => x + $e + base)')
            expected += [
                f'syntax "chk{g}" term : term',
                f"macro_rules | `(chk{g} $e) => `(fun x => x + $e + base{{base}})",
            ]
            arg = rng.choice(["base", str(rng.randint(10, 99))])
            src.append(f"def c{g} : Nat → Nat := chk{g} {arg}")
            body = f"app(app(const(Nat.add), local(x.{scope})), {_nat_sum(arg, 0)})"
            expected.append(
                f"def c{g} : arrow(nat, nat) := "
                f"lam(x.{scope} : nat. app(app(const(Nat.add), {body}), const(base)))"
            )
            scope += 1
    path = _write(out_dir, f"macro_mix-{seed}", src)
    case = Case(path, dict(stage="elaborate"), "\n".join(expected) + "\n", 0, len(src))
    return Workload("macro_mix", [case])


# ---------------------------------------------------------------------------
# corpus_replay: the committed corpus against its goldens


# A top-level command starts in column 0; continuation lines are indented
# or start with `|`.
_COMMAND_LINE = re.compile(r"^(?!--|\|)\S", re.MULTILINE)


def corpus_replay(seed: int, out_dir: Path, root: Path) -> Workload:
    runs = runpy.run_path(str(root / "tests" / "corpus_config.py"))["CORPUS_RUNS"]
    cases = []
    for name in sorted(runs):
        config, code = runs[name]
        path = root / "corpus" / f"{name}.hyg"
        golden = (root / "tests" / "goldens" / f"{name}.txt").read_bytes().decode("utf-8")
        commands = len(_COMMAND_LINE.findall(path.read_text(encoding="utf-8")))
        cases.append(Case(path, dict(config), golden, code, commands))
    return Workload("corpus_replay", cases, shuffle=True)


# name -> generator(seed, directory for generated files, repository root)
GENERATORS: Dict[str, Callable[[int, Path, Path], Workload]] = {
    "def_chain": def_chain,
    "macro_mix": macro_mix,
    "corpus_replay": corpus_replay,
}
