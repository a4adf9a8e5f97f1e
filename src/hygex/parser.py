"""Tokenizer and table-driven parser for the command language.

The rule table is extended at runtime by ``syntax`` and
``declare_syntax_cat`` commands; literal tokens of registered rules become
keywords from that point on.  Parsing itself is pure given a snapshot of
the table, and the driver only mutates the table between commands.

The built-in grammar is rules of the table, registered by `ParserTable`
before any user rule: `def`, `theorem`, `syntax`, `macro_rules`,
`declare_syntax_cat`, `match`, `fun | …`, tuples, `⟨…⟩`, `+`, `→` and the
tactics with their `( … )`; the prelude registers `MACRO_RULE` and
`NOTATION_RULE`.  A newer rule shadows any of them and backtracks to it
when it fails.  `Parser` writes out only identifiers, numerals, quotations,
`fun x … =>` and the leaves of the command items: a string literal, a
category name with its tight `cat:N`, a notation parameter.

A rule decides its items once, when it is built: `ParseRule.steps` holds
one step per item (a literal's text, a category slot with its effective
precedence, a repetition with the item after it, or a nested rule), and
`Parser._parse_rule_items` runs them.  Outside quotations the built-in
slots are direct: a `term` slot is `parse_term` and an `ident` slot
`expect_ident`; only inside a quotation, where holes may stand for them, do
they go through `parse_category`.  So a right `→` chain costs two Python
frames per level, and a nested tuple five.

A quotation body is read once, in the category that its tag or its first
token decides before it is read (`Parser.parse_quotation`).

A token finds its rules by lookup, not by a scan of its category: each
`Category` keeps, next to its newest-first `rules`, an index of the same
rules (`leading` by head, `trailing` by the literal after the category,
and the rules that start with another category), which `_parse_leading`,
`_trailing_rule` and `ParserTable.starts` read.  So the work per token does
not grow with the number of rules that other literals select.  A `Parser`
builds one `Name` per identifier spelling of its file and hands it to every
identifier so spelled.
"""

from __future__ import annotations

import functools
import re
from bisect import bisect_right
from collections import namedtuple
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

from .errors import KernelError, LexError, ParseError
from .syntax import (
    Atom,
    Ident,
    KIND_ANTIQUOT,
    KIND_CHOICE,
    KIND_CMDSEQ,
    KIND_DQUOT,
    KIND_QUOT,
    KIND_SEPSEQ,
    KIND_SEQ,
    KIND_SPLICE,
    KIND_SPLICEGROUP,
    Frozen,
    Name,
    Node,
    SourceInfo,
    Syntax,
    TupleRecord,
    slot_setters,
)

# Node kinds of the built-in grammar.
K_NUM = Name.of("num")
K_FUN = Name.of("fun")
K_FUN_MULTI = Name.of("funMulti")
K_FUN_MATCH = Name.of("funMatch")
K_MATCH = Name.of("match")
K_ALT = Name.of("alt")
K_TUPLE = Name.of("tuple")
K_ANON_CTOR = Name.of("anonCtor")
K_APP = Name.of("app")
K_PLUS = Name.of("plus")
K_ARROW = Name.of("arrow")
K_DEF = Name.of("defn")
K_DEF_TYPED = Name.of("defnTyped")
K_THEOREM = Name.of("theorem")
K_BINDER = Name.of("binder")
K_BY = Name.of("by")
K_SYNTAX = Name.of("syntaxCmd")
K_SLOT_PREC = Name.of("slotprec")
K_MACRO_RULES = Name.of("macroRules")
K_MR_ALT = Name.of("mrAlt")
K_DECLARE_CAT = Name.of("declCat")
K_MACRO = Name.of("macroDecl")
K_ARGDECL = Name.of("argdecl")
K_NOTATION = Name.of("notationDecl")
K_INTRO = Name.of("intro")
K_EXACT = Name.of("exact")
K_ASSUMPTION = Name.of("assumption")
K_SKIP = Name.of("skip")
K_FAIL = Name.of("fail")
K_TRY = Name.of("try")
K_TSEQ = Name.of("tseq")
K_TPAREN = Name.of("tparen")

# How each built-in form scopes its children; the expander and the
# prechecker both read these.  A binding kind maps to the positions of its
# binder and of the body the binder scopes over; `match` and `fun | …` bind
# through their alternatives.  An in-place kind's children stay in the
# scope of the node.
BINDING_KINDS: Dict[Name, Tuple[int, int]] = {K_FUN: (1, 3), K_FUN_MULTI: (1, 3), K_ALT: (1, 3)}
IN_PLACE_KINDS = frozenset(
    (K_PLUS, K_ARROW, K_APP, K_MATCH, Name.of(KIND_SEQ), Name.of(KIND_SEPSEQ))
)

CAT_TERM = Name.of("term")
CAT_COMMAND = Name.of("command")
CAT_TACTIC = Name.of("tactic")
CAT_IDENT = Name.of("ident")  # pseudo-category: a single identifier
# pseudo-category of the built-in rules only: tactics separated by `;`
CAT_TACTIC_SEQ = Name.of("tacticSeq")
# The item categories of `syntax`, `macro` and `notation`.  Their names are
# plain strings, which no identifier's `Name` equals, so no user rule can
# refer to them or add to them.
CAT_SYNTAX_ITEM = "syntax item"
CAT_MACRO_ITEM = "macro item"
CAT_NOTATION_ITEM = "notation item"

APP_PREC = 100

_SPECIALS = {"(", ")", "[", "]", "⟨", "⟩", ",", ";", "*"}


# ---------------------------------------------------------------------------
# Rules and categories


class Lit(Frozen):
    __slots__ = ("text",)
    text: str

    def __init__(self, text: str) -> None:
        _lit_text(self, text)


(_lit_text,) = slot_setters(Lit)


def rule_lit(atom: Atom) -> Lit:
    """The literal item that a string of a `syntax` or `macro` rule adds."""
    text = atom.text
    if len(text) >= 2 and text.startswith('"') and text.endswith('"'):
        text = text[1:-1]
    if not text:
        # the lexer never produces an empty token, so no rule could match
        raise ParseError("empty token in syntax rule", atom.info)
    if not _lexes_alone(text):
        raise ParseError(f"'{text}' can never be lexed as one token", atom.info)
    return Lit(text)


class CatRef(Frozen):
    __slots__ = ("cat", "prec")
    cat: Name
    prec: int

    def __init__(self, cat: Name, prec: int = 0) -> None:
        _catref_cat(self, cat)
        _catref_prec(self, prec)


_catref_cat, _catref_prec = slot_setters(CatRef)

# the `term` and `ident` slots of the built-in rules; also the elements of
# `fun`'s binders and of a bare splice group
_IDENT_ELEM, _TERM_ELEM = CatRef(CAT_IDENT), CatRef(CAT_TERM)
_SEQ, _SEPSEQ = Name.of(KIND_SEQ), Name.of(KIND_SEPSEQ)


class Many(TupleRecord, namedtuple("Many", "elem sep at_least_one", defaults=(None, False))):
    """A repetition item of the built-in rules: `elem`, a `CatRef` or a
    nested `ParseRule`, any number of times (at least once with
    `at_least_one`), separated by the token `sep` when it is given.  It
    parses into a `seq` or `sepseq` node through `Parser._parse_many`, so
    holes and splices work as in any sequence.  A category repetition
    ends before the literal that follows it in its rule; a rule repetition
    ends where no element starts: at a token other than the nested rule's
    first literal or, inside a quotation, a hole."""

    __slots__ = ()


# a nested `ParseRule` is an item too: it parses into a node of its own kind
Item = Union[Lit, CatRef, Many, "ParseRule"]


class ParseRule(Frozen):
    """A rule of a category.  What the parser asks of every use of the rule
    is worked out once here: `head` (the text of the rule's leading
    literal, None when it starts with a category) and the rule's `steps`,
    one per item (see `_steps_of`); `rest` is the steps after the first
    item, which the caller of a table rule has already read."""

    __slots__ = ("kind", "items", "prec", "right_assoc", "head", "steps", "rest")
    _fields = ("kind", "items", "prec", "right_assoc")
    kind: Name
    items: Tuple[Item, ...]
    prec: int
    right_assoc: bool
    head: Optional[str]
    steps: Tuple[Tuple, ...]
    rest: Tuple[Tuple, ...]

    def __init__(
        self, kind: Name, items: Tuple[Item, ...], prec: int = 0, right_assoc: bool = False
    ) -> None:
        _rule_kind(self, kind)
        _rule_items(self, items)
        _rule_prec(self, prec)
        _rule_right_assoc(self, right_assoc)
        _rule_head(self, items[0].text if items and isinstance(items[0], Lit) else None)
        steps = _steps_of(items, prec, right_assoc)
        _rule_steps(self, steps)
        _rule_rest(self, steps[1:])

    @property
    def leading(self) -> bool:
        """Whether the rule starts with a literal."""
        return self.head is not None


(
    _rule_kind, _rule_items, _rule_prec, _rule_right_assoc, _rule_head, _rule_steps, _rule_rest,
) = slot_setters(ParseRule)

# The kinds of rule steps; a step is `(kind, arg, extra)`:
#   _LIT   a literal: arg is its text;
#   _TERM, _IDENT, _CAT   a category slot: arg is the category, extra its
#          effective precedence;
#   _MANY  a repetition: arg is the `Many`, extra the item after it, if any;
#   _RULE  a nested rule: arg is the rule.
_LIT, _TERM, _IDENT, _CAT, _MANY, _RULE = range(6)


def _steps_of(items: Tuple[Item, ...], prec: int, right_assoc: bool) -> Tuple[Tuple, ...]:
    """The steps of a rule's items.  The rightmost operand of an infix-like
    rule (one that starts with a category) gets the rule's precedence, one
    more unless the rule is right-associative."""
    steps = []
    last = len(items) - 1
    for i, item in enumerate(items):
        if isinstance(item, Lit):
            steps.append((_LIT, item.text, None))
        elif isinstance(item, CatRef):
            slot_prec = item.prec
            if i == last and isinstance(items[0], CatRef):
                slot_prec = max(slot_prec, prec if right_assoc else prec + 1)
            code = _TERM if item.cat == CAT_TERM else _IDENT if item.cat == CAT_IDENT else _CAT
            steps.append((code, item.cat, slot_prec))
        elif isinstance(item, Many):
            steps.append((_MANY, item, items[i + 1 : i + 2]))
        else:
            steps.append((_RULE, item, None))
    return tuple(steps)


class Category:
    """A syntax category: its rules newest first, and the same rules indexed
    by what selects them, each bucket newest first too: `leading` by the
    rule's `head`, `trailing` (a rule that starts with this category) by
    its second item's text, and `cat_led`, the rules that start with
    another category."""

    def __init__(self, name: Name) -> None:
        self.name = name
        self.rules: List[ParseRule] = []
        self.leading: Dict[str, List[ParseRule]] = {}
        self.trailing: Dict[str, List[ParseRule]] = {}
        self.cat_led: List[ParseRule] = []

    def add(self, rule: ParseRule) -> None:
        """Put `rule` ahead of the older rules, in the list and its bucket."""
        self.rules.insert(0, rule)
        if rule.head is not None:
            bucket = self.leading.setdefault(rule.head, [])
        elif rule.items[0].cat == self.name:
            bucket = self.trailing.setdefault(rule.items[1].text, [])
        else:
            bucket = self.cat_led
        bucket.insert(0, rule)

    def copy(self) -> "Category":
        """An independent category with the same rules, which it shares."""
        new = Category(self.name)
        new.rules = list(self.rules)
        new.leading = {text: list(rules) for text, rules in self.leading.items()}
        new.trailing = {text: list(rules) for text, rules in self.trailing.items()}
        new.cat_led = list(self.cat_led)
        return new


class ParserTable:
    """Syntax categories, their rules, and the live keyword set.

    `symbols` is the keywords' symbolic part (`_symbolic`), kept as
    keywords are added: each new `Lexer` of the table gets the same
    frozenset until a symbolic keyword comes, so no lexer scans the
    keyword set."""

    def __init__(self) -> None:
        self.categories: Dict[Name, Category] = {}
        self.keywords: Set[str] = set()
        self._keyword_snapshot = frozenset()  # stale: the set is never empty
        self.symbols: frozenset = frozenset()
        self.kinds: Set[Name] = set()
        for cat in (
            CAT_TERM, CAT_COMMAND, CAT_TACTIC, CAT_SYNTAX_ITEM, CAT_MACRO_ITEM,
            CAT_NOTATION_ITEM,
        ):
            self.categories[cat] = Category(cat)
        # the kinds of the written-out forms; the rules register their own
        for kind in (K_NUM, K_FUN, K_FUN_MULTI, K_APP, K_TSEQ, K_SLOT_PREC):
            self.kinds.add(kind)
        # the kernel's own node kinds: a generated kind must never take one
        for kind in (
            KIND_QUOT, KIND_DQUOT, KIND_ANTIQUOT, KIND_SPLICE, KIND_SPLICEGROUP,
            KIND_SEPSEQ, KIND_SEQ, KIND_CMDSEQ, KIND_CHOICE,
        ):
            self.kinds.add(Name((kind,)))
        # the built-in forms that are rules; a newer rule shadows any of
        # them.  They are added unchecked: `tparen` refers to `tacticSeq`,
        # which no user rule may name.
        term, ident = _TERM_ELEM, _IDENT_ELEM
        terms = Many(term, ",")
        alts = Many(ParseRule(K_ALT, (Lit("|"), terms, Lit("=>"), term)), at_least_one=True)
        for kind, items in (
            (K_TUPLE, (Lit("("), terms, Lit(")"))),
            (K_ANON_CTOR, (Lit("⟨"), terms, Lit("⟩"))),
            (K_MATCH, (Lit("match"), terms, Lit("with"), alts)),
            (K_FUN_MATCH, (Lit("fun"), alts)),
        ):
            self._add_rule(CAT_TERM, ParseRule(kind, items))
        self._add_rule(CAT_TERM, ParseRule(K_PLUS, (term, Lit("+"), term), prec=65))
        self._add_rule(CAT_TERM, ParseRule(K_ARROW, (term, Lit("→"), term), prec=25, right_assoc=True))
        for kind, items in (
            (K_INTRO, (Lit("intro"), ident)),
            (K_EXACT, (Lit("exact"), term)),
            (K_ASSUMPTION, (Lit("assumption"),)),
            (K_SKIP, (Lit("skip"),)),
            (K_FAIL, (Lit("fail"),)),
            (K_TRY, (Lit("try"), CatRef(CAT_TACTIC))),
            (K_TPAREN, (Lit("("), CatRef(CAT_TACTIC_SEQ), Lit(")"))),
        ):
            self._add_rule(CAT_TACTIC, ParseRule(kind, items))
        # a `macro` item: a string literal or this rule
        self._add_rule(CAT_MACRO_ITEM, ParseRule(K_ARGDECL, (ident, Lit(":"), ident)))
        binder = ParseRule(K_BINDER, (Lit("("), ident, Lit(":"), Lit("Prop"), Lit(")")))
        by = ParseRule(K_BY, (Lit("by"), CatRef(CAT_TACTIC_SEQ)))
        mr_alt = ParseRule(K_MR_ALT, (Lit("|"), term, Lit("=>"), term))
        syntax_items = Many(CatRef(CAT_SYNTAX_ITEM), at_least_one=True)
        for kind, items in (
            (K_SYNTAX, (Lit("syntax"), syntax_items, Lit(":"), ident)),
            (K_DECLARE_CAT, (Lit("declare_syntax_cat"), ident)),
            (K_MACRO_RULES, (Lit("macro_rules"), Many(mr_alt, at_least_one=True))),
            (K_THEOREM, (Lit("theorem"), ident, Many(binder), Lit(":"), term, Lit(":="), by)),
            # `defn` is the newer, so an untyped `def` never backtracks
            (K_DEF_TYPED, (Lit("def"), ident, Lit(":"), term, Lit(":="), term)),
            (K_DEF, (Lit("def"), ident, Lit(":="), term)),
        ):
            self._add_rule(CAT_COMMAND, ParseRule(kind, items))

    def copy(self) -> "ParserTable":
        """An independent table with the same categories, rules, rule index
        and keywords; the immutable rules, keyword snapshot and symbols are
        shared."""
        new = ParserTable.__new__(ParserTable)
        new.categories = {n: c.copy() for n, c in self.categories.items()}
        new.keywords = set(self.keywords)
        new._keyword_snapshot = self._keyword_snapshot
        new.symbols = self.symbols
        new.kinds = set(self.kinds)
        return new

    def snapshot_keywords(self) -> frozenset:
        """The keyword set as a frozenset, rebuilt only after it grew (no
        keyword is removed); an unchanged set hands out the same object."""
        if len(self._keyword_snapshot) != len(self.keywords):
            self._keyword_snapshot = frozenset(self.keywords)
        return self._keyword_snapshot

    def add_category(self, name: Name, info: Optional[SourceInfo] = None) -> None:
        if name in self.categories or name in (CAT_IDENT, CAT_TACTIC_SEQ):
            raise ParseError(f"syntax category '{name}' already exists", info)
        self.categories[name] = Category(name)

    def has_category(self, name: Name) -> bool:
        return name in self.categories or name == CAT_IDENT

    def register_rule(
        self, cat: Name, rule: ParseRule, info: Optional[SourceInfo] = None
    ) -> None:
        """Add `rule` to `cat`, newest first; `info` places a rejection."""
        if cat not in self.categories:
            raise ParseError(f"unknown syntax category '{cat}'", info)
        if rule.kind in self.kinds:
            raise ParseError(f"duplicate syntax kind '{rule.kind}'", info)
        for item in rule.items:
            if isinstance(item, CatRef) and not self.has_category(item.cat):
                raise ParseError(f"unknown syntax category '{item.cat}'", info)
        if rule.head is None and not (
            len(rule.items) >= 2 and isinstance(rule.items[1], Lit)
        ):
            raise ParseError(
                "rules starting with a category must have a literal token next", info
            )
        if rule.head is None and rule.items[0].cat != cat:
            cycle = self._left_path(rule.items[0].cat, cat)
            if cycle is not None:
                path = " → ".join(str(c) for c in [cat] + cycle)
                raise ParseError(f"left-recursive syntax rule: {path}", info)
        self._add_rule(cat, rule)

    def _add_rule(self, cat: Name, rule: ParseRule) -> None:
        """Add `rule` to `cat`, newest first, with its kinds, keywords and
        symbols."""
        self.categories[cat].add(rule)
        self.kinds.add(rule.kind)
        for item in _nested_items(rule.items):
            if isinstance(item, ParseRule):
                self.kinds.add(item.kind)
            elif isinstance(item, Lit) and item.text not in _SPECIALS:
                # a special is lexed as one whatever the keywords
                text = item.text
                if text not in self.keywords:
                    self.keywords.add(text)
                    if _is_symbolic(text):
                        self.symbols = self.symbols | {text}

    def _left_path(self, start: Name, goal: Name) -> Optional[List[Name]]:
        """The categories from `start` to `goal` along rules that start with
        another category, if `goal` is reachable so: each step parses the
        next category before consuming a token.  A rule headed by its own
        category is trailing and takes no step."""
        paths = {start: [start]}
        todo = [start]
        while todo:
            here = todo.pop()
            if here == goal:
                return paths[here]
            category = self.categories.get(here)
            for rule in category.rules if category is not None else ():
                head = rule.items[0]
                if rule.head is None and head.cat != here and head.cat not in paths:
                    paths[head.cat] = paths[here] + [head.cat]
                    todo.append(head.cat)
        return None

    def starts(self, cat: Name, tok: Token) -> bool:
        """Whether `tok` heads a rule of `cat`: is its leading literal."""
        return tok.kind in ("keyword", "special") and tok.text in self.categories[cat].leading

    def gen_kind(self, items: Sequence[Item]) -> Name:
        base = ""
        for item in items:
            if isinstance(item, Lit):
                base = item.text
                break
        if not base:
            base = str(items[0].cat) + "_rule"
        kind = Name((base,))
        n = 1
        while kind in self.kinds:
            n += 1
            kind = Name((f"{base}_{n}",))
        return kind


# `macro` and `notation` are no core commands: the prelude registers them
MACRO_RULE = ParseRule(
    K_MACRO,
    (Lit("macro"), Many(CatRef(CAT_MACRO_ITEM)), Lit(":"), _IDENT_ELEM, Lit("=>"), _TERM_ELEM),
)
NOTATION_RULE = ParseRule(
    K_NOTATION, (Lit("notation"), Many(CatRef(CAT_NOTATION_ITEM)), Lit("=>"), _TERM_ELEM)
)


def _nested_items(items: Sequence[Item]) -> Iterator[Item]:
    """The items of a rule and of the rules nested in it, a repetition
    standing for its element."""
    for item in items:
        item = item.elem if isinstance(item, Many) else item
        yield item
        if isinstance(item, ParseRule):
            yield from _nested_items(item.items)


# ---------------------------------------------------------------------------
# Tokens


class Token(TupleRecord, namedtuple("Token", "kind text info end")):
    """One lexed token; `kind` is keyword | ident | num | str | special |
    quote | dquote | eof.  A tuple-based record, as `SourceInfo` is: the
    lexer builds both in C, see `Lexer.token_at`."""

    __slots__ = ()


_new = tuple.__new__

# The lexer matches each token with one scanner, compiled once per set of
# symbolic keywords: the keywords and specials that do not start like an
# identifier.  `ParserTable.symbols` keeps that set as rules add keywords,
# so a lexer built for a table neither scans the keyword set nor hashes a
# new frozenset to find its scanner.  Its pattern is the blanks and `--`
# comments before a token, then at most one of three groups:
#   1. an ASCII-headed identifier, dotted or not; a word keyword is told
#      apart from an identifier by set membership, so a new word keyword
#      never compiles a new scanner;
#   2. the symbols, longest first under each first character, with the
#      `$` and backquote heads;
#   3. an ASCII numeral.
# The token group is optional, so the match never fails and never
# backtracks into a comment: a required group let `def x := 1 -- tail`
# end with the token `l`, cut off the comment.  `re` has no possessive
# quantifiers or atomic groups before Python 3.11.
#
# `re` has no class for `str.isalpha()` or `str.isdigit()`, so what the
# groups cannot decide exactly is left to plain code: `Lexer._dispatch`
# lexes a token that starts with a non-ASCII letter or digit, a string, a
# `«»` identifier, a lex error and the end of the input, and `token_at`
# itself goes on past a dotted part or digits that the ASCII groups stop
# short of.  The heads `"`, `«`, `$` and the backquote win over any
# keyword that starts with them, so such keywords are left out of the
# scanner.

# the blanks and `--` comments before a token: `\s` in a str pattern is
# exactly what `str.isspace()` accepts
_BLANKS = re.compile(r"(?:\s|--[^\n]*)*")

# the rest of an identifier: `\w` in a str pattern is exactly what
# `str.isalnum()` accepts, plus "_"
_IDENT_REST = re.compile(r"[\w']*")

_WORD = r"[A-Za-z_][\w']*(?:\.[A-Za-z_][\w']*)*"

# what group 2 matches that is not a keyword
_SYMBOL_KINDS = {
    **dict.fromkeys(_SPECIALS, "special"),
    "$[": "special", "$": "special", "``(": "dquote", "`(": "quote",
}


def _is_ident_start(c: str) -> bool:
    return c.isalpha() or c == "_"


def _is_symbolic(keyword: str) -> bool:
    """Whether the scanner's symbol group matches `keyword`."""
    return not (_is_ident_start(keyword[0]) or keyword[0] in '`$"«')


def _symbolic(keywords: frozenset) -> frozenset:
    """The keywords that the scanner's symbol group matches."""
    return frozenset(k for k in keywords if _is_symbolic(k))


@functools.lru_cache(maxsize=32)
def _scanner(symbols: frozenset) -> re.Pattern:
    """The scanner for a set of symbolic keywords (see above).  Keyword sets
    that differ only in word keywords share it: a file grows its words far
    more often than its symbols, and a compile costs far more than a
    lexer: timed on a shared 2-core VM (CPython 3.11, best of 15), one
    took 0.47, 0.95 and 6.0 ms at 19, 69 and 519 symbols."""
    by_first: Dict[str, List[str]] = {}
    for k in sorted(symbols | _SYMBOL_KINDS.keys(), key=len, reverse=True):
        by_first.setdefault(k[0], []).append(re.escape(k[1:]))
    # one branch per first character, its tails longest first
    branches = "|".join(
        re.escape(c) + ("(?:" + "|".join(tails) + ")" if tails != [""] else "")
        for c, tails in by_first.items()
    )
    return re.compile(f"{_BLANKS.pattern}(?:({_WORD})|({branches})|([0-9]+))?")


class Lexer:
    def __init__(
        self,
        text: str,
        keywords: frozenset,
        line_starts: Tuple[int, ...] = (),
        symbols: Optional[frozenset] = None,
    ):
        """A lexer of `text` under `keywords`; `symbols`, their symbolic
        part, is worked out from them when not given."""
        self.text = text
        self.keywords = keywords
        # the offsets that start a line, handed on from a lexer of the same text
        self._line_starts = line_starts or (0, *[m.end() for m in re.finditer("\n", text)])
        # the number and bounds of the line lexed last: lookahead mostly
        # moves forward within a line
        self._line, self._line_lo, self._line_hi = 0, 0, -1
        self._scanner = _scanner(_symbolic(keywords) if symbols is None else symbols)
        # position -> the token that starts there once blanks and comments
        # are skipped; the parser trims it at each command start
        self._tokens: Dict[int, Token] = {}
        # position -> the `LexError` there, read only when `_tokens` misses
        self._errors: Dict[int, LexError] = {}

    def token(self, pos: int) -> Token:
        """The token at `pos`, lexed at most once per lexer.  A position
        that does not lex raises its kept `LexError` again."""
        tok = self._tokens.get(pos)
        if tok is None:
            if pos in self._errors:
                raise self._errors[pos].with_traceback(None)
            try:
                tok = self._tokens[pos] = self.token_at(pos)
            except LexError as err:
                self._errors[pos] = err
                raise
        return tok

    def _info(self, offset: int) -> SourceInfo:
        line = bisect_right(self._line_starts, offset)
        return SourceInfo(line, offset - self._line_starts[line - 1] + 1, offset)

    def token_at(self, pos: int) -> Token:
        """Lex one token at `pos`, uncached; the parser goes through
        `token`.  One scanner match decides most tokens (see above)."""
        text = self.text
        m = self._scanner.match(text, pos)
        group = m.lastindex
        if group is None:
            return self._dispatch(m.end())
        start, end = m.span(group)
        if not self._line_lo <= start < self._line_hi:
            starts = self._line_starts
            line = self._line = bisect_right(starts, start)
            self._line_lo = starts[line - 1]
            self._line_hi = starts[line] if line < len(starts) else len(text) + 1
        info = _new(SourceInfo, (self._line, start - self._line_lo + 1, start))
        if group == 1:
            if text.startswith(".", end):
                end = _dotted_end(text, end)
                word = text[start:end]
            else:
                word = m[1]
            kind = "keyword" if word in self.keywords else "ident"
            return _new(Token, (kind, word, info, end))
        if group == 2:
            sym = m[2]
            return _new(Token, (_SYMBOL_KINDS.get(sym, "keyword"), sym, info, end))
        while text[end : end + 1].isdigit():  # digits past the ASCII ones
            end += 1
        return _new(Token, ("num", text[start:end], info, end))

    def _dispatch(self, start: int) -> Token:
        """The token at `start`, past the blanks, where the scanner matched
        none: the character there decides."""
        text = self.text
        info = self._info(start)
        n = len(text)
        if start >= n:
            return Token("eof", "", info, start)
        c = text[start]
        if _is_ident_start(c):
            end = _dotted_end(text, _IDENT_REST.match(text, start).end())
            word = text[start:end]
            kind = "keyword" if word in self.keywords else "ident"
            return Token(kind, word, info, end)
        if c == "`":
            raise LexError("stray '`' (expected '`(' or '``(')", info)
        if c == '"':
            end = start + 1
            while end < n and text[end] != '"':
                if text[end] == "\n":
                    break
                end += 1
            if end >= n or text[end] != '"':
                raise LexError("unterminated string literal", info)
            return Token("str", text[start : end + 1], info, end + 1)
        if c == "«":
            end = text.find("»", start + 1)
            if end == -1:
                raise LexError("unterminated '«' identifier", info)
            if end == start + 1:
                raise LexError("empty '«»' identifier", info)
            return Token("ident", text[start + 1 : end], info, end + 1)
        if c.isdigit():
            end = start
            while end < n and text[end].isdigit():
                end += 1
            return Token("num", text[start:end], info, end)
        raise LexError(f"illegal character {c!r}", info)


def _dotted_end(text: str, end: int) -> int:
    """The end of an identifier whose first part ends at `end`: each part
    after a dot starts with a letter or an underscore."""
    n = len(text)
    while end + 1 < n and text[end] == "." and _is_ident_start(text[end + 1]):
        end = _IDENT_REST.match(text, end + 1).end()
    return end


def _lexes_alone(text: str) -> bool:
    """Whether `text`, once a keyword, lexes on its own as exactly one
    keyword or special token.  Decided from the lexer's heads without
    building a lexer, so a declaration lexes nothing: a word must be one
    whole identifier; the heads `"`, `«` and the backquote always win; of
    the `$` heads only the specials `$` and `$[` lex; and a symbol must not
    start with a blank or a `--` comment."""
    c = text[0]
    if _is_ident_start(c):
        return _dotted_end(text, _IDENT_REST.match(text).end()) == len(text)
    if c in '"«`$':
        return text in ("$", "$[")
    return _BLANKS.match(text).end() == 0


def tokenize(text: str, keywords: frozenset = frozenset()) -> List[Token]:
    """Tokenize a whole input with a fixed keyword set added to those of a
    new table (tests, tooling)."""
    lexer = Lexer(text, keywords | ParserTable().snapshot_keywords())
    out = []
    pos = 0
    while True:
        tok = lexer.token(pos)
        if tok.kind == "eof":
            return out
        out.append(tok)
        pos = tok.end


# ---------------------------------------------------------------------------
# Parser


class _Names(dict):
    """Spelling -> `Name`, built at the first use of the spelling."""

    def __missing__(self, text: str) -> Name:
        name = self[text] = Name.of(text)
        return name


class Parser:
    def __init__(self, text: str, table: ParserTable, pos: int = 0):
        self.table = table
        self.lexer = Lexer(text, table.snapshot_keywords(), (), table.symbols)
        self._tokens = self.lexer._tokens
        self.pos = pos
        self.quot_depth = 0
        # the term category, read by every `parse_term`; the table changes
        # a category in place
        self._term = table.categories[CAT_TERM]
        # one `Name` per identifier spelling of the file
        self._names = _Names()

    def start_command(self, pos: int) -> None:
        """Start a top-level command at `pos`, under the table's keywords
        as they stand now.  A new keyword set gets a new lexer; an unchanged
        one keeps only what it knows of `pos`, which the last command's
        lookahead may have lexed: no command reads back."""
        self.pos = pos
        self.quot_depth = 0
        lexer = self.lexer
        keywords = self.table.snapshot_keywords()
        if keywords is not lexer.keywords:
            symbols = self.table.symbols
            lexer = self.lexer = Lexer(lexer.text, keywords, lexer._line_starts, symbols)
        else:
            lexer._tokens = {pos: lexer._tokens[pos]} if pos in lexer._tokens else {}
            lexer._errors = {pos: lexer._errors[pos]} if pos in lexer._errors else {}
        self._tokens = lexer._tokens

    def skip_to_command(self, cmd_start: int, err_offset: int) -> int:
        """The offset of the next line whose first token starts a command,
        as the table knows commands, or of the end of the text.

        `cmd_start` is the offset of the failed command's first token.  The
        error's own line counts, as long as it starts past that token."""
        text = self.lexer.text
        pos = text.rfind("\n", 0, max(err_offset, 0)) + 1
        while True:
            if pos > cmd_start:
                try:
                    # the first token at or after `pos` starts its own line
                    if self.table.starts(CAT_COMMAND, self.lexer.token(pos)):
                        return pos
                except LexError:
                    pass  # a line that does not lex starts no command
            line_end = text.find("\n", pos)
            if line_end == -1:
                return len(text)
            pos = line_end + 1

    # -- token plumbing

    # Most peeks ask again for a token already lexed, so `peek` and the
    # hot callers below read the lexer's memo first; only a miss calls into
    # the lexer, once.

    def peek(self, ahead: int = 0) -> Token:
        tokens = self._tokens
        tok = tokens.get(self.pos) or self.lexer.token(self.pos)
        while ahead:
            tok = tokens.get(tok.end) or self.lexer.token(tok.end)
            ahead -= 1
        return tok

    def _peek_or_none(self) -> Optional[Token]:
        """The next token, or None when it does not lex.  A lookahead that
        may end a command uses this, so a lex error just after the command
        belongs to whatever comes next, not to the command."""
        tok = self._tokens.get(self.pos)
        if tok is None:
            try:
                tok = self.lexer.token(self.pos)
            except LexError:
                return None
        return tok

    def bump(self) -> Token:
        tok = self.peek()
        self.pos = tok.end
        return tok

    def at(self, text: str) -> bool:
        tok = self._tokens.get(self.pos) or self.lexer.token(self.pos)
        return tok.text == text and tok.kind in ("keyword", "special")

    def _at_before_end(self, text: str) -> bool:
        """`at`, where the lookahead may end a command: a token that does
        not lex is not `text`, see `_peek_or_none`."""
        tok = self._peek_or_none()
        return (
            tok is not None and tok.text == text and tok.kind in ("keyword", "special")
        )

    def at_eof(self) -> bool:
        return self.peek().kind == "eof"

    def expect(self, text: str) -> Atom:
        tok = self._tokens.get(self.pos) or self.lexer.token(self.pos)
        if tok.kind in ("keyword", "special") and tok.text == text:
            self.pos = tok.end
            return Atom(tok.text, tok.info)
        raise ParseError(f"expected '{text}', found {describe(tok)}", tok.info)

    def expect_ident(self) -> Ident:
        tok = self._tokens.get(self.pos) or self.lexer.token(self.pos)
        if tok.kind != "ident":
            raise ParseError(f"expected identifier, found {describe(tok)}", tok.info)
        self.pos = tok.end
        return Ident(tok.text, self._names[tok.text], (), tok.info)

    def _ident_or_antiquot(self) -> Syntax:
        if self.quot_depth and self.at("$"):
            return self.parse_antiquot()
        return self.expect_ident()

    # -- categories

    def parse_category(self, cat: Name, min_prec: int = 0) -> Syntax:
        if self.quot_depth and self.peek().text == "$[" and cat != CAT_TACTIC_SEQ:
            # a splice group stands for the whole slot; a tactic sequence
            # reads its holes tactic by tactic
            return self.parse_antiquot()
        if cat == CAT_IDENT:
            return self._ident_or_antiquot()
        if cat == CAT_TERM:
            return self.parse_term(min_prec)
        if cat == CAT_TACTIC_SEQ:
            return self.parse_tactic_seq()
        category = self.table.categories.get(cat)
        if category is None:
            raise ParseError(f"unknown syntax category '{cat}'", self.peek().info)
        left = self._parse_leading(category)
        return self._parse_trailing(category, left, min_prec)

    def _parse_leading(self, category: Category) -> Syntax:
        """One leading form of the category, the same way for every
        category: a built-in form when the token starts one; else the
        category's rules, newest first, with backtracking; else, inside a
        quotation, a hole.  Fails with the error that got furthest."""
        tok = self._tokens.get(self.pos) or self.lexer.token(self.pos)
        builtin = self._BUILTIN_FORMS.get(category.name)
        if builtin is not None:
            form = builtin(self, tok)
            if form is not None:
                return form
        best: Optional[ParseError] = None
        start = self.pos
        # in a quotation `$` starts a hole even where a rule starts with "$"
        hole = self.quot_depth and tok.text in ("$", "$[")
        if tok.kind in ("keyword", "special") and not hole:
            text = tok.text
            for rule in category.leading.get(text, ()):
                # the leading literal is this token: its step is done here
                self.pos = tok.end
                try:
                    return self._parse_rule_items(rule, [Atom(text, tok.info)])
                except ParseError as err:
                    best = _furthest(best, err)
                    self.pos = start
        for rule in category.cat_led:
            try:
                head = self.parse_category(rule.items[0].cat, rule.items[0].prec)
                return self._parse_rule_items(rule, [head])
            except ParseError as err:
                best = _furthest(best, err)
                self.pos = start
        if hole:
            return self.parse_antiquot()
        if best is not None:
            raise best
        if category.name == CAT_COMMAND:
            raise ParseError(f"unknown command, found {describe(tok)}", tok.info)
        raise ParseError(
            f"expected {category.name}, found {describe(tok)}", tok.info
        )

    def _parse_trailing(self, category: Category, left: Syntax, min_prec: int) -> Syntax:
        if not category.trailing:
            return left
        while True:
            tok = self._peek_or_none()
            if tok is None or tok.kind not in ("keyword", "special"):
                return left
            rule = _trailing_rule(category, tok.text, min_prec)
            if rule is None:
                return left
            left = self._parse_rule_items(rule, [left])

    def _parse_rule_items(self, rule: ParseRule, children: List[Syntax]) -> Node:
        """The node of `rule`, whose first item is in `children` already
        when the caller read it; `children` gets the others, step by step
        (see `_steps_of`).  Outside quotations a `term` slot is
        `parse_term` and an `ident` slot `expect_ident`; inside, every slot
        goes through `parse_category`, which reads the holes."""
        quoted = self.quot_depth
        for code, arg, extra in rule.rest if children else rule.steps:
            if code == _LIT:
                children.append(self.expect(arg))
            elif code == _TERM and not quoted:
                children.append(self.parse_term(extra))
            elif code == _IDENT and not quoted:
                children.append(self.expect_ident())
            elif code <= _CAT:
                children.append(self.parse_category(arg, extra))
            elif code == _MANY:
                children.append(self._parse_many(arg, extra))
            else:
                children.append(self._parse_rule_items(arg, []))
        return Node(rule.kind, tuple(children))

    def _parse_many(self, many: Many, after: Tuple[Item, ...]) -> Node:
        """A repetition (see `Many`); `after` holds the item that follows it
        in its rule, if any.  At most one element may be a splice."""
        elem, sep = many.elem, many.sep
        if type(elem) is CatRef:
            end = after[0].text
        else:
            end, starts = None, (elem.head, "$", "$[") if self.quot_depth else (elem.head,)
        children: List[Syntax] = []
        spliced = False
        while (
            not self.at(end) if end is not None
            else any(self._at_before_end(text) for text in starts)
        ):
            if children and sep is not None:
                children.append(self.expect(sep))
            item = self._parse_element(elem)
            if isinstance(item, Node) and item.kind[0] in (KIND_SPLICE, KIND_SPLICEGROUP):
                if spliced:
                    raise ParseError("at most one splice per sequence", self.peek().info)
                spliced = True
            children.append(item)
        if many.at_least_one and not children:
            what = elem.cat if end is not None else f"'{elem.head}' alternative"
            raise ParseError(f"expected at least one {what}", self.peek().info)
        return Node(_SEPSEQ if sep is not None else _SEQ, tuple(children))

    def _parse_element(self, elem: Union[CatRef, ParseRule]) -> Syntax:
        """One element of a repetition, of `fun`'s binders or of a splice
        group: `elem` is a category or a nested rule.  Inside a quotation it
        may be a splice, `$x*`, `$x,*`, `$x;*` or `$[…]*`; outside, a `term`
        element is `parse_term`."""
        if self.quot_depth:
            tok = self.peek()
            if tok.text == "$[":
                return self._parse_splicegroup(elem)
            if tok.text == "$":
                # commit to the antiquotation only when it is a splice item;
                # otherwise it is an ordinary leaf of the element grammar
                start = self.pos
                anti = self.parse_antiquot()
                spliced = self._maybe_splice_suffix(anti)
                if spliced is not anti:
                    return spliced
                self.pos = start
        if type(elem) is not CatRef:
            return self._parse_rule_items(elem, [])
        if elem.cat == CAT_TERM and not self.quot_depth:
            return self.parse_term(elem.prec)
        return self.parse_category(elem.cat, elem.prec)

    # -- terms

    def parse_term(self, min_prec: int = 0) -> Syntax:
        """A term: a leading form, then, one peek per turn, a trailing rule
        or else an application argument, for as long as one follows."""
        category = self._term
        left = self._parse_leading(category)
        trailing = category.trailing
        apps = min_prec <= APP_PREC
        while True:
            tok = self._peek_or_none()
            if tok is None:
                return left
            if tok.kind in ("keyword", "special") and tok.text in trailing:
                rule = _trailing_rule(category, tok.text, min_prec)
                if rule is not None:
                    left = self._parse_rule_items(rule, [left])
                    continue
            if not (apps and self._starts_term_leaf(tok) and self._same_line(tok)):
                return left
            left = Node(K_APP, (left, self._parse_leading(category)))

    def _same_line(self, tok: Token) -> bool:
        # an application argument must not drift to the next line; this is
        # what separates a trailing term from the next top-level command
        if self.pos == 0:
            return True
        return bisect_right(self.lexer._line_starts, self.pos - 1) == tok.info.line

    def _starts_term_leaf(self, tok: Token) -> bool:
        if tok.kind in ("ident", "num", "quote", "dquote"):
            return True
        if tok.kind == "special" and tok.text in ("(", "⟨"):
            return True
        if self.quot_depth and tok.text == "$":
            # an antiquotation explicitly tagged with a non-term category
            # belongs to an enclosing sequence, not to an application
            return self._hole_tag() in (None, "term", "ident", "num")
        return False

    def _hole_tag(self) -> Optional[str]:
        """The tag of the hole `$x:cat` that starts at the current `$`, if
        it is tagged: written tight, as `parse_antiquot` reads it."""
        name = self.peek(1)
        if name.kind != "ident":
            return None
        colon = self.peek(2)
        if colon.text != ":" or colon.info.offset != name.end:
            return None
        cat = self.peek(3)
        if cat.kind in ("ident", "keyword") and cat.info.offset == colon.end:
            return cat.text
        return None

    def _term_form(self, tok: Token) -> Optional[Syntax]:
        if tok.kind == "ident":
            self.pos = tok.end
            return Ident(tok.text, self._names[tok.text], (), tok.info)
        if tok.kind == "num":
            self.pos = tok.end
            return Node(K_NUM, (Atom(tok.text, tok.info),))
        if tok.kind in ("quote", "dquote"):
            return self.parse_quotation()
        if tok.text == "fun":
            bar = self.peek(1)
            # `fun | …` is the `funMatch` rule
            if not (bar.text == "|" and bar.kind == "keyword"):
                return self._parse_fun()
        return None

    def _parse_fun(self) -> Node:
        fun = self.expect("fun")
        binders: List[Syntax] = []
        has_splice = False
        while not self.at("=>"):
            item = self._parse_element(_IDENT_ELEM)
            if isinstance(item, Node) and item.kind[0] in (KIND_SPLICE, KIND_SPLICEGROUP):
                has_splice = True
            binders.append(item)
            if len(binders) > 64:
                raise ParseError("runaway binder list", self.peek().info)
        if not binders:
            raise ParseError("expected at least one binder", self.peek().info)
        arrow = self.expect("=>")
        body = self.parse_term(0)
        if len(binders) == 1 and not has_splice:
            return Node(K_FUN, (fun, binders[0], arrow, body))
        return Node(K_FUN_MULTI, (fun, Node(_SEQ, tuple(binders)), arrow, body))

    # -- splices

    def _maybe_splice_suffix(self, anti: Node) -> Syntax:
        tok = self.peek()
        if tok.text == "*" and tok.kind == "special":
            self.bump()
            return Node(Name((KIND_SPLICE,)), (anti,))
        if (
            tok.kind == "special"
            and tok.text in (",", ";")
            and self.peek(1).text == "*"
            and self.peek(1).info.offset == tok.end
        ):
            self.bump()
            self.bump()
            return Node(Name((KIND_SPLICE, tok.text)), (anti,))
        return anti

    def _parse_splicegroup(self, elem: Union[CatRef, ParseRule]) -> Node:
        self.expect("$[")
        inner = self._parse_element(elem)
        self.expect("]")
        tok = self.peek()
        sep = ""
        if tok.kind == "special" and tok.text in (",", ";") and self.peek(1).text == "*":
            sep = tok.text
            self.bump()
        self.expect("*")
        parts = (KIND_SPLICEGROUP, sep) if sep else (KIND_SPLICEGROUP,)
        return Node(Name(parts), (inner,))

    # -- antiquotations and quotations

    def parse_antiquot(self) -> Node:
        tok = self.peek()
        if tok.text == "$[":
            # bare nested splice in slot position: parse as term element
            return self._parse_splicegroup(_TERM_ELEM)
        dollar = self.expect("$")
        tok = self.peek()
        if tok.text == "(":
            self.expect("(")
            payload: Syntax = self.parse_term(0)
            self.expect(")")
            payload_end = self.pos
        elif tok.kind == "ident":
            payload = self.expect_ident()
            payload_end = tok.end
        else:
            raise ParseError(
                f"expected identifier or '(' after '$', found {describe(tok)}",
                tok.info,
            )
        colon = self.peek()
        suffix: Tuple = ()
        if (
            colon.text == ":"
            and colon.info.offset == payload_end
            and self.peek(1).kind in ("ident", "keyword")
            and self.peek(1).info.offset == colon.end
        ):
            self.bump()
            cat = self.bump()
            tag = Name.of(cat.text)
            if not (self.table.has_category(tag) or tag in self.table.kinds):
                raise ParseError(
                    f"unknown antiquotation category '{cat.text}'", cat.info
                )
            suffix = tuple(tag)
        return Node(Name((KIND_ANTIQUOT,) + suffix), (payload,))

    def parse_quotation(self) -> Node:
        """A quotation.  Its body's category is decided once, before the
        body is read: an explicit `cat|` tag; else commands, when the first
        token heads a command rule or is a hole tagged `:command`; else a
        term.  A first token that heads both a command rule and a term rule
        is ambiguous.  A command body holds one or more commands."""
        tok = self.bump()
        if tok.kind not in ("quote", "dquote"):
            raise ParseError(f"expected quotation, found {describe(tok)}", tok.info)
        head: Tuple = (KIND_QUOT if tok.kind == "quote" else KIND_DQUOT,)
        self.quot_depth += 1
        try:
            first = self.peek()
            cat = Name.of(first.text)
            if (
                first.kind == "ident"
                and self.peek(1).text == "|"
                and self.table.has_category(cat)
            ):
                self.bump()
                self.bump()
                head += cat
            elif first.text == "$":
                cat = CAT_COMMAND if self._hole_tag() == "command" else CAT_TERM
            elif not self.table.starts(CAT_COMMAND, first):
                cat = CAT_TERM
            elif self.table.starts(CAT_TERM, first):
                raise ParseError(
                    "ambiguous quotation: parses as both a term and a command", first.info
                )
            else:
                cat = CAT_COMMAND
            if cat == CAT_COMMAND:
                cmds = [self.parse_command()]
                while not self.at(")") and not self.at_eof():
                    cmds.append(self.parse_command())
                body = cmds[0] if len(cmds) == 1 else Node(Name.of(KIND_CMDSEQ), tuple(cmds))
            elif cat == CAT_TACTIC:
                body = self.parse_tactic_seq()
            else:
                body = self.parse_category(cat)
            self.expect(")")
            return Node(Name(head), (body,))
        finally:
            self.quot_depth -= 1

    # -- tactics

    def parse_tactic_seq(self) -> Syntax:
        first = self.parse_category(CAT_TACTIC)
        if self._at_before_end(";"):
            sep = self.expect(";")
            rest = self.parse_tactic_seq()
            return Node(K_TSEQ, (first, sep, rest))
        return first

    # -- commands

    def parse_command(self) -> Syntax:
        return self.parse_category(CAT_COMMAND)

    # -- the items of `syntax`, `macro` and `notation`

    def _string_item(self, tok: Token) -> Optional[Syntax]:
        """A string literal; a `macro` item `x:cat` is the `argdecl` rule."""
        if tok.kind != "str":
            return None
        self.pos = tok.end
        return Atom(tok.text, tok.info)

    def _notation_item(self, tok: Token) -> Optional[Syntax]:
        """A string literal or a parameter."""
        if tok.kind != "ident":
            return self._string_item(tok)
        self.pos = tok.end
        return Ident(tok.text, self._names[tok.text], (), tok.info)

    def _syntax_item(self, tok: Token) -> Optional[Syntax]:
        """A string literal or a category name; a tight `cat:N` raises the
        slot's minimum precedence."""
        if tok.kind not in ("ident", "keyword"):
            return self._string_item(tok)
        self.pos = tok.end
        slot = Ident(tok.text, self._names[tok.text], (), tok.info)
        colon = self.peek()
        if (
            colon.text == ":"
            and colon.info.offset == tok.end
            and self.peek(1).kind == "num"
            and self.peek(1).info.offset == colon.end
        ):
            self.bump()
            prec = self.bump()
            return Node(K_SLOT_PREC, (slot, Atom(prec.text, prec.info)))
        return slot

    # the written-out leading forms, tried before the category's rules; each
    # returns None when the token starts none of its forms.  Apart from
    # `fun x … =>` they are token-kind leaves.
    _BUILTIN_FORMS = {
        CAT_TERM: _term_form, CAT_SYNTAX_ITEM: _syntax_item, CAT_MACRO_ITEM: _string_item,
        CAT_NOTATION_ITEM: _notation_item,
    }


def _trailing_rule(category: Category, text: str, min_prec: int) -> Optional[ParseRule]:
    """The newest rule of `category` that continues a form of the category
    with the literal `text`, at `min_prec` or above, if any."""
    for rule in category.trailing.get(text, ()):
        if rule.prec >= min_prec:
            return rule
    return None


def _furthest(best: Optional[ParseError], err: ParseError) -> ParseError:
    """Of the error kept so far and a new one, the one that got further;
    called only when a rule fails."""
    if best is None or best.info is None or (err.info and err.info.offset > best.info.offset):
        # a kept traceback would tie the parser's frames to the error in a cycle
        return err.with_traceback(None)
    return best


def describe(tok: Token) -> str:
    if tok.kind == "eof":
        return "end of input"
    return f"'{tok.text}'"


def iter_commands(
    text: str,
    table: ParserTable,
    on_error: Optional[Callable[[KernelError, int], None]] = None,
) -> Iterator[Tuple[SourceInfo, Syntax]]:
    """The commands of `text` in order, each with the position of its
    first token.

    One parser reads the file.  Each command starts under the table's
    keywords as they stand when it is asked for (`Parser.start_command`),
    so a caller that processes each command before asking for the next
    sees new keywords take effect on the next command.
    A parse that runs out of Python stack fails as a `ParseError` at the
    command's first token.  Without `on_error` a lex or parse error
    propagates; with it, `on_error(err, start)` gets the error and the
    offset of the failed command's first token, and the commands go on
    from `Parser.skip_to_command`; the iteration stops if that is no
    further on.
    """
    parser = Parser(text, table)
    pos = 0
    while True:
        parser.start_command(pos)
        first: Optional[Token] = None
        try:
            first = parser.peek()
            if first.kind == "eof":
                return
            try:
                cmd = parser.parse_command()
            except RecursionError:
                raise ParseError(
                    "recursion limit reached while parsing this command", first.info
                ) from None
        except (LexError, ParseError) as err:
            if on_error is None:
                raise
            start = first.info.offset if first is not None else err.info.offset
            on_error(err.with_traceback(None), start)
            next_pos = parser.skip_to_command(start, err.info.offset if err.info else start)
            if next_pos <= pos:
                return
            pos = next_pos
            continue
        pos = parser.pos
        yield first.info, cmd
