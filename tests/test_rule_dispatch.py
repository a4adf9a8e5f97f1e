"""One rule dispatch for every syntax category.

`term`, `tactic` and `command` parse like user categories: their written-out
forms first, then their rules newest first with backtracking, then (inside
a quotation) a hole, and after the leading form their trailing rules.  The
built-in tactic forms and `declare_syntax_cat` are rules of the table.

`OldDispatchParser` keeps the dispatch this replaced, three first-match
keyword loops and a hole that ended a built-in slot, as the reference of a
differential over the corpus and the prelude sources.  It parses `def`,
`theorem`, `syntax`, `macro`, `notation`, `macro_rules`, `match`,
`fun | …`, tuples and `⟨…⟩` with the written-out forms of
`WrittenOutParser`, as the parser did then.

Both it and `ItemByItemParser` read a rule item by item, deciding each item
at each use, where `Parser` runs the steps that each rule worked out once.
They also find a token's rules by scanning `Category.rules`, where `Parser`
reads the category's rule index.  `ItemByItemParser` differs from `Parser`
in nothing else, so over generated corpus mutations and over generated rule
sets its outcomes must equal the parser's exactly.
"""

from typing import List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CORPUS
from corpus_config import CORPUS_RUNS
from hygex import driver, prelude
from hygex.driver import RunConfig, Runner, run_string
from hygex.errors import LexError, ParseError
from hygex.parser import (
    CAT_COMMAND,
    CAT_IDENT,
    CAT_MACRO_ITEM,
    CAT_TACTIC,
    CAT_TERM,
    APP_PREC,
    K_ANON_CTOR,
    K_APP,
    K_ARGDECL,
    K_ASSUMPTION,
    K_ARROW,
    K_DECLARE_CAT,
    K_DEF,
    K_DEF_TYPED,
    K_EXACT,
    K_FAIL,
    K_FUN_MATCH,
    K_INTRO,
    K_MACRO_RULES,
    K_MATCH,
    K_NUM,
    K_PLUS,
    K_SKIP,
    K_SYNTAX,
    K_THEOREM,
    K_TPAREN,
    K_TRY,
    K_TSEQ,
    K_TUPLE,
    CatRef,
    Category,
    Lit,
    Many,
    Parser,
    ParseRule,
    ParserTable,
    Token,
    _trailing_rule,
    describe,
    iter_commands,
)
from hygex.syntax import Atom, Ident, Name, Node, Syntax, is_antiquot
from test_generated_inputs import mutated_corpus_files
from written_out_parser import WrittenOutParser, written_out_heads


def scanned_trailing_rule(category: Category, text: str, min_prec: int) -> Optional[ParseRule]:
    """`parser._trailing_rule` as it was before the rule index, verbatim."""
    name = category.name
    for rule in category.rules:
        if (
            rule.head is None
            and rule.items[1].text == text
            and rule.items[0].cat == name
            and rule.prec >= min_prec
        ):
            return rule
    return None


class ScanningTable(ParserTable):
    """A table whose `starts` is the scan of `Category.rules` it was before
    the rule index, verbatim.  `view` shows a table through this class."""

    def starts(self, cat: Name, tok: Token) -> bool:
        """Whether `tok` heads a rule of `cat`: is its leading literal."""
        return tok.kind in ("keyword", "special") and any(
            rule.head == tok.text for rule in self.categories[cat].rules
        )

    @classmethod
    def view(cls, table: ParserTable) -> "ScanningTable":
        """`table` with this class's `starts`; the two share one state, so
        the view sees every rule the table gets."""
        view = cls.__new__(cls)
        view.__dict__ = table.__dict__
        return view


class ItemByItemParser(Parser):
    """The parser as it was before each rule worked out its steps once and
    before the rule index: it reads a rule item by item, deciding each item
    at each use, sends every slot through `parse_category`, keeps its
    furthest error through a closure, peeks twice per `parse_term` turn,
    and scans `Category.rules` for a token's rules, also through its
    table's `starts` (`ScanningTable`).  The four methods below are
    verbatim copies of that parser's."""

    def __init__(self, text: str, table: ParserTable, pos: int = 0):
        super().__init__(text, ScanningTable.view(table), pos)

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

        def note(err: ParseError) -> None:
            nonlocal best
            if (
                best is None
                or best.info is None
                or (err.info and err.info.offset > best.info.offset)
            ):
                # a kept traceback would tie this frame to itself in a cycle
                best = err.with_traceback(None)

        # in a quotation `$` starts a hole even where a rule starts with "$"
        hole = self.quot_depth and tok.text in ("$", "$[")
        if tok.kind in ("keyword", "special") and not hole:
            for rule in category.rules:
                if rule.leading and rule.items[0].text == tok.text:
                    start = self.pos
                    try:
                        return self._parse_rule_items(rule, [])
                    except ParseError as err:
                        note(err)
                        self.pos = start
        for rule in category.rules:
            if rule.leading or rule.items[0].cat == category.name:
                continue
            start = self.pos
            try:
                head = self.parse_category(rule.items[0].cat, rule.items[0].prec)
                return self._parse_rule_items(rule, [head], from_item=1)
            except ParseError as err:
                note(err)
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
        # `register_rule` makes a rule that does not lead start with a
        # category and go on with a literal
        while True:
            tok = self._peek_or_none()
            if tok is None or tok.kind not in ("keyword", "special"):
                return left
            for rule in category.rules:
                if (
                    not rule.leading
                    and rule.items[1].text == tok.text
                    and rule.items[0].cat == category.name
                    and rule.prec >= min_prec
                ):
                    break
            else:
                return left
            left = self._parse_rule_items(rule, [left], from_item=1)

    def _parse_rule_items(
        self, rule: ParseRule, children: List[Syntax], from_item: int = 0
    ) -> Node:
        items = rule.items
        for i in range(from_item, len(items)):
            item = items[i]
            if isinstance(item, Lit):
                children.append(self.expect(item.text))
            elif isinstance(item, CatRef):
                prec = item.prec
                if i == len(items) - 1 and isinstance(items[0], CatRef):
                    # rightmost operand of an infix-like rule
                    prec = max(prec, rule.prec if rule.right_assoc else rule.prec + 1)
                children.append(self.parse_category(item.cat, prec))
            elif isinstance(item, Many):
                children.append(self._parse_many(item, items[i + 1 : i + 2]))
            else:
                children.append(self._parse_rule_items(item, []))
        return Node(rule.kind, tuple(children))

    def parse_term(self, min_prec: int = 0) -> Syntax:
        category = self.table.categories[CAT_TERM]
        left = self._parse_leading(category)
        while True:
            before = self.pos
            left2 = self._parse_trailing(category, left, min_prec)
            tok = self._peek_or_none() if min_prec <= APP_PREC else None
            if (
                tok is not None
                and self._starts_term_leaf(tok)
                and self._same_line(tok)
            ):
                arg = self._parse_leading(category)
                left = Node(K_APP, (left2, arg))
                continue
            left = left2
            if self.pos == before:
                return left


class OldDispatchParser(WrittenOutParser):
    """The category dispatch as it was before the built-in categories used
    the rule table: first-match keyword loops, written-out tactic forms and
    `declare_syntax_cat`, and a hole that ends a built-in category's slot."""

    def parse_category(self, cat: Name, min_prec: int = 0) -> Syntax:
        builtin = cat in (CAT_IDENT, CAT_TERM, CAT_TACTIC, CAT_COMMAND)
        if self.quot_depth and self.peek().text in ("$", "$["):
            if builtin or self.peek().text == "$[":
                return self.parse_antiquot()
            return self._parse_user_category_antiquot(cat, min_prec)
        if cat == CAT_IDENT:
            return self.expect_ident()
        if cat == CAT_TERM:
            return self.parse_term(min_prec)
        if cat == CAT_TACTIC:
            return self.parse_tactic(min_prec)
        if cat == CAT_COMMAND:
            return self.parse_command()
        category = self._category(cat)
        left = self._parse_leading(category)
        return self._parse_trailing(category, left, min_prec)

    def _category(self, cat: Name) -> Category:
        category = self.table.categories.get(cat)
        if category is None:
            raise ParseError(f"unknown syntax category '{cat}'", self.peek().info)
        return category

    def _parse_user_category_antiquot(self, cat: Name, min_prec: int) -> Syntax:
        start = self.pos
        anti = self.parse_antiquot()
        if anti.kind[1:] == cat:
            return anti
        self.pos = start
        category = self._category(cat)
        try:
            left = self._parse_leading(category)
            return self._parse_trailing(category, left, min_prec)
        except ParseError:
            self.pos = start
            return self.parse_antiquot()

    def _parse_leading(self, category: Category) -> Syntax:
        tok = self.peek()
        best: Optional[ParseError] = None

        def note(err: ParseError) -> None:
            nonlocal best
            if (
                best is None
                or best.info is None
                or (err.info and err.info.offset > best.info.offset)
            ):
                best = err.with_traceback(None)

        if tok.kind in ("keyword", "special"):
            for rule in category.rules:
                if rule.leading and rule.items[0].text == tok.text:
                    start = self.pos
                    try:
                        return self._parse_rule_items(rule, [])
                    except ParseError as err:
                        note(err)
                        self.pos = start
        for rule in category.rules:
            if rule.leading or rule.items[0].cat == category.name:
                continue
            start = self.pos
            try:
                head = self.parse_category(rule.items[0].cat, rule.items[0].prec)
                return self._parse_rule_items(rule, [head], from_item=1)
            except ParseError as err:
                note(err)
                self.pos = start
        if best is not None:
            raise best
        raise ParseError(f"expected {category.name}, found {describe(tok)}", tok.info)

    _parse_trailing = ItemByItemParser._parse_trailing
    _parse_rule_items = ItemByItemParser._parse_rule_items

    def parse_term(self, min_prec: int = 0) -> Syntax:
        left = self._parse_term_leading()
        category = self.table.categories[CAT_TERM]
        while True:
            before = self.pos
            left2 = self._parse_trailing(category, left, min_prec)
            if (
                min_prec <= 100
                and self._starts_term_leaf(self.peek())
                and self._same_line(self.peek())
            ):
                arg = self._parse_term_leading()
                left = Node(K_APP, (left2, arg))
                continue
            left = left2
            if self.pos == before:
                return left

    def _parse_term_leading(self) -> Syntax:
        tok = self.peek()
        if self.quot_depth and tok.text in ("$", "$["):
            return self.parse_antiquot()
        if tok.kind == "ident":
            self.bump()
            return Ident(tok.text, Name.of(tok.text), (), tok.info)
        if tok.kind == "num":
            self.bump()
            return Node(K_NUM, (Atom(tok.text, tok.info),))
        if tok.kind in ("quote", "dquote"):
            return self.parse_quotation()
        if tok.text == "(":
            open_ = self.expect("(")
            elems = self._parse_elements(lambda: self.parse_term(0), ",", lambda: self.at(")"))
            close = self.expect(")")
            return Node(K_TUPLE, (open_, elems, close))
        if tok.text == "⟨":
            open_ = self.expect("⟨")
            elems = self._parse_elements(lambda: self.parse_term(0), ",", lambda: self.at("⟩"))
            close = self.expect("⟩")
            return Node(K_ANON_CTOR, (open_, elems, close))
        if tok.text == "fun":
            return self._parse_fun()
        if tok.text == "match":
            return self._parse_match()
        if tok.kind == "keyword":
            for rule in self.table.categories[CAT_TERM].rules:
                if rule.leading and rule.items[0].text == tok.text:
                    return self._parse_rule_items(rule, [])
        raise ParseError(f"expected term, found {describe(tok)}", tok.info)

    def parse_tactic(self, min_prec: int = 0) -> Syntax:
        tok = self.peek()
        if self.quot_depth and tok.text in ("$", "$["):
            return self.parse_antiquot()
        if tok.text == "(":
            open_ = self.expect("(")
            inner = self.parse_tactic_seq()
            close = self.expect(")")
            return Node(K_TPAREN, (open_, inner, close))
        if tok.text == "intro":
            kw = self.expect("intro")
            name = self._ident_or_antiquot()
            return Node(K_INTRO, (kw, name))
        if tok.text == "exact":
            kw = self.expect("exact")
            term = self.parse_term(0)
            return Node(K_EXACT, (kw, term))
        for text, kind in (("assumption", K_ASSUMPTION), ("skip", K_SKIP), ("fail", K_FAIL)):
            if tok.text == text:
                kw = self.expect(text)
                return Node(kind, (kw,))
        if tok.text == "try":
            kw = self.expect("try")
            inner = self.parse_tactic(0)
            return Node(K_TRY, (kw, inner))
        if tok.kind == "keyword":
            for rule in self.table.categories[CAT_TACTIC].rules:
                if rule.leading and rule.items[0].text == tok.text:
                    return self._parse_rule_items(rule, [])
        raise ParseError(f"expected tactic, found {describe(tok)}", tok.info)

    def parse_tactic_seq(self) -> Syntax:
        first = self.parse_tactic(0)
        if self.at(";"):
            sep = self.expect(";")
            rest = self.parse_tactic_seq()
            return Node(K_TSEQ, (first, sep, rest))
        return first

    def parse_command(self) -> Syntax:
        tok = self.peek()
        if self.quot_depth and tok.text in ("$",):
            return self.parse_antiquot()
        if tok.text == "def":
            return self._parse_def()
        if tok.text == "theorem":
            return self._parse_theorem()
        if tok.text == "syntax":
            return self._parse_syntax_cmd()
        if tok.text == "macro_rules":
            return self._parse_macro_rules()
        if tok.text == "declare_syntax_cat":
            kw = self.expect("declare_syntax_cat")
            name = self.expect_ident()
            return Node(K_DECLARE_CAT, (kw, name))
        if tok.text == "macro" and "macro" in written_out_heads(self.table):
            return self._parse_macro_decl()
        if tok.text == "notation" and "notation" in written_out_heads(self.table):
            return self._parse_notation_decl()
        if tok.kind == "keyword":
            for rule in self.table.categories[CAT_COMMAND].rules:
                if rule.leading and rule.items[0].text == tok.text:
                    return self._parse_rule_items(rule, [])
        raise ParseError(f"unknown command, found {describe(tok)}", tok.info)


def reference_outcome(parser_class, text: str, table: ParserTable, pos: int):
    parser = parser_class(text, table, pos)
    try:
        return parser.parse_command()
    except (LexError, ParseError) as err:
        return type(err).__name__, err.message, err.info


def checked_iter_commands(seen: List[Syntax], reference=OldDispatchParser):
    """`iter_commands` that checks every command, and every parse error,
    against the `reference` parser on the same table."""

    def checked(text, table, on_error=None):
        def on_error_checked(err, start):
            got = (type(err).__name__, err.message, err.info)
            assert reference_outcome(reference, text, table, start) == got
            seen.append(err)
            return on_error(err, start)

        for info, cmd in iter_commands(text, table, on_error and on_error_checked):
            assert reference_outcome(reference, text, table, info.offset) == cmd, (
                text[info.offset:][:80]
            )
            seen.append(cmd)
            yield info, cmd

    return checked


class TestSameTreesAsTheOldDispatch:
    @pytest.mark.parametrize("name", sorted(CORPUS_RUNS))
    def test_corpus(self, name, monkeypatch):
        seen: List[Syntax] = []
        monkeypatch.setattr(driver, "iter_commands", checked_iter_commands(seen))
        kw, code = CORPUS_RUNS[name]
        assert Runner(RunConfig(**kw)).run_files([str(CORPUS / f"{name}.hyg")]) == code
        assert seen

    def test_prelude_sources(self, monkeypatch):
        seen: List[Syntax] = []
        monkeypatch.setattr(prelude, "iter_commands", checked_iter_commands(seen))
        prelude._build_prelude()
        # TUPLE_RULES_SRC, REPEAT_SRC and NOTATIONS_SRC hold 1, 2 and 2
        assert len(seen) == 5


class TestSameTreesAsTheItemByItemReader:
    """Every command of generated corpus mutations, and every parse error,
    comes out of `Parser` as out of `ItemByItemParser` on the same table."""

    @settings(max_examples=100)
    @given(case=mutated_corpus_files())
    def test_mutated_corpus_files(self, case):
        name, src = case
        seen: List[Syntax] = []
        runner = Runner(RunConfig(**dict(CORPUS_RUNS[name][0], stage="expand")))
        raw = driver.iter_commands
        driver.iter_commands = checked_iter_commands(seen, ItemByItemParser)
        try:
            runner.run_source(src)
        finally:
            driver.iter_commands = raw
        assert seen


UCAT = Name.of("ucat")
# the literals of generated rules: words and symbols, none a prefix of another
POOL = ("pk", "q", "!", "??", "<+>", "%")
_SLOTS = {"term": CatRef(CAT_TERM), "ident": CatRef(CAT_IDENT), "ucat": CatRef(UCAT)}


@st.composite
def rule_sets(draw):
    """A table holding generated rules, registered in a drawn order: rules
    of `term` that share a leading literal, of which a newer one can fail
    where an older one parses; one trailing literal of `term` at several
    precedences; rules of a user category `ucat`, leading, trailing and
    one or two led by `ident`; one or two `term` rules led by `ucat`; and a
    `command` rule, whose head may also head a `term` rule."""
    lit = st.sampled_from(POOL).map(Lit)
    item = st.one_of(lit, st.sampled_from(sorted(_SLOTS)).map(_SLOTS.get))
    tail = st.lists(item, max_size=3).map(tuple)
    prec = st.sampled_from((10, 25, 50, 65, 80))
    term, ucat = _SLOTS["term"], _SLOTS["ucat"]
    head = draw(lit)
    specs = [(CAT_TERM, (head, *draw(tail)), 0, False) for _ in range(draw(st.integers(2, 4)))]
    between = draw(lit)
    for p in draw(st.lists(prec, min_size=2, max_size=3, unique=True)):
        specs.append((CAT_TERM, (term, between, term), p, draw(st.booleans())))
    for _ in range(draw(st.integers(1, 2))):
        specs += [
            (UCAT, (_SLOTS["ident"], draw(lit), *draw(tail)), 0, False),
            (CAT_TERM, (ucat, draw(lit), *draw(tail)), draw(prec), False),
        ]
    specs += [
        (UCAT, (draw(lit), *draw(tail)), 0, False),
        (UCAT, (ucat, draw(lit), ucat), draw(prec), draw(st.booleans())),
        (CAT_COMMAND, (Lit(draw(st.sampled_from((head.text, *POOL)))), *draw(tail)), 0, False),
    ]
    order = draw(st.permutations(specs))
    table = ParserTable()
    table.add_category(UCAT)
    for i, (cat, items, p, right) in enumerate(order):
        try:
            table.register_rule(cat, ParseRule(Name.of(f"r{i}"), items, p, right))
        except ParseError:
            pass  # a rule that would close a left-recursive cycle
    return table


def sentence(data, table: ParserTable, cat: Name, depth: int = 0) -> List[str]:
    """The words of a form of `cat` under `table`'s rules, drawn from
    `data`: a rule of the category with each slot filled in turn, or a
    leaf, always for `ident`, past a depth, and by choice for `term`."""
    if cat == CAT_IDENT:
        return ["x"]
    rules = [
        rule for rule in table.categories[cat].rules
        if all(isinstance(i, (Lit, CatRef)) for i in rule.items)
    ]
    if not rules or depth > 2 or (cat == CAT_TERM and data.draw(st.booleans())):
        return [data.draw(st.sampled_from(("x", "1", "(x, 2)")))]
    words: List[str] = []
    for item in data.draw(st.sampled_from(rules)).items:
        words += [item.text] if isinstance(item, Lit) else sentence(data, table, item.cat, depth + 1)
    return words


def outcome(parser_class, text: str, table: ParserTable, method: str, *args):
    """What `parser_class` makes of `text` with `method`: the tree and where
    it stopped, or the error."""
    parser = parser_class(text, table)
    try:
        return getattr(parser, method)(*args), parser.pos
    except (LexError, ParseError) as err:
        return type(err).__name__, err.message, err.info


class TestTheRuleIndexAgreesWithTheScans:
    """Over generated rule sets, `Parser`, which reads the rule index, and
    `ItemByItemParser`, which scans `Category.rules`, give equal trees and
    equal errors; the index lookups equal the scans they replace, also on
    a copy of the table."""

    @settings(max_examples=40)
    @given(table=rule_sets(), data=st.data())
    def test_same_outcomes_and_lookups(self, table, data):
        for cat, method, args in (
            (CAT_TERM, "parse_term", (data.draw(st.sampled_from((0, 50, 66, APP_PREC + 1))),)),
            (UCAT, "parse_category", (UCAT,)),
            (CAT_COMMAND, "parse_command", ()),
        ):
            words = sentence(data, table, cat)
            if data.draw(st.booleans()):
                # a word dropped or a literal put in: a parse that fails
                # somewhere, or backtracks to an older rule
                at = data.draw(st.integers(0, len(words)))
                words[at:at + 1] = [] if data.draw(st.booleans()) else [
                    data.draw(st.sampled_from(POOL)), *words[at:at + 1]
                ]
            text = " ".join(words)
            for src, how in ((text, (method, *args)), (f"`({text})", ("parse_term",))):
                assert outcome(Parser, src, table, *how) == outcome(
                    ItemByItemParser, src, table, *how
                ), src
        for t in (table, table.copy()):
            for cat in (CAT_TERM, UCAT, CAT_COMMAND, CAT_TACTIC):
                category = t.categories[cat]
                for text in (*POOL, "+", "→", "(", "x"):
                    for kind in ("keyword", "special", "ident"):
                        tok = Token(kind, text, None, 0)
                        assert t.starts(cat, tok) == ScanningTable.starts(t, cat, tok)
                    for min_prec in (0, 25, 26, 50, 65, 66, 81):
                        assert _trailing_rule(category, text, min_prec) is (
                            scanned_trailing_rule(category, text, min_prec)
                        )


def parse(src: str, table: ParserTable, method: str = "parse_term") -> Syntax:
    p = Parser(src, table)
    out = getattr(p, method)()
    assert p.at_eof(), f"leftover input at {p.pos}"
    return out


def table_after(src: str) -> ParserTable:
    runner = Runner()
    runner.run_source(src)
    assert not runner.diagnostics, runner.output
    return runner.state.table


def shape(stx: Syntax):
    """The tree with every hole and every node of atoms alone (a numeral, a
    literal-only rule) as a leaf: a pattern and the source text it is
    written like have the same shape."""
    if isinstance(stx, Atom):
        return stx.text
    if not isinstance(stx, Node) or is_antiquot(stx):
        return "leaf"
    if all(isinstance(c, Atom) for c in stx.children):
        return "leaf"
    return (stx.kind, tuple(shape(c) for c in stx.children))


class TestBuiltInCategoriesUseTheirRules:
    def test_a_rule_may_start_with_a_special_token(self):
        code, out = run_string(
            'syntax "[" term "]" : term\n'
            "macro_rules | `([ $e ]) => `($e + 1)\n"
            "def a := 1\n"
            "def b := [ a ]\n"
        )
        assert code == 0, out
        assert out.splitlines()[-1] == "def b := a + 1"

    def test_rules_with_the_same_leading_token_backtrack(self):
        code, out = run_string(
            'syntax "pk" term : term\n'
            'syntax "pk" "(" term ")" "!" : term\n'
            "macro_rules | `(pk $e) => `($e)\n"
            "macro_rules | `(pk ($e) !) => `($e + $e)\n"
            "def b := pk 3\n"
            "def c := pk (4) !\n"
            "def d := pk (5)\n"
        )
        assert code == 0, out
        assert out.splitlines()[-3:] == ["def b := 3", "def c := 4 + 4", "def d := 5"]

    def test_the_furthest_error_is_reported(self):
        # the newer rule stops at `x`; the older one reads `(3) x` as a term
        code, out = run_string(
            'syntax "pk" term "?" : term\n'
            'syntax "pk" "(" term ")" "!" : term\n'
            "def b := pk (3) x\n"
        )
        assert code == 1
        assert out.splitlines()[-1] == "error: expected '?', found end of input @4:1"

    def test_an_escaped_identifier_is_no_literal_once_lexed(self):
        # the newer rule lexes `«!»` as a term; the older one then meets it
        # at its literal "!" and must not take it for one
        code, out = run_string(
            'syntax "pk" "!" "?" : term\n'
            'syntax "pk" term "??" : term\n'
            "def b := pk «!» ?\n"
        )
        assert code == 1
        assert out.splitlines()[-1] == "error: expected '??', found '?' @3:17"

    def test_tactic_trailing_rules_apply(self):
        src = (
            'syntax tactic "<;>" tactic : tactic\n'
            "macro_rules | `(tactic| $a <;> $b) => `(tactic| ($a; $b))\n"
        )
        table = table_after(src)
        script = parse("intro h <;> exact h", table, "parse_tactic_seq")
        assert script.kind == Name.of("<;>")
        assert [c.kind for c in script.children[::2]] == [K_INTRO, K_EXACT]
        code, out = run_string(
            src + "theorem t (p : Prop) : p → p := by intro h <;> exact h\n",
            RunConfig(stage="elaborate"),
        )
        assert code == 0, out
        assert out.splitlines()[-1] == "theorem t : p → p := proved"

    def test_a_command_trailing_rule_applies(self):
        table = table_after('syntax command "also" command : command\n')
        out = parse("def x := 1 also def y := 2", table, "parse_command")
        assert out.kind == Name.of("also")

    @pytest.mark.parametrize("cmd", ['syntax "a" : term', "declare_syntax_cat foo"])
    def test_a_lex_error_after_a_command_is_not_its_own(self, cmd):
        code, out = run_string(f"{cmd}\n@bad\ndef y := 2\n")
        assert out == f"{cmd}\nerror: illegal character '@' @2:1\ndef y := 2\n"

    @pytest.mark.parametrize(
        "src, use, echo",
        [
            # the application check after a term
            ("def x := 1", "def y := x", "def y := x"),
            # the `|` check after a `fun` alternative
            ("def x := fun | 0 => 1 | n => n", "def y := x", "def y := x"),
            # the `;` check after a tactic
            ("theorem x (p : Prop) : p → p := by intro h; assumption", "def y := x", "def y := x"),
            # the `|` check after a `macro_rules` right-hand side
            (
                'syntax "mk" term : term\nmacro_rules | `(mk $e) => `($e)',
                "def y := mk 2",
                "def y := 2",
            ),
        ],
    )
    def test_a_lex_error_after_a_lookahead_is_not_the_command_s(self, src, use, echo):
        code, out = run_string(f"{src}\n@bad\n{use}\n")
        bad_line = src.count("\n") + 2
        assert code == 1
        assert out.splitlines() == run_string(src)[1].splitlines() + [
            f"error: illegal character '@' @{bad_line}:1",
            echo,
        ]

    @pytest.mark.parametrize(
        "src, error",
        [
            ("«def» x := 1", "error: unknown command, found 'def' @1:1"),
            (
                "theorem t (p : Prop) : p → p := by «(» skip",
                "error: expected tactic, found '(' @1:36",
            ),
        ],
    )
    def test_an_escaped_identifier_starts_no_form(self, src, error):
        assert run_string(src) == (1, error + "\n")


class TestHolesParseLikeSourceText:
    WRAP = 'syntax "wrap" term : term\n'

    def test_trailing_rules_follow_a_term_hole(self):
        table = table_after(self.WRAP)
        pattern = parse("`(wrap $e + 1)", table).children[0]
        assert shape(pattern) == shape(parse("wrap 2 + 1", table))
        assert pattern.children[1].kind == K_PLUS
        code, out = run_string(
            self.WRAP + "macro_rules | `(wrap $e + 1) => `($e)\ndef c := wrap 2 + 1\n"
        )
        assert code == 0, out
        assert out.splitlines()[-1] == "def c := 2"

    def test_trailing_rules_follow_a_user_category_hole(self):
        src = (
            "declare_syntax_cat atomf\n"
            'syntax "x" : atomf\n'
            'syntax atomf "op" atomf : atomf\n'
            'syntax "wrap" atomf : term\n'
        )
        table = table_after(src)
        pattern = parse("`(wrap $a op $b)", table).children[0]
        assert shape(pattern) == shape(parse("wrap x op x", table))
        code, out = run_string(
            src + "macro_rules | `(wrap $a op $b) => `(1)\ndef c := wrap x op x\n"
        )
        assert code == 0, out
        assert out.splitlines()[-1] == "def c := 1"

    def test_a_rule_that_starts_with_a_dollar_takes_no_hole(self):
        code, out = run_string(
            'syntax "$" term : term\n'
            + self.WRAP
            + "macro_rules | `(wrap $x) => `($x + 1)\ndef b := wrap 2\n"
        )
        assert code == 0, out
        assert out.splitlines()[-1] == "def b := 2 + 1"

    def test_a_splice_group_and_an_ident_slot_take_the_whole_slot(self):
        table = table_after('syntax "wrap" term : term\nsyntax "nm" ident : term\n')
        group = parse("`(wrap $[$x]* + 1)", table).children[0]
        assert group.kind == K_PLUS
        assert group.children[0].children[1].kind == Name(("splicegroup",))
        named = parse("`(nm $x + 1)", table).children[0]
        assert named.kind == K_PLUS and is_antiquot(named.children[0].children[1])


class TestBuiltInTacticsAreRules:
    def test_the_table_holds_them(self):
        table = ParserTable()
        tactic_kinds = {r.kind for r in table.categories[CAT_TACTIC].rules}
        assert tactic_kinds == {
            K_INTRO, K_EXACT, K_ASSUMPTION, K_SKIP, K_FAIL, K_TRY, K_TPAREN,
        }
        # newest first: an untyped `def` meets `defn` first and never backtracks
        assert [r.kind for r in table.categories[CAT_COMMAND].rules] == [
            K_DEF, K_DEF_TYPED, K_THEOREM, K_MACRO_RULES, K_DECLARE_CAT, K_SYNTAX,
        ]
        assert [r.kind for r in table.categories[CAT_MACRO_ITEM].rules] == [K_ARGDECL]
        term_kinds = [r.kind for r in table.categories[CAT_TERM].rules]
        assert term_kinds == [K_ARROW, K_PLUS, K_FUN_MATCH, K_MATCH, K_ANON_CTOR, K_TUPLE]

    def test_a_newer_rule_shadows_a_built_in_one(self):
        src = (
            'syntax "skip" : tactic\n'
            "macro_rules | `(tactic| skip) => `(tactic| assumption)\n"
        )
        table = table_after(src)
        assert parse("skip", table, "parse_tactic_seq").kind == Name.of("skip_2")
        code, out = run_string(
            src + "theorem t (p : Prop) : p → p := by intro h; skip\n",
            RunConfig(stage="elaborate"),
        )
        assert code == 0, out
        assert out.splitlines()[-1] == "theorem t : p → p := proved"


class TestLeftRecursiveRuleCycles:
    """A rule headed by another category parses that category before it
    consumes a token, so a cycle of such rules would recurse without end;
    `register_rule` rejects the rule that closes one."""

    def test_a_two_category_cycle_is_rejected_and_the_run_goes_on(self):
        code, out = run_string(
            'syntax tactic "x" : command\n'
            'syntax command "y" : tactic\n'
            "def a := 1\n"
        )
        assert code == 1
        assert out.splitlines() == [
            'syntax tactic "x" : command',
            "error: left-recursive syntax rule: tactic → command → tactic @2:1",
            "def a := 1",
        ]

    def test_a_line_that_starts_no_command_no_longer_recurses(self):
        _, out = run_string(
            'syntax tactic "x" : command\n'
            'syntax command "y" : tactic\n'
            "foo\n"
            "def a := 1\n"
        )
        assert "recursion limit" not in out
        assert out.splitlines()[-1] == "def a := 1"

    def test_a_longer_cycle_through_term_is_rejected(self):
        code, out = run_string(
            "declare_syntax_cat a\n"
            "declare_syntax_cat b\n"
            'syntax b "x" : a\n'
            'syntax term "z" : b\n'
            'syntax a "y" : term\n'
        )
        assert code == 1
        assert out.splitlines()[-1] == (
            "error: left-recursive syntax rule: term → a → b → term @5:1"
        )

    def test_a_rejected_rule_is_not_in_the_table(self):
        table = table_after('syntax tactic "x" : command\n')
        with pytest.raises(ParseError, match="left-recursive"):
            table.register_rule(
                CAT_TACTIC,
                ParseRule(Name.of("y"), (CatRef(CAT_COMMAND), Lit("y"))),
            )
        assert Name.of("y") not in {r.kind for r in table.categories[CAT_TACTIC].rules}

    def test_trailing_and_ident_headed_rules_close_no_cycle(self):
        # a rule headed by its own category is trailing, and `ident` is a
        # token, not a category with rules
        table = table_after(
            "declare_syntax_cat index\n"
            'syntax ident "<-" term : index\n'
            'syntax term "<+>" term : term\n'
            'syntax command "also" command : command\n'
        )
        table.register_rule(
            CAT_TERM, ParseRule(Name.of("ix"), (CatRef(Name.of("index")), Lit("!")))
        )
        code, out = run_string((CORPUS / "bigop.hyg").read_text())
        assert code == 0, out
