"""The built-in forms written out by hand, as the reference of a differential.

`def`, `theorem`, `macro_rules`, `match`, `fun | …`, tuples and `⟨…⟩` are
rules of the table (`ParserTable.__init__`).  `WrittenOutParser` parses them
the way the parser did before they were: as written-out forms that the
category dispatch tries before any rule of the table.  On the same table it
must give the same outcome as `Parser`, tree and end position or error,
apart from the differences that `known_difference` names.
"""

from typing import List, Optional

from hygex.errors import LexError, ParseError
from hygex.parser import (
    CAT_COMMAND,
    CAT_TERM,
    K_ALT,
    K_ANON_CTOR,
    K_BINDER,
    K_BY,
    K_DEF,
    K_DEF_TYPED,
    K_FUN_MATCH,
    K_MACRO_RULES,
    K_MATCH,
    K_MR_ALT,
    K_THEOREM,
    K_TUPLE,
    Parser,
    ParserTable,
    Token,
)
from hygex.syntax import KIND_SEQ, Name, Node, Syntax

# the command heads that are rules of the table now
_RULE_HEADS = ("def", "theorem", "macro_rules")


class WrittenOutParser(Parser):
    def _term_form(self, tok: Token) -> Optional[Syntax]:
        if tok.text == "(":
            open_ = self.expect("(")
            elems = self._parse_elements(
                lambda: self.parse_term(0), ",", lambda: self.at(")")
            )
            close = self.expect(")")
            return Node(K_TUPLE, (open_, elems, close))
        if tok.text == "⟨":
            open_ = self.expect("⟨")
            elems = self._parse_elements(
                lambda: self.parse_term(0), ",", lambda: self.at("⟩")
            )
            close = self.expect("⟩")
            return Node(K_ANON_CTOR, (open_, elems, close))
        if tok.text == "match":
            return self._parse_match()
        if tok.text == "fun":
            return self._parse_fun()
        return super()._term_form(tok)

    def _parse_fun(self) -> Node:
        start = self.pos
        fun = self.expect("fun")
        if self.at("|"):
            alts = self._parse_alts()
            return Node(K_FUN_MATCH, (fun, alts))
        self.pos = start
        return super()._parse_fun()

    def _parse_match(self) -> Node:
        kw = self.expect("match")
        discrs = self._parse_elements(
            lambda: self.parse_term(0), ",", lambda: self.at("with")
        )
        with_ = self.expect("with")
        alts = self._parse_alts()
        return Node(K_MATCH, (kw, discrs, with_, alts))

    def _parse_alts(self) -> Node:
        alts: List[Syntax] = []
        while True:
            tok = self._peek_or_none()
            if tok is None:
                break
            if tok.text == "|":
                alts.append(self._parse_alt())
            elif self.quot_depth and tok.text in ("$", "$["):
                alts.append(self._parse_seq_item(self._parse_alt, None))
            else:
                break
        if not alts:
            raise ParseError("expected at least one '|' alternative", self.peek().info)
        return Node(Name.of(KIND_SEQ), tuple(alts))

    def _parse_alt(self) -> Node:
        bar = self.expect("|")
        pats = self._parse_elements(
            lambda: self.parse_term(0), ",", lambda: self.at("=>")
        )
        arrow = self.expect("=>")
        rhs = self.parse_term(0)
        return Node(K_ALT, (bar, pats, arrow, rhs))

    def _command_form(self, tok: Token) -> Optional[Syntax]:
        # an escaped identifier spelled like a head, `«def»`, starts no form
        if tok.kind != "keyword" or not (
            tok.text in self.table.command_heads or tok.text in _RULE_HEADS
        ):
            return None
        form = self._COMMAND_FORMS.get(tok.text)
        return None if form is None else form(self)

    def _parse_def(self) -> Node:
        kw = self.expect("def")
        name = self._ident_or_antiquot()
        if self.at(":"):
            colon = self.expect(":")
            ty = self.parse_term(0)
            assign = self.expect(":=")
            value = self.parse_term(0)
            return Node(K_DEF_TYPED, (kw, name, colon, ty, assign, value))
        assign = self.expect(":=")
        value = self.parse_term(0)
        return Node(K_DEF, (kw, name, assign, value))

    def _parse_theorem(self) -> Node:
        kw = self.expect("theorem")
        name = self._ident_or_antiquot()
        binders: List[Syntax] = []
        while (
            self.at("(")
            and self.peek(2).text == ":"
            and self.peek(3).text == "Prop"
        ):
            open_ = self.expect("(")
            bname = self.expect_ident()
            colon = self.expect(":")
            sort = self.expect("Prop")
            close = self.expect(")")
            binders.append(Node(K_BINDER, (open_, bname, colon, sort, close)))
        colon = self.expect(":")
        target = self.parse_term(0)
        assign = self.expect(":=")
        by = self.expect("by")
        script = self.parse_tactic_seq()
        return Node(
            K_THEOREM,
            (kw, name, Node(Name.of(KIND_SEQ), tuple(binders)), colon, target,
             assign, Node(K_BY, (by, script))),
        )

    def _parse_macro_rules(self) -> Node:
        kw = self.expect("macro_rules")
        alts: List[Syntax] = []
        while self._at_before_end("|"):
            bar = self.expect("|")
            pat = self.parse_term(0)
            arrow = self.expect("=>")
            rhs = self.parse_term(0)
            alts.append(Node(K_MR_ALT, (bar, pat, arrow, rhs)))
        if not alts:
            raise ParseError("macro_rules needs at least one alternative", self.peek().info)
        return Node(K_MACRO_RULES, (kw, Node(Name.of(KIND_SEQ), tuple(alts))))

    _BUILTIN_FORMS = {
        **Parser._BUILTIN_FORMS, CAT_TERM: _term_form, CAT_COMMAND: _command_form,
    }
    _COMMAND_FORMS = {
        **Parser._COMMAND_FORMS, "def": _parse_def, "theorem": _parse_theorem,
        "macro_rules": _parse_macro_rules,
    }


def outcome(parser_class, text: str, table, pos: int):
    """What `parser_class` makes of the command at `pos`: its tree and end
    position, or its error's type, message and place."""
    parser = parser_class(text, table, pos)
    try:
        return parser.parse_command(), parser.pos
    except (LexError, ParseError) as err:
        return type(err).__name__, err.message, err.info


# the first tokens of the forms written out here, by category
_WRITTEN_OUT_HEADS = {(CAT_TERM, t) for t in ("(", "⟨", "match", "fun")} | {
    (CAT_COMMAND, t) for t in _RULE_HEADS
}
_BUILT_IN_KINDS = {
    rule.kind for category in ParserTable().categories.values() for rule in category.rules
}


def known_difference(text: str, table, written_out, rules) -> Optional[str]:
    """The name of the listed difference between the two outcomes of one
    command, or None when they are not one of those."""
    if any(
        (cat, rule.items[0].text) in _WRITTEN_OUT_HEADS
        for cat, category in table.categories.items()
        for rule in category.rules
        if rule.leading and rule.kind not in _BUILT_IN_KINDS
    ):
        # the written-out forms took their first token before any rule
        return "a newer rule shadows a built-in one"
    if len(written_out) != 3 or len(rules) != 3:
        return None
    _, old_message, old_info = written_out
    kind, message, info = rules
    if (
        old_message == "expected ':', found '('"
        and kind == "ParseError"
        and info is not None
        and info.offset > old_info.offset
        # the binder rule fails within `( x : Prop`, where the written-out
        # form looked ahead for `:` and `Prop` and did not enter it
        and len(text[old_info.offset : info.offset].split()) <= 3
    ):
        return "theorem binder committed at '('"
    if (
        old_message == "macro_rules needs at least one alternative"
        and (kind, message, info)
        == ("ParseError", "expected at least one '|' alternative", old_info)
    ):
        return "empty macro_rules"
    return None
