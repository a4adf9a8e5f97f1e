"""The built-in forms written out by hand, as the reference of a differential.

`def`, `theorem`, `syntax`, `macro_rules`, `match`, `fun | …`, tuples,
`⟨…⟩` and the tactic `( … )` are rules of the table (`ParserTable.__init__`),
and so are `macro` and `notation` once the prelude registers them.
`WrittenOutParser` parses them the way the parser did before they were: as
written-out forms that the category dispatch tries before any rule of the
table, reading their sequences through `_parse_elements`, which takes the
element reader and the end test as functions.  It also reads an untagged
quotation body as the parser did before it read each body once: as a term
and again as commands, keeping the parse that reaches the closing
parenthesis, and `ambiguous quotation` when both do with different trees.
On the same table it must give the same outcome as `Parser`, tree and end
position or error, apart from the differences that `known_difference`
names.
"""

import re
from typing import Callable, List, Optional, Tuple

from hygex.errors import LexError, ParseError
from hygex.parser import (
    CAT_COMMAND,
    CAT_TACTIC,
    CAT_TERM,
    K_ALT,
    K_ANON_CTOR,
    K_ARGDECL,
    K_BINDER,
    K_BY,
    K_DEF,
    K_DEF_TYPED,
    K_FUN_MATCH,
    K_MACRO,
    K_MACRO_RULES,
    K_MATCH,
    K_MR_ALT,
    K_NOTATION,
    K_SLOT_PREC,
    K_SYNTAX,
    K_THEOREM,
    K_TPAREN,
    K_TUPLE,
    Lexer,
    Parser,
    ParserTable,
    Token,
    describe,
)
from hygex.syntax import (
    KIND_CMDSEQ, KIND_DQUOT, KIND_QUOT, KIND_SEPSEQ, KIND_SEQ, KIND_SPLICE, KIND_SPLICEGROUP,
    Atom, Ident, Name, Node, Syntax,
)

# the kinds of the built-in rules: those of a new table and the prelude's
# `macro` and `notation`
_BUILT_IN_KINDS = {
    rule.kind for category in ParserTable().categories.values() for rule in category.rules
} | {K_MACRO, K_NOTATION}


def written_out_heads(table: ParserTable) -> set:
    """The first words of the built-in command rules of `table`: `macro`
    and `notation` only once the prelude registered them."""
    return {
        rule.head for rule in table.categories[CAT_COMMAND].rules if rule.kind in _BUILT_IN_KINDS
    }


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
        if tok.kind != "keyword" or tok.text not in written_out_heads(self.table):
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

    def _parse_syntax_cmd(self) -> Node:
        kw = self.expect("syntax")
        items: List[Syntax] = []
        while not self.at(":"):
            tok = self.peek()
            if tok.kind == "str":
                self.bump()
                items.append(Atom(tok.text, tok.info))
            elif tok.kind in ("ident", "keyword") and tok.text != ":":
                self.bump()
                slot = Ident(tok.text, Name.of(tok.text), (), tok.info)
                colon = self.peek()
                # a tight `cat:N` raises the slot's minimum precedence
                if (
                    colon.text == ":"
                    and colon.info.offset == tok.end
                    and self.peek(1).kind == "num"
                    and self.peek(1).info.offset == colon.end
                ):
                    self.bump()
                    prec = self.bump()
                    items.append(
                        Node(K_SLOT_PREC, (slot, Atom(prec.text, prec.info)))
                    )
                else:
                    items.append(slot)
            else:
                raise ParseError(
                    f"expected string literal or category, found {describe(tok)}",
                    tok.info,
                )
        if not items:
            raise ParseError("empty syntax rule", self.peek().info)
        colon = self.expect(":")
        cat = self.expect_ident()
        return Node(K_SYNTAX, (kw, Node(Name.of(KIND_SEQ), tuple(items)), colon, cat))

    def _parse_macro_decl(self) -> Node:
        kw = self.expect("macro")
        items: List[Syntax] = []
        while True:
            tok = self.peek()
            if tok.kind == "str":
                self.bump()
                items.append(Atom(tok.text, tok.info))
            elif tok.kind == "ident":
                self.bump()
                name = Ident(tok.text, Name.of(tok.text), (), tok.info)
                colon = self.expect(":")
                cat = self.expect_ident()
                items.append(Node(K_ARGDECL, (name, colon, cat)))
            elif tok.text == ":":
                break
            else:
                raise ParseError(
                    f"expected macro item or ':', found {describe(tok)}", tok.info
                )
        colon = self.expect(":")
        cat = self.expect_ident()
        arrow = self.expect("=>")
        rhs = self.parse_term(0)
        return Node(
            K_MACRO,
            (kw, Node(Name.of(KIND_SEQ), tuple(items)), colon, cat, arrow, rhs),
        )

    def _parse_notation_decl(self) -> Node:
        kw = self.expect("notation")
        items: List[Syntax] = []
        while not self.at("=>"):
            tok = self.peek()
            if tok.kind == "str":
                self.bump()
                items.append(Atom(tok.text, tok.info))
            elif tok.kind == "ident":
                self.bump()
                items.append(Ident(tok.text, Name.of(tok.text), (), tok.info))
            else:
                raise ParseError(
                    f"expected notation item or '=>', found {describe(tok)}", tok.info
                )
        arrow = self.expect("=>")
        rhs = self.parse_term(0)
        return Node(K_NOTATION, (kw, Node(Name.of(KIND_SEQ), tuple(items)), arrow, rhs))

    def _tactic_form(self, tok: Token) -> Optional[Syntax]:
        if tok.text == "(" and tok.kind == "special":
            open_ = self.expect("(")
            inner = self.parse_tactic_seq()
            close = self.expect(")")
            return Node(K_TPAREN, (open_, inner, close))
        return None

    # -- quotations: each untagged body read as a term and again as commands

    def parse_quotation(self) -> Node:
        tok = self.bump()
        if tok.kind not in ("quote", "dquote"):
            raise ParseError(f"expected quotation, found {describe(tok)}", tok.info)
        head = KIND_QUOT if tok.kind == "quote" else KIND_DQUOT
        self.quot_depth += 1
        try:
            cat_tok = self.peek()
            if (
                cat_tok.kind == "ident"
                and self.peek(1).text == "|"
                and self.table.has_category(Name.of(cat_tok.text))
            ):
                self.bump()
                self.bump()
                cat = Name.of(cat_tok.text)
                if cat == CAT_TACTIC:
                    body: Syntax = self.parse_tactic_seq()
                else:
                    body = self.parse_category(cat, 0)
                self.expect(")")
                return Node(Name((head,) + cat), (body,))
            body = self._parse_quotation_body()
            self.expect(")")
            return Node(Name((head,)), (body,))
        finally:
            self.quot_depth -= 1

    def _parse_quotation_body(self) -> Syntax:
        start = self.pos
        term_result: Optional[Tuple[Syntax, int]] = None
        term_err: Optional[ParseError] = None
        try:
            body = self.parse_term(0)
            if self.at(")"):
                term_result = (body, self.pos)
        except ParseError as err:
            term_err = err.with_traceback(None)
        self.pos = start
        cmd_result: Optional[Tuple[Syntax, int]] = None
        cmd_err: Optional[ParseError] = None
        try:
            cmds = [self.parse_command()]
            while not self.at(")") and not self.at_eof():
                cmds.append(self.parse_command())
            if self.at(")"):
                body = cmds[0] if len(cmds) == 1 else Node(Name.of(KIND_CMDSEQ), tuple(cmds))
                cmd_result = (body, self.pos)
        except ParseError as err:
            cmd_err = err.with_traceback(None)
        if term_result and cmd_result:
            if term_result[0] == cmd_result[0]:
                self.pos = term_result[1]
                return term_result[0]
            raise ParseError(
                "ambiguous quotation: parses as both a term and a command",
                self.lexer._info(start),
            )
        if term_result:
            self.pos = term_result[1]
            return term_result[0]
        if cmd_result:
            self.pos = cmd_result[1]
            return cmd_result[0]
        raise term_err or cmd_err or ParseError(
            "empty quotation", self.lexer._info(start)
        )

    # -- element sequences with splice support

    def _parse_elements(
        self,
        elem_fn: Callable[[], Syntax],
        sep: Optional[str],
        at_end: Callable[[], bool],
    ) -> Node:
        """Parse ``sep``-separated elements into a sequence node.

        Inside quotations, an element may be an antiquotation splice; at
        most one splice is allowed per sequence.
        """
        children: List[Syntax] = []
        splices = 0
        while not at_end():
            if children and sep is not None:
                children.append(self.expect(sep))
            item = self._parse_seq_item(elem_fn, sep)
            if isinstance(item, Node) and item.kind[0] in (KIND_SPLICE, KIND_SPLICEGROUP):
                splices += 1
                if splices > 1:
                    raise ParseError("at most one splice per sequence", self.peek().info)
            children.append(item)
        kind = KIND_SEPSEQ if sep is not None else KIND_SEQ
        return Node(Name.of(kind), tuple(children))

    def _parse_seq_item(
        self, elem_fn: Callable[[], Syntax], sep: Optional[str]
    ) -> Syntax:
        tok = self.peek()
        if self.quot_depth and tok.text == "$[":
            return self._parse_splicegroup_of(elem_fn)
        if self.quot_depth and tok.text == "$":
            # commit to the antiquotation only when it is a splice item;
            # otherwise it is an ordinary leaf of the element grammar
            start = self.pos
            anti = self.parse_antiquot()
            spliced = self._maybe_splice_suffix(anti)
            if spliced is not anti:
                return spliced
            self.pos = start
        return elem_fn()

    # `Parser._parse_splicegroup` as it was, named apart from the parser's,
    # which takes an element where this takes its reader
    def _parse_splicegroup_of(self, elem_fn: Callable[[], Syntax]) -> Node:
        self.expect("$[")
        inner = self._parse_seq_item(elem_fn, None)
        close = self.expect("]")
        tok = self.peek()
        sep = ""
        if tok.kind == "special" and tok.text in (",", ";") and self.peek(1).text == "*":
            sep = tok.text
            self.bump()
        self.expect("*")
        parts = (KIND_SPLICEGROUP, sep) if sep else (KIND_SPLICEGROUP,)
        return Node(Name(parts), (inner,))

    _BUILTIN_FORMS = {
        **Parser._BUILTIN_FORMS, CAT_TERM: _term_form, CAT_TACTIC: _tactic_form,
        CAT_COMMAND: _command_form,
    }
    _COMMAND_FORMS = {
        "syntax": _parse_syntax_cmd, "macro": _parse_macro_decl,
        "notation": _parse_notation_decl, "def": _parse_def, "theorem": _parse_theorem,
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
_WRITTEN_OUT_HEADS = (
    {(CAT_TERM, t) for t in ("(", "⟨", "match", "fun")}
    | {(CAT_TACTIC, "(")}
    | {(CAT_COMMAND, t) for t in WrittenOutParser._COMMAND_FORMS}
)


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
    quotation = _quotation_difference(text, table, written_out, rules)
    if quotation is not None:
        return quotation
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
    if (
        old_message == "empty syntax rule"
        and (kind, message, info) == ("ParseError", "expected at least one syntax item", old_info)
    ):
        return "empty syntax"
    # an item category reports the item it expected, at the same token
    for name, old_prefix, new_prefix in _ITEM_MESSAGES:
        found = old_message[len(old_prefix):]
        if (
            old_message.startswith(old_prefix)
            and (kind, message, info) == ("ParseError", new_prefix + found, old_info)
        ):
            return name
    return None


AMBIGUOUS = "ambiguous quotation: parses as both a term and a command"
# a tagged quotation opening, the tag in group 1
_TAGGED = re.compile(r"`\(\s*([\w'.]+)\s*\|")
# an untagged quotation opening and one hole, `$x` or `$x:cat` with the tag
# in group 1, at the end of a text
_HOLE_BODY = re.compile(r"`\(\s*\$[\w'.]+(?::([\w'.]+))?\s*\Z")


def _quotation_difference(text: str, table, written_out, rules) -> Optional[str]:
    """The name of the listed difference between reading an untagged
    quotation body as a term and again as commands (`WrittenOutParser`)
    and reading it once in the category its first token decides
    (`Parser`), or None."""
    lexer = Lexer(text, table.snapshot_keywords())

    def error(outcome):
        """The place of an error outcome and the token there, if it lexes."""
        if len(outcome) != 3:
            return None, None
        try:
            return outcome[2], lexer.token(outcome[2].offset)
        except LexError:
            return outcome[2], None

    def starts_body(info) -> bool:
        """Whether `info` is the first token of an untagged quotation body."""
        return info is not None and text[: info.offset].rstrip().endswith("`(")

    def tag(info) -> Optional[str]:
        """The tag of the last quotation opened before `info`, if any."""
        tagged = _TAGGED.match(text, max(text.rfind("`(", 0, info.offset), 0))
        return tagged and tagged[1]

    def heads(cat, tok) -> bool:
        return tok is not None and table.starts(cat, tok)

    old, old_tok = error(written_out)
    new, new_tok = error(rules)
    if (
        rules[1] == AMBIGUOUS
        and starts_body(new)
        and heads(CAT_COMMAND, new_tok)
        and heads(CAT_TERM, new_tok)
    ):
        return "a first token that heads a command and a term rule is ambiguous"
    if (
        starts_body(old)
        and old_tok is not None
        and old_tok.text != "$"
        and not (heads(CAT_COMMAND, old_tok) and heads(CAT_TERM, old_tok))
        and new is not None
        and new.offset > old.offset
    ):
        # the old reader raised the other parse's error, at the first token
        if heads(CAT_COMMAND, old_tok):
            return "a failing command body reports the command parse's error"
        return "a failing term body reports the term parse's error"
    if (
        old_tok is not None
        and written_out[1] == f"expected ')', found '{old_tok.text}'"
        and heads(CAT_COMMAND, old_tok)
        and tag(old) == "command"
        and (new is None or new.offset > old.offset)
    ):
        return "a tagged command body takes a sequence"
    if new_tok is not None and rules[1] == f"expected ')', found '{new_tok.text}'":
        hole = _HOLE_BODY.search(text, 0, new.offset)
        if heads(CAT_COMMAND, new_tok) and hole is not None and hole[1] != "command":
            return "an untagged hole before commands"
        if tag(new) is None and any(
            rule.head is None and rule.items[1].text == new_tok.text
            for rule in table.categories[CAT_COMMAND].rules
        ):
            # the old reader went on from the body's first form into the rule
            return "a command rule led by a category needs a tag"
    return None


# the written-out item readers' messages and those of the item categories
_ITEM_MESSAGES = (
    ("syntax item", "expected string literal or category, found ", "expected syntax item, found "),
    ("macro item", "expected macro item or ':', found ", "expected identifier, found "),
    ("notation item", "expected notation item or '=>', found ", "expected notation item, found "),
)
