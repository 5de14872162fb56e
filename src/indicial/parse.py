"""Tokenizer and recursive-descent parser for the script language.

Statements end with ``;`` (echoed) or ``$`` (silent).  Indexed objects are
written functionally, ``T([a,b],[c,i],i2,i1)``, or in the printed form the
renderer emits, ``T_{a b,i2 i1}^{c i}``; both parse to the same node.  An
equation ``a = b`` stands for the difference of its sides.

The tokenizer is one regular expression with a named group per token kind,
matched at successive offsets; the parser reads its lookahead by index into
the token list.  A literal written compactly, with no space, comment or line
break inside and ASCII names only, is one ``FACTOR`` token, which the parser
turns into its factor directly; every other spelling is read token by token.
A text is read with its literal tokens; from a statement that fails, it is
read again token by token, so every spelling gives the same tree and every
diagnostic is the token-by-token reading's.
"""

from __future__ import annotations

import re
import sys
from typing import NamedTuple

from .errors import ParseError, UnknownCommandError
from .exprs import MAX_DEPTH, Factor, fac

# Every builtin of the script language: its kind and its fewest and most
# arguments (None: no limit).  A command runs only as a statement of its own;
# a call returns an expression; syntax appears only inside the arguments of
# another builtin.  The evaluator dispatches each command and call to its
# handler method ``Evaluator._builtin_<name>``.
COMMAND, CALL, SYNTAX = "command", "call", "syntax"


class Builtin(NamedTuple):
    kind: str
    min_args: int
    max_args: int | None


BUILTINS = {
    "load": Builtin(COMMAND, 1, 1),
    "imetric": Builtin(COMMAND, 1, 1),
    "idim": Builtin(COMMAND, 1, 1),
    "decsym": Builtin(COMMAND, 5, 5),
    "components": Builtin(COMMAND, 2, 2),
    "remcomps": Builtin(COMMAND, 1, 1),
    "matchdeclare": Builtin(COMMAND, 0, None),
    "defrule": Builtin(COMMAND, 3, 3),
    "apply": Builtin(COMMAND, 2, 2),
    "ishow": Builtin(CALL, 1, 1),
    "canform": Builtin(CALL, 1, 1),
    "contract": Builtin(CALL, 1, 1),
    "expand": Builtin(CALL, 1, 1),
    "diff": Builtin(CALL, 2, 2),
    "idiff": Builtin(CALL, 2, 2),
    "covdiff": Builtin(CALL, 2, 2),
    "extdiff": Builtin(CALL, 2, 2),
    "apply1": Builtin(CALL, 2, 2),
    "lhs": Builtin(CALL, 1, 1),
    "map": Builtin(CALL, 2, 2),
    "mapcovdiff": Builtin(CALL, 2, 2),
    "euler_lagrange": Builtin(CALL, 3, 4),
    "lambda": Builtin(SYNTAX, 2, 2),
    "sym": Builtin(SYNTAX, 0, None),
    "anti": Builtin(SYNTAX, 0, None),
}

# One alternative per token kind, tried in order at each offset (the most
# frequent kinds first).  Names start with a letter; an underscore joins a
# name only before a letter or digit, so T_{a} still splits into a name and a
# block.  [^\W\d_] also takes digits such as '²' (in \w but not decimal),
# which tokenize refuses as a name start.  Numbers and generated labels take
# ASCII digits only.  ERROR takes any character left, so the matches cover
# the text without gaps.
#
# FACTOR is a whole tensor literal written compactly, T([a,b],[c],d): an ASCII
# name other than lambda, one or two lists of ASCII names or generated labels,
# then derivative labels, with nothing between the tokens.  Each of its names
# and labels is exactly the NAME or DUMMY token the text would give without
# it, so the primitive tokens of its text (``_PIECE``) are the ones it
# stands for.  Labels of more than 18 digits (the digit limit is at least
# 640) and every other spelling take the primitive tokens.  FACTOR is tried
# after PUNCT, which never starts a literal, and before NAME, which would
# take its name.  Only Parser.parse_atom takes a FACTOR token, as a whole
# literal; a text whose reading fails is read again from the primitive
# tokens (``_pieces``).
_NAME = r"[A-Za-z][A-Za-z0-9]*(?:_[A-Za-z0-9]+)*"
_LABEL = rf"(?:{_NAME}|%[1-9][0-9]{{0,17}})"
_LABELS = rf"\[(?:{_LABEL}(?:,{_LABEL})*)?\]"
_TOKEN = re.compile(
    rf"""(?P<PUNCT>[()\[\]{{}},;$:+\-*^='_]|/(?!\*))
    |(?P<FACTOR>(?!lambda\(){_NAME}\({_LABELS}(?:,{_LABELS})?(?:,{_LABEL})*\))
    |(?P<NAME>[^\W\d_][^\W_]*(?:_[^\W_]+)*)
    |(?P<NUMBER>[0-9]+)
    |(?P<SKIP>[ \t\r]+)
    |(?P<NEWLINE>\n)
    |(?P<COMMENT>/\*.*?\*/)
    |(?P<PCTTH>%th(?![^\W_]))
    |(?P<DUMMY>%[0-9]+)
    |(?P<PCT>%)
    |(?P<UNTERMINATED>/\*)
    |(?P<ERROR>.)""",
    re.VERBOSE | re.DOTALL,
)
# The primitive tokens of a FACTOR's text: names and labels, and punctuation.
_PIECE = re.compile(r"[\w%]+|.")

# int() refuses a longer digit run; 0 is no limit (as before Python 3.10.7)
_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)


class Token(NamedTuple):
    kind: str
    value: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    """The tokens of ``text``, ending with one ``EOF``.  ``col`` counts
    characters from 1 at the start of each line.  A ``FACTOR`` token's value
    is the literal's text."""
    tokens: list[Token] = []
    # tuple.__new__ builds a Token without the Python-level Token.__new__
    append, new = tokens.append, tuple.__new__
    line, line_start = 1, 0
    max_digits = _max_str_digits()
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "SKIP":
            continue
        value = m.group()
        col = m.start() - line_start + 1
        if kind == "PUNCT":
            kind = value
        elif kind == "NAME":
            if not value[0].isalpha():
                raise ParseError(f"unexpected character {value[0]!r}", line, col)
        elif kind == "NEWLINE" or kind == "COMMENT":
            if "\n" in value:
                line += value.count("\n")
                line_start = m.start() + value.rindex("\n") + 1
            continue
        elif kind == "NUMBER" or kind == "DUMMY":
            if value[0] == "%" and value[1] == "0":
                raise ParseError(f"invalid generated label {value!r}", line, col)
            if max_digits and len(value.lstrip("%")) > max_digits:
                raise ParseError(
                    f"digit run longer than {max_digits} digits", line, col
                )
        elif kind == "UNTERMINATED":
            raise ParseError("unterminated comment", line, col)
        elif kind == "ERROR":
            raise ParseError(f"unexpected character {value!r}", line, col)
        append(new(Token, (kind, value, line, col)))
    append(new(Token, ("EOF", "", line, len(text) - line_start + 1)))
    return tokens


# --- syntax tree -----------------------------------------------------------


# Wrap: inert covariant derivatives of ``body``, one per index in order,
# ``'covdiff(body, i)`` or ``(body)_{;i ...}``.  Sum, Product: operands
# combined left to right; ``ops[i]`` (``+``/``-``, ``*``/``/``) stands before
# ``operands[i + 1]``.
Num = NamedTuple("Num", [("value", int)])
VarRef = NamedTuple("VarRef", [("name", str)])
HistRef = NamedTuple("HistRef", [("n", int)])
ListNode = NamedTuple("ListNode", [("items", tuple)])
Call = NamedTuple("Call", [("fn", str), ("args", tuple)])
Wrap = NamedTuple("Wrap", [("body", object), ("indices", tuple)])
Unary = NamedTuple("Unary", [("op", str), ("operand", object)])
Bin = NamedTuple("Bin", [("op", str), ("left", object), ("right", object)])
Sum = NamedTuple("Sum", [("operands", tuple), ("ops", tuple)])
Product = NamedTuple("Product", [("operands", tuple), ("ops", tuple)])

# A node equals only a node of its own kind: Num(1) is not HistRef(1).
for _node in (Num, VarRef, HistRef, ListNode, Call, Wrap, Unary, Bin, Sum, Product):
    _node.__eq__ = lambda a, b: a.__class__ is b.__class__ and tuple.__eq__(a, b)
    _node.__ne__ = lambda a, b: not a == b
    _node.__hash__ = lambda a: hash((a.__class__.__name__, tuple.__hash__(a)))


class Statement(NamedTuple):
    """One statement; ``line`` and ``col`` locate its first token."""

    node: object
    echo: bool
    assign_name: str | None = None
    line: int = 0
    col: int = 0


class Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
        self.peak = 0  # deepest level an inert block reached in this body

    def enter(self, tok: Token) -> None:
        """Open one nesting level at ``tok``; the caller closes it by
        decrementing ``depth`` once the nested part is parsed."""
        if self.depth >= MAX_DEPTH:
            raise ParseError("expression nested too deeply", tok.line, tok.col)
        self.depth += 1

    def peek(self, offset: int = 0) -> Token:
        return self.tokens[self.pos + offset]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def at(self, kind: str, offset: int = 0) -> bool:
        return self.peek(offset).kind == kind

    def expect(self, kind: str) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind == kind:  # kind is never "EOF", so pos stays on the list
            self.pos += 1
            return tok
        if tok.kind == "EOF":
            raise ParseError(
                f"unexpected end of input, expected {kind!r}", tok.line, tok.col
            )
        raise ParseError(f"expected {kind!r}, found {tok.value!r}", tok.line, tok.col)

    # -- statements --

    def parse_program(self) -> list[Statement]:
        """The statements up to EOF.  From a statement that fails to parse,
        the tokens are read again with each literal token in pieces
        (``_pieces``); the statements before it are kept."""
        statements = []
        while not self.at("EOF"):
            start = self.pos
            try:
                statements.append(self.parse_statement())
            except ParseError:
                pieces = _pieces(self.tokens[start:])
                if pieces is None:
                    raise
                return statements + Parser(pieces).parse_program()
        return statements

    def parse_statement(self) -> Statement:
        first = self.peek()
        assign_name = None
        if self.at("NAME") and self.at(":", 1):
            assign_name = self.advance().value
            self.advance()
        node = self.parse_expr()
        tok = self.peek()
        if tok.kind == ";":
            self.advance()
            echo = True
        elif tok.kind == "$":
            self.advance()
            echo = False
        else:
            raise ParseError(
                "expected ';' or '$' to end the statement", tok.line, tok.col
            )
        return Statement(node, echo, assign_name, first.line, first.col)

    # -- expressions --

    def parse_expr(self):
        left = self.parse_sum()
        if self.at("="):
            self.advance()
            right = self.parse_sum()
            return Bin("=", left, right)
        return left

    def parse_sum(self):
        operands = [self.parse_product()]
        ops = []
        tokens = self.tokens
        while (op := tokens[self.pos].kind) == "+" or op == "-":
            self.pos += 1
            ops.append(op)
            operands.append(self.parse_product())
        return Sum(tuple(operands), tuple(ops)) if ops else operands[0]

    def parse_product(self):
        operands = [self.parse_unary()]
        ops = []
        tokens = self.tokens
        while (op := tokens[self.pos].kind) == "*" or op == "/":
            self.pos += 1
            ops.append(op)
            operands.append(self.parse_unary())
        return Product(tuple(operands), tuple(ops)) if ops else operands[0]

    def parse_unary(self):
        tok = self.tokens[self.pos]
        if tok.kind != "-" and tok.kind != "+":
            return self.parse_power()
        self.pos += 1
        self.enter(tok)
        node = self.parse_unary()
        self.depth -= 1
        return Unary("-", node) if tok.kind == "-" else node

    def parse_power(self):
        base = self.parse_atom()
        tok = self.tokens[self.pos]
        if tok.kind == "^" and self.tokens[self.pos + 1].kind != "{":
            self.pos += 1
            self.enter(tok)
            exponent = self.parse_unary()
            self.depth -= 1
            return Bin("^", base, exponent)
        return base

    def parse_index_label(self) -> str:
        tok = self.tokens[self.pos]
        if tok.kind == "NAME" or tok.kind == "DUMMY":
            self.pos += 1
            return tok.value
        raise ParseError(f"expected an index, found {tok.value!r}", tok.line, tok.col)

    def parse_atom(self):
        tok = self.tokens[self.pos]
        kind = tok.kind
        if kind == "FACTOR":
            self.pos += 1
            return _literal(tok.value)
        if kind == "NAME":
            self.pos += 1
            after = self.tokens[self.pos].kind
            if after == "(":
                return self.parse_call_or_factor(tok)
            if (after == "_" or after == "^") and self.tokens[self.pos + 1].kind == "{":
                return self.parse_printed_factor(tok.value)
            return VarRef(tok.value)
        if kind == "NUMBER":
            self.pos += 1
            return Num(int(tok.value))
        if kind == "'":
            self.advance()
            name = self.expect("NAME")
            if name.value != "covdiff":
                raise ParseError(
                    "the quote marks only the inert covariant derivative",
                    name.line,
                    name.col,
                )
            self.enter(self.expect("("))
            body = self.parse_expr()
            self.depth -= 1
            self.expect(",")
            index = self.parse_index_label()
            self.expect(")")
            return Wrap(body, (index,))
        if kind == "PCT":
            self.advance()
            return HistRef(1)
        if kind == "PCTTH":
            self.advance()
            self.expect("(")
            n = int(self.expect("NUMBER").value)
            self.expect(")")
            return HistRef(n)
        if kind == "(":
            self.advance()
            self.enter(tok)
            outer_peak, self.peak = self.peak, self.depth
            node = self.parse_expr()
            self.depth -= 1
            self.expect(")")
            if self.at("_") and self.at("{", 1):
                node = Wrap(node, tuple(self.parse_inert_block(self.peak)))
            self.peak = max(outer_peak, self.peak)
            return node
        if kind == "[":
            return self.parse_list()
        raise ParseError(f"unexpected token {tok.value!r}", tok.line, tok.col)

    def parse_list(self) -> ListNode:
        items = self.parse_arguments(self.expect("["), "]")
        return ListNode(tuple(items))

    def parse_arguments(self, opener: Token, closer: str) -> list:
        """Comma-separated expressions up to ``closer``, one level deeper
        than ``opener``."""
        self.enter(opener)
        items = []
        if not self.at(closer):
            items.append(self.parse_expr())
            while self.at(","):
                self.advance()
                items.append(self.parse_expr())
        self.depth -= 1
        self.expect(closer)
        return items

    def parse_bracket_labels(self) -> list[str]:
        self.expect("[")
        tokens = self.tokens
        labels = []
        if tokens[self.pos].kind != "]":
            labels.append(self.parse_index_label())
            while tokens[self.pos].kind == ",":
                self.pos += 1
                labels.append(self.parse_index_label())
        self.expect("]")
        return labels

    def parse_call_or_factor(self, name_tok: Token):
        opener = self.expect("(")
        # lambda takes a parameter list, everything else with a leading
        # bracket is an indexed object
        tokens = self.tokens
        if tokens[self.pos].kind == "[" and name_tok.value != "lambda":
            cov = self.parse_bracket_labels()
            contra: list[str] = []
            derivs: list[str] = []
            saw_contra = False
            while tokens[self.pos].kind == ",":
                self.pos += 1
                if tokens[self.pos].kind == "[":
                    if saw_contra or derivs:
                        tok = tokens[self.pos]
                        raise ParseError(
                            "unexpected second index list", tok.line, tok.col
                        )
                    contra = self.parse_bracket_labels()
                    saw_contra = True
                else:
                    derivs.append(self.parse_index_label())
            self.expect(")")
            return fac(name_tok.value, cov, contra, derivs)
        if name_tok.value not in BUILTINS:
            raise UnknownCommandError(
                f"unknown command {name_tok.value!r}", name_tok.line, name_tok.col
            )
        args = self.parse_arguments(opener, ")")
        return Call(name_tok.value, tuple(args))

    def parse_inert_block(self, base: int) -> list[str]:
        """The indices of ``_{;...}``, each one nesting level above ``base``."""
        self.expect("_")
        self.expect("{")
        self.expect(";")
        indices = []
        depth, self.depth = self.depth, base
        while not self.at("}"):
            self.enter(self.peek())
            indices.append(self.parse_index_label())
        self.peak, self.depth = max(self.peak, self.depth), depth
        self.expect("}")
        if not indices:
            tok = self.peek()
            raise ParseError("empty inert index block", tok.line, tok.col)
        return indices

    def parse_printed_factor(self, name: str):
        slots: list[tuple[str, bool]] = []
        derivs: list[str] = []
        inert: list[str] = []
        while (self.at("_") or self.at("^")) and self.at("{", 1):
            if inert:
                tok = self.peek()
                raise ParseError(
                    "index blocks cannot follow an inert block", tok.line, tok.col
                )
            if self.at("_") and self.at(";", 2):
                inert.extend(self.parse_inert_block(self.depth))
                continue
            marker = self.advance().kind
            self.expect("{")
            labels = []
            while self.at("NAME") or self.at("DUMMY"):
                labels.append(self.advance().value)
            if marker == "_":
                slots.extend((lbl, False) for lbl in labels)
                if self.at(","):
                    if derivs:
                        tok = self.peek()
                        raise ParseError(
                            "derivative indices appear twice", tok.line, tok.col
                        )
                    self.advance()
                    while self.at("NAME") or self.at("DUMMY"):
                        derivs.append(self.advance().value)
            else:
                slots.extend((lbl, True) for lbl in labels)
            self.expect("}")
        node = Factor(name, tuple(slots), tuple(derivs))
        if inert:
            return Wrap(node, tuple(inert))
        return node


def _literal(text: str) -> Factor:
    """The factor of a FACTOR token's text, ``T([a,b],[c],d,e)``."""
    name, _, rest = text.partition("(")
    lists, _, derivs = rest[:-1].rpartition("]")
    cov, _, contra = lists[1:].partition("],[")
    slots = tuple([(lbl, False) for lbl in cov.split(",")] if cov else ()) + (
        tuple([(lbl, True) for lbl in contra.split(",")] if contra else ()))
    return Factor(name, slots, tuple(derivs[1:].split(",")) if derivs else ())


def _tokens(text: str) -> list[Token]:
    tokens = tokenize(text)
    # Two spare EOFs: the parser never moves past the first, so reading up to
    # two tokens ahead of ``pos`` needs no bounds check.
    return tokens + tokens[-1:] * 2


def _pieces(tokens: list[Token]) -> list[Token] | None:
    """``tokens`` with every FACTOR token replaced by the primitive tokens of
    its text, or None if there is no FACTOR token.  A literal token is taken
    only where those give the same factor, so a reading that succeeds gives
    the token-by-token tree, and every error is the token-by-token
    reading's."""
    pieces = []
    for tok in tokens:
        if tok.kind != "FACTOR":
            pieces.append(tok)
            continue
        for m in _PIECE.finditer(tok.value):
            v = m.group()
            kind = "DUMMY" if v[0] == "%" else "NAME" if v[0].isalpha() else v
            pieces.append(Token(kind, v, tok.line, tok.col + m.start()))
    return pieces if len(pieces) > len(tokens) else None


def parse_program(text: str) -> list[Statement]:
    return Parser(_tokens(text)).parse_program()


def _whole_expression(parser: Parser):
    node = parser.parse_expr()
    tok = parser.peek()
    if tok.kind != "EOF":
        raise ParseError(f"trailing input {tok.value!r}", tok.line, tok.col)
    return node


def parse_expression(text: str):
    """Parse a single expression into its syntax tree, reading the whole
    text again token by token if that fails."""
    tokens = _tokens(text)
    try:
        return _whole_expression(Parser(tokens))
    except ParseError:
        pieces = _pieces(tokens)
        if pieces is None:
            raise
    return _whole_expression(Parser(pieces))
