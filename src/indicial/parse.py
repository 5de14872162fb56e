"""Tokenizer and recursive-descent parser for the script language.

Statements end with ``;`` (echoed) or ``$`` (silent).  Indexed objects are
written functionally, ``T([a,b],[c,i],i2,i1)``, or in the printed form the
renderer emits, ``T_{a b,i2 i1}^{c i}``; both parse to the same node.  An
equation ``a = b`` stands for the difference of its sides.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .errors import ParseError, UnknownCommandError
from .exprs import MAX_DEPTH, Factor

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

PUNCT = set("()[]{},;$:+-*/^='_")
DIGITS = set("0123456789")  # str.isdigit() also accepts digits such as '²'


@dataclass(frozen=True, slots=True)
class Token:
    kind: str
    value: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("/*", i):
            end = text.find("*/", i + 2)
            if end < 0:
                raise ParseError("unterminated comment", line, col)
            skipped = text[i : end + 2]
            line += skipped.count("\n")
            if "\n" in skipped:
                col = len(skipped) - skipped.rfind("\n") + 1
            else:
                col += len(skipped)
            i = end + 2
            continue
        if c.isalpha():
            # An underscore joins a name only when followed by an
            # alphanumeric, so T_{a} still splits into a name and a block.
            j = i
            while j < n and (
                text[j].isalnum()
                or (text[j] == "_" and j + 1 < n and text[j + 1].isalnum())
            ):
                j += 1
            tokens.append(Token("NAME", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c in DIGITS:
            j = i
            while j < n and text[j] in DIGITS:
                j += 1
            tokens.append(Token("NUMBER", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c == "%":
            if text.startswith("%th", i) and not (
                i + 3 < n and text[i + 3].isalnum()
            ):
                tokens.append(Token("PCTTH", "%th", line, col))
                i += 3
                col += 3
                continue
            j = i + 1
            while j < n and text[j] in DIGITS:
                j += 1
            if j > i + 1:
                tokens.append(Token("DUMMY", text[i:j], line, col))
                col += j - i
                i = j
                continue
            tokens.append(Token("PCT", "%", line, col))
            i += 1
            col += 1
            continue
        if c in PUNCT:
            tokens.append(Token(c, c, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {c!r}", line, col)
    tokens.append(Token("EOF", "", line, col))
    return tokens


# --- syntax tree -----------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Num:
    value: Fraction


@dataclass(frozen=True, slots=True)
class VarRef:
    name: str


@dataclass(frozen=True, slots=True)
class HistRef:
    n: int


@dataclass(frozen=True, slots=True)
class ListNode:
    items: tuple


@dataclass(frozen=True, slots=True)
class Call:
    fn: str
    args: tuple


@dataclass(frozen=True, slots=True)
class Wrap:
    """Inert covariant derivatives of ``body``, one per index in order:
    ``'covdiff(body, i)`` or ``(body)_{;i ...}``."""

    body: object
    indices: tuple[str, ...]


@dataclass(frozen=True, slots=True)
class Unary:
    op: str
    operand: object


@dataclass(frozen=True, slots=True)
class Bin:
    op: str
    left: object
    right: object


@dataclass(frozen=True, slots=True)
class Sum:
    """Operands added left to right; ``ops[i]`` (``+`` or ``-``) stands
    before ``operands[i + 1]``."""

    operands: tuple
    ops: tuple[str, ...]


@dataclass(frozen=True, slots=True)
class Product:
    """Operands multiplied left to right; ``ops[i]`` (``*`` or ``/``) stands
    before ``operands[i + 1]``."""

    operands: tuple
    ops: tuple[str, ...]


@dataclass(frozen=True, slots=True)
class Statement:
    """One statement; ``line`` and ``col`` locate its first token."""

    node: object
    echo: bool
    assign_name: str | None = None
    line: int = 0
    col: int = 0


class Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
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
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def at(self, kind: str, offset: int = 0) -> bool:
        return self.peek(offset).kind == kind

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            if tok.kind == "EOF":
                raise ParseError(
                    f"unexpected end of input, expected {kind!r}", tok.line, tok.col
                )
            raise ParseError(
                f"expected {kind!r}, found {tok.value!r}", tok.line, tok.col
            )
        return self.advance()

    # -- statements --

    def parse_program(self) -> list[Statement]:
        statements = []
        while not self.at("EOF"):
            statements.append(self.parse_statement())
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
        while self.at("+") or self.at("-"):
            ops.append(self.advance().kind)
            operands.append(self.parse_product())
        return Sum(tuple(operands), tuple(ops)) if ops else operands[0]

    def parse_product(self):
        operands = [self.parse_unary()]
        ops = []
        while self.at("*") or self.at("/"):
            ops.append(self.advance().kind)
            operands.append(self.parse_unary())
        return Product(tuple(operands), tuple(ops)) if ops else operands[0]

    def parse_unary(self):
        tok = self.peek()
        if tok.kind not in ("-", "+"):
            return self.parse_power()
        self.advance()
        self.enter(tok)
        node = self.parse_unary()
        self.depth -= 1
        return Unary("-", node) if tok.kind == "-" else node

    def parse_power(self):
        base = self.parse_atom()
        tok = self.peek()
        if tok.kind == "^" and not self.at("{", 1):
            self.advance()
            self.enter(tok)
            exponent = self.parse_unary()
            self.depth -= 1
            return Bin("^", base, exponent)
        return base

    def parse_index_label(self) -> str:
        tok = self.peek()
        if tok.kind in ("NAME", "DUMMY"):
            return self.advance().value
        raise ParseError(f"expected an index, found {tok.value!r}", tok.line, tok.col)

    def parse_atom(self):
        tok = self.peek()
        if tok.kind == "NUMBER":
            self.advance()
            return Num(Fraction(int(tok.value)))
        if tok.kind == "'":
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
        if tok.kind == "NAME":
            self.advance()
            if self.at("("):
                return self.parse_call_or_factor(tok)
            if (self.at("_") or self.at("^")) and self.at("{", 1):
                return self.parse_printed_factor(tok.value)
            return VarRef(tok.value)
        if tok.kind == "PCT":
            self.advance()
            return HistRef(1)
        if tok.kind == "PCTTH":
            self.advance()
            self.expect("(")
            n = int(self.expect("NUMBER").value)
            self.expect(")")
            return HistRef(n)
        if tok.kind == "(":
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
        if tok.kind == "[":
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
        labels = []
        if not self.at("]"):
            labels.append(self.parse_index_label())
            while self.at(","):
                self.advance()
                labels.append(self.parse_index_label())
        self.expect("]")
        return labels

    def parse_call_or_factor(self, name_tok: Token):
        opener = self.expect("(")
        # lambda takes a parameter list, everything else with a leading
        # bracket is an indexed object
        if self.at("[") and name_tok.value != "lambda":
            cov = self.parse_bracket_labels()
            contra: list[str] = []
            derivs: list[str] = []
            saw_contra = False
            while self.at(","):
                self.advance()
                if self.at("["):
                    if saw_contra or derivs:
                        tok = self.peek()
                        raise ParseError(
                            "unexpected second index list", tok.line, tok.col
                        )
                    contra = self.parse_bracket_labels()
                    saw_contra = True
                else:
                    derivs.append(self.parse_index_label())
            self.expect(")")
            slots = tuple((lbl, False) for lbl in cov) + tuple(
                (lbl, True) for lbl in contra
            )
            return Factor(name_tok.value, slots, tuple(derivs))
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


def parse_program(text: str) -> list[Statement]:
    return Parser(text).parse_program()


def parse_expression(text: str):
    """Parse a single expression into its syntax tree."""
    parser = Parser(text)
    node = parser.parse_expr()
    tok = parser.peek()
    if tok.kind != "EOF":
        raise ParseError(f"trailing input {tok.value!r}", tok.line, tok.col)
    return node
