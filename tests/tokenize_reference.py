"""The character-by-character tokenizer that ``parse.tokenize`` replaced,
kept as the differential oracle for its regular expression.

It is the old loop verbatim apart from three fixes that the new tokenizer
makes as well, each marked ``FIX``: the column after a comment that spans
lines, digit runs longer than the interpreter's integer-string limit, and
generated labels with a leading zero.
"""

import sys
from dataclasses import dataclass

from indicial.errors import ParseError

PUNCT = set("()[]{},;$:+-*/^='_")
DIGITS = set("0123456789")  # str.isdigit() also accepts digits such as '²'


@dataclass(frozen=True, slots=True)
class Token:
    kind: str
    value: str
    line: int
    col: int


def _check_digits(count: int, line: int, col: int) -> None:
    # FIX: int() refuses a digit run longer than this limit with a ValueError
    # (Pythons before 3.10.7 have no such limit)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and count > limit:
        raise ParseError(f"digit run longer than {limit} digits", line, col)


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
                # FIX: was ``len(skipped) - skipped.rfind("\n") + 1``
                col = len(skipped) - skipped.rfind("\n")
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
            _check_digits(j - i, line, col)  # FIX
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
                # FIX: a generated label is % and a positive integer written
                # without leading zeros, so that one number has one label
                if text[i + 1] == "0":
                    raise ParseError(
                        f"invalid generated label {text[i:j]!r}", line, col
                    )
                _check_digits(j - i - 1, line, col)  # FIX
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
