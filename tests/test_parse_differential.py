"""The parser, which reads a compactly written tensor literal as one token,
against the parser before it (``parse_reference``): the same statements, or
the same error (class, message, line and column), on scripts, generated
sums, random strings and literals in every spelling."""

import random
import sys
from pathlib import Path

import pytest

from indicial import parse
from indicial.parse import parse_expression, parse_program, tokenize

import parse_reference as reference
from test_sums import random_sum
from test_tokenize import PIECES, assert_same as assert_same_tokens

ROOT = Path(__file__).resolve().parent.parent

# Pieces of random strings besides the tokenizer's: whole literals, the
# lambda and quote forms that look like them, and the parts of literals.
LITERAL_PIECES = [
    "T([a,b],[c],d)", "x([a],[])", "F([],[m,n])", "y([%1],[],%2)", "g([])",
    "lambda([x],[y])", "covdiff", "'", "'covdiff(", "(x)_{;", "T_{", "^{",
    "([", "],[", "[", "]", "(", ")", ",", ";", "$", "%1", "%0", ":", " ",
]

# Each literal below takes the general path, or puts a compact literal where
# the parser wants something else.
MISPLACED = [
    "'covdiff(x,T([a],[]));",
    "T_{a b([c],[])};",
    "(x)_{;T([a],[])};",
    "'covdiff([a],[]);",
    "'covdiff([a],b);",
    "'covdiff([%1],[],%2);",
    "'T([a],[]);",
    "T_{a,b([c],[])};",
    "T_{a}^{b([c],[])};",
    "x T([a],[]);",
    "(x T([a],[]));",
    "T([a], b([c],[]));",
    "T([a,b([c],[])],[]);",
    "T([a],[b],[c]);",
    "T([a],c,[b]);",
    "T([a],[],1);",
    "T([a],[]):x;",
    "T([a],[])^2;",
    "T([a],[])_{b};",
    "%th(T([a],[]));",
    "f(T([a],[]));",
    "canform(T([a],[]),);",
]
SPELLINGS = [
    "T([a, b],[c]);",
    "T( [a],[] );",
    "T([a]/* c */,[]);",
    "T([a],\n[b],\nc);",
    "Té([a],[]);",
    "T([é],[]);",
    "T([a],[],é);",
    "T([%0],[]);",
    "T([%01],[]);",
    "T([%1234567890123456789],[]);",
    "T([%123456789012345678],[],%9999999999999999999);",
    "lambda([x],[y]);",
    "lambda([x],x*y);",
    "map(lambda([x],T([a],[])*x),y);",
    "lambdax([a],[]);",
    "T_1([a_b],[c_2],d_e_f);",
    "T_([a],[]);",
    "T([a_],[]);",
    "T([_a],[]);",
    "T__b([a],[]);",
    "T([a],[])T([b],[]);",
    "T([],[]) + T([]) + T([],a) + T([],[],%3);",
    "T([a],[]",
    "T([a],[])",
    "T([a],[])\n",
    "x:T([a,b],[c])*S([],[a,b],c)$",
]


def outcome(parse, text):
    """The statements or tree, or the error as class, message and place."""
    try:
        return parse(text)
    except Exception as exc:
        return (type(exc), str(exc), getattr(exc, "line", None),
                getattr(exc, "column", None))


def assert_same(text):
    assert outcome(parse_program, text) == outcome(reference.parse_program, text), text
    assert (outcome(parse_expression, text)
            == outcome(reference.parse_expression, text)), text


def test_scripts_and_golden_lines_parse_alike():
    texts = [(ROOT / "scripts" / "maxwell.ind").read_text(encoding="utf-8")]
    for path in sorted((ROOT / "tests" / "golden").iterdir()):
        texts += path.read_text(encoding="utf-8").splitlines()
    for text in texts:
        assert_same(text)
    # the script, one literal after another, takes the one-token path
    assert any(tok.kind == "FACTOR" for tok in tokenize(texts[0]))


@pytest.mark.parametrize("error_rate", [0.0, 0.3])
def test_generated_sums_parse_alike(error_rate):
    rng = random.Random(23)
    for n in (1, 5, 40):
        for _ in range(20):
            text = random_sum(rng, n, 4, error_rate)[0]
            assert_same(text)
            assert_same(text + ";")


@pytest.mark.parametrize("text", MISPLACED + SPELLINGS)
def test_literals_parse_alike(text):
    assert_same_tokens(text)
    assert_same(text)


def test_labels_past_the_digit_limit_parse_alike():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    for digits in (18, 19, limit, limit + 1):
        label = "%" + "7" * max(digits, 1)
        assert_same_tokens(f"T([{label}],[],{label});")
        assert_same(f"T([a],[{label}]);")


@pytest.fixture
def readings(monkeypatch):
    """The number of tokens handed to each parser, one entry per reading."""
    handed = []
    init = parse.Parser.__init__

    def counting(self, tokens):
        handed.append(len(tokens))
        init(self, tokens)

    monkeypatch.setattr(parse.Parser, "__init__", counting)
    return handed


@pytest.mark.parametrize("quote", ["'", "' ", "'/**/"])
def test_quoted_literals_parse_in_linear_time(readings, quote):
    # After a quote, covdiff([a],b) parses only token by token.  Reading the
    # text with its literal tokens and then once more token by token hands
    # the parser 13 tokens per operand; reading it again for each literal
    # would hand it about 6.5*n*n.
    n = 3000
    text = "*".join([quote + "covdiff([a],b)"] * n) + ";"
    assert_same(text)
    readings.clear()
    parse_program(text)
    assert 0 < sum(readings) < 20 * n


def test_texts_that_parse_are_read_once(readings):
    # A text that parses with its literal tokens, or fails without any, is
    # read once: a FACTOR token the parser no longer took would still give
    # the right tree, from a second reading, only slower.
    texts = [(ROOT / "scripts" / "maxwell.ind").read_text(encoding="utf-8")]
    for path in sorted((ROOT / "tests" / "golden").iterdir()):
        texts += path.read_text(encoding="utf-8").splitlines()
    for text in texts:
        readings.clear()
        outcome(parse_program, text)
        assert len(readings) <= 1, text
    rng = random.Random(23)
    for n in (1, 5, 40):
        for _ in range(20):
            text = random_sum(rng, n, 4, 0.0)[0]
            readings.clear()
            parse_expression(text)
            parse_program(text + ";")
            assert len(readings) == 2, text


def test_a_failing_text_is_read_again_from_the_failing_statement(readings):
    # The statements before the one that fails keep their reading with
    # literal tokens: only the failing statement and the text after it are
    # read again token by token.
    n = 2000
    text = "x([k0],[])$\n" * n + "T_{a b([c],[])};\nw;"
    assert_same(text)
    readings.clear()
    assert outcome(parse_program, text)[1:] == (
        f"expected '}}', found '(' (line {n + 1}, column 7)", n + 1, 7)
    assert len(readings) == 2 and sum(readings) < 1.1 * readings[0]


def random_literal(rng: random.Random) -> str:
    """A tensor literal, now and then with a gap between its tokens or a
    label no compact literal takes."""
    def label():
        return rng.choice(["a", "b2", "x_y", "%1", "%27"] * 4 + ["%0", "é", "lambda"])

    def gap():
        return rng.choice([""] * 12 + [" ", "/**/", "\n"])

    def labels():
        return "[" + f"{gap()},".join(label() for _ in range(rng.randrange(3))) + "]"

    parts = [labels()] + [labels()] * rng.randrange(2)
    parts += [label() for _ in range(rng.randrange(3))]
    name = rng.choice(["T", "F_1"] * 3 + ["lambda", "covdiff", "Té"])
    return name + gap() + "(" + f",{gap()}".join(parts) + ")"


def test_random_literal_sums_parse_alike():
    rng = random.Random(24)
    literals = parsed = 0
    for _ in range(2_000):
        text = random_literal(rng)
        for _ in range(rng.randrange(4)):
            text += rng.choice(["*", " + ", "-", "^2*"]) + random_literal(rng)
        text += rng.choice([";", "$", ""])
        assert_same_tokens(text)
        assert_same(text)
        parsed += isinstance(outcome(reference.parse_program, text), list)
        try:
            literals += sum(tok.kind == "FACTOR" for tok in tokenize(text))
        except Exception:
            pass
    # both outcomes get exercised, and most literals are one token
    assert 200 < parsed < 1_800 and literals > 1_200


def test_random_strings_parse_alike():
    rng = random.Random(2025)
    pieces = PIECES + LITERAL_PIECES * 2
    errors = literals = 0
    for _ in range(6_000):
        text = "".join(rng.choice(pieces) for _ in range(rng.randrange(12)))
        assert_same(text)
        errors += isinstance(outcome(reference.parse_program, text), tuple)
        try:
            literals += any(tok.kind == "FACTOR" for tok in tokenize(text))
        except Exception:
            pass
    # both outcomes, and texts with compact literals, get exercised
    assert 1_000 < errors < 5_900 and literals > 1_000
