"""The regular-expression tokenizer against the character loop it replaced
(``tokenize_reference``): the same tokens, or the same parse error at the
same place, on scripts, generated sums and random strings.  A compactly
written tensor literal is one FACTOR token, which stands for the reference
tokens of its text, each at its own column."""

import random
import sys
from pathlib import Path

import pytest

from indicial.errors import ParseError
from indicial.parse import tokenize

import tokenize_reference as reference
from test_sums import random_sum

ROOT = Path(__file__).resolve().parent.parent

# Pieces of random strings: each character class the tokenizer tells apart,
# the digit-like characters that are not ASCII digits ('²' and '½' are
# numeric, 'Ⅻ' is a letter-like numeral, 'é' is a letter), and '@', which
# no token takes.
PIECES = (
    list("abxyzTFg") + ["_", "%", "th", "@", "/*", "*/"]
    + list("0123456789") + ["\u00b2", "\u00bd", "\u00e9", "\u216b"]
    + [" ", "\t", "\r", "\n"] + sorted(reference.PUNCT)
)


def outcome(tokenizer, text):
    """(kind, value, line, col) of every token, a FACTOR token expanded into
    the reference tokens of its text; or the parse error."""
    try:
        tokens = tokenizer(text)
    except ParseError as exc:
        return (str(exc), exc.line, exc.column)
    out = []
    for t in tokens:
        if t.kind == "FACTOR":
            out += [(p.kind, p.value, t.line, t.col + p.col - 1)
                    for p in reference.tokenize(t.value)[:-1]]
        else:
            out.append((t.kind, t.value, t.line, t.col))
    return out


def assert_same(text):
    assert outcome(tokenize, text) == outcome(reference.tokenize, text), text


def random_text(rng: random.Random) -> str:
    return "".join(rng.choice(PIECES) for _ in range(rng.randrange(25)))


def test_scripts_and_golden_lines_tokenize_alike():
    texts = [(ROOT / "scripts" / "maxwell.ind").read_text(encoding="utf-8")]
    for path in sorted((ROOT / "tests" / "golden").iterdir()):
        texts += path.read_text(encoding="utf-8").splitlines()
    for text in texts:
        assert_same(text)


@pytest.mark.parametrize("error_rate", [0.0, 0.3])
def test_generated_sums_tokenize_alike(error_rate):
    rng = random.Random(11)
    for n in (1, 5, 40):
        for _ in range(20):
            assert_same(random_sum(rng, n, 4, error_rate)[0])


def test_random_strings_tokenize_alike():
    rng = random.Random(2024)
    errors = 0
    for _ in range(12_000):
        text = random_text(rng)
        assert_same(text)
        errors += isinstance(outcome(reference.tokenize, text), tuple)
    # both sides of the comparison get exercised
    assert 2_000 < errors < 10_000


@pytest.mark.parametrize("prefix", ["", "%", "x:\n  %th("])
def test_digit_runs_up_to_the_integer_string_limit(prefix):
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("no integer-string limit in this interpreter")
    assert_same(prefix + "1" * limit)
    assert_same(prefix + "1" * (limit + 1))
    with pytest.raises(ParseError, match=f"longer than {limit} digits"):
        tokenize(prefix + "1" * (limit + 1))



def test_every_bmp_character_tokenizes_alike():
    """The regular expression's Unicode classes against str.isalpha and
    str.isalnum: each character alone, and inside a name after a letter and
    after an underscore."""
    for c in map(chr, range(0x10000)):
        assert_same(c)
        assert_same("a" + c + "_" + c)
