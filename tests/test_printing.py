"""Plain, LaTeX and JSON output against the renderers they replaced
(``printing_reference``), on seeded random expressions that reach every
layout rule: signs and coefficients, slot runs, derivative indices, and
nested and multi-factor inert bodies."""

import random
from fractions import Fraction

import pytest

from indicial import Session
from indicial.exprs import ZERO, Expression, Factor, InertDeriv, Term
from indicial.printing import render, render_latex, render_plain

from conftest import ev
from printing_reference import reference

NAMES = ("A", "g", "kdelta", "phi", "F", "R")
LABELS = ("a", "b", "k", "l", "m", "n", "i2", "%1", "%2", "%10")


def random_factor(rng: random.Random, depth: int = 0):
    """A factor, or an inert derivative whose body is one or more factors
    and inert derivatives."""
    if depth < 3 and rng.random() < 0.25:
        body = tuple(random_factor(rng, depth + 1)
                     for _ in range(rng.choice((1, 1, 2, 3))))
        return InertDeriv(body, rng.choice(LABELS))
    pattern = rng.choice(("", "0", "1", "01", "10", "0101", "1010", "0011",
                          "1100", "00", "11", "010", "101"))
    slots = tuple((rng.choice(LABELS), up == "1") for up in pattern)
    derivs = tuple(rng.choice(LABELS) for _ in range(rng.choice((0, 0, 1, 2))))
    return Factor(rng.choice(NAMES), slots, derivs)


def random_coeff(rng: random.Random):
    if rng.random() < 0.5:
        return rng.choice((1, 1, -1, -1, 0, 2, -3, 12))
    return Fraction(rng.randint(-9, 9), rng.randint(1, 7))


def random_expression(rng: random.Random) -> Expression:
    """Up to five terms of up to four factor-likes; a term may have no
    factors, and one expression in twenty is zero."""
    if rng.random() < 0.05:
        return ZERO
    return Expression(tuple(
        Term(random_coeff(rng),
             tuple(random_factor(rng) for _ in range(rng.randint(0, 4))))
        for _ in range(rng.randint(1, 5))
    ))


@pytest.mark.parametrize("fmt", ["plain", "latex", "json"])
def test_render_matches_the_reference(fmt):
    rng = random.Random(23)
    for _ in range(10_000):
        e = random_expression(rng)
        assert render(e, fmt) == reference(e, fmt), e


def test_multi_factor_inert_body():
    session = Session()
    e = ev("R([a,b,c,d],[])*'covdiff(x([e],[])*y([],[e]),f)", session)
    assert render_latex(e) == (
        r"R_{a\,b\,c\,d}\,\left(x_{e}\,y^{e}\right){}_{;f}"
    )
    assert render_plain(e) == "R_{a b c d}*(x_{e}*y^{e})_{;f}"
