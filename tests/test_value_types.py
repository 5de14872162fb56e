"""The value types: what importing the engine loads, how factors and inert
derivatives are told apart, and exact coefficients that stay ints while they
are whole, never become floats, and print alike whether int or Fraction."""

import io
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import indicial
from indicial import Session, cli, rules
from indicial.exprs import Expression, InertDeriv, Term, fac, scalar
from indicial.numeval import random_expression
from indicial.printing import render

from conftest import ev, make_rng

ROOT = Path(__file__).resolve().parents[1]


def assert_exact(expr: Expression) -> None:
    for t in expr.terms:
        assert type(t.coeff) in (int, Fraction), t
        assert type(t.coeff) is int or t.coeff.denominator != 1, t


def test_import_loads_neither_dataclasses_inspect_nor_numpy():
    src = str(Path(indicial.__file__).resolve().parents[1])
    code = ("import sys, indicial; print(sorted(m for m in "
            "('dataclasses', 'inspect', 'numpy') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=src)
    # -S: a site .pth file may import any of them before the engine does
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "[]\n"


def test_only_an_inert_derivative_has_an_index():
    f = fac("x", cov=("a",))
    assert not hasattr(f, "index") and not isinstance(f, tuple)
    assert InertDeriv((f,), "m").index == "m"


def test_golden_runs_hold_exact_coefficients():
    """Every value of the Maxwell script and every stage of the traced
    Euler-Lagrange run of the goldens."""
    evaluator = cli.Evaluator(Session(), out=io.StringIO())
    text = (ROOT / "scripts" / "maxwell.ind").read_text(encoding="utf-8")
    evaluator.execute(cli.parse_program(text))
    values = [v for v in evaluator.session.history if isinstance(v, Expression)]
    session = Session()
    session.set_metric("g")
    lagrangian = ev("1/2*g([],[a,b])*phi([],[],a)*phi([],[],b)", session)
    equation = indicial.euler_lagrange(session, lagrangian, fac("phi"), "n")
    values += [stage for _, stage in equation.trace]
    assert len(values) >= 10
    for value in values:
        assert_exact(value)
    assert any(type(t.coeff) is Fraction for v in values for t in v.terms)


def test_random_expressions_hold_exact_coefficients(sym_session):
    rng = make_rng(11)
    for _ in range(100):
        assert_exact(random_expression(sym_session, rng, free=(("u", False),)))


@pytest.mark.parametrize("text, coeff", [
    ("x([a],[])/3", Fraction(1, 3)),
    ("6*x([a],[])/3", 2),
    ("(1/3)*x([a],[])/(2/3)", Fraction(1, 2)),
    ("3/(1/2)*x([a],[])", 6),
])
def test_division_by_a_scalar_is_exact(session, text, coeff):
    (t,) = ev(text, session).terms
    assert t.coeff == coeff and type(t.coeff) is type(coeff)


@pytest.mark.parametrize("subject, ratio", [(3, Fraction(3, 2)), (4, 2),
                                            (Fraction(1, 3), Fraction(1, 6))])
def test_match_ratio_is_exact(subject, ratio):
    pattern = Term(2, (fac("w"),))
    ((found, _, _),) = rules._pattern_matches(
        Term(subject, (fac("w"),)), pattern, [((fac("w"),), 1)], frozenset())
    assert found == ratio and type(found) is type(ratio)


def test_int_and_fraction_coefficients_are_one_value(session):
    for coeff in (2, -1, 7):
        (t,) = ev(f"{coeff}*T([a,c],[])*y([],[c])*'covdiff(x([b],[]), d)",
                  session).terms
        as_int, as_fraction = Term(coeff, t.factors), Term(Fraction(coeff), t.factors)
        assert type(t.coeff) is int
        assert as_int == as_fraction and hash(as_int) == hash(as_fraction)
        assert repr(as_int) == repr(as_fraction)
        for fmt in ("plain", "latex", "json"):
            assert (render(Expression((as_int,)), fmt)
                    == render(Expression((as_fraction,)), fmt))
    assert scalar(Fraction(6, 3)).terms[0].coeff.__class__ is int
    assert scalar(0.5).terms[0].coeff == Fraction(1, 2)
