"""``contract`` against the loop it replaced (``contract_reference``), the
derivative of a constant that contraction leaves in an inert body."""

import io
import random

import pytest

from indicial import Session
from indicial.algebra import contract, decsym
from indicial.cli import run_script
from indicial.errors import ValidationError
from indicial.exprs import DIM_SYMBOL, Expression, InertDeriv, Term, fac, validate
from indicial.numeval import DEFAULT_POOL, random_expression

from conftest import make_rng
from contract_reference import contract as reference_contract

DRAWS = 2_500  # per dimension setting


def make_session(dimension):
    s = Session()
    s.set_metric("g")
    if dimension is not None:
        s.set_dimension(dimension)
    decsym(s, "T", 2, 0, [("anti", "all")], [])
    decsym(s, "S", 2, 0, [("sym", "all")], [])
    return s


def wrapped(rng: random.Random, t: Term) -> Term:
    """``t`` with some factors moved into an inert derivative, itself
    sometimes wrapped once more with more factors."""
    factors = list(t.factors)
    rng.shuffle(factors)
    k = rng.randint(1, len(factors))
    inner = InertDeriv(tuple(factors[:k]), "z")
    rest = factors[k:]
    if rest and rng.random() < 0.4:
        j = rng.randint(0, len(rest))
        inner = InertDeriv((inner,) + tuple(rest[:j]), "y")
        rest = rest[j:] + [fac("x", contra=("y",))]
    if rng.random() < 0.5:
        rest.append(fac("x", contra=("z",)))  # the derivative index is a dummy
    return Term(t.coeff, (inner,) + tuple(rest))


def leaves_constant_body(obj) -> bool:
    """Whether an inert derivative in ``obj`` differentiates no factor but
    the dimension."""
    if not isinstance(obj, (Term, InertDeriv)):
        return False
    if isinstance(obj, InertDeriv) and all(f == fac(DIM_SYMBOL) for f in obj.factors):
        return True
    return any(map(leaves_constant_body, obj.factors))


@pytest.mark.parametrize("dimension", [None, 4])
def test_contract_equals_the_reference_loop(dimension):
    s = make_session(dimension)
    rng = make_rng(80 + (dimension or 0))
    py_rng = random.Random(80)
    pool = DEFAULT_POOL + (("R", 4),)
    compared, constant_bodies, mismatches = 0, 0, []
    for i in range(DRAWS):
        free = [(), (("u", False),), (("u", False), ("v", True))][i % 3]
        e = random_expression(s, rng, free=free, max_factors=6, pool=pool)
        exprs = [e]
        try:
            exprs.append(Expression(tuple(
                validate(wrapped(py_rng, t)) for t in e.terms)))
        except ValidationError:
            pass
        for x in exprs:
            expected = reference_contract(s, x)
            if any(leaves_constant_body(t) for t in expected.terms):
                constant_bodies += 1
                continue
            compared += 1
            if contract(s, x) != expected:
                mismatches.append(x)
    assert mismatches == []
    assert compared > 1.5 * DRAWS
    assert 0 < constant_bodies < 0.05 * compared


def run(tmp_path, text):
    path = tmp_path / "s.ind"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    status = run_script(str(path), out=out, err=err)
    return status, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("setup, n", [("", 2), ("idim(4)$ ", 3)])
def test_a_contracted_inert_body_of_constants_is_zero(tmp_path, setup, n):
    """The traced delta left ``4*()_{;c}`` (not re-parseable) or
    ``dim_{;c}``: the covariant derivative of a constant."""
    status, out, err = run(
        tmp_path, f"imetric(g)$ {setup}contract('covdiff(kdelta([a],[a]),c));")
    assert (status, out, err) == (0, f"(%o{n}) 0\n", "")

