import pytest

from indicial import add, scale
from indicial.algebra import canform, decsym
from indicial.calculus import extdiff
from indicial.errors import NonScalarLagrangianError
from indicial.exprs import fac, free_indices
from indicial.lagrangian import euler_lagrange
from indicial.rules import components, defrule, matchdeclare, remcomps

from conftest import ev


@pytest.fixture
def maxwell_setup(session):
    components(
        session,
        fac("F", cov=("m", "n")),
        extdiff(session, ev("A([m],[])", session), "n"),
    )
    lagrangian = ev(
        "-1/4*F([k,l],[])*F([a,b],[])*g([],[k,a])*g([],[l,b])"
        "+j([k],[])*A([l],[])*g([],[k,l])",
        session,
    )
    remcomps(session, "F")
    decsym(session, "F", 0, 2, [], [("anti", "all")])
    matchdeclare(session, ["a", "b"])
    defrule(
        session,
        "Maxwell",
        extdiff(session, ev("A([a],[])", session), "b"),
        ev("F([a,b],[])", session),
    )
    return session, lagrangian


def test_scalar_field_equation(session):
    lagrangian = ev("1/2*g([],[a,b])*phi([],[],a)*phi([],[],b)", session)
    eq = euler_lagrange(session, lagrangian, fac("phi"), "n")
    oracle = scale(ev("'covdiff(g([],[a,b])*phi([],[],b),a)", session), -1)
    assert eq.lhs == canform(session, oracle)


def test_maxwell_equation_shape(maxwell_setup):
    session, lagrangian = maxwell_setup
    eq = euler_lagrange(
        session, lagrangian, fac("A", cov=("m",)), "n", post_rules=["Maxwell"]
    )
    assert free_indices(eq.lhs) == frozenset({("m", True)})
    assert len(eq.lhs.terms) == 2
    names = {
        t.factors[0].name
        for t in eq.lhs.terms
        if hasattr(t.factors[0], "name")
    }
    assert "j" in names


def test_maxwell_gradient_branch_is_field_strength(maxwell_setup):
    session, lagrangian = maxwell_setup
    eq = euler_lagrange(
        session, lagrangian, fac("A", cov=("m",)), "n", post_rules=["Maxwell"]
    )
    stages = dict(eq.trace)
    assert stages["gradient_derivative_simplified"] == canform(
        session, ev("F([],[m,n])", session)
    )
    assert stages["field_derivative_simplified"] == canform(
        session, ev("j([],[m])", session)
    )


def test_trace_is_reproducible(maxwell_setup):
    session, lagrangian = maxwell_setup
    eq1 = euler_lagrange(
        session, lagrangian, fac("A", cov=("m",)), "n", post_rules=["Maxwell"]
    )
    eq2 = euler_lagrange(
        session, lagrangian, fac("A", cov=("m",)), "n", post_rules=["Maxwell"]
    )
    assert eq1 == eq2


def test_linearity_in_the_lagrangian(session):
    l1 = ev("1/2*g([],[a,b])*phi([],[],a)*phi([],[],b)", session)
    l2 = ev("g([],[a,b])*phi([],[],a)*psi([],[],b)", session)
    combined = euler_lagrange(session, add(l1, l2), fac("phi"), "n")
    separate = add(
        euler_lagrange(session, l1, fac("phi"), "n").lhs,
        euler_lagrange(session, l2, fac("phi"), "n").lhs,
    )
    assert combined.lhs == canform(session, separate)


def test_rejects_non_scalar_lagrangian(session):
    with pytest.raises(NonScalarLagrangianError):
        euler_lagrange(session, ev("x([a],[])", session), fac("phi"), "n")

